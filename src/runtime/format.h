// The format table: every per-format decision the library makes —
// name, cost class, pruning mask, packed representation, GEMM and conv
// execution, exact kernel stats — lives in one FormatOps row per
// Format (runtime/format.cpp). The planner, the engine, the weight
// cache, the quality evaluator and the src/core/ layer facades all
// dispatch through GetFormatOps, so a plan's retained ratio, the packed
// weight the engine runs and a SparseLinear's output come from the same
// mask function by construction. Adding a format is one row here plus
// its own src/format, src/prune and src/kernels files.
#pragma once

#include <string>
#include <vector>

#include "arch/gpu_spec.h"
#include "arch/kernel_stats.h"
#include "common/matrix.h"
#include "format/balanced24.h"
#include "format/bsr.h"
#include "format/csr.h"
#include "format/shfl_bw.h"
#include "format/vector_wise.h"
#include "kernels/conv2d.h"
#include "kernels/kernel_api.h"

namespace shflbw {
namespace runtime {

/// Selectable weight formats, in planner evaluation order.
enum class Format {
  kDense,       // fp16 dense weight, cuBLAS-style tensor-core GEMM
  kCsr,         // unstructured CSR, executed with the Sputnik schedule
  kBsr,         // V x V block-sparse, cuSPARSE bsrmm-style
  kBalanced24,  // 2:4 structured, A100 sparse tensor-core only
  kVectorWise,  // V x 1 vector-wise tensor-core SpMM
  kShflBw,      // the paper's shuffled vector-wise kernel
};

/// All selectable formats, in evaluation order.
const std::vector<Format>& AllFormats();

/// A weight converted and pruned for one format. Only the member
/// matching `format` is populated (dense holds the fp16-rounded masked
/// master for Format::kDense).
struct PackedWeight {
  Format format = Format::kDense;
  Matrix<float> dense;
  CsrMatrix csr;
  BsrMatrix bsr;
  Balanced24Matrix balanced24;
  VectorWiseMatrix vw;
  ShflBwMatrix shflbw;
  double pack_seconds = 0;  // wall-clock spent pruning + converting
};

/// One row of the format table.
struct FormatOps {
  /// Short stable name ("dense", "csr", "bsr", "2:4", "vw", "shfl-bw").
  const char* name;
  /// The kernel class whose stats model / efficiency calibration times
  /// this format. CSR maps to Sputnik — the stronger of the two
  /// unstructured baselines — and both CSR kernels share one functional
  /// core anyway (RunCsrRowParallel).
  KernelClass kernel_class;
  /// Binary mask (1 = kept, original row order) chosen from magnitude
  /// `scores` at (density, v). Shfl-BW also writes the row permutation
  /// it found to *storage_to_original when that is non-null. Throws
  /// shflbw::Error where the shape or density is infeasible.
  Matrix<float> (*mask)(const Matrix<float>& scores, double density, int v,
                        std::vector<int>* storage_to_original);
  /// Converts already-masked weights into this format's member of `out`.
  void (*pack)(const Matrix<float>& masked, int v,
               const std::vector<int>& storage_to_original, PackedWeight& out);
  /// Expands the packed member back to a dense matrix, original row order.
  Matrix<float> (*to_dense)(const PackedWeight& w);
  /// y = W * act on this format's kernel.
  KernelResult (*gemm)(const PackedWeight& w, const Matrix<float>& act,
                       const GpuSpec& spec);
  /// Implicit-GEMM convolution; nullptr where the format has no conv
  /// kernel ("the baselines all lack implementation for convolution",
  /// §6.2).
  KernelResult (*conv)(const PackedWeight& w, const ConvShape& shape,
                       const Tensor4& input, const GpuSpec& spec);
  /// Exact kernel stats of the packed weight for a batch of n columns.
  KernelStats (*stats)(const PackedWeight& w, int n, const GpuSpec& spec);
};

/// The row of `f`.
const FormatOps& GetFormatOps(Format f);

/// GetFormatOps(f).name.
std::string FormatName(Format f);

/// Inverse of FormatName; throws shflbw::Error on unknown names.
Format ParseFormat(const std::string& name);

/// GetFormatOps(f).kernel_class.
KernelClass FormatKernelClass(Format f);

/// Masks `master` by magnitude with `format`'s row at (density, v) and
/// packs the masked weight. Deterministic (the Shfl-BW search seed is
/// fixed). `mask`, when non-null, receives the mask applied.
PackedWeight PackWeight(Format format, const Matrix<float>& master,
                        double density, int v, Matrix<float>* mask = nullptr);

}  // namespace runtime
}  // namespace shflbw
