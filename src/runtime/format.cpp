#include "runtime/format.h"

#include <chrono>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "format/convert.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_sputnik.h"
#include "kernels/spmm_vector_wise.h"
#include "prune/balanced24_prune.h"
#include "prune/block_wise.h"
#include "prune/importance.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace runtime {
namespace {

using Perm = std::vector<int>;

std::vector<int> KeptPerGroup(const VectorWiseMatrix& vw) {
  std::vector<int> kept(static_cast<std::size_t>(vw.Groups()));
  for (int g = 0; g < vw.Groups(); ++g) kept[g] = vw.KeptColumnsInGroup(g);
  return kept;
}

// Rows in Format order: kTable[static_cast<int>(f)] is f's row.
const FormatOps kTable[] = {
    {
        .name = "dense",
        .kernel_class = KernelClass::kDenseTensorCore,
        .mask = [](const Matrix<float>& s, double, int, Perm*) {
          return Matrix<float>(s.rows(), s.cols(), 1.0f);
        },
        // Kernels round operands through fp16 per call; rounding the
        // master once here keeps the execution path conversion-free.
        .pack = [](const Matrix<float>& w, int, const Perm&,
                   PackedWeight& p) { p.dense = RoundThroughFp16(w); },
        .to_dense = [](const PackedWeight& p) { return p.dense; },
        .gemm = [](const PackedWeight& p, const Matrix<float>& x,
                   const GpuSpec& spec) {
          return GemmTensorCore(p.dense, x, spec);
        },
        .conv = [](const PackedWeight& p, const ConvShape& shape,
                   const Tensor4& in, const GpuSpec& spec) {
          return Conv2dDense(in, p.dense, shape, spec);
        },
        .stats = [](const PackedWeight& p, int n, const GpuSpec& spec) {
          return GemmTensorCoreStats(p.dense.rows(), n, p.dense.cols(),
                                     spec);
        },
    },
    {
        .name = "csr",
        .kernel_class = KernelClass::kSputnik,
        .mask = [](const Matrix<float>& s, double density, int, Perm*) {
          return UnstructuredMask(s, density);
        },
        .pack = [](const Matrix<float>& w, int, const Perm&,
                   PackedWeight& p) { p.csr = CsrMatrix::FromDense(w); },
        .to_dense = [](const PackedWeight& p) { return p.csr.ToDense(); },
        .gemm = [](const PackedWeight& p, const Matrix<float>& x,
                   const GpuSpec& spec) { return SpmmSputnik(p.csr, x, spec); },
        .conv = nullptr,
        .stats = [](const PackedWeight& p, int n, const GpuSpec& spec) {
          return SpmmSputnikStats(p.csr.rows, n, p.csr.cols, p.csr.Nnz(),
                                  spec);
        },
    },
    {
        .name = "bsr",
        .kernel_class = KernelClass::kBsrTensorCore,
        .mask = [](const Matrix<float>& s, double density, int v, Perm*) {
          return BlockWiseMask(s, density, v);
        },
        .pack = [](const Matrix<float>& w, int v, const Perm&,
                   PackedWeight& p) { p.bsr = BsrMatrix::FromDense(w, v); },
        .to_dense = [](const PackedWeight& p) { return p.bsr.ToDense(); },
        .gemm = [](const PackedWeight& p, const Matrix<float>& x,
                   const GpuSpec& spec) { return SpmmBsr(p.bsr, x, spec); },
        .conv = nullptr,
        .stats = [](const PackedWeight& p, int n, const GpuSpec& spec) {
          return SpmmBsrStats(p.bsr.rows, n, p.bsr.cols, p.bsr.NnzBlocks(),
                              p.bsr.block_size, spec);
        },
    },
    {
        .name = "2:4",
        .kernel_class = KernelClass::kBalanced24,
        .mask = [](const Matrix<float>& s, double density, int, Perm*) {
          SHFLBW_CHECK_MSG(std::abs(density - 0.5) < 1e-9,
                           "balanced 2:4 is fixed at 50% density, got "
                               << density);
          return Balanced24Mask(s);
        },
        .pack = [](const Matrix<float>& w, int, const Perm&,
                   PackedWeight& p) {
          p.balanced24 = Balanced24Matrix::FromDense(w);
        },
        .to_dense = [](const PackedWeight& p) {
          return p.balanced24.ToDense();
        },
        .gemm = [](const PackedWeight& p, const Matrix<float>& x,
                   const GpuSpec& spec) {
          return SpmmBalanced24(p.balanced24, x, spec);
        },
        .conv = nullptr,
        .stats = [](const PackedWeight& p, int n, const GpuSpec& spec) {
          return SpmmBalanced24Stats(p.balanced24.rows, n, p.balanced24.cols,
                                     spec);
        },
    },
    {
        .name = "vw",
        .kernel_class = KernelClass::kVectorWiseTensorCore,
        .mask = [](const Matrix<float>& s, double density, int v, Perm*) {
          return VectorWiseMask(s, density, v);
        },
        .pack = [](const Matrix<float>& w, int v, const Perm&,
                   PackedWeight& p) {
          p.vw = VectorWiseMatrix::FromDense(w, v);
        },
        .to_dense = [](const PackedWeight& p) { return p.vw.ToDense(); },
        .gemm = [](const PackedWeight& p, const Matrix<float>& x,
                   const GpuSpec& spec) {
          return SpmmVectorWise(p.vw, x, spec);
        },
        // Implicit GEMM with the VW kernel: same engine as Shfl-BW minus
        // the row shuffle (the unfold is shared with Conv2dDense).
        .conv = [](const PackedWeight& p, const ConvShape& shape,
                   const Tensor4& in, const GpuSpec& spec) {
          return SpmmVectorWise(p.vw, Im2Col(in, shape), spec);
        },
        .stats = [](const PackedWeight& p, int n, const GpuSpec& spec) {
          return VwFamilyStats(p.vw.rows, n, p.vw.cols, KeptPerGroup(p.vw),
                               p.vw.v, spec, TileConfig{},
                               KernelClass::kVectorWiseTensorCore, 0.0);
        },
    },
    {
        .name = "shfl-bw",
        .kernel_class = KernelClass::kShflBwTensorCore,
        .mask = [](const Matrix<float>& s, double density, int v,
                   Perm* storage_to_original) {
          ShflBwSearchResult r = ShflBwSearch(s, density, v);
          if (storage_to_original) {
            *storage_to_original = std::move(r.storage_to_original);
          }
          return std::move(r.mask);
        },
        .pack = [](const Matrix<float>& w, int v, const Perm& perm,
                   PackedWeight& p) {
          p.shflbw = ShflBwMatrix::FromDense(w, v, perm);
        },
        .to_dense = [](const PackedWeight& p) { return p.shflbw.ToDense(); },
        .gemm = [](const PackedWeight& p, const Matrix<float>& x,
                   const GpuSpec& spec) {
          return SpmmShflBw(p.shflbw, x, spec);
        },
        .conv = [](const PackedWeight& p, const ConvShape& shape,
                   const Tensor4& in, const GpuSpec& spec) {
          return Conv2dShflBw(in, p.shflbw, shape, spec);
        },
        // The row-index array of the reordered write-back: 4 B per row.
        .stats = [](const PackedWeight& p, int n, const GpuSpec& spec) {
          const VectorWiseMatrix& vw = p.shflbw.vw;
          return VwFamilyStats(vw.rows, n, vw.cols, KeptPerGroup(vw), vw.v,
                               spec, TileConfig{},
                               KernelClass::kShflBwTensorCore, 4.0 * vw.rows);
        },
    },
};

static_assert(std::size(kTable) == static_cast<std::size_t>(Format::kShflBw) + 1,
              "one FormatOps row per Format");

}  // namespace

const std::vector<Format>& AllFormats() {
  static const std::vector<Format> kAll{
      Format::kDense,      Format::kCsr,        Format::kBsr,
      Format::kBalanced24, Format::kVectorWise, Format::kShflBw,
  };
  return kAll;
}

const FormatOps& GetFormatOps(Format f) {
  const auto i = static_cast<std::size_t>(f);
  SHFLBW_CHECK_MSG(i < std::size(kTable), "unknown Format " << i);
  return kTable[i];
}

std::string FormatName(Format f) { return GetFormatOps(f).name; }

Format ParseFormat(const std::string& name) {
  for (Format f : AllFormats()) {
    if (FormatName(f) == name) return f;
  }
  throw Error("unknown format name: " + name);
}

KernelClass FormatKernelClass(Format f) {
  return GetFormatOps(f).kernel_class;
}

PackedWeight PackWeight(Format format, const Matrix<float>& master,
                        double density, int v, Matrix<float>* mask) {
  const auto t0 = std::chrono::steady_clock::now();
  const FormatOps& ops = GetFormatOps(format);
  std::vector<int> perm;
  Matrix<float> m = ops.mask(MagnitudeScores(master), density, v, &perm);
  PackedWeight p;
  p.format = format;
  ops.pack(ApplyMask(master, m), v, perm, p);
  if (mask) *mask = std::move(m);
  const auto t1 = std::chrono::steady_clock::now();
  p.pack_seconds = std::chrono::duration<double>(t1 - t0).count();
  return p;
}

}  // namespace runtime
}  // namespace shflbw
