#include "core/sparse_linear.h"

#include "format/convert.h"
#include "kernels/gemm_dense.h"

namespace shflbw {

SparseLinear::SparseLinear(const Matrix<float>& weights,
                           const Options& options)
    : options_(options) {
  packed_ = runtime::PackWeight(options.format, weights, options.density,
                                options.v, &mask_);
  pruned_weights_ = ApplyMask(weights, mask_);
}

Matrix<float> SparseLinear::Forward(const Matrix<float>& x) const {
  // Functional execution is architecture-independent; any spec works for
  // the stats side of the kernel call.
  return runtime::GetFormatOps(options_.format)
      .gemm(packed_, x, GetGpuSpec(GpuArch::kV100))
      .c;
}

KernelStats SparseLinear::Stats(int n, const GpuSpec& spec) const {
  return runtime::GetFormatOps(options_.format).stats(packed_, n, spec);
}

TimeBreakdown SparseLinear::ModelTime(int n, const GpuSpec& spec) const {
  return CostModel(spec).Estimate(Stats(n, spec));
}

double SparseLinear::SpeedupOverDense(int n, const GpuSpec& spec) const {
  const CostModel model(spec);
  const double dense_s =
      model.Seconds(GemmTensorCoreStats(rows(), n, cols(), spec));
  const double sparse_s = ModelTime(n, spec).total_s;
  return dense_s / sparse_s;
}

double SparseLinear::AchievedDensity() const {
  return 1.0 - Sparsity(mask_);
}

}  // namespace shflbw
