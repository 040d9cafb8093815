#include "core/sparse_conv2d.h"

#include "common/check.h"
#include "format/convert.h"
#include "kernels/kernel_registry.h"

namespace shflbw {

SparseConv2d::SparseConv2d(const Matrix<float>& filter_matrix,
                           const ConvShape& shape, const Options& options)
    : options_(options), shape_(shape) {
  SHFLBW_CHECK_MSG(filter_matrix.rows() == shape.out_c &&
                       filter_matrix.cols() == shape.GemmK(),
                   "filter matrix " << filter_matrix.rows() << "x"
                                    << filter_matrix.cols()
                                    << " does not match conv shape");
  SHFLBW_CHECK_MSG(runtime::GetFormatOps(options.format).conv != nullptr,
                   "SparseConv2d needs a format with a conv kernel "
                   "(dense, vw, shfl-bw); got "
                       << runtime::FormatName(options.format));
  packed_ = runtime::PackWeight(options.format, filter_matrix,
                                options.density, options.v, &mask_);
  pruned_weights_ = ApplyMask(filter_matrix, mask_);
}

Matrix<float> SparseConv2d::Forward(const Tensor4& input) const {
  return runtime::GetFormatOps(options_.format)
      .conv(packed_, shape_, input, GetGpuSpec(GpuArch::kV100))
      .c;
}

KernelStats SparseConv2d::Stats(const GpuSpec& spec) const {
  return ConvLayerStats(runtime::FormatKernelClass(options_.format), shape_,
                        options_.density, options_.v, spec)
      .value();
}

TimeBreakdown SparseConv2d::ModelTime(const GpuSpec& spec) const {
  return CostModel(spec).Estimate(Stats(spec));
}

double SparseConv2d::SpeedupOverDense(const GpuSpec& spec) const {
  const CostModel model(spec);
  const double dense_s = model.Seconds(Conv2dDenseStats(shape_, spec));
  return dense_s / ModelTime(spec).total_s;
}

}  // namespace shflbw
