// SparseConv2d — the paper's sparse convolution layer (implicit GEMM,
// §4.1), plus a dense cuDNN-style baseline mode. Like SparseLinear, a
// thin holder of one runtime::PackedWeight that prunes, packs and
// executes through the format table.
#pragma once

#include "arch/cost_model.h"
#include "kernels/conv2d.h"
#include "runtime/format.h"

namespace shflbw {

/// A 2D convolution whose filters are pruned to a format with a conv
/// kernel (dense, vector-wise or Shfl-BW — the formats whose FormatOps
/// row has a conv entry). Filter weights live in implicit-GEMM layout:
/// out_c x (in_c*kh*kw).
class SparseConv2d {
 public:
  struct Options {
    runtime::Format format = runtime::Format::kShflBw;
    double density = 0.25;
    int v = 32;
  };

  /// Throws shflbw::Error for a format without a conv kernel or a
  /// filter matrix that does not match `shape`.
  SparseConv2d(const Matrix<float>& filter_matrix, const ConvShape& shape,
               const Options& options);

  /// Runs the convolution; output is out_c x (batch*oh*ow).
  Matrix<float> Forward(const Tensor4& input) const;

  KernelStats Stats(const GpuSpec& spec) const;
  TimeBreakdown ModelTime(const GpuSpec& spec) const;
  double SpeedupOverDense(const GpuSpec& spec) const;

  /// Dense masked filters, original order, unrounded.
  const Matrix<float>& pruned_weights() const { return pruned_weights_; }
  const Matrix<float>& mask() const { return mask_; }
  const ConvShape& shape() const { return shape_; }

 private:
  Options options_;
  ConvShape shape_;
  Matrix<float> mask_;
  runtime::PackedWeight packed_;
  Matrix<float> pruned_weights_;
};

}  // namespace shflbw
