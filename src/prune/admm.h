// ADMM-style pruning regularization (Zhang et al., ECCV'18 [21]) — the
// training method the paper uses for GNMT: alternating between training
// the dense weights with a quadratic pull toward the nearest
// pattern-feasible point and updating that projection.
//
// The projection operator is pluggable so the same loop serves every
// sparsity pattern in this library.
#pragma once

#include <functional>

#include "common/matrix.h"

namespace shflbw {

/// Projects weights onto a pattern-feasible set (e.g. PruneVectorWise
/// bound at a density). Must return a matrix of the same shape.
using PatternProjector =
    std::function<Matrix<float>(const Matrix<float>&)>;

struct AdmmOptions {
  double rho = 1e-2;  // augmented-Lagrangian penalty
  int iterations = 8;
};

/// One ADMM outer step given current (trained) weights W and the running
/// scaled dual U: Z = project(W + U); U += W - Z. Returns Z and updates u
/// in place. The trainer adds rho*(W - Z + U) to the weight gradient.
Matrix<float> AdmmProjectStep(const Matrix<float>& weights, Matrix<float>& u,
                              const PatternProjector& project);

/// Offline (no-trainer) ADMM: repeatedly pulls W toward its projection,
///   W <- (W + rho * Z) / (1 + rho),  Z = project(W + U),  U += W - Z,
/// then hard-projects. Models the weight-distribution reshaping ADMM
/// performs before the final prune. No bench, example or runtime path
/// calls it; only its own test does.
Matrix<float> AdmmRegularize(Matrix<float> weights,
                             const PatternProjector& project,
                             const AdmmOptions& opts = {});

}  // namespace shflbw
