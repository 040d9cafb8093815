// The Shfl-BW pattern search (§5, Fig. 5): a two-step heuristic that
// first decides the row shuffling, then applies vector-wise pruning to
// the shuffled matrix.
//
//   (a) importance scores = |W|
//   (b) unstructured prune at a *reduced* sparsity beta (beta = 2*alpha
//       found best in the paper) -> binary mask
//   (c) balanced K-Means clusters mask rows into groups of V
//   (d) permute rows so each group is contiguous
//   (e) vector-wise prune the permuted scores to the target alpha
//   (f) reverse the permutation -> final mask in original row order
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "format/shfl_bw.h"

namespace shflbw {

struct ShflBwSearchOptions {
  /// Mask-generation density multiplier: beta = min(1, ratio * alpha).
  double beta_ratio = 2.0;
  int kmeans_iterations = 10;  // >= 1 (KMeansOptions::iterations)
  std::uint64_t seed = 42;
};

struct ShflBwSearchResult {
  /// Binary mask in ORIGINAL row order satisfying the Shfl-BW pattern.
  Matrix<float> mask;
  /// The discovered permutation (storage row -> original row).
  std::vector<int> storage_to_original;
};

/// Runs the full Fig. 5 search on an importance-score matrix.
ShflBwSearchResult ShflBwSearch(const Matrix<float>& scores, double density,
                                int v, const ShflBwSearchOptions& opts = {});

/// Convenience: search on |weights|, apply the mask, and package the
/// result into the kernel-ready ShflBwMatrix format.
ShflBwMatrix PruneToShflBw(const Matrix<float>& weights, double density,
                           int v, const ShflBwSearchOptions& opts = {});

}  // namespace shflbw
