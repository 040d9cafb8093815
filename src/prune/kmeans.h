// Balanced K-Means over binary row masks — the row-grouping stage of the
// Shfl-BW search (Fig. 5 step (c)-(d)): "invoke the K-Means algorithm to
// cluster the rows in the binary mask into groups with a fixed size V".
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace shflbw {

struct KMeansOptions {
  int iterations = 10;  // >= 1; fewer throws shflbw::Error
  std::uint64_t seed = 42;  // centroid initialization
};

/// Result of balanced clustering: a permutation placing each group's V
/// rows contiguously (storage_to_original[s] = original row of storage
/// slot s), plus the final assignment cost.
struct RowGrouping {
  std::vector<int> storage_to_original;
  double total_distance = 0.0;  // sum of squared distances to centroids
};

/// Clusters the rows of `mask` (entries 0/1) into rows/V groups of
/// exactly V rows each, minimizing within-group pattern disagreement.
/// Balanced assignment: (row, centroid) pairs are greedily matched in
/// ascending distance order, closing centroids once full. The restarts
/// and distance passes run on the worker pool (common/thread_pool.h);
/// the result is bit-identical at any thread count.
RowGrouping BalancedKMeansRows(const Matrix<float>& mask, int v,
                               const KMeansOptions& opts = {});

}  // namespace shflbw
