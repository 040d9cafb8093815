#include "prune/kmeans.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace shflbw {
namespace {

TEST(KMeans, OutputIsBalancedPermutation) {
  Rng rng(163);
  const Matrix<float> mask = rng.SparseMatrix(32, 16, 0.5);
  const RowGrouping g = BalancedKMeansRows(mask, 8);
  ASSERT_EQ(g.storage_to_original.size(), 32u);
  std::set<int> seen(g.storage_to_original.begin(),
                     g.storage_to_original.end());
  EXPECT_EQ(seen.size(), 32u);  // a permutation: all distinct
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 31);
}

TEST(KMeans, RecoversPlantedClusters) {
  // Two planted patterns interleaved row-by-row: clustering must group
  // rows of the same pattern together.
  Matrix<float> mask(8, 8);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 4; ++c) {
      if (r % 2 == 0) mask(r, c) = 1;          // pattern A: cols 0-3
      else mask(r, c + 4) = 1;                 // pattern B: cols 4-7
    }
  }
  const RowGrouping g = BalancedKMeansRows(mask, 4);
  // Each group of 4 must be all-even or all-odd rows.
  for (int grp = 0; grp < 2; ++grp) {
    std::set<int> parities;
    for (int i = 0; i < 4; ++i) {
      parities.insert(g.storage_to_original[grp * 4 + i] % 2);
    }
    EXPECT_EQ(parities.size(), 1u) << "group " << grp << " mixes patterns";
  }
  EXPECT_NEAR(g.total_distance, 0.0, 1e-9);  // perfect clustering
}

TEST(KMeans, DeterministicWithSeed) {
  Rng rng(167);
  const Matrix<float> mask = rng.SparseMatrix(24, 12, 0.4);
  KMeansOptions opts;
  opts.seed = 5;
  const RowGrouping a = BalancedKMeansRows(mask, 6, opts);
  const RowGrouping b = BalancedKMeansRows(mask, 6, opts);
  EXPECT_EQ(a.storage_to_original, b.storage_to_original);
}

TEST(KMeans, SingleGroupDegenerates) {
  Rng rng(173);
  const Matrix<float> mask = rng.SparseMatrix(8, 8, 0.5);
  const RowGrouping g = BalancedKMeansRows(mask, 8);  // one cluster
  std::set<int> seen(g.storage_to_original.begin(),
                     g.storage_to_original.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(KMeans, GroupSizeMustDivideRows) {
  EXPECT_THROW(BalancedKMeansRows(Matrix<float>(10, 4), 3), Error);
}

// An empty mask used to reach std::uniform_int_distribution(0, -1),
// a precondition violation, while drawing the first seed.
TEST(KMeans, RejectsEmptyMask) {
  EXPECT_THROW(BalancedKMeansRows(Matrix<float>(0, 4), 4), Error);
}

// Regression: zero iterations used to return an empty "permutation"
// (no row ever assigned), which the Shfl-BW search then indexed out of
// bounds.
TEST(KMeans, RejectsFewerThanOneIteration) {
  Rng rng(179);
  const Matrix<float> mask = rng.SparseMatrix(16, 8, 0.5);
  for (int iterations : {0, -1}) {
    KMeansOptions opts;
    opts.iterations = iterations;
    EXPECT_THROW(BalancedKMeansRows(mask, 4, opts), Error) << iterations;
  }
  KMeansOptions one;
  one.iterations = 1;
  EXPECT_EQ(BalancedKMeansRows(mask, 4, one).storage_to_original.size(), 16u);
}

TEST(KMeans, MoreIterationsNeverWorseOnPlanted) {
  // With planted structure, 10 iterations reach zero distance; 1
  // iteration may not, but never goes below zero.
  Matrix<float> mask(16, 16);
  for (int r = 0; r < 16; ++r) {
    const int type = r % 4;
    for (int c = 0; c < 4; ++c) mask(r, type * 4 + c) = 1;
  }
  KMeansOptions many;
  many.iterations = 10;
  const RowGrouping g = BalancedKMeansRows(mask, 4, many);
  EXPECT_GE(g.total_distance, 0.0);
  EXPECT_NEAR(g.total_distance, 0.0, 1e-9);
}

}  // namespace
}  // namespace shflbw
