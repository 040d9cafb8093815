// Golden output of the balanced k-means row-shuffle search. The
// permutation and the exact bits of total_distance were recorded from
// the reference (scalar, serial) implementation; any reordering of the
// distance sums, the seeding or the restart selection that changes a
// single bit surfaces here. Every case runs at 1, 2 and 4 pool threads,
// so a parallel split of the search must reproduce the serial bits.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "model/weight_synth.h"
#include "prune/importance.h"
#include "prune/kmeans.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"

namespace shflbw {
namespace {

/// FNV-1a over the little-endian bytes of each 32-bit entry.
std::uint64_t Fnv1a(const std::vector<int>& perm) {
  std::uint64_t h = 14695981039346656037ull;
  for (int x : perm) {
    const auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Binary mask the Shfl-BW search clusters: the unstructured mask of a
/// synthesized m x k master's magnitudes at kept density beta.
Matrix<float> MasterMask(int m, int k, std::uint64_t seed, double beta) {
  SynthWeightOptions opt;
  opt.seed = seed;
  return UnstructuredMask(MagnitudeScores(SynthesizeWeights(m, k, opt)), beta);
}

struct GoldenCase {
  std::string name;
  const Matrix<float>* mask;
  int v;
  int iterations;
  std::uint64_t perm_fnv1a;
  std::uint64_t distance_bits;
};

std::vector<GoldenCase> Cases() {
  // 1024 x 512 is the GNMT 256/128 LSTM gate shape; 256 x 512 is its
  // attn.proj. beta 0.75 is the search's mask at density 0.375.
  static const Matrix<float> gates50 = MasterMask(1024, 512, 1234, 0.5);
  static const Matrix<float> gates75 = MasterMask(1024, 512, 1234, 0.75);
  static const Matrix<float> attn_proj = MasterMask(256, 512, 1235, 0.75);
  // Non-binary input: N(0,1) entries kept with probability 0.4.
  static const Matrix<float> nonbinary =
      Rng(20261017).SparseMatrix(96, 40, 0.4);
  return {
      {"gates_b050_v32", &gates50, 32, 10,  //
       0x03e6b65bc9bc0599ull, 0x40f33f8500000000ull},
      {"gates_b075_v32", &gates75, 32, 10,  //
       0x44165edc26e88e5dull, 0x40f3524b00000000ull},
      {"gates_b050_v8", &gates50, 8, 10,  //
       0xa47423bbfe3546fdull, 0x40f0a7a400000000ull},
      {"gates_b075_v8", &gates75, 8, 10,  //
       0x6c1fbcbbd4973e51ull, 0x40f0f11800000000ull},
      {"gates_b075_v32_it1", &gates75, 32, 1,  //
       0xed695eb8946ef635ull, 0x4107c3c000000000ull},
      {"attn_proj_b075_v32", &attn_proj, 32, 10,  //
       0xc7f454dd96fbc6b5ull, 0x40d52c9c00000000ull},
      {"nonbinary_v6", &nonbinary, 6, 10,  //
       0x3ab1bc3fab7f1465ull, 0x4091935a2d46ca4dull},
      {"nonbinary_v6_it1", &nonbinary, 6, 1,  //
       0x791bee17ae2944f5ull, 0x40a32f74be6c604dull},
  };
}

class KMeansGolden : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { SetParallelThreads(0); }
};

TEST_P(KMeansGolden, PermutationAndDistanceBitsMatch) {
  SetParallelThreads(GetParam());
  for (const GoldenCase& c : Cases()) {
    KMeansOptions opts;
    opts.iterations = c.iterations;
    const RowGrouping g = BalancedKMeansRows(*c.mask, c.v, opts);
    EXPECT_EQ(Fnv1a(g.storage_to_original), c.perm_fnv1a) << c.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.total_distance),
              c.distance_bits)
        << c.name << " total_distance " << g.total_distance;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KMeansGolden, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace shflbw
