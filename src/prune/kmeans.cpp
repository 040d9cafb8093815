#include "prune/kmeans.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace shflbw {
namespace {

// Restarts guard against unlucky seedings; keep the lowest-cost run.
constexpr int kRestarts = 3;
// Register tile of the distance passes: kLanes independent sums (one
// per cluster, or one per row while seeding) advance together, each
// adding its squared terms in ascending column order — the order of a
// scalar per-pair loop, so every sum keeps that loop's bits.
constexpr int kLanes = 16;
// Rows per ParallelFor work item of a distance pass.
constexpr int kRowBlock = 64;

int RoundUp(int n, int to) { return (n + to - 1) / to * to; }

/// True when every entry is exactly 0 or 1 — the unstructured masks
/// the Shfl-BW search clusters. Each squared term is then one of two
/// values per (column, cluster), computed once per iteration.
bool IsBinary(const Matrix<float>& mask) {
  for (float x : mask.storage()) {
    if (x != 0.0f && x != 1.0f) return false;
  }
  return true;
}

// The tiles below stay out of line: inlined into the ParallelFor
// bodies, GCC 12 no longer turns their lane loops into packed adds.

/// out[l] = sum over c < k of (x[c] - lanes[c * stride + l])^2, added
/// in ascending c. (a - b)^2 and (b - a)^2 round to the same double, so
/// this serves rows-to-centroids (lanes = clusters) and seeding
/// (lanes = rows) alike.
template <typename T>
[[gnu::noinline]] void SquaredTile(const float* x, int k, const T* lanes,
                                   std::size_t stride, double* out) {
  double acc[kLanes] = {};
  for (int c = 0; c < k; ++c) {
    const T* y = lanes + static_cast<std::size_t>(c) * stride;
    const double xc = x[c];
    for (int l = 0; l < kLanes; ++l) {
      const double diff = xc - static_cast<double>(y[l]);
      acc[l] += diff * diff;
    }
  }
  std::copy(acc, acc + kLanes, out);
}

/// The binary-row form: terms[(2c + x[c]) * stride + l] already holds
/// (x[c] - centroid_l[c])^2, so each column costs one add per lane.
[[gnu::noinline]] void BinaryTile(const float* x, int k,
                                  const double* terms, std::size_t stride,
                                  double* out) {
  double acc[kLanes] = {};
  for (int c = 0; c < k; ++c) {
    const double* t =
        terms + (2 * static_cast<std::size_t>(c) + (x[c] != 0.0f)) * stride;
    for (int l = 0; l < kLanes; ++l) acc[l] += t[l];
  }
  std::copy(acc, acc + kLanes, out);
}

struct Pair {
  double dist;
  int row;
  int cluster;
};

/// Sorts pairs into ascending (dist, row, cluster) order, given them in
/// (row, cluster) order. Distances are non-negative, so their bit
/// patterns order like their values: a stable LSD radix sort on those
/// bits keeps equal distances in (row, cluster) order. Digits on which
/// every key agrees are skipped.
void SortPairs(std::vector<Pair>& pairs, std::vector<Pair>& buffer) {
  constexpr int kDigitBits = 8;
  constexpr int kBuckets = 1 << kDigitBits;
  constexpr int kDigits = 64 / kDigitBits;
  const auto digit = [](const Pair& p, int d) {
    return (std::bit_cast<std::uint64_t>(p.dist) >> (d * kDigitBits)) &
           (kBuckets - 1);
  };
  std::vector<std::size_t> counts(kDigits * kBuckets, 0);
  for (const Pair& p : pairs) {
    for (int d = 0; d < kDigits; ++d) ++counts[d * kBuckets + digit(p, d)];
  }
  buffer.resize(pairs.size());
  for (int d = 0; d < kDigits; ++d) {
    std::size_t* count = &counts[d * kBuckets];
    if (*std::max_element(count, count + kBuckets) == pairs.size()) continue;
    std::size_t start = 0;
    for (int b = 0; b < kBuckets; ++b) start += std::exchange(count[b], start);
    for (const Pair& p : pairs) buffer[count[digit(p, d)]++] = p;
    pairs.swap(buffer);
  }
}

/// One restart's state. The restarts advance in lockstep, so each
/// distance pass spreads (restart x row block) items over the pool.
struct Restart {
  std::vector<int> seeds;
  std::vector<double> min_dist;   // seeding: distance to the nearest seed
  std::vector<double> centroids;  // [cluster][column]
  // Centroid terms per column, `padded` clusters wide: binary input
  // stores [column][bit][cluster] = (bit - centroid)^2, other input
  // [column][cluster] = centroid.
  std::vector<double> terms;
  std::vector<Pair> pairs;  // [row][cluster] after a distance pass
  std::vector<Pair> sort_buffer;
  std::vector<int> assignment;
  double total_distance = 0.0;
};

class Search {
 public:
  Search(const Matrix<float>& mask, int v)
      : mask_(mask),
        m_(mask.rows()),
        k_(mask.cols()),
        v_(v),
        clusters_(m_ / v),
        padded_(RoundUp(clusters_, kLanes)),
        row_blocks_((m_ + kRowBlock - 1) / kRowBlock),
        binary_(IsBinary(mask)) {}

  /// Runs restart i from first seed first_seeds[i].
  std::vector<Restart> Run(const std::array<int, kRestarts>& first_seeds,
                           int iterations) const {
    std::vector<Restart> runs(kRestarts);
    Seed(runs, first_seeds);
    for (Restart& run : runs) {
      run.centroids.resize(static_cast<std::size_t>(clusters_) * k_);
      for (int cl = 0; cl < clusters_; ++cl) {
        const float* row = mask_.row(run.seeds[cl]);
        std::copy(row, row + k_,
                  &run.centroids[static_cast<std::size_t>(cl) * k_]);
      }
      run.pairs.resize(static_cast<std::size_t>(m_) * clusters_);
      run.assignment.resize(static_cast<std::size_t>(m_));
    }
    for (int iter = 0; iter < iterations; ++iter) {
      for (Restart& run : runs) PrepareTerms(run);
      ForEachRowBlock(runs, [&](Restart& run, int r_begin, int r_end) {
        Distances(run, r_begin, r_end);
      });
      ParallelFor(0, kRestarts, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) AssignAndUpdate(runs[i]);
      });
    }
    return runs;
  }

 private:
  /// fn(run, r_begin, r_end) over every (restart, row block) on the pool.
  template <typename Fn>
  void ForEachRowBlock(std::vector<Restart>& runs, const Fn& fn) const {
    ParallelFor(0, static_cast<std::int64_t>(kRestarts) * row_blocks_, 1,
                [&](std::int64_t lo, std::int64_t hi) {
                  for (std::int64_t i = lo; i < hi; ++i) {
                    const int block = static_cast<int>(i % row_blocks_);
                    fn(runs[i / row_blocks_], block * kRowBlock,
                       std::min(m_, (block + 1) * kRowBlock));
                  }
                });
  }

  /// k-means++ style seeding: first seed random, each further seed is
  /// the row farthest (in min-distance) from the chosen set. Spread-out
  /// seeds matter here: two seeds landing in the same row-pattern
  /// cluster force the balanced assignment to split that cluster, which
  /// plain random sampling does frequently.
  void Seed(std::vector<Restart>& runs,
            const std::array<int, kRestarts>& first_seeds) const {
    // Column-major copy, rows padded to whole lanes: a column's entries
    // for kLanes consecutive rows are contiguous.
    const int rows_padded = RoundUp(m_, kLanes);
    std::vector<float> by_column(static_cast<std::size_t>(k_) * rows_padded);
    for (int r = 0; r < m_; ++r) {
      for (int c = 0; c < k_; ++c) {
        by_column[static_cast<std::size_t>(c) * rows_padded + r] = mask_(r, c);
      }
    }
    for (int i = 0; i < kRestarts; ++i) {
      runs[i].seeds.assign(1, first_seeds[i]);
      runs[i].min_dist.assign(static_cast<std::size_t>(m_),
                              std::numeric_limits<double>::infinity());
    }
    for (int s = 1; s < clusters_; ++s) {
      ForEachRowBlock(runs, [&](Restart& run, int r_begin, int r_end) {
        const float* last = mask_.row(run.seeds.back());
        double dist[kLanes];
        for (int r0 = r_begin; r0 < r_end; r0 += kLanes) {
          SquaredTile(last, k_, &by_column[r0],
                      static_cast<std::size_t>(rows_padded), dist);
          for (int l = 0; l < kLanes && r0 + l < r_end; ++l) {
            run.min_dist[r0 + l] = std::min(run.min_dist[r0 + l], dist[l]);
          }
        }
      });
      for (Restart& run : runs) {
        int best = 0;
        for (int r = 1; r < m_; ++r) {
          if (run.min_dist[r] > run.min_dist[best]) best = r;
        }
        run.seeds.push_back(best);
        run.min_dist[best] = -1.0;  // never re-picked
      }
    }
  }

  void PrepareTerms(Restart& run) const {
    const std::size_t column = (binary_ ? 2 : 1) * padded_;
    run.terms.assign(k_ * column, 0.0);
    for (int cl = 0; cl < clusters_; ++cl) {
      const double* cen = &run.centroids[static_cast<std::size_t>(cl) * k_];
      for (int c = 0; c < k_; ++c) {
        double* t = &run.terms[c * column + cl];
        if (binary_) {
          const double d0 = 0.0 - cen[c];
          const double d1 = 1.0 - cen[c];
          t[0] = d0 * d0;
          t[padded_] = d1 * d1;
        } else {
          t[0] = cen[c];
        }
      }
    }
  }

  /// Squared distances of rows [r_begin, r_end) to every centroid, as
  /// (row, cluster) pairs.
  void Distances(Restart& run, int r_begin, int r_end) const {
    double dist[kLanes];
    for (int r = r_begin; r < r_end; ++r) {
      const float* x = mask_.row(r);
      Pair* out = &run.pairs[static_cast<std::size_t>(r) * clusters_];
      for (int c0 = 0; c0 < clusters_; c0 += kLanes) {
        if (binary_) {
          BinaryTile(x, k_, &run.terms[c0], padded_, dist);
        } else {
          SquaredTile(x, k_, &run.terms[c0], padded_, dist);
        }
        for (int l = 0; l < kLanes && c0 + l < clusters_; ++l) {
          out[c0 + l] = {dist[l], r, c0 + l};
        }
      }
    }
  }

  /// Balanced assignment — every (row, cluster) pair matched greedily
  /// in ascending distance order with per-cluster capacity V — then the
  /// centroid update: the mean of each cluster's rows.
  void AssignAndUpdate(Restart& run) const {
    SortPairs(run.pairs, run.sort_buffer);
    std::vector<int>& assignment = run.assignment;
    std::fill(assignment.begin(), assignment.end(), -1);
    std::vector<int> load(static_cast<std::size_t>(clusters_), 0);
    int assigned = 0;
    run.total_distance = 0.0;
    for (const Pair& p : run.pairs) {
      if (assigned == m_) break;
      if (assignment[p.row] != -1 || load[p.cluster] == v_) continue;
      assignment[p.row] = p.cluster;
      ++load[p.cluster];
      ++assigned;
      run.total_distance += p.dist;
    }
    SHFLBW_CHECK(assigned == m_);

    std::fill(run.centroids.begin(), run.centroids.end(), 0.0);
    for (int r = 0; r < m_; ++r) {
      double* cen = &run.centroids[static_cast<std::size_t>(assignment[r]) *
                                   k_];
      const float* row = mask_.row(r);
      for (int c = 0; c < k_; ++c) cen[c] += row[c];
    }
    for (double& x : run.centroids) x /= v_;
  }

  const Matrix<float>& mask_;
  const int m_;
  const int k_;
  const int v_;
  const int clusters_;
  const int padded_;  // clusters rounded up to whole lanes
  const int row_blocks_;
  const bool binary_;
};

}  // namespace

RowGrouping BalancedKMeansRows(const Matrix<float>& mask, int v,
                               const KMeansOptions& opts) {
  SHFLBW_CHECK_MSG(v > 0 && mask.rows() % v == 0,
                   "rows=" << mask.rows() << " not divisible by V=" << v);
  SHFLBW_CHECK_MSG(mask.rows() > 0, "k-means needs at least one row");
  SHFLBW_CHECK_MSG(opts.iterations >= 1,
                   "k-means needs at least one iteration, got "
                       << opts.iterations);
  const int m = mask.rows();
  const int clusters = m / v;

  // A restart's only draw from the generator is its first seed, so
  // drawing them up front in restart order gives the seeds of running
  // the restarts one after another.
  std::mt19937_64 gen(opts.seed);
  std::array<int, kRestarts> first_seeds{};
  for (int& s : first_seeds) {
    s = std::uniform_int_distribution<int>(0, m - 1)(gen);
  }
  const std::vector<Restart> runs =
      Search(mask, v).Run(first_seeds, opts.iterations);

  // Lowest cost wins; ties go to the earliest restart.
  const Restart* best = &runs[0];
  for (const Restart& run : runs) {
    if (run.total_distance < best->total_distance) best = &run;
  }

  // Emit the permutation: cluster 0's rows first, then cluster 1's, ...
  RowGrouping out;
  out.total_distance = best->total_distance;
  out.storage_to_original.reserve(m);
  for (int cl = 0; cl < clusters; ++cl) {
    for (int r = 0; r < m; ++r) {
      if (best->assignment[r] == cl) out.storage_to_original.push_back(r);
    }
  }
  return out;
}

}  // namespace shflbw
