// PackedWeightCache contract: pack exactly once per (layer, format,
// density, v), every packed representation expands back to the pruned
// weight it stores, and the cache survives concurrent GetOrPack from
// many threads (the BatchServer shares one cache across replicas).
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"
#include "runtime/weight_cache.h"

namespace shflbw {
namespace runtime {
namespace {

TEST(PackedWeightCache, PacksOncePerKey) {
  Rng rng(7);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  EXPECT_EQ(cache.TotalPacks(), 0u);

  const PackedWeight& a = cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  const PackedWeight& b = cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  EXPECT_EQ(&a, &b);  // same cached object, no re-conversion

  cache.GetOrPack(0, Format::kVectorWise, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 2u);
  cache.GetOrPack(1, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.TotalPacks(), 3u);
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_TRUE(cache.Contains(0, Format::kCsr, 0.25, 8));
  EXPECT_FALSE(cache.Contains(1, Format::kVectorWise, 0.25, 8));
}

// Regression: the key must include the prune parameters. A cache shared
// across engines with different density or V settings used to serve the
// first engine's packed weight to the second one silently.
TEST(PackedWeightCache, DensityAndVArePartOfTheKey) {
  Rng rng(17);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;

  const PackedWeight& dense25 =
      cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  const PackedWeight& dense50 =
      cache.GetOrPack(0, Format::kCsr, master, 0.50, 8);
  EXPECT_EQ(cache.TotalPacks(), 2u);  // distinct entries, both packed
  EXPECT_NE(&dense25, &dense50);
  // And they really hold different prunes.
  EXPECT_EQ(dense25.csr.ToDense(), PruneUnstructured(master, 0.25));
  EXPECT_EQ(dense50.csr.ToDense(), PruneUnstructured(master, 0.50));

  // Same density, different vector width: also distinct.
  cache.GetOrPack(0, Format::kVectorWise, master, 0.25, 8);
  cache.GetOrPack(0, Format::kVectorWise, master, 0.25, 16);
  EXPECT_EQ(cache.TotalPacks(), 4u);
  EXPECT_TRUE(cache.Contains(0, Format::kVectorWise, 0.25, 8));
  EXPECT_TRUE(cache.Contains(0, Format::kVectorWise, 0.25, 16));
  EXPECT_FALSE(cache.Contains(0, Format::kVectorWise, 0.50, 8));
}

// Hammer: many threads racing GetOrPack over a small key space. Each
// key must pack exactly once, every returned reference must be stable
// (same address for the same key), and the contents must be correct.
TEST(PackedWeightCache, ConcurrentGetOrPackPacksOncePerKey) {
  Rng rng(23);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 50;
  constexpr int kLayers = 4;
  const Format kFormats[] = {Format::kDense, Format::kCsr,
                             Format::kVectorWise};
  constexpr int kNumFormats = 3;

  std::vector<std::vector<const PackedWeight*>> seen(
      kThreads, std::vector<const PackedWeight*>(kLayers * kNumFormats,
                                                 nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        // Walk the key space in a thread-dependent order to vary the
        // interleavings.
        for (int k = 0; k < kLayers * kNumFormats; ++k) {
          const int idx = (k + t * 5 + iter) % (kLayers * kNumFormats);
          const int layer = idx / kNumFormats;
          const Format format = kFormats[idx % kNumFormats];
          const PackedWeight& w =
              cache.GetOrPack(layer, format, master, 0.25, 8);
          if (seen[t][static_cast<std::size_t>(idx)] == nullptr) {
            seen[t][static_cast<std::size_t>(idx)] = &w;
          } else {
            // Stable reference: later lookups return the same object.
            ASSERT_EQ(seen[t][static_cast<std::size_t>(idx)], &w);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one pack per key despite the races...
  EXPECT_EQ(cache.TotalPacks(),
            static_cast<std::size_t>(kLayers * kNumFormats));
  EXPECT_EQ(cache.Size(), static_cast<std::size_t>(kLayers * kNumFormats));
  // ...and every thread saw the same object per key.
  for (int t = 1; t < kThreads; ++t) {
    for (int k = 0; k < kLayers * kNumFormats; ++k) {
      EXPECT_EQ(seen[0][static_cast<std::size_t>(k)],
                seen[t][static_cast<std::size_t>(k)]);
    }
  }
  // Spot-check contents survived the stampede.
  EXPECT_EQ(cache.GetOrPack(0, Format::kCsr, master, 0.25, 8).csr.ToDense(),
            PruneUnstructured(master, 0.25));
}

// A gate a lazy master function blocks on, so a test can hold a pack
// in flight (GetOrPack calls the master function outside its lock) and
// observe what other callers do meanwhile.
class PackGate {
 public:
  /// Called from inside a pack: records entry, blocks until Open().
  void EnterAndWait() {
    MutexLock lock(mu_);
    ++entered_;
    cv_.NotifyAll();
    cv_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) { return open_; });
  }
  void WaitEntered(int n) {
    MutexLock lock(mu_);
    cv_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) { return entered_ >= n; });
  }
  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  int entered() {
    MutexLock lock(mu_);
    return entered_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int entered_ SHFLBW_GUARDED_BY(mu_) = 0;
  bool open_ SHFLBW_GUARDED_BY(mu_) = false;
};

// Runs fn on a thread and reports whether it finished within `seconds`
// (joining it either way, after `unblock` has run).
template <typename Fn, typename Unblock>
bool FinishesWithin(double seconds, Fn fn, Unblock unblock) {
  Mutex mu;
  CondVar cv;
  bool done = false;
  std::thread t([&] {
    fn();
    MutexLock lock(mu);
    done = true;
    cv.NotifyAll();
  });
  bool in_time = false;
  {
    MutexLock lock(mu);
    in_time = cv.WaitFor(mu, seconds, [&]() { return done; });
  }
  unblock();
  t.join();
  return in_time;
}

TEST(PackedWeightCache, HitOnOtherKeyDoesNotWaitBehindAPack) {
  Rng rng(29);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  const PackedWeight& a = cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);

  PackGate gate;
  std::thread packer([&] {
    (void)cache.GetOrPack(
        1, Format::kCsr,
        [&]() -> const Matrix<float>& {
          gate.EnterAndWait();
          return master;
        },
        0.25, 8);
  });
  gate.WaitEntered(1);  // key 1's pack is in flight and blocked
  const PackedWeight* hit = nullptr;
  EXPECT_TRUE(FinishesWithin(
      10.0,
      [&] { hit = &cache.GetOrPack(0, Format::kCsr, master, 0.25, 8); },
      [&] { gate.Open(); }))
      << "a hit on key 0 waited behind key 1's pack";
  packer.join();
  EXPECT_EQ(hit, &a);
  EXPECT_EQ(cache.TotalPacks(), 2u);
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(PackedWeightCache, SameKeyCallersShareOnePackInFlight) {
  Rng rng(31);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  PackGate gate;
  std::atomic<int> master_calls{0};
  const auto master_fn = [&]() -> const Matrix<float>& {
    master_calls.fetch_add(1);
    gate.EnterAndWait();
    return master;
  };

  constexpr int kThreads = 6;
  std::vector<const PackedWeight*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = &cache.GetOrPack(0, Format::kVectorWise, master_fn, 0.25, 8);
    });
  }
  gate.WaitEntered(1);
  // Give the other callers time to queue behind the in-flight slot;
  // the assertions below hold however far they got.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(master_calls.load(), 1);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
}

TEST(PackedWeightCache, ThrowingPackLeavesNoEntryAndWaiterRetries) {
  Rng rng(37);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  (void)cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);

  // A pack that throws with nobody waiting: nothing changes.
  EXPECT_THROW(cache.GetOrPack(
                   1, Format::kCsr,
                   []() -> const Matrix<float>& {
                     throw std::runtime_error("master unavailable");
                   },
                   0.25, 8),
               std::runtime_error);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  EXPECT_FALSE(cache.Contains(1, Format::kCsr, 0.25, 8));

  // A pack that throws while a second caller waits on the same key:
  // the waiter wakes to a clean miss and packs the key itself.
  PackGate gate;
  bool thrown = false;
  std::thread failing([&] {
    try {
      (void)cache.GetOrPack(
          1, Format::kCsr,
          [&]() -> const Matrix<float>& {
            gate.EnterAndWait();
            throw std::runtime_error("master unavailable");
          },
          0.25, 8);
    } catch (const std::runtime_error&) {
      thrown = true;
    }
  });
  gate.WaitEntered(1);
  const PackedWeight* retried = nullptr;
  std::thread waiter([&] {
    retried = &cache.GetOrPack(1, Format::kCsr, master, 0.25, 8);
  });
  // Give the waiter time to queue behind the in-flight slot; the
  // assertions below hold however far it got.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  failing.join();
  waiter.join();
  EXPECT_TRUE(thrown);
  ASSERT_NE(retried, nullptr);
  EXPECT_EQ(retried->csr.ToDense(), PruneUnstructured(master, 0.25));
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.TotalPacks(), 2u);
  EXPECT_EQ(gate.entered(), 1);
}

TEST(PackedWeightCache, InjectedPackFaultLeavesNoEntry) {
  Rng rng(41);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  PackedWeightCache cache;
  (void)cache.GetOrPack(0, Format::kCsr, master, 0.25, 8);
  FaultInjectorOptions fi;
  fi.pack_failure_rate = 1.0;
  fi.max_failures = 1;
  cache.SetFaultInjector(std::make_shared<FaultInjector>(fi));
  EXPECT_THROW(cache.GetOrPack(1, Format::kCsr, master, 0.25, 8),
               TransientFault);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.TotalPacks(), 1u);
  // Budget spent: the retry is a clean miss that packs.
  (void)cache.GetOrPack(1, Format::kCsr, master, 0.25, 8);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.TotalPacks(), 2u);
}

TEST(PackWeight, RepresentationsMatchTheirPrunes) {
  Rng rng(11);
  const Matrix<float> master = rng.NormalMatrix(32, 32);
  const double density = 0.25;
  const int v = 8;

  EXPECT_EQ(PackWeight(Format::kDense, master, density, v).dense,
            RoundThroughFp16(master));
  EXPECT_EQ(PackWeight(Format::kCsr, master, density, v).csr.ToDense(),
            PruneUnstructured(master, density));
  EXPECT_EQ(PackWeight(Format::kVectorWise, master, density, v).vw.ToDense(),
            PruneVectorWise(master, density, v));
  // Shfl-BW: the packed matrix must expand to a mask-consistent subset
  // of the master in original row order.
  const ShflBwMatrix shfl =
      PackWeight(Format::kShflBw, master, density, v).shflbw;
  const Matrix<float> dense = shfl.ToDense();
  ASSERT_EQ(dense.rows(), master.rows());
  for (int r = 0; r < dense.rows(); ++r) {
    for (int c = 0; c < dense.cols(); ++c) {
      if (dense(r, c) != 0.0f) {
        EXPECT_EQ(dense(r, c), master(r, c));
      }
    }
  }
}

TEST(PackWeight, DeterministicAcrossCalls) {
  Rng rng(13);
  const Matrix<float> master = rng.NormalMatrix(64, 64);
  const PackedWeight a = PackWeight(Format::kShflBw, master, 0.25, 8);
  const PackedWeight b = PackWeight(Format::kShflBw, master, 0.25, 8);
  EXPECT_EQ(a.shflbw.ToDense(), b.shflbw.ToDense());
  EXPECT_EQ(a.shflbw.storage_to_original, b.shflbw.storage_to_original);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
