#include "runtime/weight_cache.h"

#include <vector>

namespace shflbw {
namespace runtime {

const PackedWeight& PackedWeightCache::GetOrPack(int layer, Format format,
                                                 const Matrix<float>& master,
                                                 double density, int v) {
  return GetOrPack(
      layer, format, [&]() -> const Matrix<float>& { return master; },
      density, v);
}

const PackedWeight& PackedWeightCache::GetOrPack(
    int layer, Format format,
    const std::function<const Matrix<float>&()>& master_fn, double density,
    int v) {
  const Key key{layer, static_cast<int>(format), density, v};
  {
    MutexLock lock(mu_);
    // A key in flight is being packed by another caller: wait for its
    // entry (or, if that pack throws, for the slot to free up).
    pack_done_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
      return in_flight_.count(key) == 0;
    });
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    // Fault hook fires before any mutation: a TransientFault here
    // leaves the cache byte-identical to before the call (no entry, no
    // pack count, no in-flight slot), so a scheduler retry re-runs a
    // clean miss.
    if (injector_) injector_->OnPack();
    in_flight_.insert(key);
  }
  // The pack runs with no lock held: a Shfl-BW pack is a row-shuffle
  // search on the worker pool, whose mutex ranks before this one, and
  // hits on other keys must not wait behind it.
  PackedWeight packed;
  try {
    packed = PackWeight(format, master_fn(), density, v);
  } catch (...) {
    MutexLock lock(mu_);
    in_flight_.erase(key);
    pack_done_.NotifyAll();
    throw;
  }
  MutexLock lock(mu_);
  in_flight_.erase(key);
  pack_done_.NotifyAll();
  ++packs_;
  return cache_.emplace(key, std::move(packed)).first->second;
}

namespace {

template <typename T>
std::size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t PackedBytes(const PackedWeight& p) {
  std::size_t n = sizeof(PackedWeight);
  n += p.dense.size() * sizeof(float);
  n += VecBytes(p.csr.row_ptr) + VecBytes(p.csr.col_idx) +
       VecBytes(p.csr.values);
  n += VecBytes(p.bsr.block_row_ptr) + VecBytes(p.bsr.block_col_idx) +
       VecBytes(p.bsr.values);
  n += VecBytes(p.balanced24.values) + VecBytes(p.balanced24.meta);
  n += VecBytes(p.vw.group_col_ptr) + VecBytes(p.vw.col_idx) +
       VecBytes(p.vw.values);
  n += VecBytes(p.shflbw.vw.group_col_ptr) + VecBytes(p.shflbw.vw.col_idx) +
       VecBytes(p.shflbw.vw.values) + VecBytes(p.shflbw.storage_to_original);
  return n;
}

}  // namespace

std::size_t PackedWeightCache::ApproxBytes() const {
  MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, packed] : cache_) total += PackedBytes(packed);
  return total;
}

}  // namespace runtime
}  // namespace shflbw
