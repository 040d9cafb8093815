// Liveness detection for the serving stack: heartbeats + watchdog.
//
// Every scheduler thread and every ParallelFor region publishes a
// heartbeat into a HeartbeatRegistry — a fixed array of slots whose
// publish path (Arm/Beat/Disarm) is pure relaxed atomics, cheap enough
// to beat once per batch phase or per drained chunk. Registration and
// snapshotting are cold paths guarded by an unordered leaf mutex (slot
// names are plain bytes; a mutex there keeps TSan and the capability
// analysis honest without touching the publish path).
//
// The Watchdog owns one polling thread that watches one or more
// registries. A slot whose heartbeat is armed but older than the stall
// budget opens a *stall episode*: the callback fires once, a counter
// bumps once, and the episode closes only when the slot beats again
// (or disarms). The BatchServer wires the callback to record a stall
// event in its event ring and dump statusz + the ring's flight JSON to
// disk — the postmortem pipeline of docs/OBSERVABILITY.md.
//
// False-positive discipline: a thread *disarms* before blocking on
// work it legitimately waits for (an empty queue), so only armed
// silence counts as a stall. The budget must exceed the longest
// legitimate armed pause (coalesce window, one kernel launch).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace shflbw {
namespace obs {

/// Fixed-capacity heartbeat slot table. Thread-safe; slots are claimed
/// with Register and returned with Unregister so short-lived
/// publishers (ParallelFor regions) can reuse them.
class HeartbeatRegistry {
 public:
  static constexpr int kMaxSlots = 64;

  HeartbeatRegistry() = default;
  HeartbeatRegistry(const HeartbeatRegistry&) = delete;
  HeartbeatRegistry& operator=(const HeartbeatRegistry&) = delete;

  /// Claims a free slot under `name` (truncated to 31 chars); -1 when
  /// the table is full, in which case every later call on the handle
  /// is a no-op — heartbeats degrade, they never fail the caller.
  [[nodiscard]] int Register(const std::string& name) SHFLBW_EXCLUDES(mu_);

  /// Returns the slot to the free pool (disarmed).
  void Unregister(int slot) SHFLBW_EXCLUDES(mu_);

  /// Marks the slot live and records a beat: from now until Disarm,
  /// silence longer than the watchdog budget is a stall.
  void Arm(int slot, double now_seconds);

  /// Publishes progress. Lock-free relaxed stores — safe from any
  /// thread, any lock held.
  void Beat(int slot, double now_seconds);

  /// Marks the slot as legitimately idle (blocked on work to do).
  void Disarm(int slot);

  struct View {
    std::string name;
    int slot = -1;
    bool armed = false;
    double beat_seconds = 0;
    std::uint64_t beats = 0;
  };

  /// Copies out every registered slot.
  [[nodiscard]] std::vector<View> Snapshot() const SHFLBW_EXCLUDES(mu_);

 private:
  struct Slot {
    std::atomic<double> beat_seconds{0};
    std::atomic<std::uint64_t> beats{0};
    std::atomic<int> armed{0};
    bool used = false;     // guarded by mu_ (array member: annotated at use)
    char name[32] = {};    // guarded by mu_
  };

  mutable Mutex mu_;  // unordered leaf: only slot bookkeeping
  Slot slots_[kMaxSlots];
};

/// Process-wide registry that ParallelFor regions publish into (one
/// slot per active region, beaten per drained chunk). Server replica
/// threads use the server's own registry; a server's watchdog watches
/// both.
HeartbeatRegistry& GlobalHeartbeats();

struct WatchdogOptions {
  /// Off by default: the watchdog is an opt-in serving feature, not a
  /// tax on every test server.
  bool enabled = false;
  /// Armed silence longer than this is a stall. Must exceed the
  /// longest legitimate armed pause (coalesce window + one launch).
  double stall_budget_seconds = 1.0;
  /// Poll cadence of the watchdog thread.
  double poll_interval_seconds = 0.05;
  /// Base path for the stall postmortem dump written by the server's
  /// callback (`<base>_statusz.{txt,json}` + `<base>_flight.json`);
  /// empty = detect and count, but write nothing.
  std::string dump_path;
};

/// The polling thread. Construction starts it; Stop (or destruction)
/// joins it promptly via the condition variable.
class Watchdog {
 public:
  /// `on_stall(name, age_seconds)` fires once per stall episode, from
  /// the watchdog thread, with no Watchdog lock held — it may take
  /// subsystem mutexes (the server's callback takes the server lock).
  using StallCallback = std::function<void(const std::string&, double)>;

  Watchdog(WatchdogOptions options,
           std::vector<const HeartbeatRegistry*> registries,
           StallCallback on_stall);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Stop();

  /// Stall episodes detected so far.
  [[nodiscard]] std::uint64_t stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const WatchdogOptions& options() const { return options_; }

 private:
  void Loop();
  /// One scan over every registry; `episode` is loop-thread-only state
  /// tracking which (registry, slot) pairs are inside a stall episode.
  void Poll(std::vector<std::vector<bool>>& episode);

  WatchdogOptions options_;
  std::vector<const HeartbeatRegistry*> registries_;
  StallCallback on_stall_;
  std::atomic<std::uint64_t> stalls_{0};

  Mutex mu_;  // unordered leaf: guards only stop_ for the CV
  CondVar cv_;
  bool stop_ SHFLBW_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace shflbw
