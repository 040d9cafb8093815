// The serving stack's one event stream: a fixed-capacity, wrapping,
// lock-free ring of POD events recorded at every scheduler decision
// point (admission, seal, launch, retry, completion, shed, ladder
// shift, watchdog stall) plus the per-request queue/run spans and the
// per-layer kernel spans that `TelemetryOptions::tracing` turns on.
// One Snapshot() feeds two exporters: Chrome trace-event JSON (loads in
// Perfetto / chrome://tracing) and the flight-recorder JSON an operator
// or the watchdog dumps for a postmortem.
//
// Concurrency design (all std::atomic, so TSan-provable and free of
// capability annotations — safe to record with any subsystem mutex
// held):
//
//   - A writer claims a ticket t with a relaxed fetch_add; its slot is
//     t % capacity and its generation g = t / capacity.
//   - Each slot carries a seqlock word: 2*g means "generation g may
//     write", odd means "write in progress", 2*(g+1) means "generation
//     g published". The writer CASes 2*g -> 2*g+1, stores the event
//     word by word, then release-stores 2*(g+1).
//   - A writer that lost its slot (it was lapped before it could
//     claim, or the previous lap's writer is still mid-write) drops
//     its event and bumps `dropped` instead of spinning: recording is
//     wait-free, which is what lets it sit on the scheduler's paths.
//   - Readers (Snapshot) accept a slot only when the seqlock word
//     reads 2*(g+1) before *and* after copying the words, so a
//     concurrent overwrite can only hide an event, never tear one.
//
// The ring wraps: it always holds the most recent kEventRingCapacity
// events. Clear() requires quiescence (no concurrent Record), e.g.
// after BatchServer::Drain.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace shflbw {
namespace obs {

/// Sentinel for "no request/batch attached to this event".
inline constexpr std::uint64_t kNoId = ~0ULL;

/// Slots of the ring a Telemetry owns: enough that a traced serving
/// run the size of bench_serving's trace scenario, or of any server
/// test, keeps every event (about 7 MB per server).
inline constexpr std::size_t kEventRingCapacity = std::size_t{1} << 16;

/// What happened. Submit/reject render as the Chrome "admission" span,
/// a seal that held the coalesce window open as the "coalesce" span;
/// launch, complete, shift and stall appear only in the flight JSON.
enum class EventKind : std::uint8_t {
  kSubmit = 0,  // submit entry -> enqueued          (request track)
  kReject,      // submit entry -> rejection         (request track)
  kQueue,       // submit -> batch seal; tracing     (request track)
  kSeal,        // window begin (or seal) -> seal    (replica track)
  kLaunch,      // the fused launch starts
  kKernel,      // one fused layer launch; tracing   (replica track)
  kRetry,       // fault -> end of backoff sleep     (replica track)
  kRun,         // dispatch -> completion; tracing   (request track)
  kComplete,    // final attempt start -> completion
  kShed,        // seal-time deadline drop           (request track)
  kShift,       // the ladder controller moved
  kStall,       // the watchdog saw an armed heartbeat go silent
};

/// Flight-JSON name of a kind ("submit", "seal", ...).
const char* EventKindName(EventKind kind);

/// One recorded event: trivially copyable and exactly 13 words, which
/// the ring publishes through 13 relaxed atomics (see the static_assert
/// below). Field meaning per kind: `width` is the fused batch width,
/// `attempt` the retry ordinal (retry) or the retries a launch needed
/// (run, complete), `detail` the queue depth after a submit, the
/// verdict of a reject, the requests shed at a seal, the previous level
/// of a shift. `label` names the layer (kernel), verdict (reject) or
/// stalled slot (stall); `label2` the kernel's format.
struct Event {
  double begin_seconds = 0;  ///< NowSeconds timebase.
  double end_seconds = 0;
  std::uint64_t request_id = kNoId;
  std::uint64_t batch_id = kNoId;  ///< Fused-launch correlation key.
  std::int32_t replica = -1;
  std::int32_t level = -1;  ///< Ladder level.
  std::int32_t layer = -1;  ///< Layer index (kernel).
  std::int32_t width = 0;
  std::int32_t attempt = -1;
  std::int32_t detail = 0;
  EventKind kind = EventKind::kSubmit;
  char label2[15] = {};
  char label[32] = {};

  /// Copy `s`, truncating; always NUL-terminated.
  void SetLabel(const std::string& s);
  void SetLabel2(const std::string& s);
};

static_assert(sizeof(Event) == 13 * sizeof(std::uint64_t),
              "Event must stay exactly 13 64-bit words: the ring "
              "publishes it word by word through atomics");

/// One consistent copy of the ring: the surviving events in ticket
/// (record) order plus the counters both exporters print.
struct RingSnapshot {
  std::vector<Event> events;
  std::uint64_t total = 0;    ///< Events ever recorded.
  std::uint64_t dropped = 0;  ///< Writers lapped mid-claim.
  std::size_t capacity = 0;
  double start_seconds = 0;   ///< Chrome timestamps are relative to this.
};

/// Chrome "X" span name of an event, or nullptr when the event is not
/// a span there (launch, complete, shift, stall, and a seal that did
/// not hold the coalesce window). Kernel spans are named by layer.
const char* SpanName(const Event& ev);

/// Chrome trace-event JSON: "X" complete events plus process/thread
/// metadata, microsecond timestamps relative to `snap.start_seconds`.
/// pid 1 "shflbw server" holds one track per replica (coalesce, kernel,
/// retry); pid 2 "requests" one track per request id (admission, queue,
/// run, shed). A fused launch is K run spans sharing one set of kernel
/// spans; they correlate through the `batch` arg carried by both.
void WriteChromeTrace(const RingSnapshot& snap, std::ostream& os);

/// Flight-recorder JSON: a summary header (total, dropped, capacity)
/// and every event with its kind name and absolute begin/end seconds.
void WriteFlightJson(const RingSnapshot& snap, std::ostream& os);

class EventRing {
 public:
  explicit EventRing(std::size_t capacity = kEventRingCapacity);

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Wait-free; never blocks, never allocates.
  void Record(const Event& ev);

  /// Safe concurrently with writers: events being overwritten right
  /// now are skipped, never torn.
  [[nodiscard]] RingSnapshot Snapshot() const;

  [[nodiscard]] std::uint64_t total() const {
    return next_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Render a Snapshot to `path`; false when the file cannot be opened
  /// or any write (including the final flush) fails.
  [[nodiscard]] bool DumpChromeTrace(const std::string& path) const;
  [[nodiscard]] bool DumpFlightJson(const std::string& path) const;

  /// Resets the ring and its time origin. Requires quiescence.
  void Clear();

 private:
  static constexpr std::size_t kWords = sizeof(Event) / sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kWords] = {};
  };

  bool Dump(const std::string& path,
            void (*render)(const RingSnapshot&, std::ostream&)) const;

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  double start_seconds_ = 0;
};

}  // namespace obs
}  // namespace shflbw
