#include "obs/event_ring.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#include "common/clock.h"
#include "obs/json_escape.h"

namespace shflbw {
namespace obs {
namespace {

void CopyLabel(char* dst, std::size_t cap, const std::string& s) {
  const std::size_t n = std::min(s.size(), cap - 1);
  std::memcpy(dst, s.data(), n);
  dst[n] = '\0';
}

/// Spans on a request's track (pid 2); the rest narrate the replica
/// scheduler thread (pid 1).
bool RequestScoped(EventKind kind) {
  return kind == EventKind::kSubmit || kind == EventKind::kReject ||
         kind == EventKind::kQueue || kind == EventKind::kRun ||
         kind == EventKind::kShed;
}

/// The fields both exporters print, each as `,"key":value` (unset
/// ids and levels are left out).
void WriteFields(const Event& ev, std::ostream& os) {
  const auto field = [&](const char* key, auto value) {
    os << ",\"" << key << "\":" << value;
  };
  if (ev.request_id != kNoId) field("request", ev.request_id);
  if (ev.batch_id != kNoId) field("batch", ev.batch_id);
  if (ev.replica >= 0) field("replica", ev.replica);
  if (ev.level >= 0) field("level", ev.level);
  if (ev.layer >= 0) field("layer", ev.layer);
  if (ev.width > 0) field("width", ev.width);
  if (ev.attempt >= 0) field("attempt", ev.attempt);
  if (ev.detail != 0) field("detail", ev.detail);
  if (ev.label[0] != '\0') {
    field("label", '"' + JsonEscape(ev.label) + '"');
  }
  if (ev.label2[0] != '\0') {
    field("label2", '"' + JsonEscape(ev.label2) + '"');
  }
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSubmit: return "submit";
    case EventKind::kReject: return "reject";
    case EventKind::kQueue: return "queue";
    case EventKind::kSeal: return "seal";
    case EventKind::kLaunch: return "launch";
    case EventKind::kKernel: return "kernel";
    case EventKind::kRetry: return "retry";
    case EventKind::kRun: return "run";
    case EventKind::kComplete: return "complete";
    case EventKind::kShed: return "shed";
    case EventKind::kShift: return "shift";
    case EventKind::kStall: return "stall";
  }
  return "unknown";
}

void Event::SetLabel(const std::string& s) {
  CopyLabel(label, sizeof(label), s);
}

void Event::SetLabel2(const std::string& s) {
  CopyLabel(label2, sizeof(label2), s);
}

const char* SpanName(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kSubmit:
    case EventKind::kReject:
      return "admission";
    case EventKind::kSeal:
      return ev.begin_seconds < ev.end_seconds ? "coalesce" : nullptr;
    case EventKind::kKernel:
      return ev.label[0] != '\0' ? ev.label : "kernel";
    case EventKind::kQueue:
    case EventKind::kRetry:
    case EventKind::kRun:
    case EventKind::kShed:
      return EventKindName(ev.kind);
    case EventKind::kLaunch:
    case EventKind::kComplete:
    case EventKind::kShift:
    case EventKind::kStall:
      return nullptr;
  }
  return nullptr;
}

void WriteChromeTrace(const RingSnapshot& snap, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"shflbw server\"}},\n";
  os << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
        "\"args\":{\"name\":\"requests\"}}";
  // One thread_name per replica track the spans use.
  std::vector<std::int32_t> replicas;
  for (const Event& ev : snap.events) {
    if (SpanName(ev) != nullptr && !RequestScoped(ev.kind) &&
        ev.replica >= 0) {
      replicas.push_back(ev.replica);
    }
  }
  std::sort(replicas.begin(), replicas.end());
  replicas.erase(std::unique(replicas.begin(), replicas.end()),
                 replicas.end());
  for (std::int32_t r : replicas) {
    os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << (r + 1)
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"replica " << r
       << "\"}}";
  }

  os.precision(3);
  os << std::fixed;
  for (const Event& ev : snap.events) {
    const char* name = SpanName(ev);
    if (name == nullptr) continue;
    const bool req = RequestScoped(ev.kind);
    // Request tracks key on the id (+1 keeps tid 0 free); replica
    // tracks on the scheduler thread's replica index.
    const std::uint64_t tid =
        req ? (ev.request_id == kNoId ? 0 : ev.request_id + 1)
            : static_cast<std::uint64_t>(ev.replica + 1);
    const char* cat = ev.kind == EventKind::kKernel ? "kernel" : name;
    os << ",\n{\"name\":\"" << JsonEscape(name) << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"X\",\"ts\":"
       << (ev.begin_seconds - snap.start_seconds) * 1e6 << ",\"dur\":"
       << std::max(0.0, (ev.end_seconds - ev.begin_seconds) * 1e6)
       << ",\"pid\":" << (req ? 2 : 1) << ",\"tid\":" << tid
       << ",\"args\":{\"kind\":\"" << EventKindName(ev.kind) << '"';
    WriteFields(ev, os);
    os << "}}";
  }
  os << "\n]}\n";
}

void WriteFlightJson(const RingSnapshot& snap, std::ostream& os) {
  os.precision(9);
  os << "{\n";
  os << "  \"total\": " << snap.total << ",\n";
  os << "  \"dropped\": " << snap.dropped << ",\n";
  os << "  \"capacity\": " << snap.capacity << ",\n";
  os << "  \"events\": [";
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    const Event& ev = snap.events[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"kind\":\"" << EventKindName(ev.kind)
       << "\",\"begin\":" << ev.begin_seconds
       << ",\"end\":" << ev.end_seconds;
    WriteFields(ev, os);
    os << "}";
  }
  os << (snap.events.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

EventRing::EventRing(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      slots_(new Slot[capacity_]),
      start_seconds_(NowSeconds()) {}

void EventRing::Record(const Event& ev) {
  const std::uint64_t t = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[t % capacity_];
  const std::uint64_t gen = t / capacity_;
  // Claim the slot for this generation. Failure means we were lapped
  // (a later generation already claimed it) or the previous lap's
  // writer is still mid-write; either way the event is stale relative
  // to what the ring now holds, so drop it rather than spin.
  std::uint64_t expect = 2 * gen;
  if (!s.seq.compare_exchange_strong(expect, 2 * gen + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t words[kWords];
  std::memcpy(words, &ev, sizeof ev);
  for (std::size_t i = 0; i < kWords; ++i) {
    s.words[i].store(words[i], std::memory_order_relaxed);
  }
  s.seq.store(2 * (gen + 1), std::memory_order_release);
}

RingSnapshot EventRing::Snapshot() const {
  RingSnapshot snap;
  snap.total = next_.load(std::memory_order_acquire);
  snap.capacity = capacity_;
  snap.start_seconds = start_seconds_;
  const std::uint64_t begin =
      snap.total > capacity_ ? snap.total - capacity_ : 0;
  snap.events.reserve(static_cast<std::size_t>(snap.total - begin));
  for (std::uint64_t t = begin; t < snap.total; ++t) {
    const Slot& s = slots_[t % capacity_];
    const std::uint64_t want = 2 * (t / capacity_ + 1);
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    std::uint64_t words[kWords];
    for (std::size_t i = 0; i < kWords; ++i) {
      words[i] = s.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    // Re-check: if a writer claimed the slot while we copied, the copy
    // may be torn — discard it. Unchanged seq proves the words we read
    // all belong to generation t / capacity_.
    if (s.seq.load(std::memory_order_relaxed) != want) continue;
    Event ev;
    std::memcpy(&ev, words, sizeof ev);
    snap.events.push_back(ev);
  }
  snap.dropped = dropped_.load(std::memory_order_relaxed);
  return snap;
}

bool EventRing::DumpChromeTrace(const std::string& path) const {
  return Dump(path, &WriteChromeTrace);
}

bool EventRing::DumpFlightJson(const std::string& path) const {
  return Dump(path, &WriteFlightJson);
}

bool EventRing::Dump(const std::string& path,
                     void (*render)(const RingSnapshot&, std::ostream&)) const {
  std::ofstream os(path);
  if (!os) return false;
  render(Snapshot(), os);
  os.flush();
  return os.good();
}

void EventRing::Clear() {
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    for (std::atomic<std::uint64_t>& w : slots_[i].words) {
      w.store(0, std::memory_order_relaxed);
    }
  }
  start_seconds_ = NowSeconds();
}

}  // namespace obs
}  // namespace shflbw
