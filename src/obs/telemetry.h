// The telemetry bundle one server (and its engines) share: a metrics
// Registry, the event ring (obs/event_ring.h), and the runtime enable
// flags.
//
// Ownership: BatchServer constructs one Telemetry from
// ServerOptions::telemetry and hands a shared_ptr to every Engine
// replica via EngineOptions::telemetry, so kernel spans and profiling
// counters from a fused launch land in the same registry and ring as
// the serving-side events. A standalone Engine may also be given its
// own Telemetry directly.
//
// Cost model: with `metrics` off, histograms and kernel profiling are
// skipped (counters/gauges — the ServerStats mechanism — stay live).
// The ring always records the scheduler's decision points (one event
// per submit, seal, launch, completion, retry, shed, shift, stall);
// `tracing` (off by default) adds the per-request queue and run spans
// and the per-layer kernel spans.
#pragma once

#include <atomic>

#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace shflbw {
namespace obs {

/// Per-server runtime telemetry switches (ServerOptions::telemetry).
struct TelemetryOptions {
  /// Latency histograms + kernel profiling accumulation. Counters and
  /// gauges are unaffected — they back ServerStats.
  bool metrics = true;
  /// Per-request queue/run spans and per-layer kernel spans in the
  /// event ring. Off by default: tracing is an opt-in debugging and
  /// analysis surface.
  bool tracing = false;
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options = {})
      : metrics_(options.metrics), tracing_(options.tracing) {}

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  EventRing& events() { return events_; }
  const EventRing& events() const { return events_; }

  /// True when histogram/profiling recording should happen.
  bool metrics_on() const { return metrics_.load(std::memory_order_relaxed); }
  /// True when the traced-only spans should be recorded.
  bool tracing_on() const { return tracing_.load(std::memory_order_relaxed); }

  /// Runtime toggles, safe on a live server: metrics or tracing can be
  /// flipped on to capture an incident window (or off to A/B the
  /// overhead) without reconstructing engines. Engines re-read both per
  /// launch and a replica re-reads `tracing` per batch; the server's own
  /// latency histograms follow `metrics` as it stood when the replica
  /// threads started.
  void set_metrics(bool on) { metrics_.store(on, std::memory_order_relaxed); }
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

 private:
  std::atomic<bool> metrics_;
  std::atomic<bool> tracing_;
  Registry registry_;
  EventRing events_;
};

}  // namespace obs
}  // namespace shflbw
