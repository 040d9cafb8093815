// The serving stack's events: every event a serving run records is
// well-formed (begin <= end, request-scoped events carry a real
// request id), the three interesting request fates — shed, retried,
// degraded — each leave their expected span sequence, fused batches
// share one set of kernel spans, tracing off records no queue/run/
// kernel events, one snapshot rendered through both exporters shows
// every retry, shed and seal in each, and a dump that cannot be
// written reports failure.
#include <cstdint>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdiff/benchdiff.h"
#include "common/thread_pool.h"
#include "obs/event_ring.h"
#include "runtime/server.h"

namespace shflbw {
namespace runtime {
namespace {

using obs::Event;
using obs::EventKind;

struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

EngineOptions SmallOptions() {
  EngineOptions opts;
  opts.planner.density = 0.25;
  opts.planner.v = 8;
  return opts;
}

ModelDesc SmallTransformer() {
  TransformerConfig cfg;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.batch_tokens = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  return ModelDesc::Transformer(cfg);
}

std::vector<Event> Events(const BatchServer& server) {
  return server.telemetry().events().Snapshot().events;
}

/// Every event must be a closed interval, and request-scoped events
/// must point at a request that exists (id < submitted).
void ExpectWellFormed(const std::vector<Event>& events,
                      std::uint64_t submitted) {
  for (const Event& ev : events) {
    EXPECT_LE(ev.begin_seconds, ev.end_seconds)
        << EventKindName(ev.kind) << " event runs backwards";
    switch (ev.kind) {
      case EventKind::kSubmit:
      case EventKind::kQueue:
      case EventKind::kRun:
      case EventKind::kShed:
        ASSERT_NE(ev.request_id, obs::kNoId) << EventKindName(ev.kind);
        EXPECT_LT(ev.request_id, submitted)
            << EventKindName(ev.kind) << " parented to a request that was "
            << "never submitted";
        break;
      case EventKind::kReject:
        EXPECT_EQ(ev.request_id, obs::kNoId);
        break;
      case EventKind::kSeal:
      case EventKind::kLaunch:
      case EventKind::kKernel:
      case EventKind::kRetry:
      case EventKind::kComplete:
      case EventKind::kShift:
        EXPECT_GE(ev.replica, 0) << EventKindName(ev.kind);
        break;
      case EventKind::kStall:
        break;
    }
  }
}

std::vector<Event> OfKind(const std::vector<Event>& events, EventKind kind) {
  std::vector<Event> out;
  for (const Event& ev : events) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

/// A seal that held the coalesce window open (the Chrome "coalesce"
/// span).
std::size_t CoalesceSpans(const std::vector<Event>& events) {
  std::size_t n = 0;
  for (const Event& ev : OfKind(events, EventKind::kSeal)) {
    n += obs::SpanName(ev) != nullptr;
  }
  return n;
}

// A fused batch leaves K run spans sharing ONE set of kernel spans:
// exactly one kernel span per model layer, all width K, all carrying
// the same batch id as the run spans.
TEST(BatchServerTrace, FusedBatchSharesKernelSpans) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  // max_batch above the submit count: the replica always finds the
  // queue below seal size, provably opens the window, and seals on its
  // expiry — so the coalesce span is deterministic, not a race.
  opts.max_batch = 8;
  opts.coalesce_window_seconds = 0.05;
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  server.telemetry().events().Clear();  // drop construction-time events

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(server.Submit(Request{}));
  server.Drain();
  for (auto& f : futs) EXPECT_EQ(f.get().batch_width, 4);

  const std::vector<Event> events = Events(server);
  ExpectWellFormed(events, server.Stats().submitted);

  const std::vector<Event> runs = OfKind(events, EventKind::kRun);
  ASSERT_EQ(runs.size(), 4u);
  const std::uint64_t batch_id = runs.front().batch_id;
  ASSERT_NE(batch_id, obs::kNoId);
  for (const Event& r : runs) {
    EXPECT_EQ(r.batch_id, batch_id);
    EXPECT_EQ(r.width, 4);
  }
  const std::vector<Event> kernels = OfKind(events, EventKind::kKernel);
  const std::size_t layers = server.Plan().layers.size();
  ASSERT_EQ(kernels.size(), layers) << "one fused launch per layer, not K";
  for (const Event& k : kernels) {
    EXPECT_EQ(k.batch_id, batch_id);
    EXPECT_EQ(k.width, 4);
    EXPECT_NE(k.label[0], '\0') << "kernel span carries the layer name";
  }
  // The replica held the window open: the seal is a coalesce span.
  EXPECT_GE(CoalesceSpans(events), 1u);
  // Queue spans end where run spans begin (the seal instant).
  const std::vector<Event> queues = OfKind(events, EventKind::kQueue);
  ASSERT_EQ(queues.size(), 4u);
  for (const Event& q : queues) {
    EXPECT_DOUBLE_EQ(q.end_seconds, runs.front().begin_seconds);
  }
}

// A retried launch leaves retry events (one per backoff) and a run span
// reporting the retry count; the failed attempts contribute no kernel
// spans (the fault fires before the kernel executes).
TEST(BatchServerTrace, RetriedRequestLeavesRetrySpans) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_failure_rate = 1.0;
  fi.max_failures = 2;  // attempts 1 and 2 fail, attempt 3 completes
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.retry.max_retries = 3;
  opts.retry.backoff_seconds = 1e-4;
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);  // no Warmup: faults hit serving

  Response resp = server.Submit(Request{}).get();
  server.Drain();
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  ASSERT_EQ(resp.retries, 2);
  EXPECT_GT(resp.retry_seconds, 0.0);

  const std::vector<Event> events = Events(server);
  ExpectWellFormed(events, server.Stats().submitted);
  const std::vector<Event> retries = OfKind(events, EventKind::kRetry);
  ASSERT_EQ(retries.size(), 2u);
  EXPECT_EQ(retries[0].attempt, 1);
  EXPECT_EQ(retries[1].attempt, 2);
  const std::vector<Event> runs = OfKind(events, EventKind::kRun);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().attempt, 2);
  // Retry spans nest inside the run span and share its batch.
  for (const Event& r : retries) {
    EXPECT_EQ(r.batch_id, runs.front().batch_id);
    EXPECT_GE(r.begin_seconds, runs.front().begin_seconds);
    EXPECT_LE(r.end_seconds, runs.front().end_seconds);
  }
  // Only the successful attempt executed kernels.
  EXPECT_EQ(OfKind(events, EventKind::kKernel).size(),
            server.Plan().layers.size());
}

// A deadline-shed request leaves queue + shed events and no run span;
// its live batch-mates get run spans as usual.
TEST(BatchServerTrace, ShedRequestLeavesShedSpanAndNoRunSpan) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 4;
  opts.coalesce_window_seconds = 0.05;  // seal happens after the deadline
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  server.telemetry().events().Clear();

  Request doomed;
  doomed.deadline_seconds = 1e-6;
  std::future<Response> doomed_fut = server.Submit(doomed);
  std::future<Response> live_fut = server.Submit(Request{});
  server.Drain();
  const std::uint64_t doomed_id = doomed_fut.get().id;
  const std::uint64_t live_id = live_fut.get().id;

  const std::vector<Event> events = Events(server);
  ExpectWellFormed(events, server.Stats().submitted);
  const std::vector<Event> sheds = OfKind(events, EventKind::kShed);
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds.front().request_id, doomed_id);
  std::size_t doomed_queue_spans = 0;
  for (const Event& q : OfKind(events, EventKind::kQueue)) {
    doomed_queue_spans += q.request_id == doomed_id;
  }
  EXPECT_EQ(doomed_queue_spans, 1u);
  const std::vector<Event> runs = OfKind(events, EventKind::kRun);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().request_id, live_id);
}

// Under pressure with a quality ladder, degraded requests' run and
// kernel spans carry the level they were served at.
TEST(BatchServerTrace, DegradedRequestSpansCarryLevel) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_delay_rate = 1.0;
  fi.launch_delay_seconds = 0.03;  // slow launches so the queue builds
  ServerOptions opts;
  opts.replicas = 1;
  opts.queue_capacity = 4;
  opts.max_batch = 1;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.degradation.ladder_floors = {0.95, 0.7};
  opts.degradation.degrade_queue_fraction = 0.5;
  opts.degradation.hysteresis_seals = 1;
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  server.Warmup();
  server.telemetry().events().Clear();

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) futs.push_back(server.Submit(Request{}));
  server.Drain();
  bool saw_degraded = false;
  for (auto& f : futs) saw_degraded = saw_degraded || f.get().plan_level > 0;
  ASSERT_TRUE(saw_degraded);

  const std::vector<Event> events = Events(server);
  ExpectWellFormed(events, server.Stats().submitted);
  bool degraded_run = false, degraded_kernel = false;
  for (const Event& ev : OfKind(events, EventKind::kRun)) {
    degraded_run = degraded_run || ev.level > 0;
  }
  for (const Event& ev : OfKind(events, EventKind::kKernel)) {
    degraded_kernel = degraded_kernel || ev.level > 0;
  }
  EXPECT_TRUE(degraded_run);
  EXPECT_TRUE(degraded_kernel);
  EXPECT_GE(OfKind(events, EventKind::kShift).size(), 1u);
}

// The Chrome trace dump is valid JSON and carries the process/thread
// metadata Perfetto uses to name the tracks.
TEST(BatchServerTrace, ChromeTraceJsonParsesAndNamesTracks) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 2;
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  for (int i = 0; i < 3; ++i) (void)server.Submit(Request{}).get();
  server.Drain();

  std::ostringstream os;
  obs::WriteChromeTrace(server.telemetry().events().Snapshot(), os);
  const std::string json = os.str();
  benchdiff::JsonValue root;
  std::string err;
  ASSERT_TRUE(benchdiff::ParseJson(json, &root, &err)) << err;
  EXPECT_NE(json.find("\"shflbw server\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"replica 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// Tracing off (the default) records no queue, run or kernel event
// anywhere in the stack; the always-on decision points still land.
TEST(BatchServerTrace, TracingOffRecordsNoQueueRunOrKernelEvents) {
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  BatchServer server(SmallTransformer(), opts);
  (void)server.Submit(Request{}).get();
  server.Drain();
  const std::vector<Event> events = Events(server);
  EXPECT_TRUE(OfKind(events, EventKind::kQueue).empty());
  EXPECT_TRUE(OfKind(events, EventKind::kRun).empty());
  EXPECT_TRUE(OfKind(events, EventKind::kKernel).empty());
  EXPECT_EQ(OfKind(events, EventKind::kSubmit).size(), 1u);
  EXPECT_EQ(OfKind(events, EventKind::kSeal).size(), 1u);
  EXPECT_EQ(OfKind(events, EventKind::kLaunch).size(), 1u);
  EXPECT_EQ(OfKind(events, EventKind::kComplete).size(), 1u);
}

/// (kind, batch, request) of every event in one exporter's rendering
/// whose kind is retry, shed or seal; Chrome names kinds in args.
std::vector<std::string> RetryShedSeal(const benchdiff::JsonValue& events,
                                       bool chrome) {
  std::vector<std::string> out;
  for (const benchdiff::JsonValue& e : events.array) {
    const benchdiff::JsonValue* fields = chrome ? e.Find("args") : &e;
    if (fields == nullptr || fields->Find("kind") == nullptr) continue;
    const std::string kind = fields->Find("kind")->str;
    if (kind != "retry" && kind != "shed" && kind != "seal") continue;
    const benchdiff::JsonValue* batch = fields->Find("batch");
    const benchdiff::JsonValue* request = fields->Find("request");
    out.push_back(kind + " b" +
                  std::to_string(batch ? static_cast<long>(batch->number) : -1) +
                  " r" +
                  std::to_string(request ? static_cast<long>(request->number)
                                         : -1));
  }
  return out;
}

// One snapshot of a retried + shed + fused run rendered through both
// exporters: every retry, shed and seal event appears in both (in the
// Chrome trace every seal held the window, so each is a coalesce span).
TEST(BatchServerTrace, BothExportersShowEveryRetryShedAndSeal) {
  ThreadGuard guard;
  SetParallelThreads(1);
  FaultInjectorOptions fi;
  fi.launch_failure_rate = 1.0;
  fi.max_failures = 2;
  ServerOptions opts;
  opts.replicas = 1;
  opts.max_batch = 8;  // above the submit count: every seal holds the window
  opts.coalesce_window_seconds = 0.05;
  opts.engine = SmallOptions();
  opts.engine.fault_injector = std::make_shared<FaultInjector>(fi);
  opts.retry.max_retries = 3;
  opts.retry.backoff_seconds = 1e-4;
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);

  Request doomed;
  doomed.deadline_seconds = 1e-6;
  std::vector<std::future<Response>> futs;
  futs.push_back(server.Submit(doomed));
  for (int i = 0; i < 3; ++i) futs.push_back(server.Submit(Request{}));
  server.Drain();
  int fused = 0, shed = 0, retried = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    fused += r.batch_width > 1;
    shed += r.status == ResponseStatus::kDeadlineExceeded;
    retried += r.retries > 0;
  }
  ASSERT_GE(fused, 2);
  ASSERT_EQ(shed, 1);
  ASSERT_GE(retried, 1);

  const obs::RingSnapshot snap = server.telemetry().events().Snapshot();
  std::size_t expected = 0;
  for (const Event& ev : snap.events) {
    expected += ev.kind == EventKind::kRetry || ev.kind == EventKind::kShed ||
                ev.kind == EventKind::kSeal;
  }
  ASSERT_EQ(OfKind(snap.events, EventKind::kRetry).size(), 2u);

  std::ostringstream chrome_os, flight_os;
  obs::WriteChromeTrace(snap, chrome_os);
  obs::WriteFlightJson(snap, flight_os);
  benchdiff::JsonValue chrome, flight;
  std::string err;
  ASSERT_TRUE(benchdiff::ParseJson(chrome_os.str(), &chrome, &err)) << err;
  ASSERT_TRUE(benchdiff::ParseJson(flight_os.str(), &flight, &err)) << err;
  const std::vector<std::string> in_chrome =
      RetryShedSeal(*chrome.Find("traceEvents"), /*chrome=*/true);
  const std::vector<std::string> in_flight =
      RetryShedSeal(*flight.Find("events"), /*chrome=*/false);
  EXPECT_EQ(in_flight.size(), expected);
  EXPECT_EQ(in_chrome, in_flight);
}

// A dump that cannot be written reports failure: /dev/full accepts the
// open and fails the flush, which is where an unchecked stream lies.
TEST(BatchServerTrace, DumpsToAFullDeviceReturnFalse) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ThreadGuard guard;
  SetParallelThreads(1);
  ServerOptions opts;
  opts.replicas = 1;
  opts.engine = SmallOptions();
  opts.telemetry.tracing = true;
  BatchServer server(SmallTransformer(), opts);
  (void)server.Submit(Request{}).get();
  server.Drain();
  EXPECT_FALSE(server.DumpTrace("/dev/full"));
  EXPECT_FALSE(server.DumpFlightRecorder("/dev/full"));
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
