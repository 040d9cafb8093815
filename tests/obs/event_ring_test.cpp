// Event-ring contract: the ring wraps (always holding the most recent
// events), concurrent writers never tear an event (every snapshotted
// event is internally consistent across all 13 words — the TSan CI job
// runs this test to prove the seqlock protocol race-free), drops are
// counted instead of blocking, labels truncate safely, and the two
// exporters render one snapshot as strict JSON: the Chrome trace draws
// only span events, the flight JSON every event by kind name.
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchdiff/benchdiff.h"
#include "obs/event_ring.h"

namespace shflbw {
namespace obs {
namespace {

Event MakeEvent(std::uint64_t i) {
  Event ev;
  ev.kind = EventKind::kSubmit;
  ev.begin_seconds = static_cast<double>(i);
  ev.end_seconds = static_cast<double>(i);
  ev.request_id = i;
  ev.detail = static_cast<std::int32_t>(i % 1000);
  return ev;
}

benchdiff::JsonValue Parse(const std::string& text) {
  benchdiff::JsonValue root;
  std::string err;
  EXPECT_TRUE(benchdiff::ParseJson(text, &root, &err))
      << err << "\n" << text.substr(0, 400);
  return root;
}

TEST(EventRing, RecordsAndSnapshotsInOrder) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.Record(MakeEvent(i));
  const RingSnapshot snap = ring.Snapshot();
  ASSERT_EQ(snap.events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snap.events[i].request_id, i);
    EXPECT_DOUBLE_EQ(snap.events[i].begin_seconds, static_cast<double>(i));
  }
  EXPECT_EQ(snap.total, 5u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.capacity, 8u);
}

TEST(EventRing, WrapsKeepingTheMostRecentWindow) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) ring.Record(MakeEvent(i));
  const std::vector<Event> events = ring.Snapshot().events;
  // Single writer: nothing is mid-write, so the full window survives.
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request_id, 12 + i);  // tickets [12, 20)
  }
  EXPECT_EQ(ring.total(), 20u);
}

TEST(EventRing, ClearResets) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) ring.Record(MakeEvent(i));
  ring.Clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.Snapshot().events.empty());
  ring.Record(MakeEvent(7));
  ASSERT_EQ(ring.Snapshot().events.size(), 1u);
  EXPECT_EQ(ring.Snapshot().events[0].request_id, 7u);
}

TEST(EventRing, LabelsTruncateSafely) {
  Event ev;
  ev.SetLabel(std::string(200, 'x'));
  ev.SetLabel2(std::string(200, 'y'));
  EXPECT_EQ(std::string(ev.label).size(), sizeof(ev.label) - 1);
  EXPECT_EQ(std::string(ev.label2).size(), sizeof(ev.label2) - 1);
}

/// An event whose every word is derived from (writer, i), so a torn
/// copy — words from two different writes — breaks the relation.
Event Stamped(int writer, std::uint64_t i) {
  Event ev;
  ev.kind = EventKind::kSeal;
  ev.detail = writer;
  ev.width = static_cast<std::int32_t>(i % 1000000);
  ev.begin_seconds = static_cast<double>(writer) * 1e6 + ev.width;
  ev.end_seconds = ev.begin_seconds + 1;
  ev.request_id = i;
  ev.batch_id = ~i;
  ev.SetLabel(std::to_string(i));
  return ev;
}

bool Consistent(const Event& ev) {
  return ev.begin_seconds ==
             static_cast<double>(ev.detail) * 1e6 + ev.width &&
         ev.end_seconds == ev.begin_seconds + 1 &&
         ev.batch_id == ~ev.request_id &&
         std::string(ev.label) == std::to_string(ev.request_id);
}

// The concurrency core: N writers hammer a small ring while a reader
// snapshots continuously; a torn read would break Consistent(). Run
// under TSan in CI, this also proves the seqlock publication protocol
// data-race-free.
TEST(EventRing, ConcurrentWritersNeverTearAnEvent) {
  EventRing ring(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const Event& ev : ring.Snapshot().events) {
        ASSERT_TRUE(Consistent(ev))
            << "torn event: detail=" << ev.detail << " width=" << ev.width;
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Record(Stamped(w, i));
      }
    });
  }
  for (std::thread& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Conservation: every claim either published or was counted dropped.
  EXPECT_EQ(ring.total(), kWriters * kPerWriter);
  // Quiescent snapshot: every surviving slot is published and
  // consistent. A slot whose newest claim lost its CAS (writer lapped
  // mid-publish) holds an older generation and is rightly skipped, so
  // the window is only guaranteed full when nothing was dropped.
  const std::vector<Event> events = ring.Snapshot().events;
  EXPECT_LE(events.size(), ring.capacity());
  if (ring.dropped() == 0) {
    EXPECT_EQ(events.size(), ring.capacity());
  }
  for (const Event& ev : events) EXPECT_TRUE(Consistent(ev));
}

TEST(EventRing, FlightJsonMentionsEveryField) {
  EventRing ring(8);
  Event ev;
  ev.kind = EventKind::kStall;
  ev.begin_seconds = 1.25;
  ev.end_seconds = 1.5;
  ev.request_id = 42;
  ev.batch_id = 7;
  ev.replica = 3;
  ev.level = 1;
  ev.layer = 5;
  ev.width = 4;
  ev.attempt = 2;
  ev.detail = -2;
  ev.SetLabel("re\"plica");  // exercises label escaping
  ev.SetLabel2("bsr");
  ring.Record(ev);
  std::ostringstream os;
  WriteFlightJson(ring.Snapshot(), os);
  const std::string json = os.str();
  const benchdiff::JsonValue root = Parse(json);
  ASSERT_NE(root.Find("events"), nullptr);
  ASSERT_EQ(root.Find("events")->array.size(), 1u);
  const benchdiff::JsonValue& e = root.Find("events")->array[0];
  EXPECT_EQ(e.Find("kind")->str, "stall");
  EXPECT_DOUBLE_EQ(e.Find("begin")->number, 1.25);
  EXPECT_DOUBLE_EQ(e.Find("end")->number, 1.5);
  EXPECT_EQ(e.Find("request")->number, 42);
  EXPECT_EQ(e.Find("batch")->number, 7);
  EXPECT_EQ(e.Find("replica")->number, 3);
  EXPECT_EQ(e.Find("level")->number, 1);
  EXPECT_EQ(e.Find("layer")->number, 5);
  EXPECT_EQ(e.Find("width")->number, 4);
  EXPECT_EQ(e.Find("attempt")->number, 2);
  EXPECT_EQ(e.Find("detail")->number, -2);
  EXPECT_EQ(e.Find("label")->str, "re\"plica");
  EXPECT_EQ(e.Find("label2")->str, "bsr");
  EXPECT_EQ(root.Find("total")->number, 1);
  EXPECT_EQ(root.Find("capacity")->number, 8);
}

// The Chrome exporter draws spans only: a seal that held the coalesce
// window is a "coalesce" span and one that did not is no span, a
// kernel span is named by its layer, and launch/complete/shift/stall
// stay out of the trace.
TEST(EventRing, ChromeTraceDrawsOnlySpans) {
  EventRing ring(16);
  Event windowed;
  windowed.kind = EventKind::kSeal;
  windowed.replica = 0;
  windowed.begin_seconds = 1.0;
  windowed.end_seconds = 1.5;
  Event unwindowed = windowed;
  unwindowed.begin_seconds = unwindowed.end_seconds;
  Event kernel;
  kernel.kind = EventKind::kKernel;
  kernel.replica = 0;
  kernel.SetLabel("enc.ffn1");
  kernel.SetLabel2("bsr");
  Event submit = MakeEvent(3);
  for (const Event& ev : {windowed, unwindowed, kernel, submit}) {
    ring.Record(ev);
  }
  for (EventKind k : {EventKind::kLaunch, EventKind::kComplete,
                      EventKind::kShift, EventKind::kStall}) {
    Event ev;
    ev.kind = k;
    ev.replica = 1;
    EXPECT_EQ(SpanName(ev), nullptr) << EventKindName(k);
    ring.Record(ev);
  }
  EXPECT_STREQ(SpanName(windowed), "coalesce");
  EXPECT_EQ(SpanName(unwindowed), nullptr);
  EXPECT_STREQ(SpanName(kernel), "enc.ffn1");
  EXPECT_STREQ(SpanName(submit), "admission");

  std::ostringstream os;
  WriteChromeTrace(ring.Snapshot(), os);
  const benchdiff::JsonValue root = Parse(os.str());
  const benchdiff::JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> spans;
  std::vector<std::string> threads;
  for (const benchdiff::JsonValue& e : events->array) {
    if (e.Find("ph")->str == "X") {
      spans.push_back(e.Find("name")->str + "/" + e.Find("cat")->str + "/" +
                      std::to_string(static_cast<int>(e.Find("pid")->number)));
    } else if (e.Find("name")->str == "thread_name") {
      threads.push_back(e.Find("args")->Find("name")->str);
    }
  }
  EXPECT_EQ(spans, (std::vector<std::string>{"coalesce/coalesce/1",
                                             "enc.ffn1/kernel/1",
                                             "admission/admission/2"}));
  // Replica 1 only recorded non-span events: it gets no track.
  EXPECT_EQ(threads, std::vector<std::string>{"replica 0"});
}

TEST(EventRing, DumpsReportWriteFailure) {
  EventRing ring(8);
  ring.Record(MakeEvent(1));
  EXPECT_FALSE(ring.DumpChromeTrace("/nonexistent-dir/trace.json"));
  EXPECT_FALSE(ring.DumpFlightJson("/nonexistent-dir/flight.json"));
}

TEST(EventKindName, CoversEveryKind) {
  EXPECT_STREQ(EventKindName(EventKind::kSubmit), "submit");
  EXPECT_STREQ(EventKindName(EventKind::kReject), "reject");
  EXPECT_STREQ(EventKindName(EventKind::kSeal), "seal");
  EXPECT_STREQ(EventKindName(EventKind::kLaunch), "launch");
  EXPECT_STREQ(EventKindName(EventKind::kComplete), "complete");
  EXPECT_STREQ(EventKindName(EventKind::kRetry), "retry");
  EXPECT_STREQ(EventKindName(EventKind::kShed), "shed");
  EXPECT_STREQ(EventKindName(EventKind::kShift), "shift");
  EXPECT_STREQ(EventKindName(EventKind::kStall), "stall");
  EXPECT_STREQ(EventKindName(EventKind::kQueue), "queue");
  EXPECT_STREQ(EventKindName(EventKind::kRun), "run");
  EXPECT_STREQ(EventKindName(EventKind::kKernel), "kernel");
}

}  // namespace
}  // namespace obs
}  // namespace shflbw
