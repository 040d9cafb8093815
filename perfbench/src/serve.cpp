// Load generation and the output gate. One generator thread drives the
// server; in-flight requests are futures, never threads. Every served
// output is compared bit for bit with a serial single-engine reference
// computed before the timed window.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "perfbench.h"

namespace perfbench {

using shflbw::NowSeconds;
using shflbw::runtime::Engine;
using shflbw::runtime::EngineOptions;
using shflbw::runtime::Request;
using shflbw::runtime::Response;
using shflbw::runtime::ResponseStatus;
using shflbw::runtime::SubmitStatus;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double RelSpread(std::vector<double> v) {
  if (v.size() < 2) return 0;
  const double med = Median(v);
  return med != 0 ? (Quantile(v, 0.75) - Quantile(v, 0.25)) / med : 0;
}

Tail TailOf(const std::vector<double>& v) {
  Tail t;
  for (const int p : {99, 95, 90}) {
    const int beyond = static_cast<int>(
        static_cast<double>(v.size()) * (100 - p) / 100.0);
    if (beyond >= 10) {
      t.percentile = p;
      t.beyond = beyond;
      t.value = Quantile(v, p / 100.0);
      return t;
    }
  }
  t.beyond = static_cast<int>(v.size() / 2);
  t.value = Median(v);
  return t;
}

void References::CorruptOneBit() {
  Matrix<float>& m = refs.at(0).at(0);
  std::uint32_t bits = 0;
  std::memcpy(&bits, m.data(), sizeof bits);
  bits ^= 1u;
  std::memcpy(m.data(), &bits, sizeof bits);
}

References ComputeReferences(
    const BatchServer& server, const ModelDesc& model, const Inputs& in,
    std::shared_ptr<shflbw::runtime::PackedWeightCache> cache) {
  References r;
  for (int level = 0; level < server.levels(); ++level) {
    const auto& plan = server.PlanAt(level);
    EngineOptions eo = server.options().engine;
    eo.planner = plan.options;
    eo.telemetry = nullptr;
    eo.fault_injector = nullptr;
    Engine engine(model, eo, cache);
    engine.AdoptPlan(plan);
    std::vector<Matrix<float>> outs;
    outs.reserve(in.pool.size());
    for (const std::uint64_t seed : in.pool) {
      outs.push_back(engine.Run(seed).output);
    }
    r.refs.push_back(std::move(outs));
  }
  return r;
}

namespace {

/// How long the generator blocks on its oldest request before it looks
/// for others that completed first.
constexpr std::chrono::microseconds kPoll(100);

bool BitIdentical(const Matrix<float>& a, const Matrix<float>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct InFlight {
  std::future<Response> fut;
  std::int64_t n = 0;  // request number in this run
  int pick = 0;        // index into the seed pool
  double due = 0;      // absolute due time (== send for the closed loop)
  double send = 0;
};

class Generator {
 public:
  Generator(BatchServer& server, const Workload& w, const Inputs& in,
            const References& refs, SpanRecorder* spans, double t0)
      : server_(server), w_(w), in_(in), refs_(refs), spans_(spans),
        picks_(in.pick_seed), t0_(t0) {}

  /// Sends one request due at `due`; a refusal counts as rejected.
  void Send(double due, bool blocking) {
    InFlight f;
    f.n = r_.sent++;
    f.pick = picks_.UniformInt(0, static_cast<int>(in_.pool.size()) - 1);
    f.due = due;
    Request req;
    req.activation_seed = in_.pool[static_cast<std::size_t>(f.pick)];
    req.deadline_seconds = w_.deadline_s;
    f.send = NowSeconds();
    const SubmitStatus st = blocking ? server_.Submit(req, &f.fut)
                                     : server_.TrySubmit(req, &f.fut);
    if (w_.open_loop) r_.lag_s.push_back(f.send - f.due);
    if (st != SubmitStatus::kAccepted) {
      ++r_.rejected;
      return;
    }
    ring_.push_back(std::move(f));
  }

  /// Waits for the oldest in-flight request, for at most kPoll when
  /// several replicas serve (their requests complete out of order, and a
  /// client must not wait for an older request it does not own), then
  /// collects every request that is done, in any order; returns how
  /// many. One replica completes in order, so there the wait is
  /// unbounded: a waking generator would steal cycles from the kernels.
  int CollectDone() {
    if (ring_.empty()) return 0;
    if (server_.replicas() > 1) {
      (void)ring_.front().fut.wait_for(kPoll);
    } else {
      ring_.front().fut.wait();
    }
    return CollectReady();
  }

  /// Collects every in-flight request that is done; returns how many.
  int CollectReady() {
    int done = 0;
    for (auto it = ring_.begin(); it != ring_.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      Collect(*it);
      it = ring_.erase(it);
      ++done;
    }
    return done;
  }

  bool Idle() const { return ring_.empty(); }
  /// Latest completion time of any collected request.
  double last_end() const { return last_end_; }
  ServeResult& result() { return r_; }

 private:
  void Collect(InFlight& f) {
    Response resp;
    try {
      resp = f.fut.get();
    } catch (const std::exception&) {
      ++r_.exceptions;
      return;
    }
    const double total =
        resp.queue_seconds + resp.retry_seconds + resp.run_seconds;
    const double end = f.send + total;
    last_end_ = std::max(last_end_, end);
    if (spans_ != nullptr) RecordSpans(f, resp, end);
    if (resp.status == ResponseStatus::kDeadlineExceeded) {
      ++r_.shed;
      return;
    }
    ++r_.ok;
    const auto& level_refs =
        refs_.refs.at(static_cast<std::size_t>(resp.plan_level));
    const bool mismatch = !BitIdentical(
        resp.output, level_refs.at(static_cast<std::size_t>(f.pick)));
    const double floor = server_.LevelFloor(resp.plan_level);
    const bool below = floor > 0 && resp.retained_ratio + 1e-12 < floor;
    r_.mismatched += mismatch;
    r_.below_floor += below;
    r_.bad += mismatch || below;
    if (resp.retained_ratio >= 0) r_.retained_sum += resp.retained_ratio;
    if (resp.plan_level >= 1) ++r_.level1;
    const double latency = end - f.due;
    r_.latency_s.push_back(latency);
    r_.done_s.push_back(end - t0_);
    if (w_.deadline_s > 0 && latency > w_.deadline_s) {
      ++r_.late;
    } else if (!mismatch && !below) {
      ++r_.ok_in_slo;  // a wrong answer misses its SLO too
    }
    r_.queue_s.push_back(resp.queue_seconds);
    r_.run_s.push_back(resp.run_seconds);
    r_.width.push_back(resp.batch_width);
  }

  void RecordSpans(const InFlight& f, const Response& resp, double end) {
    const int req = spans_->Add("request", f.due, end, SpanRecorder::kNone,
                                f.n);
    if (w_.open_loop) spans_->Add("gen.lag", f.due, f.send, req, f.n);
    double t = f.send;
    spans_->Add("server.queue", t, t + resp.queue_seconds, req, f.n);
    t += resp.queue_seconds;
    if (resp.status == ResponseStatus::kDeadlineExceeded) return;
    if (resp.retry_seconds > 0) {
      spans_->Add("server.retry", t, t + resp.retry_seconds, req, f.n);
      t += resp.retry_seconds;
    }
    spans_->Add("server.run", t, t + resp.run_seconds, req, f.n);
  }

  BatchServer& server_;
  const Workload& w_;
  const Inputs& in_;
  const References& refs_;
  SpanRecorder* spans_;
  shflbw::Rng picks_;
  double t0_;
  std::deque<InFlight> ring_;
  ServeResult r_;
  double last_end_ = 0;
};

}  // namespace

Tail RunTail(const ServeResult& r, double seconds) {
  // As many equal windows as leave each about 1500 samples, p99 with
  // margin; fewer than kMinWindows means the run is scored whole.
  const std::size_t n_windows = r.latency_s.size() / 1500;
  if (n_windows < kMinWindows) return TailOf(r.latency_s);
  std::vector<std::vector<double>> windows(n_windows);
  const double len = seconds / static_cast<double>(n_windows);
  for (std::size_t i = 0; i < r.done_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(r.done_s[i] / len);
    if (k < windows.size()) windows[k].push_back(r.latency_s[i]);
  }
  std::vector<double> tails;
  Tail t;
  for (const auto& win : windows) {
    const Tail wt = TailOf(win);
    if (wt.percentile != 99) return TailOf(r.latency_s);
    tails.push_back(wt.value);
    t.beyond += wt.beyond;
  }
  t.value = Median(tails);
  t.percentile = 99;
  t.windows = static_cast<int>(n_windows);
  return t;
}

ServeResult Serve(BatchServer& server, const Workload& w, const Inputs& in,
                  const References& refs, double seconds,
                  SpanRecorder* spans) {
  const auto before = server.Stats();
  const double t0 = NowSeconds();
  Generator gen(server, w, in, refs, spans, t0);
  if (w.open_loop) {
    for (const double offset : in.due) {
      const double target = t0 + offset;
      const double now = NowSeconds();
      if (target > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(target - now));
      }
      gen.Send(target, /*blocking=*/false);
      (void)gen.CollectReady();
    }
    while (!gen.Idle()) (void)gen.CollectDone();
  } else {
    // Closed loop: each client sends its next request as soon as its
    // previous one completes.
    const double stop = t0 + seconds;
    for (int c = 0; c < w.clients; ++c) gen.Send(NowSeconds(), true);
    while (!gen.Idle()) {
      const int done = gen.CollectDone();
      for (int i = 0; i < done && NowSeconds() < stop; ++i) {
        gen.Send(NowSeconds(), true);
      }
    }
  }
  server.Drain();
  ServeResult r = std::move(gen.result());
  r.wall_s = std::max(1e-9, gen.last_end() - t0);
  r.schedule_s = seconds;
  const auto after = server.Stats();
  r.conserved = after.submitted == after.completed + after.shed;
  r.shifts = (after.downshifts + after.upshifts) -
             (before.downshifts + before.upshifts);
  return r;
}

void GateServing(const ServeResult& r, const Workload& w, RunReport& report) {
  report.attempted += r.sent;
  report.failed += r.Errors();
  const double lag99 = Quantile(r.lag_s, 0.99);
  const double lag_bound = kMaxLagP99DeadlineShare * w.deadline_s;
  const bool valid = !w.open_loop || lag99 <= lag_bound;
  if (r.Errors() > 0 || !r.conserved || !valid || r.ok == 0) {
    report.correct = false;
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "serve: sent=%d ok=%d in_slo=%d shed=%d rejected=%d late=%d "
                "exceptions=%d mismatched=%d below_floor=%d error_frac=%.6f "
                "conserved=%s",
                r.sent, r.ok, r.ok_in_slo, r.shed, r.rejected, r.late,
                r.exceptions, r.mismatched, r.below_floor,
                r.sent > 0 ? static_cast<double>(r.Errors()) / r.sent : 0.0,
                r.conserved ? "yes" : "NO");
  report.notes.push_back(buf);
  if (w.open_loop) {
    std::snprintf(buf, sizeof buf,
                  "open loop: generator lateness p50 %.3f p99 %.3f max %.3f ms "
                  "(p99 bound %.1f ms): %s",
                  Median(r.lag_s) * 1e3, lag99 * 1e3,
                  Quantile(r.lag_s, 1.0) * 1e3, lag_bound * 1e3,
                  valid ? "valid" : "INVALID, not scored");
    report.notes.push_back(buf);
  }
}

}  // namespace perfbench
