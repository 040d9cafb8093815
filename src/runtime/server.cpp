#include "runtime/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "common/build_info.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "quality/quality_planner.h"
#include "runtime/format.h"

namespace shflbw {
namespace runtime {
namespace {

/// Registry counters hold doubles (exact for integer counts to 2^53);
/// ServerStats speaks uint64.
std::uint64_t AsCount(const obs::Counter* c) {
  return static_cast<std::uint64_t>(std::llround(c->Value()));
}

}  // namespace

void ValidateServerOptions(const ServerOptions& opts) {
  SHFLBW_CHECK_MSG(opts.replicas >= 1,
                   "server needs at least one replica, got " << opts.replicas);
  SHFLBW_CHECK_MSG(opts.queue_capacity >= 1,
                   "queue capacity must be >= 1, got " << opts.queue_capacity);
  SHFLBW_CHECK_MSG(opts.max_batch >= 1,
                   "max_batch must be >= 1, got " << opts.max_batch);
  SHFLBW_CHECK_MSG(opts.coalesce_window_seconds >= 0.0,
                   "coalesce window must be >= 0, got "
                       << opts.coalesce_window_seconds << " seconds");

  const AdmissionPolicy& a = opts.admission;
  SHFLBW_CHECK_MSG(
      a.best_effort_occupancy > 0.0 && a.best_effort_occupancy <= 1.0,
      "admission.best_effort_occupancy must be in (0, 1], got "
          << a.best_effort_occupancy);
  SHFLBW_CHECK_MSG(a.service_estimate_seconds >= 0.0,
                   "admission.service_estimate_seconds must be >= 0, got "
                       << a.service_estimate_seconds);
  SHFLBW_CHECK_MSG(a.ewma_alpha > 0.0 && a.ewma_alpha <= 1.0,
                   "admission.ewma_alpha must be in (0, 1], got "
                       << a.ewma_alpha);

  const DegradationPolicy& d = opts.degradation;
  for (std::size_t i = 0; i < d.ladder_floors.size(); ++i) {
    SHFLBW_CHECK_MSG(d.ladder_floors[i] > 0.0 && d.ladder_floors[i] <= 1.0,
                     "degradation.ladder_floors[" << i << "] = "
                         << d.ladder_floors[i] << " must be in (0, 1]");
    SHFLBW_CHECK_MSG(i == 0 || d.ladder_floors[i] < d.ladder_floors[i - 1],
                     "degradation.ladder_floors must be strictly descending; "
                     "got " << d.ladder_floors[i - 1] << " then "
                            << d.ladder_floors[i]);
  }
  SHFLBW_CHECK_MSG(
      d.degrade_queue_fraction > 0.0 && d.degrade_queue_fraction <= 1.0,
      "degradation.degrade_queue_fraction must be in (0, 1], got "
          << d.degrade_queue_fraction);
  SHFLBW_CHECK_MSG(d.upgrade_queue_fraction >= 0.0 &&
                       d.upgrade_queue_fraction < d.degrade_queue_fraction,
                   "degradation.upgrade_queue_fraction must be in [0, "
                   "degrade_queue_fraction); got "
                       << d.upgrade_queue_fraction << " vs degrade fraction "
                       << d.degrade_queue_fraction);
  SHFLBW_CHECK_MSG(
      d.deadline_slack_fraction >= 0.0 && d.deadline_slack_fraction < 1.0,
      "degradation.deadline_slack_fraction must be in [0, 1), got "
          << d.deadline_slack_fraction);
  SHFLBW_CHECK_MSG(d.hysteresis_seals >= 1,
                   "degradation.hysteresis_seals must be >= 1, got "
                       << d.hysteresis_seals);
  SHFLBW_CHECK_MSG(d.latency_window >= 1,
                   "degradation.latency_window must be >= 1, got "
                       << d.latency_window);
  // A forced format pins every layer; a quality ladder exists to move
  // layers between formats/densities. Honouring both would make the
  // ladder levels identical plans — reject the contradiction instead of
  // silently compiling a ladder that cannot degrade.
  SHFLBW_CHECK_MSG(
      d.ladder_floors.empty() || !opts.engine.planner.force_format.has_value(),
      "degradation.ladder_floors and engine.planner.force_format conflict: a "
      "forced format leaves the quality ladder nothing to trade");

  const RetryPolicy& r = opts.retry;
  SHFLBW_CHECK_MSG(r.max_retries >= 0,
                   "retry.max_retries must be >= 0, got " << r.max_retries);
  SHFLBW_CHECK_MSG(r.backoff_seconds >= 0.0,
                   "retry.backoff_seconds must be >= 0, got "
                       << r.backoff_seconds);
  SHFLBW_CHECK_MSG(r.backoff_multiplier >= 1.0,
                   "retry.backoff_multiplier must be >= 1, got "
                       << r.backoff_multiplier);

  const obs::WatchdogOptions& w = opts.watchdog;
  SHFLBW_CHECK_MSG(w.stall_budget_seconds > 0.0,
                   "watchdog.stall_budget_seconds must be > 0, got "
                       << w.stall_budget_seconds);
  SHFLBW_CHECK_MSG(w.poll_interval_seconds > 0.0,
                   "watchdog.poll_interval_seconds must be > 0, got "
                       << w.poll_interval_seconds);
  // A budget inside the coalesce window would flag every windowed seal
  // as a stall: the replica is armed and silent, legitimately.
  SHFLBW_CHECK_MSG(!w.enabled ||
                       w.stall_budget_seconds > opts.coalesce_window_seconds,
                   "watchdog.stall_budget_seconds ("
                       << w.stall_budget_seconds
                       << ") must exceed coalesce_window_seconds ("
                       << opts.coalesce_window_seconds << ")");
}

BatchServer::BatchServer(ModelDesc model, ServerOptions opts)
    : opts_(std::move(opts)),
      telemetry_(std::make_shared<obs::Telemetry>(opts_.telemetry)),
      cache_(std::make_shared<PackedWeightCache>()) {
  ValidateServerOptions(opts_);
  // Autotune re-ranks plans by wall-clock measurement; replicas could
  // diverge onto different plans, breaking both cache sharing and the
  // bit-identical guarantee. Force the deterministic planner.
  opts_.engine.planner.autotune = false;
  // Every engine shares the server's telemetry, so kernel spans and
  // profiling rows from fused launches land in the same trace /
  // registry as the serving-side spans and counters.
  opts_.engine.telemetry = telemetry_;

  // Expand the quality ladder into one PlannerOptions per level. No
  // ladder = one level with the caller's planner options untouched
  // (quality-aware only if the caller enabled it).
  const std::vector<double>& floors = opts_.degradation.ladder_floors;
  std::vector<PlannerOptions> ladder;
  if (!floors.empty()) {
    ladder = quality::LadderPlannerOptions(opts_.engine.planner, floors);
  } else {
    ladder.push_back(opts_.engine.planner);
  }
  const int levels = static_cast<int>(ladder.size());

  engines_.resize(static_cast<std::size_t>(opts_.replicas));
  for (auto& row : engines_) row.reserve(static_cast<std::size_t>(levels));
  level_floors_.reserve(static_cast<std::size_t>(levels));
  level_ratios_.reserve(static_cast<std::size_t>(levels));
  for (int lvl = 0; lvl < levels; ++lvl) {
    EngineOptions eo = opts_.engine;
    eo.planner = ladder[static_cast<std::size_t>(lvl)];
    // Compile each level's (deterministic, replica-identical) plan
    // exactly once — on replica 0, while no scheduler thread exists —
    // and let the other replicas adopt it. Quality-aware planning
    // scores every (layer, format, density, V) mask, so recompiling it
    // replicas-1 more times per level would multiply the most expensive
    // startup step for bit-identical results. All engines pack into the
    // shared cache_; its key (layer, format, density, v) keeps the
    // levels' mixed-density entries distinct and shareable.
    engines_[0].push_back(std::make_unique<Engine>(model, eo, cache_));
    const ExecutionPlan& plan = engines_[0].back()->Plan();
    for (int r = 1; r < opts_.replicas; ++r) {
      engines_[static_cast<std::size_t>(r)].push_back(
          std::make_unique<Engine>(model, eo, cache_));
      engines_[static_cast<std::size_t>(r)].back()->AdoptPlan(plan);
    }
    if (floors.empty()) {
      level_floors_.push_back(-1.0);
      level_ratios_.push_back(-1.0);
    } else {
      level_floors_.push_back(floors[static_cast<std::size_t>(lvl)]);
      level_ratios_.push_back(plan.MinRetainedRatio());
    }
  }
  RegisterMetrics();
  admission_ = AdmissionController(opts_.admission, opts_.replicas);
  controller_ = DegradationController(opts_.degradation, levels);
  start_seconds_ = NowSeconds();

  threads_.reserve(engines_.size());
  for (int r = 0; r < static_cast<int>(engines_.size()); ++r) {
    threads_.emplace_back([this, r] { ReplicaLoop(r); });
  }
  if (opts_.watchdog.enabled) {
    // Watches the replica heartbeats and the process-wide ParallelFor
    // region heartbeats; the callback runs on the watchdog thread with
    // no watchdog lock held, so it may take mu_.
    watchdog_ = std::make_unique<obs::Watchdog>(
        opts_.watchdog,
        std::vector<const obs::HeartbeatRegistry*>{&heartbeats_,
                                                   &obs::GlobalHeartbeats()},
        [this](const std::string& name, double age) { OnStall(name, age); });
  }
}

void BatchServer::RegisterMetrics() {
  obs::Registry& reg = telemetry_->registry();
  c_submitted_ = &reg.GetCounter("shflbw_requests_submitted_total",
                                 "Requests admitted to the queue");
  c_completed_ = &reg.GetCounter("shflbw_requests_completed_total",
                                 "Requests resolved by a launch (ok or "
                                 "error)");
  c_shed_ = &reg.GetCounter("shflbw_requests_shed_total",
                            "Deadline-expired requests dropped at seal");
  c_rejected_queue_full_ =
      &reg.GetCounter("shflbw_requests_rejected_total{reason=\"queue_full\"}",
                      "Requests rejected at admission");
  c_rejected_deadline_ =
      &reg.GetCounter("shflbw_requests_rejected_total{reason=\"deadline\"}");
  c_rejected_shutdown_ =
      &reg.GetCounter("shflbw_requests_rejected_total{reason=\"shutdown\"}");
  c_retries_ = &reg.GetCounter("shflbw_launch_retries_total",
                               "Transient-fault retries across all batches");
  c_failed_ = &reg.GetCounter("shflbw_requests_failed_total",
                              "Requests resolved with an exception");
  c_per_replica_.reserve(engines_.size());
  for (std::size_t r = 0; r < engines_.size(); ++r) {
    c_per_replica_.push_back(&reg.GetCounter(
        "shflbw_replica_completed_total{replica=\"" + std::to_string(r) +
            "\"}",
        "Requests completed, by replica"));
  }
  c_per_level_.reserve(engines_.front().size());
  for (std::size_t l = 0; l < engines_.front().size(); ++l) {
    c_per_level_.push_back(&reg.GetCounter(
        "shflbw_level_completed_total{level=\"" + std::to_string(l) + "\"}",
        "Requests completed, by ladder level"));
  }
  h_queue_seconds_ = &reg.GetHistogram(
      "shflbw_request_queue_seconds",
      "Submit -> batch seal, including the coalesce window");
  h_retry_seconds_ = &reg.GetHistogram(
      "shflbw_request_retry_seconds",
      "Retry overhead of faulted launches: failed attempts + backoff");
  h_run_seconds_ = &reg.GetHistogram("shflbw_request_run_seconds",
                                     "Final fused launch wall-clock");
  h_total_seconds_ = &reg.GetHistogram("shflbw_request_total_seconds",
                                       "Submit -> completion");
  h_batch_width_ = &reg.GetHistogram(
      "shflbw_batch_width", "Requests fused per launch", /*min_value=*/1.0);
  g_queue_depth_ = &reg.GetGauge("shflbw_queue_depth",
                                 "Requests admitted but not yet dispatched");
  g_level_ = &reg.GetGauge("shflbw_ladder_level",
                           "Degradation controller's current level");
  c_stalls_ = &reg.GetCounter("shflbw_watchdog_stalls_total",
                              "Stall episodes detected by the watchdog");
}

BatchServer::~BatchServer() { Shutdown(); }

const ExecutionPlan& BatchServer::Plan() const { return PlanAt(0); }

const ExecutionPlan& BatchServer::PlanAt(int level) const {
  SHFLBW_CHECK_MSG(level >= 0 && level < levels(),
                   "plan level " << level << " out of range [0, " << levels()
                                 << ")");
  // Safe concurrently with serving: every level's plan was compiled in
  // the constructor, so this is a read of an already-initialized value.
  return engines_.front()[static_cast<std::size_t>(level)]->Plan();
}

int BatchServer::levels() const {
  return static_cast<int>(engines_.front().size());
}

double BatchServer::LevelFloor(int level) const {
  SHFLBW_CHECK_MSG(level >= 0 && level < levels(),
                   "ladder level " << level << " out of range [0, " << levels()
                                   << ")");
  return level_floors_[static_cast<std::size_t>(level)];
}

double BatchServer::LevelRetainedRatio(int level) const {
  SHFLBW_CHECK_MSG(level >= 0 && level < levels(),
                   "ladder level " << level << " out of range [0, " << levels()
                                   << ")");
  return level_ratios_[static_cast<std::size_t>(level)];
}

void BatchServer::Warmup() {
  // One forced request per ladder level through the regular queue:
  // whichever replica serves level L packs every (layer, format,
  // density, v) L's plan selects into the shared cache, and all
  // replicas resolve to the same keys, so later requests — including
  // batches a mid-overload downshift moves to a deeper level — perform
  // zero conversions. Going through the scheduler (instead of touching
  // an engine from this thread) keeps the one-thread-per-engine
  // invariant even when Warmup is called while requests are in flight.
  std::vector<std::future<Response>> futs;
  futs.reserve(static_cast<std::size_t>(levels()));
  for (int lvl = 0; lvl < levels(); ++lvl) {
    futs.push_back(SubmitInternal(Request{opts_.engine.activation_seed}, lvl));
  }
  for (std::future<Response>& f : futs) (void)f.get();
}

std::future<Response> BatchServer::Enqueue(Request req, int force_level,
                                           double begin) {
  Pending p;
  p.req = req;
  p.id = next_id_++;
  p.submit_time = NowSeconds();
  p.force_level = force_level;
  std::future<Response> fut = p.promise.get_future();
  obs::Event ev;
  ev.kind = obs::EventKind::kSubmit;
  ev.begin_seconds = begin;
  ev.end_seconds = p.submit_time;
  ev.request_id = p.id;
  queue_.push_back(std::move(p));
  c_submitted_->Add();
  g_queue_depth_->Set(static_cast<double>(queue_.size()));
  ev.detail = static_cast<std::int32_t>(queue_.size());
  telemetry_->events().Record(ev);
  return fut;
}

SubmitStatus BatchServer::Reject(double begin, SubmitStatus verdict) {
  obs::Counter* counter =
      verdict == SubmitStatus::kRejectedQueueFull ? c_rejected_queue_full_
      : verdict == SubmitStatus::kRejectedInfeasibleDeadline
          ? c_rejected_deadline_
          : c_rejected_shutdown_;
  counter->Add();
  obs::Event ev;
  ev.kind = obs::EventKind::kReject;
  ev.begin_seconds = begin;
  ev.end_seconds = NowSeconds();
  ev.detail = static_cast<std::int32_t>(verdict);
  ev.SetLabel(SubmitStatusName(verdict));
  telemetry_->events().Record(ev);
  return verdict;
}

SubmitStatus BatchServer::Submit(Request req, std::future<Response>* out) {
  const double begin = NowSeconds();
  UniqueLock lock(mu_);
  const std::size_t cap = admission_.CapacityFor(req.qos, opts_.queue_capacity);
  not_full_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
    return stop_ || queue_.size() < cap;
  });
  if (stop_) {
    // Includes producers that were blocked on a full queue when
    // Shutdown ran: they wake here with a typed rejection, never hang.
    return Reject(begin, SubmitStatus::kRejectedShutdown);
  }
  if (!admission_.DeadlineFeasible(req.qos, req.deadline_seconds,
                                   queue_.size())) {
    return Reject(begin, SubmitStatus::kRejectedInfeasibleDeadline);
  }
  *out = Enqueue(req, /*force_level=*/-1, begin);
  lock.Unlock();
  not_empty_.NotifyOne();
  return SubmitStatus::kAccepted;
}

std::future<Response> BatchServer::Submit(Request req) {
  std::future<Response> fut;
  const SubmitStatus status = Submit(req, &fut);
  SHFLBW_CHECK_MSG(status == SubmitStatus::kAccepted,
                   "BatchServer: submit rejected ("
                       << SubmitStatusName(status) << ")");
  return fut;
}

SubmitStatus BatchServer::TrySubmit(Request req, std::future<Response>* out) {
  const double begin = NowSeconds();
  {
    MutexLock lock(mu_);
    if (stop_) return Reject(begin, SubmitStatus::kRejectedShutdown);
    const std::size_t cap =
        admission_.CapacityFor(req.qos, opts_.queue_capacity);
    if (queue_.size() >= cap) {
      return Reject(begin, SubmitStatus::kRejectedQueueFull);
    }
    if (!admission_.DeadlineFeasible(req.qos, req.deadline_seconds,
                                     queue_.size())) {
      return Reject(begin, SubmitStatus::kRejectedInfeasibleDeadline);
    }
    *out = Enqueue(req, /*force_level=*/-1, begin);
  }
  not_empty_.NotifyOne();
  return SubmitStatus::kAccepted;
}

std::future<Response> BatchServer::SubmitInternal(Request req,
                                                  int force_level) {
  // Warmup path: blocking, full queue share, no admission checks (the
  // request is the server's own and carries no deadline).
  const double begin = NowSeconds();
  UniqueLock lock(mu_);
  not_full_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
    return stop_ || queue_.size() < opts_.queue_capacity;
  });
  SHFLBW_CHECK_MSG(!stop_, "BatchServer: warmup after shutdown");
  std::future<Response> fut = Enqueue(req, force_level, begin);
  lock.Unlock();
  not_empty_.NotifyOne();
  return fut;
}

void BatchServer::Drain() {
  // The idle condition is evaluated under mu_ by wait() itself — both
  // on entry and after every wakeup — so there is no unlocked
  // check-then-wait gap for a concurrent Submit to slip through:
  // either the submit lands before a predicate evaluation (next_id_
  // grows, Drain keeps waiting for its retirement) or after Drain has
  // already observed completed_ + shed_ == next_id_ and returned, which
  // is correct — that request was not "submitted so far". Both counters
  // are only ever incremented under mu_, batch-atomically with the
  // idle_ notification and after the batch's promises (served and shed
  // alike) were resolved, so Drain cannot miss the transition and every
  // pre-Drain future is ready when it returns.
  UniqueLock lock(mu_);
  idle_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
    return completed_ + shed_ == next_id_;
  });
}

void BatchServer::Shutdown() {
  // Stop the watchdog before anything else: its stall callback reads
  // server state and must never observe the teardown as a "stall".
  // Moved out under mu_ (a concurrent second caller moves an empty
  // pointer), joined with no lock held — the callback takes mu_.
  std::unique_ptr<obs::Watchdog> watchdog;
  {
    MutexLock lock(mu_);
    watchdog = std::move(watchdog_);
  }
  watchdog.reset();
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mu_);
    stop_ = true;
    to_join.swap(threads_);  // second caller swaps an empty vector
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  for (std::thread& th : to_join) th.join();
}

ServerStats BatchServer::Stats() const {
  MutexLock lock(mu_);
  // Snapshot view over the registry: every counter here is only ever
  // incremented under mu_, so reading them under mu_ yields the same
  // exact values the old member counters did.
  ServerStats s;
  s.submitted = next_id_;
  s.completed = completed_;
  s.shed = shed_;
  s.rejected_queue_full = AsCount(c_rejected_queue_full_);
  s.rejected_deadline = AsCount(c_rejected_deadline_);
  s.rejected_shutdown = AsCount(c_rejected_shutdown_);
  s.retries = AsCount(c_retries_);
  s.failed = AsCount(c_failed_);
  s.per_replica.reserve(c_per_replica_.size());
  for (const obs::Counter* c : c_per_replica_) {
    s.per_replica.push_back(AsCount(c));
  }
  s.per_level.reserve(c_per_level_.size());
  for (const obs::Counter* c : c_per_level_) s.per_level.push_back(AsCount(c));
  s.level = controller_.level();
  s.downshifts = controller_.downshifts();
  s.upshifts = controller_.upshifts();
  s.estimated_service_seconds = admission_.EstimatedServiceSeconds();
  return s;
}

std::string BatchServer::MetricsText() const {
  obs::Registry& reg = telemetry_->registry();
  // Refresh the point-in-time gauges the hot path doesn't maintain.
  {
    MutexLock lock(mu_);
    g_queue_depth_->Set(static_cast<double>(queue_.size()));
    g_level_->Set(controller_.level());
    reg.GetGauge("shflbw_ladder_downshifts", "Degradation downshifts")
        .Set(static_cast<double>(controller_.downshifts()));
    reg.GetGauge("shflbw_ladder_upshifts", "Degradation upshifts")
        .Set(static_cast<double>(controller_.upshifts()));
    reg.GetGauge("shflbw_admission_estimated_service_seconds",
                 "Admission controller's per-request service EWMA")
        .Set(admission_.EstimatedServiceSeconds());
  }
  const PoolStats pool = GetPoolStats();
  reg.GetGauge("shflbw_pool_workers", "Worker-pool threads spawned")
      .Set(pool.workers);
  reg.GetGauge("shflbw_pool_active_regions",
               "ParallelFor regions currently executing")
      .Set(pool.active_regions);
  reg.GetGauge("shflbw_pool_regions_total",
               "Parallel regions run since process start")
      .Set(static_cast<double>(pool.regions_entered));
  if (const auto& fi = opts_.engine.fault_injector) fi->PublishMetrics(reg);
  return reg.ExpositionText();
}

bool BatchServer::DumpTrace(const std::string& path) const {
  return telemetry_->events().DumpChromeTrace(path);
}

obs::Event BatchServer::BatchEvent(obs::EventKind kind, double begin,
                                   double end, const SealedBatch& b) {
  obs::Event ev;
  ev.kind = kind;
  ev.begin_seconds = begin;
  ev.end_seconds = end;
  ev.batch_id = b.id;
  ev.replica = b.replica;
  ev.level = b.level;
  ev.width = static_cast<std::int32_t>(b.live.size());
  return ev;
}

obs::Event BatchServer::RequestEvent(obs::EventKind kind, double begin,
                                     double end, const Pending& p,
                                     const SealedBatch& b) {
  obs::Event ev = BatchEvent(kind, begin, end, b);
  ev.request_id = p.id;
  ev.width = 0;
  return ev;
}

void BatchServer::ReplicaLoop(int replica) {
  const bool metrics = telemetry_->metrics_on();
  // Heartbeat discipline: armed whenever this thread owns work (from
  // wait-return to batch retirement), disarmed while it legitimately
  // blocks on an empty queue — so armed silence is always a stall.
  const int hb = heartbeats_.Register("replica" + std::to_string(replica));
  UniqueLock lock(mu_);
  std::optional<double> window_begin;
  while (AwaitWork(hb, &window_begin)) {
    SealedBatch b = Seal(replica, window_begin);
    lock.Unlock();
    heartbeats_.Beat(hb, NowSeconds());
    PublishSeal(b);
    Shed(b, metrics);
    LaunchOutcome out;
    if (!b.live.empty()) {
      out = Launch(hb, b);
      Respond(b, out, metrics);
      heartbeats_.Beat(hb, out.done);
    }
    lock.Lock();
    Retire(b, out);
  }
  heartbeats_.Unregister(hb);
}

bool BatchServer::AwaitWork(int hb, std::optional<double>* window_begin) {
  // A batch seals at max_batch, clamped to the queue capacity: with a
  // bounded queue shorter than max_batch, Submit blocks at capacity, so
  // a capacity-full queue is as fused as this server can get and must
  // launch rather than stall out the whole window.
  const std::size_t seal = std::min(
      static_cast<std::size_t>(std::max(1, opts_.max_batch)),
      opts_.queue_capacity);
  for (;;) {
    heartbeats_.Disarm(hb);
    not_empty_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
      return stop_ || !queue_.empty();
    });
    heartbeats_.Arm(hb, NowSeconds());
    // Drain-on-shutdown: keep serving until the queue is empty, so
    // every future obtained from Submit resolves.
    if (queue_.empty()) return false;  // implies stop_
    // Coalescing window: hold a partial batch open briefly so closely
    // spaced requests fuse into one launch. Bounded (fairness — the
    // oldest request pays at most the window on top of its queue wait)
    // and cut short by shutdown or a sealed batch. The queue can have
    // been emptied by a sibling replica when the wait returns, so wait
    // again rather than assume work remains. Forced (warmup) requests
    // skip the window: they run alone, immediately.
    window_begin->reset();
    if (opts_.coalesce_window_seconds > 0 && !stop_ &&
        queue_.front().force_level < 0 && queue_.size() < seal) {
      const double start = NowSeconds();
      not_empty_.WaitFor(mu_, opts_.coalesce_window_seconds,
                         [&]() SHFLBW_REQUIRES(mu_) {
                           return stop_ || queue_.size() >= seal;
                         });
      heartbeats_.Beat(hb, NowSeconds());
      if (queue_.empty()) continue;
      *window_begin = start;
    }
    return true;
  }
}

BatchServer::SealedBatch BatchServer::Seal(
    int replica, std::optional<double> window_begin) {
  // The K oldest requests, FIFO submission order. Deadline-expired
  // requests (except kCritical) are shed here — they resolve with
  // kDeadlineExceeded instead of occupying a width slot in the fused
  // launch, so the launch carries only live work. A forced (warmup)
  // request always runs alone at its pinned level: it exists to pack
  // one level's weights, and fusing user traffic into it would serve
  // that traffic at a level the controller never chose.
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max(1, opts_.max_batch));
  SealedBatch b;
  b.id = next_batch_id_++;
  b.replica = replica;
  b.seal_time = NowSeconds();
  b.window_begin = window_begin.value_or(b.seal_time);
  const std::size_t depth_at_seal = queue_.size();
  if (queue_.front().force_level >= 0) {
    b.level = queue_.front().force_level;
    b.live.push_back(std::move(queue_.front()));
    queue_.pop_front();
  } else {
    while (!queue_.empty() && b.live.size() < max_batch &&
           queue_.front().force_level < 0) {
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      const bool expired =
          p.req.deadline_seconds > 0 && p.req.qos != QoS::kCritical &&
          b.seal_time - p.submit_time > p.req.deadline_seconds;
      (expired ? b.dropped : b.live).push_back(std::move(p));
    }
    // The controller observes every seal (even an all-shed one — a
    // queue full of dead work is the strongest pressure signal there
    // is) and picks the level this batch runs at.
    b.level = controller_.OnSeal(depth_at_seal, opts_.queue_capacity);
    if (b.level != last_observed_level_) {
      // The shared controller moved on this seal: old level in detail.
      obs::Event ev =
          BatchEvent(obs::EventKind::kShift, b.seal_time, b.seal_time, b);
      ev.detail = last_observed_level_;
      telemetry_->events().Record(ev);
      last_observed_level_ = b.level;
    }
  }
  g_queue_depth_->Set(static_cast<double>(queue_.size()));
  g_level_->Set(controller_.level());
  return b;
}

void BatchServer::PublishSeal(SealedBatch& b) {
  obs::Event ev =
      BatchEvent(obs::EventKind::kSeal, b.window_begin, b.seal_time, b);
  ev.detail = static_cast<std::int32_t>(b.dropped.size());
  telemetry_->events().Record(ev);
  // Freed slots: wake every blocked Submit, not just one.
  if (b.live.size() + b.dropped.size() > 1) {
    not_full_.NotifyAll();
  } else {
    not_full_.NotifyOne();
  }
  b.traced = telemetry_->tracing_on();
  if (!b.traced) return;
  for (const std::vector<Pending>* part : {&b.live, &b.dropped}) {
    for (const Pending& p : *part) {
      telemetry_->events().Record(RequestEvent(
          obs::EventKind::kQueue, p.submit_time, b.seal_time, p, b));
    }
  }
}

void BatchServer::Shed(SealedBatch& b, bool metrics) {
  // Shed promises resolve before the counters are bumped under relock,
  // so Drain returning implies every future is ready.
  for (Pending& p : b.dropped) {
    Response resp;
    resp.id = p.id;
    resp.status = ResponseStatus::kDeadlineExceeded;
    resp.replica = b.replica;
    resp.batch_width = 0;
    resp.plan_level = b.level;
    resp.queue_seconds = b.seal_time - p.submit_time;
    if (metrics) h_queue_seconds_->Record(resp.queue_seconds);
    telemetry_->events().Record(RequestEvent(
        obs::EventKind::kShed, b.seal_time, NowSeconds(), p, b));
    p.promise.set_value(std::move(resp));
  }
}

BatchServer::LaunchOutcome BatchServer::Launch(int hb, const SealedBatch& b) {
  Engine& engine = *engines_[static_cast<std::size_t>(b.replica)]
                            [static_cast<std::size_t>(b.level)];
  std::vector<std::uint64_t> seeds;
  seeds.reserve(b.live.size());
  for (const Pending& p : b.live) seeds.push_back(p.req.activation_seed);
  BatchContext ctx;
  ctx.batch_id = b.id;
  ctx.replica = b.replica;
  ctx.level = b.level;
  telemetry_->events().Record(
      BatchEvent(obs::EventKind::kLaunch, b.seal_time, b.seal_time, b));
  LaunchOutcome out;
  out.final_attempt_start = b.seal_time;
  try {
    // Bounded retry-with-backoff on transient faults (injected or
    // backend-raised). A failed launch leaves the cache and the
    // engine's streaming state unmodified — the injector fires before
    // any mutation — so a retry is a clean re-execution and the
    // eventual output is bit-identical to an unfaulted run.
    // Non-transient errors propagate immediately.
    for (;;) {
      try {
        out.run = engine.RunBatched(seeds, ctx);
        break;
      } catch (const TransientFault&) {
        if (out.attempts >= opts_.retry.max_retries) throw;
        const double fail_time = NowSeconds();
        const double backoff =
            opts_.retry.backoff_seconds *
            std::pow(opts_.retry.backoff_multiplier, out.attempts);
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
        ++out.attempts;
        out.final_attempt_start = NowSeconds();
        heartbeats_.Beat(hb, out.final_attempt_start);
        obs::Event ev = BatchEvent(obs::EventKind::kRetry, fail_time,
                                   out.final_attempt_start, b);
        ev.attempt = out.attempts;
        telemetry_->events().Record(ev);
      }
    }
  } catch (...) {
    out.error = std::current_exception();
  }
  out.done = NowSeconds();
  obs::Event ev = BatchEvent(obs::EventKind::kComplete,
                             out.final_attempt_start, out.done, b);
  ev.attempt = out.attempts;
  if (out.error) ev.SetLabel("error");
  telemetry_->events().Record(ev);
  return out;
}

void BatchServer::Respond(SealedBatch& b, LaunchOutcome& out, bool metrics) {
  if (out.error) {
    for (Pending& p : b.live) p.promise.set_exception(out.error);
    return;
  }
  // queue_seconds stops at the seal for every request in the batch;
  // retry_seconds covers the failed attempts and backoff sleeps, and
  // run_seconds the attempt that succeeded, so the split sums to
  // submit-to-completion exactly, retried or not.
  const std::size_t take = b.live.size();
  const double retry_s = out.final_attempt_start - b.seal_time;
  const double run_s = out.done - out.final_attempt_start;
  if (metrics) {
    h_batch_width_->Record(static_cast<double>(take));
    h_run_seconds_->Record(run_s);
    if (out.attempts > 0) h_retry_seconds_->Record(retry_s);
  }
  for (std::size_t i = 0; i < take; ++i) {
    Pending& p = b.live[i];
    Response resp;
    resp.id = p.id;
    resp.replica = b.replica;
    resp.batch_width = static_cast<int>(take);
    resp.plan_level = b.level;
    resp.retained_ratio = level_ratios_[static_cast<std::size_t>(b.level)];
    resp.retries = out.attempts;
    resp.queue_seconds = b.seal_time - p.submit_time;
    resp.retry_seconds = retry_s;
    resp.run_seconds = run_s;
    resp.packs_performed = out.run.packs_performed;
    resp.output = std::move(out.run.outputs[i]);
    if (metrics) {
      h_queue_seconds_->Record(resp.queue_seconds);
      h_total_seconds_->Record(out.done - p.submit_time);
    }
    if (b.traced) {
      obs::Event ev =
          RequestEvent(obs::EventKind::kRun, b.seal_time, out.done, p, b);
      ev.width = static_cast<std::int32_t>(take);
      ev.attempt = out.attempts;
      telemetry_->events().Record(ev);
    }
    p.promise.set_value(std::move(resp));
  }
}

void BatchServer::Retire(const SealedBatch& b, const LaunchOutcome& out) {
  // The whole batch (served and shed together) retires under one lock
  // hold, atomically with the idle_ notification Drain waits on. The
  // protocol counters and their registry mirrors move together.
  const std::size_t take = b.live.size();
  completed_ += take;
  shed_ += b.dropped.size();
  if (!b.dropped.empty()) c_shed_->Add(static_cast<double>(b.dropped.size()));
  if (take > 0) {
    c_completed_->Add(static_cast<double>(take));
    if (out.attempts > 0) c_retries_->Add(out.attempts);
    c_per_replica_[static_cast<std::size_t>(b.replica)]->Add(
        static_cast<double>(take));
    c_per_level_[static_cast<std::size_t>(b.level)]->Add(
        static_cast<double>(take));
    if (out.error) {
      c_failed_->Add(static_cast<double>(take));
    } else if (b.live.front().force_level < 0) {
      // Feed the control plane: the admission EWMA learns per-request
      // service time from the fused launch (one observation per
      // launch), the degradation controller sees every deadline-
      // carrying completion's latency/deadline ratio. Warmup (forced)
      // batches are excluded — they measure pack latency, not
      // steady-state service.
      admission_.RecordServiceTime((out.done - b.seal_time) /
                                   static_cast<double>(take));
      for (const Pending& p : b.live) {
        if (p.req.deadline_seconds > 0) {
          controller_.RecordCompletion(out.done - p.submit_time,
                                       p.req.deadline_seconds);
        }
      }
    }
  }
  if (completed_ + shed_ == next_id_) idle_.NotifyAll();
}

namespace {

std::string FmtDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// The exact label suffix the engine appends to the plan drift gauges
/// (shflbw_plan_{modeled,measured}_seconds / shflbw_plan_drift_ratio),
/// so statusz can look up per-layer drift by reconstructing the name.
std::string PlanGaugeLabel(const LayerPlan& lp) {
  std::ostringstream os;
  os << "{layer=\"" << lp.name << "\",format=\"" << FormatName(lp.format)
     << "\",density=\"" << lp.density << "\",v=\"" << lp.v << "\"}";
  return os.str();
}

std::string GaugeCell(const obs::Registry& reg, const std::string& name) {
  const obs::Gauge* g = reg.FindGauge(name);
  return g == nullptr ? std::string("-") : FmtDouble(g->Value());
}

/// The server state statusz reads under the queue mutex.
struct StatusInputs {
  ServerStats stats;
  std::size_t depth = 0;
  double p99_ratio = -1;
  std::string last_stall;
  double last_stall_age = 0;
  bool watchdog_running = false;
  double stalls = 0;
  double now = 0;
  double uptime = 0;
};

/// build, server and ladder sections.
void AddServingSections(const BatchServer& server, const StatusInputs& in,
                        obs::StatusReport& report) {
  const ServerOptions& opts = server.options();
  const ServerStats& stats = in.stats;
  {
    const BuildInfo& bi = GetBuildInfo();
    obs::StatusSection& s = report.AddSection("build");
    s.AddText("git_sha", bi.git_sha);
    s.AddText("compiler", bi.compiler);
    s.AddText("build_type", bi.build_type);
    s.AddText("cxx_flags", bi.cxx_flags);
    s.AddNumber("cxx_standard", static_cast<double>(bi.cxx_standard));
    s.AddNumber("obs_compiled_in", bi.obs_compiled_in ? 1 : 0);
    s.AddNumber("threads", ParallelThreadCount());
    s.AddNumber("uptime_seconds", in.uptime);
  }
  {
    obs::StatusSection& s = report.AddSection("server");
    s.AddNumber("replicas", server.replicas());
    s.AddNumber("levels", server.levels());
    s.AddNumber("queue_depth", static_cast<double>(in.depth));
    s.AddNumber("queue_capacity", static_cast<double>(opts.queue_capacity));
    s.AddNumber("queue_occupancy",
                opts.queue_capacity > 0
                    ? static_cast<double>(in.depth) /
                          static_cast<double>(opts.queue_capacity)
                    : 0.0);
    s.AddNumber("max_batch", opts.max_batch);
    s.AddNumber("coalesce_window_seconds", opts.coalesce_window_seconds);
    s.AddNumber("submitted", static_cast<double>(stats.submitted));
    s.AddNumber("completed", static_cast<double>(stats.completed));
    s.AddNumber("shed", static_cast<double>(stats.shed));
    s.AddNumber("rejected_queue_full",
                static_cast<double>(stats.rejected_queue_full));
    s.AddNumber("rejected_deadline",
                static_cast<double>(stats.rejected_deadline));
    s.AddNumber("rejected_shutdown",
                static_cast<double>(stats.rejected_shutdown));
    s.AddNumber("retries", static_cast<double>(stats.retries));
    s.AddNumber("failed", static_cast<double>(stats.failed));
    s.AddNumber("estimated_service_seconds", stats.estimated_service_seconds);
  }
  obs::StatusSection& s = report.AddSection("ladder");
  s.AddNumber("level", stats.level);
  s.AddNumber("downshifts", static_cast<double>(stats.downshifts));
  s.AddNumber("upshifts", static_cast<double>(stats.upshifts));
  s.AddNumber("window_p99_ratio", in.p99_ratio);
  obs::StatusTable& t = s.AddTable(
      "levels", {"level", "floor", "retained", "modeled_s", "completed"});
  for (int lvl = 0; lvl < server.levels(); ++lvl) {
    const std::size_t l = static_cast<std::size_t>(lvl);
    t.rows.push_back({std::to_string(lvl), FmtDouble(server.LevelFloor(lvl)),
                      FmtDouble(server.LevelRetainedRatio(lvl)),
                      FmtDouble(server.PlanAt(lvl).ModeledTotalSeconds()),
                      l < stats.per_level.size()
                          ? std::to_string(stats.per_level[l])
                          : std::string("-")});
  }
}

/// replicas, weight_cache, worker_pool, watchdog and event_ring
/// sections.
void AddRuntimeSections(const BatchServer& server, const StatusInputs& in,
                        obs::StatusReport& report) {
  const auto age = [&](const obs::HeartbeatRegistry::View& v) {
    return v.beat_seconds > 0 ? FmtDouble(in.now - v.beat_seconds)
                              : std::string("-");
  };
  {
    obs::StatusSection& s = report.AddSection("replicas");
    obs::StatusTable& t = s.AddTable(
        "heartbeats", {"name", "armed", "beats", "age_s", "completed"});
    const std::vector<std::uint64_t>& per_replica = in.stats.per_replica;
    for (const obs::HeartbeatRegistry::View& v :
         server.heartbeats().Snapshot()) {
      std::string completed_cell = "-";
      if (v.name.rfind("replica", 0) == 0) {
        const int idx = std::atoi(v.name.c_str() + 7);
        if (idx >= 0 && idx < static_cast<int>(per_replica.size())) {
          completed_cell =
              std::to_string(per_replica[static_cast<std::size_t>(idx)]);
        }
      }
      t.rows.push_back({v.name, v.armed ? "yes" : "no",
                        std::to_string(v.beats), age(v), completed_cell});
    }
  }
  {
    obs::StatusSection& s = report.AddSection("weight_cache");
    s.AddNumber("entries", static_cast<double>(server.cache().Size()));
    s.AddNumber("total_packs", static_cast<double>(server.cache().TotalPacks()));
    s.AddNumber("approx_bytes",
                static_cast<double>(server.cache().ApproxBytes()));
  }
  {
    const PoolStats pool = GetPoolStats();
    obs::StatusSection& s = report.AddSection("worker_pool");
    s.AddNumber("workers", pool.workers);
    s.AddNumber("active_regions", pool.active_regions);
    s.AddNumber("regions_total", static_cast<double>(pool.regions_entered));
    obs::StatusTable& t =
        s.AddTable("regions", {"name", "armed", "beats", "age_s"});
    for (const obs::HeartbeatRegistry::View& v :
         obs::GlobalHeartbeats().Snapshot()) {
      t.rows.push_back(
          {v.name, v.armed ? "yes" : "no", std::to_string(v.beats), age(v)});
    }
  }
  {
    const obs::WatchdogOptions& w = server.options().watchdog;
    obs::StatusSection& s = report.AddSection("watchdog");
    s.AddNumber("enabled", w.enabled ? 1 : 0);
    s.AddNumber("running", in.watchdog_running ? 1 : 0);
    s.AddNumber("stall_budget_seconds", w.stall_budget_seconds);
    s.AddNumber("poll_interval_seconds", w.poll_interval_seconds);
    s.AddNumber("stalls", in.stalls);
    s.AddText("last_stall", in.last_stall.empty() ? "-" : in.last_stall);
    s.AddNumber("last_stall_age_seconds", in.last_stall_age);
  }
  const obs::EventRing& events = server.telemetry().events();
  obs::StatusSection& s = report.AddSection("event_ring");
  s.AddNumber("total", static_cast<double>(events.total()));
  s.AddNumber("dropped", static_cast<double>(events.dropped()));
  s.AddNumber("capacity", static_cast<double>(events.capacity()));
  s.AddNumber("tracing", server.telemetry().tracing_on() ? 1 : 0);
}

/// The serving level's plan, with measured-vs-modeled drift looked up
/// from the gauges the engine publishes after each run ("-" until a
/// layer has been measured).
void AddPlanSection(const BatchServer& server, int level,
                    obs::StatusReport& report) {
  const obs::Registry& reg = server.telemetry().registry();
  const ExecutionPlan& plan = server.PlanAt(level);
  obs::StatusSection& s = report.AddSection("plan");
  s.AddText("model", plan.model);
  s.AddText("gpu", plan.gpu);
  obs::StatusTable& t =
      s.AddTable("layers", {"layer", "format", "density", "v", "modeled_s",
                            "retained", "measured_s", "drift"});
  for (const LayerPlan& lp : plan.layers) {
    const std::string label = PlanGaugeLabel(lp);
    t.rows.push_back(
        {lp.name, FormatName(lp.format), FmtDouble(lp.density),
         std::to_string(lp.v), FmtDouble(lp.modeled_s),
         FmtDouble(lp.retained_ratio),
         GaugeCell(reg, "shflbw_plan_measured_seconds" + label),
         GaugeCell(reg, "shflbw_plan_drift_ratio" + label)});
  }
}

}  // namespace

obs::StatusReport BatchServer::Status() const {
  // Stats() takes mu_ itself; the second short hold picks up the bits
  // the snapshot struct doesn't carry. Everything after reads lock-free
  // obs state or coarser-ranked locks (cache is rank 30 > server 20,
  // taken with mu_ released).
  StatusInputs in;
  in.now = NowSeconds();
  in.uptime = in.now - start_seconds_;
  in.stats = Stats();
  in.stalls = static_cast<double>(AsCount(c_stalls_));
  {
    MutexLock lock(mu_);
    in.depth = queue_.size();
    in.p99_ratio = controller_.WindowP99Ratio();
    in.last_stall = last_stall_;
    in.last_stall_age = last_stall_age_;
    in.watchdog_running = watchdog_ != nullptr;
  }
  obs::StatusReport report;
  report.title = "shflbw batch server";
  AddServingSections(*this, in, report);
  AddRuntimeSections(*this, in, report);
  AddPlanSection(*this, in.stats.level, report);
  return report;
}

std::string BatchServer::StatusText() const { return Status().RenderText(); }

std::string BatchServer::StatusJson() const { return Status().RenderJson(); }

bool BatchServer::DumpStatus(const std::string& path_base) const {
  const obs::StatusReport report = Status();
  const bool text_ok = report.DumpText(path_base + ".txt");
  const bool json_ok = report.DumpJson(path_base + ".json");
  return text_ok && json_ok;
}

bool BatchServer::DumpFlightRecorder(const std::string& path) const {
  return telemetry_->events().DumpFlightJson(path);
}

void BatchServer::OnStall(const std::string& name, double age_seconds) {
  c_stalls_->Add();
  {
    MutexLock lock(mu_);
    last_stall_ = name;
    last_stall_age_ = age_seconds;
  }
  // Record the detection itself before dumping, so the postmortem's
  // last event is the stall that triggered it.
  obs::Event ev;
  ev.kind = obs::EventKind::kStall;
  ev.end_seconds = NowSeconds();
  ev.begin_seconds = ev.end_seconds - age_seconds;
  ev.SetLabel(name);
  telemetry_->events().Record(ev);
  if (!opts_.watchdog.dump_path.empty()) {
    // Best effort: the stall is already counted and recorded even
    // when the dump path is unwritable.
    (void)DumpStatus(opts_.watchdog.dump_path + "_statusz");
    (void)DumpFlightRecorder(opts_.watchdog.dump_path + "_flight.json");
  }
}

}  // namespace runtime
}  // namespace shflbw
