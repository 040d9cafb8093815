// The repo benchmark: four serving workloads driven through the public
// runtime entry points, an output gate against serial single-engine
// references, and a traced run that times each layer from outside.
// See perfbench/README.md for the workloads, the metric map and the
// rules for comparing runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/server.h"

namespace perfbench {

using shflbw::Matrix;
using shflbw::runtime::BatchServer;
using shflbw::runtime::ModelDesc;
using shflbw::runtime::ServerOptions;

// ---- Workloads (workloads.cpp) -------------------------------------------

struct Workload {
  std::string name;
  ModelDesc model;
  ServerOptions server;
  /// Closed loop: `clients` requests kept in flight, each replaced when
  /// it completes. Open loop: Poisson arrivals at `steady_rps`, with a
  /// kBurstSeconds burst at `burst_rps` in the middle of the run, every
  /// request carrying `deadline_s`.
  bool open_loop = false;
  int clients = 1;
  double steady_rps = 0;
  double burst_rps = 0;
  double deadline_s = 0;
  /// Width of the widest launch the server can fuse (max_batch); the
  /// kernel and engine rows are timed at width 1 and at this width.
  int fused_width = 1;
};

const std::vector<std::string>& WorkloadNames();
/// Throws shflbw::Error on an unknown name.
Workload MakeWorkload(const std::string& name);

/// Every layer name of every workload's model: the per-layer kernel
/// rows of the traced run are reported over this union (0 for a layer
/// the workload's model does not have), so every run prints the same
/// metric names.
std::vector<std::string> AllLayerNames();

/// Length of the open loop's burst, whatever the run length.
constexpr double kBurstSeconds = 1.0;

/// Distinct activation seeds requests draw from. Each is checked
/// against a reference computed once before the timed window.
constexpr int kSeedPool = 32;

/// What the program receives from the workload seed: the activation
/// seeds requests carry and, for the open loop, their due times.
struct Inputs {
  std::vector<std::uint64_t> pool;  // kSeedPool activation seeds
  std::uint64_t pick_seed = 0;      // drives the pool index of each request
  std::vector<double> due;          // open loop: arrival offsets (s)
};
Inputs MakeInputs(const Workload& w, std::uint64_t seed, double seconds);

// ---- Statistics (serve.cpp) ----------------------------------------------

/// Quantile with linear interpolation between closest ranks; 0 for an
/// empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Interquartile range over the median; 0 for fewer than two samples.
double RelSpread(std::vector<double> v);

/// The highest of p90/p95/p99 that has at least ten samples beyond it
/// (p50 when even p90 has not).
struct Tail {
  double value = 0;
  int percentile = 50;
  int beyond = 0;
  int windows = 1;  // windows the value is the median over
};
Tail TailOf(const std::vector<double>& v);

// ---- Spans (spans.cpp) ---------------------------------------------------

/// In-memory span recorder: name, start, end, parent and request id of
/// every span the benchmark opens around a call into the program.
/// Written to Chrome-trace JSON when the run ends. Single-threaded: the
/// benchmark records only from its one main thread.
class SpanRecorder {
 public:
  static constexpr int kNone = -1;

  /// Records a finished span and returns its id.
  int Add(const std::string& name, double start, double end,
          int parent = kNone, std::int64_t request = kNone);
  /// Closes a span recorded open (Add with end == start) so children
  /// can name it as their parent while it runs.
  void SetEnd(int id, double end);

  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = kNone;
    std::int64_t request = kNone;
  };
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it its children cover.
  std::vector<double> SelfSeconds() const;

  struct NameTotals {
    int count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, NameTotals> ByName() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ---- Serving and the output gate (serve.cpp) -----------------------------

/// Serial single-engine references: refs[level][pool index], computed
/// by one Engine per ladder level that adopts the server's PlanAt(level).
struct References {
  std::vector<std::vector<Matrix<float>>> refs;
  /// Flips one bit of one reference (the gate's known-bad input).
  void CorruptOneBit();
};
/// `cache` is the reference engines' weight cache (may be pre-packed).
References ComputeReferences(
    const BatchServer& server, const ModelDesc& model, const Inputs& in,
    std::shared_ptr<shflbw::runtime::PackedWeightCache> cache);

struct ServeResult {
  int sent = 0;
  int ok = 0;          // served kOk
  int ok_in_slo = 0;   // served kOk, correct, within any deadline
  int shed = 0;        // kDeadlineExceeded at seal
  int rejected = 0;    // refused at admission
  int late = 0;        // served after the deadline
  int exceptions = 0;  // future threw
  int mismatched = 0;  // output not bit-identical to its reference
  int below_floor = 0; // served below its level's quality floor
  int bad = 0;         // served requests mismatched or below the floor
  int level1 = 0;      // served at ladder level >= 1
  double retained_sum = 0;
  double wall_s = 0;      // first send to last completion
  double schedule_s = 0;  // open loop: schedule length
  std::vector<double> latency_s;  // served kOk; open loop from due time
  std::vector<double> done_s;     // served kOk: completion, from start
  std::vector<double> queue_s;
  std::vector<double> run_s;
  std::vector<double> width;
  std::vector<double> lag_s;      // open loop: send - due
  std::uint64_t shifts = 0;
  bool conserved = true;          // submitted == completed + shed

  /// Requests that failed: threw, or were served wrong.
  int Errors() const { return exceptions + bad; }
};

/// The run's latency tail. When the run splits into at least
/// kMinWindows equal windows (by completion time) that each hold enough
/// samples for p99, this is the median of the windows' p99, so a stall
/// on the host moves a window, not the figure; otherwise it is TailOf
/// the whole run.
constexpr std::size_t kMinWindows = 5;
Tail RunTail(const ServeResult& r, double seconds);

/// Drives `server` with the workload's load for `seconds` from one
/// generator thread and checks every served output against `refs`.
/// With `spans`, records a span per request with its queue/retry/run
/// split as children.
ServeResult Serve(BatchServer& server, const Workload& w, const Inputs& in,
                  const References& refs, double seconds,
                  SpanRecorder* spans);

/// Open-loop validity bound, as a share of the deadline: a run whose
/// generator p99 lateness exceeds it is reported invalid instead of
/// scored. Lateness is part of every latency (scored from the due
/// time); past this share it would also distort the offered load.
constexpr double kMaxLagP99DeadlineShare = 0.1;

// ---- Host (host.cpp) -----------------------------------------------------

/// CPU model, ISA flags, core count and build flags as one JSON object.
std::string HostFingerprintJson();

struct Roofline {
  double peak_flops = 0;  // multiply-add vector loop, all cores
  double stream_bps = 0;  // triad bandwidth, all cores
  /// min(peak, bandwidth x intensity) for `flops` over `bytes`.
  double Bound(double flops, double bytes) const;
};
Roofline MeasureRoofline();

// ---- Metrics and the traced run (layers.cpp) -----------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunReport {
  Metrics metrics;
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // human-readable report lines
};

/// Counts, validity and the report lines every run prints about its
/// serving phase; folds the phase into `report`'s gate fields.
void GateServing(const ServeResult& r, const Workload& w, RunReport& report);

/// The traced run: per-layer metrics for every name in the per-layer
/// list, timed from outside the program. Writes the Chrome trace under
/// `artifacts` when it is non-empty.
RunReport TracedRun(const Workload& w, std::uint64_t seed, double seconds,
                    const std::string& artifacts);

}  // namespace perfbench
