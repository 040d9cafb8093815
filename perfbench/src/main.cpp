// perfbench: runs one workload and prints its metrics. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Earlier lines, prefixed "# ", are the
// human-readable report: host fingerprint, gate counts, spans.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--artifacts DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/clock.h"
#include "perfbench.h"
#include "quality/quality_evaluator.h"

namespace perfbench {
namespace {

using shflbw::NowSeconds;

/// Min per-layer retained ratio of a speed-only plan, scored by the
/// same evaluator the quality-aware planner uses (dense layers keep
/// everything).
double PlanRetainedRatio(const shflbw::runtime::ExecutionPlan& plan,
                         const ModelDesc& model, std::uint64_t weight_seed) {
  double ratio = 1.0;
  auto& evaluator = shflbw::quality::QualityEvaluator::Shared();
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto& lp = plan.layers[i];
    if (lp.format == shflbw::runtime::Format::kDense) continue;
    ratio = std::min(ratio, evaluator.LayerRetainedRatio(
                                model.layers[i], static_cast<int>(i),
                                weight_seed, lp.format, lp.density, lp.v));
  }
  return ratio;
}

/// Builds the server (constructor + Warmup) several times from a cold
/// quality evaluator and returns the last one; `times` gets each
/// set-up's seconds. Cheap set-ups repeat up to 15 times within a
/// second; an expensive one stops at two once 30 s have gone.
std::unique_ptr<BatchServer> SetUp(const Workload& w,
                                   std::vector<double>& times) {
  std::unique_ptr<BatchServer> server;
  double total = 0;
  for (;;) {
    server.reset();
    shflbw::quality::QualityEvaluator::Shared().Clear();
    const double t0 = NowSeconds();
    server = std::make_unique<BatchServer>(w.model, w.server);
    server->Warmup();
    times.push_back(NowSeconds() - t0);
    total += times.back();
    const std::size_t n = times.size();
    if (n >= 15 || (n >= 3 && total >= 1.0) || (n >= 2 && total >= 30.0)) {
      return server;
    }
  }
}

RunReport UntracedRun(const Workload& w, std::uint64_t seed, double seconds) {
  RunReport rep;
  const Inputs in = MakeInputs(w, seed, seconds);
  std::vector<double> setups;
  std::unique_ptr<BatchServer> server = SetUp(w, setups);
  const References refs = ComputeReferences(
      *server, w.model, in,
      std::make_shared<shflbw::runtime::PackedWeightCache>());

  const ServeResult r = Serve(*server, w, in, refs, seconds, nullptr);
  GateServing(r, w, rep);

  const auto& plan = server->PlanAt(0);
  const double retained =
      server->LevelRetainedRatio(0) >= 0
          ? (r.ok > 0 ? r.retained_sum / r.ok : 0)
          : PlanRetainedRatio(plan, w.model, w.server.engine.weight_seed);
  const Tail tail = RunTail(r, seconds);
  const double sent = std::max(1, r.sent);
  Metrics& m = rep.metrics;
  m["setup_s"] = {Median(setups), "s"};
  m["throughput_rps"] = {r.ok / r.wall_s, "req/s"};
  m["goodput_rps"] = {r.ok_in_slo / (w.open_loop ? r.schedule_s : r.wall_s),
                      "req/s"};
  m["latency_p50_ms"] = {Median(r.latency_s) * 1e3, "ms"};
  m["latency_tail_ms"] = {tail.value * 1e3, "ms"};
  m["slo_met_frac"] = {r.ok_in_slo / sent, "ratio"};
  m["served_retained_ratio"] = {retained, "ratio"};
  m["modeled_speedup"] = {plan.ModeledDenseSeconds() / plan.ModeledTotalSeconds(),
                          "x"};

  char buf[256];
  std::snprintf(buf, sizeof buf, "setup: %zu set-ups, median %.4f s, spread %.3f",
                setups.size(), Median(setups), RelSpread(setups));
  rep.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "latency_tail_ms is p%d over %zu samples (%d beyond), median "
                "of %d window(s)",
                tail.percentile, r.latency_s.size(), tail.beyond, tail.windows);
  rep.notes.push_back(buf);
  double width_sum = 0;
  for (const double x : r.width) width_sum += x;
  std::snprintf(buf, sizeof buf,
                "server: fused width mean %.2f, level>=1 share %.3f, shifts "
                "%llu, slo_miss_frac %.4f",
                r.width.empty() ? 0.0 : width_sum / r.width.size(),
                r.ok ? static_cast<double>(r.level1) / r.ok : 0.0,
                static_cast<unsigned long long>(r.shifts),
                1.0 - r.ok_in_slo / sent);
  rep.notes.push_back(buf);
  return rep;
}

void PrintResult(const RunReport& rep) {
  for (const std::string& line : rep.notes) std::printf("# %s\n", line.c_str());
  for (const auto& [name, metric] : rep.metrics) {
    std::printf("# %-40s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              rep.correct ? "true" : "false", rep.attempted, rep.failed);
  bool first = true;
  for (const auto& [name, metric] : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--artifacts DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)
  std::string workload, artifacts;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--artifacts" && has_value) {
      artifacts = argv[++i];
    } else {
      return Usage();
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  try {
    const Workload w = MakeWorkload(workload);
    std::printf("# perfbench %s seed=%lld seconds=%g trace=%d\n",
                workload.c_str(), seed, seconds, trace);
    std::printf("# host %s\n", HostFingerprintJson().c_str());
    const RunReport rep =
        trace == 1
            ? TracedRun(w, static_cast<std::uint64_t>(seed), seconds, artifacts)
            : UntracedRun(w, static_cast<std::uint64_t>(seed), seconds);
    PrintResult(rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
