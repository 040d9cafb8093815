// The traced run. It times each layer by calling into it from outside:
// PlanModel (quality), PackWeight through a PackedWeightCache (pack),
// the per-format kernel entry points (kernels), Engine::RunBatched
// (engine), the worker pool at one thread and at all (pool), and the
// BatchServer under the workload's load (server). Spans go to a Chrome
// trace; README.md maps each metric to the end-to-end metric and
// workload it should move.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/conv2d.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_sputnik.h"
#include "kernels/spmm_vector_wise.h"
#include "model/weight_synth.h"
#include "perfbench.h"
#include "quality/quality_evaluator.h"
#include "quality/quality_planner.h"

namespace perfbench {

using shflbw::ConvShape;
using shflbw::KernelResult;
using shflbw::NowSeconds;
using shflbw::Tensor4;
using namespace shflbw::runtime;  // NOLINT(google-build-using-namespace)

namespace {

std::vector<PlannerOptions> LevelOptions(const Workload& w) {
  const auto& floors = w.server.degradation.ladder_floors;
  std::vector<PlannerOptions> levels =
      floors.empty()
          ? std::vector<PlannerOptions>{w.server.engine.planner}
          : shflbw::quality::LadderPlannerOptions(w.server.engine.planner,
                                                  floors);
  for (PlannerOptions& o : levels) {
    o.quality.weight_seed = w.server.engine.weight_seed;
  }
  return levels;
}

bool SamePlan(const ExecutionPlan& a, const ExecutionPlan& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const LayerPlan& x = a.layers[i];
    const LayerPlan& y = b.layers[i];
    if (x.format != y.format || x.density != y.density || x.v != y.v) {
      return false;
    }
  }
  return true;
}

/// One kernel launch of a plan layer at fused width `width`, through the
/// per-format kernel entry points; operands are built once, outside
/// the timed call.
class LayerLaunch {
 public:
  LayerLaunch(const LayerDesc& l, const PackedWeight& w,
              const shflbw::GpuSpec& spec, int width, std::uint64_t seed)
      : l_(l), w_(w), spec_(spec) {
    shflbw::Rng rng(seed);
    if (l.kind == LayerKind::kGemm) {
      act_ = Matrix<float>(l.gemm.k, l.gemm.n * width);
      for (float& x : act_.storage()) x = static_cast<float>(rng.Normal());
    } else {
      shape_ = ToConvShape(l.conv);
      shape_.batch *= width;
      input_ = Tensor4(shape_.batch, shape_.in_c, shape_.in_h, shape_.in_w);
      for (float& x : input_.data) x = static_cast<float>(rng.Normal());
    }
  }

  KernelResult Run() const {
    if (l_.kind == LayerKind::kGemm) {
      switch (w_.format) {
        case Format::kDense: return shflbw::GemmTensorCore(w_.dense, act_, spec_);
        case Format::kCsr: return shflbw::SpmmSputnik(w_.csr, act_, spec_);
        case Format::kBsr: return shflbw::SpmmBsr(w_.bsr, act_, spec_);
        case Format::kBalanced24:
          return shflbw::SpmmBalanced24(w_.balanced24, act_, spec_);
        case Format::kVectorWise:
          return shflbw::SpmmVectorWise(w_.vw, act_, spec_);
        case Format::kShflBw: return shflbw::SpmmShflBw(w_.shflbw, act_, spec_);
      }
    } else {
      switch (w_.format) {
        case Format::kDense:
          return shflbw::Conv2dDense(input_, w_.dense, shape_, spec_);
        case Format::kShflBw:
          return shflbw::Conv2dShflBw(input_, w_.shflbw, shape_, spec_);
        case Format::kVectorWise:
          return shflbw::SpmmVectorWise(w_.vw, shflbw::Im2Col(input_, shape_),
                                        spec_);
        default: break;
      }
    }
    throw shflbw::Error("no kernel for format " + FormatName(w_.format));
  }

  /// Dense-operand columns of the launch (the implicit GEMM's N).
  int N() const {
    return l_.kind == LayerKind::kGemm ? act_.cols() : shape_.GemmN();
  }

 private:
  const LayerDesc& l_;
  const PackedWeight& w_;
  const shflbw::GpuSpec& spec_;
  Matrix<float> act_;
  Tensor4 input_;
  ConvShape shape_;
};

/// Times `fn` under a span named `name`; returns the seconds.
double Timed(SpanRecorder& spans, const std::string& name, int parent,
             const std::function<void()>& fn) {
  const double t0 = NowSeconds();
  fn();
  const double t1 = NowSeconds();
  spans.Add(name, t0, t1, parent);
  return t1 - t0;
}

/// Interleaves the arms (A B A B ...) until each has `min_reps` samples
/// and `budget_s` has passed, or `max_reps` samples.
std::vector<std::vector<double>> Interleaved(
    SpanRecorder& spans, int parent, const std::vector<std::string>& names,
    const std::vector<std::function<void()>>& arms, int min_reps,
    int max_reps, double budget_s) {
  std::vector<std::vector<double>> t(arms.size());
  const double t0 = NowSeconds();
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps && NowSeconds() - t0 >= budget_s) break;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      t[a].push_back(Timed(spans, names[a], parent, arms[a]));
    }
  }
  return t;
}

/// The per-layer kernel row: metric suffix and unit.
const std::vector<std::pair<std::string, std::string>>& KernelRowFields() {
  static const std::vector<std::pair<std::string, std::string>> kFields = {
      {".ms.w1", "ms"},
      {".ms.wK", "ms"},
      {".gflops", "GFLOP/s"},
      {".roofline_frac", "ratio"}};
  return kFields;
}

void Put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

}  // namespace

RunReport TracedRun(const Workload& w, std::uint64_t seed, double seconds,
                    const std::string& artifacts) {
  RunReport rep;
  Metrics& m = rep.metrics;
  SpanRecorder spans;
  const Inputs in = MakeInputs(w, seed, seconds);
  const int K = w.fused_width;
  auto& evaluator = shflbw::quality::QualityEvaluator::Shared();

  // ---- host roofline
  const Roofline roof = MeasureRoofline();
  Put(m, "host.peak_gflops", roof.peak_flops / 1e9, "GFLOP/s");
  Put(m, "host.stream_gbs", roof.stream_bps / 1e9, "GB/s");

  // ---- quality: PlanModel over every ladder level
  const std::vector<PlannerOptions> levels = LevelOptions(w);
  std::vector<ExecutionPlan> plans;
  evaluator.Clear();
  const std::size_t evals0 = evaluator.Evaluations();
  const double setup0 = NowSeconds();
  const int plan_pack = spans.Add("setup.plan_pack", setup0, setup0);
  double plan_s = 0;
  for (const PlannerOptions& o : levels) {
    plan_s += Timed(spans, "quality.plan", plan_pack,
                    [&] { plans.push_back(PlanModel(w.model, o)); });
  }
  Put(m, "quality.plan_s", plan_s, "s");
  Put(m, "quality.mask_evals",
      static_cast<double>(evaluator.Evaluations() - evals0), "count");

  // ---- pack: PackWeight (through the cache the references share)
  auto cache = std::make_shared<PackedWeightCache>();
  double pack_s = 0;
  for (std::size_t i = 0; i < w.model.layers.size(); ++i) {
    const LayerDesc& l = w.model.layers[i];
    Matrix<float> master;
    Timed(spans, "pack.master", plan_pack, [&] {
      shflbw::SynthWeightOptions synth;
      synth.seed = w.server.engine.weight_seed + i;
      master = shflbw::SynthesizeWeights(l.GemmM(), l.GemmK(), synth);
    });
    for (const ExecutionPlan& p : plans) {
      const LayerPlan& lp = p.layers[i];
      const int layer = static_cast<int>(i);
      if (cache->Contains(layer, lp.format, lp.density, lp.v)) continue;
      pack_s += Timed(spans, "pack.weight", plan_pack, [&] {
        (void)cache->GetOrPack(layer, lp.format, master, lp.density, lp.v);
      });
    }
  }
  spans.SetEnd(plan_pack, NowSeconds());
  Put(m, "pack.pack_s", pack_s, "s");
  Put(m, "pack.packs", static_cast<double>(cache->TotalPacks()), "count");

  // ---- server set-up (ctor + Warmup), planning from a cold evaluator
  evaluator.Clear();
  std::unique_ptr<BatchServer> server;
  const double setup_s = Timed(spans, "server.setup", SpanRecorder::kNone, [&] {
    server = std::make_unique<BatchServer>(w.model, w.server);
    server->Warmup();
  });
  Put(m, "setup.traced_s", setup_s, "s");
  Put(m, "setup.plan_pack_frac", (plan_s + pack_s) / setup_s, "ratio");
  for (int lvl = 0; lvl < server->levels(); ++lvl) {
    if (!SamePlan(server->PlanAt(lvl), plans[static_cast<std::size_t>(lvl)])) {
      rep.correct = false;
      rep.notes.push_back("PlanModel disagrees with the server's plan at level " +
                          std::to_string(lvl));
    }
  }
  const References refs = ComputeReferences(*server, w.model, in, cache);

  // ---- kernels: level-0 plan layers at width 1 and the fused width
  const ExecutionPlan& plan0 = server->PlanAt(0);
  const auto& spec = shflbw::GetGpuSpec(plan0.options.arch);
  const int kernels = spans.Add("kernels", NowSeconds(), NowSeconds());
  double kernel_total_w1 = 0;
  double kernel_total_wk = 0;
  double heaviest_s = -1;
  int heaviest = 0;
  for (std::size_t i = 0; i < w.model.layers.size(); ++i) {
    const LayerDesc& l = w.model.layers[i];
    const LayerPlan& lp = plan0.layers[i];
    const PackedWeight& pw =
        cache->GetOrPack(static_cast<int>(i), lp.format, Matrix<float>(),
                         lp.density, lp.v);
    const LayerLaunch w1(l, pw, spec, 1, seed + i);
    const LayerLaunch wk(l, pw, spec, K, seed + i);
    const std::string base = "kernels." + l.Name();
    std::vector<std::function<void()>> arms = {[&] { (void)w1.Run(); }};
    std::vector<std::string> names = {"kernel." + l.Name() + ".w1"};
    if (K > 1) {
      arms.push_back([&] { (void)wk.Run(); });
      names.push_back("kernel." + l.Name() + ".wK");
    }
    const auto t = Interleaved(spans, kernels, names, arms, 7, 60, 0.3);
    const double s1 = Median(t[0]);
    const double sk = Median(t.back());
    const double flops = wk.Run().stats.useful_flops;
    const double nnz = lp.density * l.GemmM() * static_cast<double>(l.GemmK());
    // Bytes from tensor sizes: fp16 kept weights, fp16 dense operand
    // (the implicit-GEMM K x N for conv) and fp16 output.
    const double bytes =
        2.0 * (nnz + static_cast<double>(l.GemmK()) * wk.N() +
               static_cast<double>(l.GemmM()) * wk.N());
    Put(m, base + ".ms.w1", s1 * 1e3, "ms");
    Put(m, base + ".ms.wK", sk * 1e3, "ms");
    Put(m, base + ".gflops", flops / sk / 1e9, "GFLOP/s");
    Put(m, base + ".roofline_frac", flops / sk / roof.Bound(flops, bytes),
        "ratio");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "kernel %-18s %-7s d=%.3f v=%-3d w1 %.3f ms  w%d %.3f ms  "
                  "%.2f GFLOP/s  bytes %.0f  modeled_us %.2f",
                  l.Name().c_str(), FormatName(lp.format).c_str(), lp.density,
                  lp.v, s1 * 1e3, K, sk * 1e3, flops / sk / 1e9, bytes,
                  lp.modeled_s * 1e6);
    rep.notes.push_back(buf);
    kernel_total_w1 += s1;
    kernel_total_wk += sk;
    if (sk > heaviest_s) {
      heaviest_s = sk;
      heaviest = static_cast<int>(i);
    }
  }
  spans.SetEnd(kernels, NowSeconds());
  Put(m, "kernels.total_ms.wK", kernel_total_wk * 1e3, "ms");

  // ---- A/A control and pool scaling on the heaviest layer at width K
  {
    const LayerDesc& l = w.model.layers[static_cast<std::size_t>(heaviest)];
    const LayerPlan& lp = plan0.layers[static_cast<std::size_t>(heaviest)];
    const PackedWeight& pw = cache->GetOrPack(heaviest, lp.format,
                                              Matrix<float>(), lp.density, lp.v);
    const LayerLaunch launch(l, pw, spec, K, seed);
    const auto run = [&] { (void)launch.Run(); };
    const int aa = spans.Add("aa", NowSeconds(), NowSeconds());
    const auto t = Interleaved(spans, aa, {"aa.A", "aa.B"}, {run, run}, 15, 60,
                               0.5);
    spans.SetEnd(aa, NowSeconds());
    std::vector<double> ratios;
    for (std::size_t i = 0; i < t[0].size(); ++i) {
      ratios.push_back(t[1][i] / t[0][i]);
    }
    Put(m, "kernels.aa_ratio", Median(t[1]) / Median(t[0]), "ratio");
    Put(m, "kernels.aa_spread", RelSpread(ratios), "ratio");

    const int pool = spans.Add("pool", NowSeconds(), NowSeconds());
    const auto p = Interleaved(
        spans, pool, {"pool.t1", "pool.tN"},
        {[&] {
           shflbw::SetParallelThreads(1);
           run();
           shflbw::SetParallelThreads(0);
         },
         run},
        5, 20, 0.5);
    spans.SetEnd(pool, NowSeconds());
    Put(m, "pool.speedup", Median(p[0]) / Median(p[1]), "x");
  }

  // ---- engine: RunBatched at width 1 and K on a reference engine
  {
    EngineOptions eo = w.server.engine;
    eo.planner = plan0.options;
    Engine engine(w.model, eo, cache);
    engine.AdoptPlan(plan0);
    const std::vector<std::uint64_t> s1(in.pool.begin(), in.pool.begin() + 1);
    const std::vector<std::uint64_t> sk(in.pool.begin(), in.pool.begin() + K);
    std::vector<double> overhead_frac;
    const auto launch = [&](const std::vector<std::uint64_t>& seeds,
                            const char* name) {
      const double t0 = NowSeconds();
      const BatchRunResult r = engine.RunBatched(seeds);
      const double t1 = NowSeconds();
      const int id = spans.Add(name, t0, t1);
      // Kernel children carry the engine's own per-layer times, laid end
      // to end from the launch start (durations exact, offsets not).
      double t = t0;
      for (const LayerRunRecord& rec : r.layers) {
        spans.Add("engine.kernel", t, t + rec.seconds, id);
        t += rec.seconds;
      }
      if (static_cast<int>(seeds.size()) == K) {
        overhead_frac.push_back(r.overhead_seconds / (t1 - t0));
      }
      return t1 - t0;
    };
    std::vector<double> t1s, tks;
    const double t0 = NowSeconds();
    for (int rep_i = 0; rep_i < 60; ++rep_i) {
      if (rep_i >= 7 && NowSeconds() - t0 >= 0.5) break;
      t1s.push_back(launch(s1, "engine.run_batched.w1"));
      tks.push_back(launch(sk, "engine.run_batched.wK"));
    }
    Put(m, "engine.run_ms.w1", Median(t1s) * 1e3, "ms");
    Put(m, "engine.run_ms.wK", Median(tks) * 1e3, "ms");
    Put(m, "engine.overhead_frac", Median(overhead_frac), "ratio");
  }

  // ---- server: the workload's run with spans, then the same schedule
  // again untraced on the same server for trace.overhead_frac.
  const ServeResult r = Serve(*server, w, in, refs, seconds, &spans);
  GateServing(r, w, rep);
  const ServeResult plain = Serve(*server, w, in, refs, seconds, nullptr);
  GateServing(plain, w, rep);
  const double sent = std::max(1, r.sent);
  const Tail qtail = TailOf(r.queue_s);
  Put(m, "server.queue_ms.p50", Median(r.queue_s) * 1e3, "ms");
  Put(m, "server.queue_ms.tail", qtail.value * 1e3, "ms");
  Put(m, "server.run_ms", Median(r.run_s) * 1e3, "ms");
  double width_sum = 0;
  for (const double x : r.width) width_sum += x;
  const double width_mean =
      r.width.empty() ? 0 : width_sum / static_cast<double>(r.width.size());
  Put(m, "server.fused_width_mean", width_mean, "count");
  Put(m, "server.shed_frac", r.shed / sent, "ratio");
  Put(m, "server.rejected_frac", r.rejected / sent, "ratio");
  Put(m, "server.level1_share", r.ok ? static_cast<double>(r.level1) / r.ok : 0,
      "ratio");
  Put(m, "server.shifts", static_cast<double>(r.shifts), "count");
  const double latency_p50 = Median(r.latency_s);
  // Kernel time of one launch at the served mean width, interpolated
  // between the width-1 and width-K timings, over the median request.
  const double kernel_at_mean =
      K > 1 ? kernel_total_w1 + (kernel_total_wk - kernel_total_w1) *
                                    (width_mean - 1) / (K - 1)
            : kernel_total_w1;
  Put(m, "server.kernel_share",
      latency_p50 > 0 ? kernel_at_mean / latency_p50 : 0, "ratio");
  Put(m, "gen.lag_p99_ms", Quantile(r.lag_s, 0.99) * 1e3, "ms");
  // Median latency, not throughput: the open loop's throughput is set by
  // its schedule; in a closed loop the two move together.
  Put(m, "trace.overhead_frac",
      latency_p50 / Median(plain.latency_s) - 1.0, "ratio");
  Put(m, "trace.spans", static_cast<double>(spans.spans().size()), "count");

  // Fill the kernel rows of layers this workload's model does not have.
  for (const std::string& name : AllLayerNames()) {
    const std::string base = "kernels." + name;
    for (const auto& [field, unit] : KernelRowFields()) {
      if (m.count(base + field) == 0) Put(m, base + field, 0, unit);
    }
  }

  // Self time by span name, and the trace file.
  for (const auto& [name, t] : spans.ByName()) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "span %-28s n=%-7d total %10.3f ms  self %10.3f ms",
                  name.c_str(), t.count, t.total_s * 1e3, t.self_s * 1e3);
    rep.notes.push_back(buf);
  }
  if (!artifacts.empty()) {
    const std::string path = artifacts + "/trace-" + w.name + ".json";
    if (spans.WriteChromeTrace(path)) {
      rep.notes.push_back("trace written to " + path);
    } else {
      rep.notes.push_back("could not write " + path);
    }
  }
  return rep;
}

}  // namespace perfbench
