// The four workloads. Each stresses a different layer of the system;
// README.md records why each was chosen and which metrics it should
// move. Sizes are fixed here and in BENCHMARK.json's `why` lines.
#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "perfbench.h"

namespace perfbench {

using shflbw::GnmtConfig;
using shflbw::ResNet50Config;
using shflbw::TransformerConfig;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "gnmt-shflbw", "transformer-small-fused", "transformer-ladder-open",
      "resnet-conv"};
  return kNames;
}

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  ServerOptions& s = w.server;
  s.engine.planner.arch = shflbw::GpuArch::kV100;
  if (name == "gnmt-shflbw") {
    // The one measured config where the quality-aware planner picks
    // Shfl-BW (0.375 on the three LSTM-gate GEMMs): kernel-bound.
    w.model = ModelDesc::Gnmt(GnmtConfig{256, 128, 2, 2, 0});
    s.engine.planner.v = 32;
    s.engine.planner.quality.density_ladder = {0.25, 0.375};
    s.degradation.ladder_floors = {0.7};
    s.replicas = 1;
    s.max_batch = 1;
    w.clients = 1;
  } else if (name == "transformer-small-fused") {
    // Sub-millisecond launches: queue, coalescing and per-launch
    // overhead dominate, not kernels.
    w.model = ModelDesc::Transformer(TransformerConfig{64, 256, 32, 1, 1});
    s.engine.planner.density = 0.25;
    s.engine.planner.v = 8;
    s.replicas = 2;
    s.max_batch = 8;
    w.clients = 16;
  } else if (name == "transformer-ladder-open") {
    // Deadlines, admission, seal-time shedding and the degradation
    // ladder only act under open-loop load above level-0 capacity.
    w.model = ModelDesc::Transformer(TransformerConfig{256, 1024, 128, 1, 1});
    s.engine.planner.quality.density_ladder = {0.25, 0.5};
    s.degradation.ladder_floors = {0.95, 0.5};
    s.replicas = 2;
    s.max_batch = 4;
    // Shift down once 16 requests queue (a quarter of the queue, about
    // a deadline's worth of work at level 0), back up below 4, after
    // two agreeing seals.
    s.degradation.degrade_queue_fraction = 0.25;
    s.degradation.upgrade_queue_fraction = 0.0625;
    s.degradation.hysteresis_seals = 2;
    w.open_loop = true;
    w.steady_rps = 30;
    w.burst_rps = 95;
    w.deadline_s = 0.25;
  } else if (name == "resnet-conv") {
    // Im2Col + conv kernels with fused batch blocks: the kernel path no
    // GEMM workload reaches.
    w.model = ModelDesc::ResNet50(ResNet50Config{1, 64});
    s.engine.planner.density = 0.25;
    s.engine.planner.v = 32;
    s.replicas = 1;
    s.max_batch = 4;
    // The four clients resubmit within microseconds of each other; a
    // 1 ms window lets them fuse into one launch instead of splitting
    // into widths that alternate from run to run.
    s.coalesce_window_seconds = 0.001;
    w.clients = 4;
  } else {
    throw shflbw::Error("unknown workload '" + name + "'");
  }
  w.fused_width = s.max_batch;
  return w;
}

std::vector<std::string> AllLayerNames() {
  std::vector<std::string> names;
  for (const std::string& wl : WorkloadNames()) {
    for (const auto& l : MakeWorkload(wl).model.layers) {
      if (std::find(names.begin(), names.end(), l.Name()) == names.end()) {
        names.push_back(l.Name());
      }
    }
  }
  return names;
}

Inputs MakeInputs(const Workload& w, std::uint64_t seed, double seconds) {
  shflbw::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  Inputs in;
  for (int i = 0; i < kSeedPool; ++i) {
    in.pool.push_back(rng.engine()());
  }
  in.pick_seed = rng.engine()();
  if (w.open_loop) {
    // Two fixed-rate Poisson phases: a burst of kBurstSeconds in the
    // middle of the run, steady load before and after it (so the run
    // sees the ladder shift down and back up). Each stretch holds
    // exactly rate x length arrivals at sorted uniform times: a Poisson
    // process conditioned on its count, so seeds vary where requests
    // cluster but not how many come. The steady stretches outnumber the
    // burst, which keeps the median inside the steady population.
    const double b0 = std::max(0.0, (seconds - kBurstSeconds) / 2);
    const double b1 = std::min(seconds, b0 + kBurstSeconds);
    for (const auto& [rate, begin, end] :
         {std::tuple{w.steady_rps, 0.0, b0},
          std::tuple{w.burst_rps, b0, b1},
          std::tuple{w.steady_rps, b1, seconds}}) {
      std::vector<double> phase(
          static_cast<std::size_t>(std::lround(rate * (end - begin))));
      for (double& t : phase) t = begin + (end - begin) * rng.Uniform();
      std::sort(phase.begin(), phase.end());
      in.due.insert(in.due.end(), phase.begin(), phase.end());
    }
  }
  return in;
}

}  // namespace perfbench
