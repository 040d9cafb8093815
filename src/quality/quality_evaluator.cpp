#include "quality/quality_evaluator.h"

#include "common/check.h"
#include "model/weight_synth.h"
#include "prune/importance.h"

namespace shflbw {
namespace quality {

std::shared_ptr<const QualityEvaluator::ScoresEntry> QualityEvaluator::Scores(
    int m, int k, std::uint64_t seed) {
  const ScoresKey key{m, k, seed};
  auto it = scores_.find(key);
  if (it == scores_.end()) {
    SynthWeightOptions synth;
    synth.seed = seed;
    auto entry = std::make_shared<ScoresEntry>();
    entry->scores = MagnitudeScores(SynthesizeWeights(m, k, synth));
    for (float s : entry->scores.storage()) entry->total += s;
    it = scores_.emplace(key, std::move(entry)).first;
  }
  return it->second;
}

double QualityEvaluator::RetainedRatio(int m, int k, std::uint64_t seed,
                                       runtime::Format format, double density,
                                       int v) {
  if (format == runtime::Format::kDense) return 1.0;
  SHFLBW_CHECK_MSG(density > 0.0 && density <= 1.0,
                   "kept density must be in (0, 1], got " << density);
  SHFLBW_CHECK_MSG(v >= 1, "granularity v must be >= 1, got " << v);
  const RatioKey key{m, k, seed, static_cast<int>(format), density, v};
  std::shared_ptr<const ScoresEntry> entry;
  {
    MutexLock lock(mu_);
    // A key in flight is being evaluated by another caller: wait for
    // its ratio (or, if that evaluation throws, for the slot to free).
    evaluated_.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) {
      return in_flight_.count(key) == 0;
    });
    auto it = ratios_.find(key);
    if (it != ratios_.end()) return it->second;
    entry = Scores(m, k, seed);
    in_flight_.insert(key);
  }

  // The format row's own mask function — the one PackWeight applies —
  // so planning-time quality is the quality of the packed weight the
  // engine executes. It runs with no lock held: the Shfl-BW search
  // runs on the worker pool, whose mutex ranks before this one.
  double ratio = 0;
  try {
    const Matrix<float> mask =
        runtime::GetFormatOps(format).mask(entry->scores, density, v, nullptr);
    ratio = RetainedScoreRatio(entry->scores, mask);
  } catch (...) {
    MutexLock lock(mu_);
    in_flight_.erase(key);
    evaluated_.NotifyAll();
    throw;
  }
  MutexLock lock(mu_);
  in_flight_.erase(key);
  evaluated_.NotifyAll();
  ++evaluations_;
  ratios_.emplace(key, ratio);
  return ratio;
}

double QualityEvaluator::LayerRetainedRatio(const runtime::LayerDesc& l,
                                            int layer,
                                            std::uint64_t weight_seed,
                                            runtime::Format format,
                                            double density, int v) {
  return RetainedRatio(l.GemmM(), l.GemmK(),
                       weight_seed + static_cast<std::uint64_t>(layer),
                       format, density, v);
}

double QualityEvaluator::LayerTotalScore(const runtime::LayerDesc& l,
                                         int layer,
                                         std::uint64_t weight_seed) {
  MutexLock lock(mu_);
  return Scores(l.GemmM(), l.GemmK(),
                weight_seed + static_cast<std::uint64_t>(layer))
      ->total;
}

QualityEvaluator& QualityEvaluator::Shared() {
  static QualityEvaluator* instance = new QualityEvaluator();
  return *instance;
}

}  // namespace quality
}  // namespace shflbw
