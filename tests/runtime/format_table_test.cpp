// The format table's contract (runtime/format.h): for every Format, the
// packed weight the engine runs, the ratio the quality planner reports
// and the masked weights SparseLinear keeps all come from the row's one
// mask function.
#include "runtime/format.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sparse_linear.h"
#include "format/balanced24.h"
#include "format/convert.h"
#include "model/weight_synth.h"
#include "prune/importance.h"
#include "quality/quality_evaluator.h"

namespace shflbw {
namespace runtime {
namespace {

// A shape every format can handle: 32 rows and cols divide V = 8 and 4.
constexpr int kRows = 32;
constexpr int kCols = 32;
constexpr int kV = 8;

double DensityFor(Format f) { return f == Format::kBalanced24 ? 0.5 : 0.25; }

Matrix<float> RowMask(Format f, const Matrix<float>& w) {
  return GetFormatOps(f).mask(MagnitudeScores(w), DensityFor(f), kV, nullptr);
}

class EveryFormat : public ::testing::TestWithParam<Format> {};

TEST_P(EveryFormat, PackedWeightExpandsToMaskedMaster) {
  const Format f = GetParam();
  Rng rng(383);
  const Matrix<float> w = rng.NormalMatrix(kRows, kCols);
  const PackedWeight p = PackWeight(f, w, DensityFor(f), kV);
  EXPECT_EQ(p.format, f);
  // Dense packs the fp16-rounded master; every sparse format stores the
  // masked master exactly.
  const Matrix<float> expected =
      f == Format::kDense ? RoundThroughFp16(w) : ApplyMask(w, RowMask(f, w));
  EXPECT_EQ(GetFormatOps(f).to_dense(p), expected);
}

TEST_P(EveryFormat, RetainedRatioScoresTheRowMask) {
  const Format f = GetParam();
  constexpr std::uint64_t kSeed = 389;
  quality::QualityEvaluator evaluator;
  SynthWeightOptions synth;
  synth.seed = kSeed;
  const Matrix<float> scores =
      MagnitudeScores(SynthesizeWeights(kRows, kCols, synth));
  const Matrix<float> mask =
      GetFormatOps(f).mask(scores, DensityFor(f), kV, nullptr);
  EXPECT_EQ(evaluator.RetainedRatio(kRows, kCols, kSeed, f, DensityFor(f), kV),
            RetainedScoreRatio(scores, mask));
}

TEST_P(EveryFormat, PrunedWeightsEqualMaskTimesWeights) {
  const Format f = GetParam();
  Rng rng(397);
  const Matrix<float> w = rng.NormalMatrix(kRows, kCols);
  const SparseLinear layer(w, {f, DensityFor(f), kV});
  const Matrix<float> mask = RowMask(f, w);
  EXPECT_EQ(layer.mask(), mask);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(layer.pruned_weights().storage()[i],
              w.storage()[i] * mask.storage()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, EveryFormat,
                         ::testing::ValuesIn(AllFormats()));

TEST(FormatTable, NamesAndKernelClassesRoundTrip) {
  for (Format f : AllFormats()) {
    EXPECT_EQ(ParseFormat(FormatName(f)), f);
    EXPECT_EQ(FormatKernelClass(f), GetFormatOps(f).kernel_class);
  }
  EXPECT_EQ(FormatName(Format::kBalanced24), "2:4");
  EXPECT_EQ(FormatKernelClass(Format::kCsr), KernelClass::kSputnik);
  EXPECT_THROW(ParseFormat("nonsense"), Error);
}

TEST(FormatTable, ConvRowsAreDenseVectorWiseAndShflBw) {
  for (Format f : AllFormats()) {
    const bool has_conv = f == Format::kDense || f == Format::kVectorWise ||
                          f == Format::kShflBw;
    EXPECT_EQ(GetFormatOps(f).conv != nullptr, has_conv) << FormatName(f);
  }
}

TEST(FormatTable, DenseMaskIsAllOnes) {
  Rng rng(373);
  const Matrix<float> w = rng.NormalMatrix(8, 8);
  Matrix<float> mask;
  (void)PackWeight(Format::kDense, w, 1.0, kV, &mask);
  EXPECT_EQ(CountNonZeros(mask), 64u);
  EXPECT_EQ(ApplyMask(w, mask), w);
}

TEST(FormatTable, ShflBwCarriesPermutation) {
  Rng rng(379);
  const Matrix<float> w = rng.NormalMatrix(kRows, kCols);
  std::vector<int> perm;
  (void)GetFormatOps(Format::kShflBw)
      .mask(MagnitudeScores(w), 0.25, kV, &perm);
  EXPECT_EQ(perm.size(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(PackWeight(Format::kShflBw, w, 0.25, kV)
                .shflbw.storage_to_original,
            perm);
  // No other row touches the permutation.
  std::vector<int> untouched;
  (void)GetFormatOps(Format::kVectorWise)
      .mask(MagnitudeScores(w), 0.25, kV, &untouched);
  EXPECT_TRUE(untouched.empty());
}

TEST(FormatTable, Balanced24MaskSatisfiesConstraint) {
  Rng rng(389);
  const Matrix<float> w = rng.NormalMatrix(16, 32);
  const auto mask = GetFormatOps(Format::kBalanced24).mask;
  EXPECT_TRUE(Satisfies24(ApplyMask(w, mask(MagnitudeScores(w), 0.5, kV,
                                            nullptr))));
  EXPECT_THROW(mask(MagnitudeScores(w), 0.3, kV, nullptr), Error);
}

}  // namespace
}  // namespace runtime
}  // namespace shflbw
