// perfbench self-test: the output gate must trip on a known-bad input,
// and the statistics it reports must be right on hand-made samples.
// Exit code 0 = all checks passed.
#include <cmath>
#include <cstdio>

#include "perfbench.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)

  // Self time: parent [0, 10] with children [1, 3], [2, 5] (overlapping)
  // and [8, 12] (clipped to the parent) covers 4 + 2 = 6 s.
  SpanRecorder spans;
  const int parent = spans.Add("parent", 0, 10);
  spans.Add("child", 1, 3, parent);
  spans.Add("child", 2, 5, parent);
  spans.Add("child", 8, 12, parent);
  const std::vector<double> self = spans.SelfSeconds();
  Check(Near(self[0], 4.0), "parent self time excludes the union of children");
  Check(Near(self[1], 2.0), "leaf self time is its duration");
  Check(Near(spans.ByName().at("child").total_s, 9.0), "totals by name");

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(Near(Median(v), 50.5), "median of 1..100");
  const Tail t = TailOf(v);
  Check(t.percentile == 90 && t.beyond == 10, "100 samples support p90 only");
  std::vector<double> big(1000, 1.0);
  Check(TailOf(big).percentile == 99, "1000 samples support p99");

  // The gate: a clean run reads error_frac 0; the same run against a
  // reference with one flipped bit must not.
  const Workload w = MakeWorkload("transformer-small-fused");
  const Inputs in = MakeInputs(w, 7, 0.5);
  BatchServer server(w.model, w.server);
  server.Warmup();
  References refs = ComputeReferences(
      server, w.model, in,
      std::make_shared<shflbw::runtime::PackedWeightCache>());
  const ServeResult clean = Serve(server, w, in, refs, 0.5, nullptr);
  Check(clean.ok > 0 && clean.Errors() == 0, "clean run: error_frac == 0");
  refs.CorruptOneBit();
  const ServeResult bad = Serve(server, w, in, refs, 0.5, nullptr);
  Check(bad.mismatched > 0, "corrupted reference bit: error_frac > 0");
  RunReport report;
  GateServing(bad, w, report);
  Check(!report.correct && report.failed > 0, "gate marks the run incorrect");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
