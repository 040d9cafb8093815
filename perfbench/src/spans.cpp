// Span recording, self time and Chrome-trace export.
#include <algorithm>
#include <cstdio>

#include "obs/json_escape.h"
#include "perfbench.h"

namespace perfbench {

int SpanRecorder::Add(const std::string& name, double start, double end,
                      int parent, std::int64_t request) {
  spans_.push_back(Span{name, start, std::max(start, end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::SetEnd(int id, double end) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end = std::max(s.start, end);
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNone) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children, clipped to the parent.
    double covered = 0;
    double run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, p.start);
      const double hi = std::min(hi_raw, p.end);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (p.end - p.start) - covered;
  }
  return self;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::ByName() const {
  std::map<std::string, NameTotals> out;
  const std::vector<double> self = SelfSeconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += spans_[i].end - spans_[i].start;
    t.self_s += self[i];
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) t0 = std::min(t0, s.start);
  const std::vector<double> self = SelfSeconds();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One track per request; spans outside a request share track 0.
    const long long tid = s.request == kNone ? 0 : s.request + 1;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld,\"self_us\":%.3f}}",
                 i ? "," : "", shflbw::obs::JsonEscape(s.name).c_str(), tid,
                 (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<long long>(s.request), self[i] * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
