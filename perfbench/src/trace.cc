#include "src/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/probe.h"

namespace viewjoin::perfbench {

int64_t Tracer::Begin(const std::string& name, const std::string& layer,
                      int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  double now = WallMs();
  return Add(name, layer, parent, request, now, now);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ms = WallMs();
}

int64_t Tracer::Add(const std::string& name, const std::string& layer,
                    int64_t parent, uint64_t request, double start_ms,
                    double end_ms) {
  if (!enabled_) return -1;
  spans_.push_back({name, layer, start_ms, end_ms, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start_ms, span.end_ms});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double duration = std::max(0.0, span.end_ms - span.start_ms);
    self[span.layer] +=
        duration - CoveredLength(children[i], span.start_ms, span.end_ms);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %lld, "
                 "\"request\": %llu}%s\n",
                 i, s.name.c_str(), s.layer.c_str(), s.start_ms, s.end_ms,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace viewjoin::perfbench
