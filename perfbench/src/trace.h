#ifndef VIEWJOIN_PERFBENCH_TRACE_H_
#define VIEWJOIN_PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs. Spans are taken
// in the benchmark's own code, around its calls into each layer's public
// functions; child durations the engine already reports (plan steps, the
// server's engine time) are added as synthesized child spans. Nothing is
// written until WriteJson() at exit.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace viewjoin::perfbench {

struct Span {
  std::string name;   // e.g. "Engine::Execute", "plan.eval-segments"
  std::string layer;  // e.g. "core", "plan", "join", "server"
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;   // index of the parent span, -1 for a root
  uint64_t request = 0;  // spans of one operation share this id
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span at the current time; returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, const std::string& layer,
                int64_t parent, uint64_t request);
  /// Closes span `id` at the current time (no-op for -1).
  void End(int64_t id);
  /// Records a finished span with explicit bounds; returns its id.
  int64_t Add(const std::string& name, const std::string& layer,
              int64_t parent, uint64_t request, double start_ms,
              double end_ms);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, in ms: each span's duration minus the part of its
  /// interval that its children cover, summed by layer.
  std::map<std::string, double> SelfMsByLayer() const;

  /// Writes every span as one JSON document. False on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

}  // namespace viewjoin::perfbench

#endif  // VIEWJOIN_PERFBENCH_TRACE_H_
