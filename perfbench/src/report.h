#ifndef VIEWJOIN_PERFBENCH_REPORT_H_
#define VIEWJOIN_PERFBENCH_REPORT_H_

// What one benchmark run hands back, the metric catalogue it must fill, and
// the shared plumbing of the three workloads (run configuration, scratch
// store directories, per-query layer counters, host noise).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "src/probe.h"
#include "src/trace.h"
#include "storage/materialized_view.h"

namespace viewjoin::perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Minimum length of the timed phase; workloads also run a minimum number
  /// of operations so every percentile keeps ≥ 10 samples beyond it.
  double seconds = 10;
  bool trace = false;
  /// Tiny documents and one-operation minimums, for the benchmark's tests.
  bool small = false;
  /// Scratch directory for view stores and traces (inside the checkout).
  std::string work_dir;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json
/// "end_to_end"), and the per-layer metrics every traced run reports
/// ("per_layer"; 0 where the workload does not exercise the layer).
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

class RunReport {
 public:
  /// Sets a catalogued metric (dies on a name missing from both lists).
  void Set(const std::string& name, double value);
  /// Records a diagnostic line (seed, sizes, sample counts, host noise).
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);

  /// Counts one operation that completed.
  void Succeeded() { ++attempted_; }
  /// Counts one operation that failed or was refused; `what` (first few
  /// kept) explains why.
  void Failed(const std::string& what);
  /// An answer that did not match its reference: fails the run.
  void Mismatch(const std::string& what);

  bool correct() const { return failed_ == 0 && mismatches_ == 0; }
  /// Failed operations and wrong answers ÷ operations attempted.
  double ErrorFrac() const;

  /// Prints the human-readable report (every metric of the selected list
  /// with its unit, then diagnostics and errors) followed by the one-line
  /// JSON result as the last line of stdout.
  void Print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// Creates (emptying first) `<work_dir>/<name>` and returns its path.
std::string FreshDir(const RunConfig& config, const std::string& name);
/// Removes a directory created by FreshDir and everything in it.
void RemoveDir(const std::string& dir);

/// Wall-clock median of `runs` timed calls of `setup`, each preceded by an
/// untimed `teardown` of the previous fixture; the last fixture stays.
double MedianSetupSeconds(int runs, const std::function<void()>& teardown,
                          const std::function<void()>& setup);

/// Space held by the live views of a catalog (not replaced, not
/// quarantined): logical bytes (MaterializedView::SizeBytes) and pages.
struct LiveViews {
  uint64_t size_bytes = 0;
  uint64_t pages = 0;
  uint64_t count = 0;
};
LiveViews LiveViewSpace(storage::ViewCatalog* catalog);

/// Per-query counters of the engine layers, accumulated from RunResults.
struct QueryLayers {
  uint64_t queries = 0;
  uint64_t pages_read = 0;
  double io_ms = 0;
  double total_ms = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t entries_scanned = 0;
  uint64_t entries_skipped = 0;
  uint64_t pointer_jumps = 0;
  std::vector<double> resolve_cover_ms;
  std::vector<double> eval_segments_ms;
  std::vector<double> extend_output_ms;

  void Add(const core::RunResult& result);
  /// Writes the storage/algo/core/plan per-layer metrics derived from these
  /// counters.
  void Report(RunReport* report) const;
};

/// Spans for one engine call: the call itself (layer "core") and its plan
/// steps as consecutive child spans inside it.
void TraceEngineCall(Tracer* tracer, const char* name, uint64_t request,
                     double start_ms, double end_ms,
                     const core::RunResult& result);

/// Self time per traced layer ÷ operations, as self.<layer>_ms_per_op.
void ReportSelfTimes(const Tracer& tracer, uint64_t operations,
                     RunReport* report);

/// Host noise over a run: steal share and load average, for explaining
/// outliers only.
class HostNoise {
 public:
  HostNoise() : start_(ReadProcStat()) {}
  void Report(RunReport* report) const;

 private:
  CpuJiffies start_;
};

}  // namespace viewjoin::perfbench

#endif  // VIEWJOIN_PERFBENCH_REPORT_H_
