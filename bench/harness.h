#ifndef VIEWJOIN_BENCH_HARNESS_H_
#define VIEWJOIN_BENCH_HARNESS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "core/engine.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "storage/materialized_view.h"
#include "tpq/pattern.h"
#include "xml/document.h"

namespace viewjoin::bench {

class JsonReport;

/// One algorithm × storage-scheme combination (a column of Fig. 5).
struct Combo {
  core::Algorithm algorithm;
  storage::Scheme scheme;
  std::string Label() const;
};

/// The paper's seven combinations (Table I): IJ+T, TS+E, TS+LE, TS+LE_p,
/// VJ+E, VJ+LE, VJ+LE_p.
std::vector<Combo> AllCombos();
/// The six list-scheme combinations (no IJ+T) used for twig queries.
std::vector<Combo> ListCombos();

/// Shared benchmark fixture: a generated document, an engine over it, and a
/// cache of materialized views keyed by (pattern, scheme).
class BenchContext {
 public:
  /// Builds an XMark document at the given scale.
  static std::unique_ptr<BenchContext> Xmark(double scale, uint64_t seed = 42);
  /// Builds a NASA-like document.
  static std::unique_ptr<BenchContext> Nasa(int64_t datasets,
                                            uint64_t seed = 7);

  const xml::Document& doc() const { return doc_; }
  core::Engine& engine() { return *engine_; }

  /// Materializes (with caching) one view.
  const storage::MaterializedView* View(const std::string& xpath,
                                        storage::Scheme scheme);
  const storage::MaterializedView* View(const tpq::TreePattern& pattern,
                                        storage::Scheme scheme);

  /// Materializes a whole covering set.
  std::vector<const storage::MaterializedView*> Views(
      const std::vector<std::string>& xpaths, storage::Scheme scheme);
  std::vector<const storage::MaterializedView*> Views(
      const std::vector<tpq::TreePattern>& patterns, storage::Scheme scheme);

  /// Runs query × combo over `views`, repeating `repeats` times and
  /// averaging. Every repeat starts from a cleared pool (cold cache + reset
  /// error latch, as the paper measures), and ALL reported stats — times,
  /// page/pool counters, retries — are averaged consistently over the
  /// repeats, not taken from the last run only. Match count/hash must be
  /// identical across repeats (checked); degraded/quarantine info is the
  /// union over repeats. A non-null `times_ms` receives each repeat's
  /// total_ms, in run order.
  core::RunResult Run(const tpq::TreePattern& query,
                      const std::vector<const storage::MaterializedView*>& views,
                      const Combo& combo,
                      algo::OutputMode mode = algo::OutputMode::kMemory,
                      int repeats = 3,
                      std::vector<double>* times_ms = nullptr);

  /// Convenience: split the query with SplitViews, materialize, run.
  core::RunResult RunSplit(const std::string& xpath, const Combo& combo,
                           int pieces = 2,
                           algo::OutputMode mode = algo::OutputMode::kMemory);

 private:
  explicit BenchContext(xml::Document doc);

  xml::Document doc_;
  std::string storage_path_;
  std::unique_ptr<core::Engine> engine_;
  std::map<std::pair<std::string, int>, const storage::MaterializedView*>
      view_cache_;
};

/// One query for RunOnSessions: a pattern that outlives the call and its
/// covering views.
struct SessionQuery {
  const tpq::TreePattern* pattern = nullptr;
  std::vector<const storage::MaterializedView*> views;
};

/// Runs `queries` on up to `threads` threads, each holding one
/// core::Engine::Session of `engine` (ids 0..threads-1). Threads claim the
/// next query from one atomic index, and results[i] answers queries[i].
/// Session::Run never drops caches: a caller that wants a cold start drops
/// them before the call.
std::vector<core::RunResult> RunOnSessions(
    core::Engine* engine, const std::vector<SessionQuery>& queries,
    size_t threads, const core::RunOptions& run = {});

/// Count, median, 95th percentile and range of a sample.
struct SampleSummary {
  uint64_t n = 0;
  double median = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
};

/// Summarizes `samples` with nearest-rank percentiles; all zero when empty.
SampleSummary Summarize(std::vector<double> samples);

/// One panel of Fig. 5: every query of `queries` over its PairViews covering
/// set under each of `combos`, `repeats` cold runs per cell. Every combo must
/// return the same answer (checked). Prints the per-cell n, median and p95
/// time and the page reads, and adds one JSON row per cell whose `total_ms`
/// is the median (with `n` and `p95_ms` beside it) and which carries the
/// join counters (`entries_scanned`, `flushes`, `certified_flushes`).
void RunFig5Panel(const std::string& title, const std::string& dataset,
                  BenchContext* context, const std::vector<QuerySpec>& queries,
                  const std::vector<Combo>& combos, int repeats,
                  JsonReport* report);

/// Parses an XPath, dying on failure.
tpq::TreePattern ParseQuery(const std::string& xpath);

/// Prints the standard bench banner (doc stats, knobs).
void PrintBanner(const std::string& title, const BenchContext& context);

/// Machine-readable result emitter shared by every bench binary. Each bench
/// passes its argv through ParseArgs; when the user supplied `--json out.json`
/// (or `--json=out.json`), Write() serializes the report there as
///
///   {
///     "bench": "<name>",
///     "meta":  { "<key>": <value>, ... },           // dataset knobs etc.
///     "rows":  [ { "<key>": <value>, ... }, ... ]   // one object per result
///   }
///
/// Values are JSON numbers, strings or booleans. Row::Metrics() adds the
/// standard per-run fields (see bench/README.md for the full schema). Without
/// --json the report is disabled and Write() is a no-op, so benches call it
/// unconditionally.
class JsonReport {
 public:
  class Row {
   public:
    Row& Set(const std::string& key, const std::string& value);
    Row& Set(const std::string& key, const char* value);
    Row& Set(const std::string& key, double value);
    Row& Set(const std::string& key, uint64_t value);
    Row& Set(const std::string& key, int value);
    Row& Set(const std::string& key, bool value);
    /// Standard result fields: matches, result_hash (hex string), total_ms,
    /// io_ms, pages_read, pages_written, pool_hits, pool_misses,
    /// read_retries, degraded.
    Row& Metrics(const core::RunResult& result);

   private:
    friend class JsonReport;
    /// key -> already-JSON-encoded value, in insertion order.
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Consumes `--json PATH` / `--json=PATH` from the command line, and
  /// `--repeats N` (N >= 1, recorded as meta "repeats") when `repeats` is
  /// non-null: benches that repeat their measurements take it, the others
  /// reject it. Dies on an unknown argument so typos surface.
  void ParseArgs(int argc, char** argv, int* repeats = nullptr);

  void set_path(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  template <typename T>
  void SetMeta(const std::string& key, T value) {
    meta_.Set(key, value);
  }

  /// Appends a row and returns it for chaining; the reference stays valid
  /// for the report's lifetime.
  Row& AddRow();

  /// Writes the report to the --json path (no-op when disabled).
  void Write() const;

 private:
  std::string bench_name_;
  std::string path_;
  Row meta_;
  std::deque<Row> rows_;
};

}  // namespace viewjoin::bench

#endif  // VIEWJOIN_BENCH_HARNESS_H_
