// Concurrent query serving: throughput of one Engine::Session per thread
// (RunOnSessions) over the Fig. 5 path workloads as the thread count sweeps
// 1/2/4/8. Each batch runs the dataset's path queries (replicated a few
// times so every thread has work) against a deliberately small shared
// buffer pool, so the sharded pool's locking, pinning and eviction all run
// under real contention. Every batch result's match hash is cross-checked
// against a plain single-query Execute of the same query; a mismatch aborts
// the run.
//
// Simulated per-page read latency defaults to 150 us in *sleep* mode
// (VIEWJOIN_PAGE_READ_MICROS / VIEWJOIN_PAGE_READ_SLEEP, overridable from
// the environment): sleeping readers release the CPU, so concurrent queries
// overlap their simulated I/O the way parallel requests overlap on a real
// disk — which is what makes batch throughput scale even on a single core.
//
// Each sweep point runs its batch 7 times (2 with --smoke), each from a
// cold pool, and reports the median wall time with its min-max spread;
// throughput and speedup come from the medians.
//
// `--json BENCH_concurrency.json` emits machine-readable rows (see
// bench/README.md for the schema). `--smoke` shrinks the datasets, replica
// count and thread sweep to a seconds-long run for CI: it validates the
// session path end to end (results are still hash-checked) without producing
// publishable numbers.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "util/check.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace viewjoin::bench {
namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};
constexpr int kSmokeThreadSweep[] = {1, 2};

struct PreparedQuery {
  std::string name;
  tpq::TreePattern pattern;
  std::vector<const storage::MaterializedView*> views;
  uint64_t expected_hash = 0;
  uint64_t expected_count = 0;
};

/// Materializes the covering views for every query and records the reference
/// answer from a plain (single-threaded) Execute.
std::vector<PreparedQuery> Prepare(core::Engine* engine,
                                   const std::vector<QuerySpec>& specs,
                                   const Combo& combo) {
  std::vector<PreparedQuery> prepared;
  std::map<std::string, const storage::MaterializedView*> cache;
  for (const QuerySpec& spec : specs) {
    PreparedQuery q;
    q.name = spec.name;
    q.pattern = ParseQuery(spec.xpath);
    for (const tpq::TreePattern& view : PairViews(q.pattern)) {
      std::string key = view.ToString();
      auto it = cache.find(key);
      if (it == cache.end()) {
        it = cache.emplace(key, engine->AddView(view, combo.scheme)).first;
      }
      q.views.push_back(it->second);
    }
    core::RunOptions run;
    run.algorithm = combo.algorithm;
    core::RunResult reference = engine->Execute(q.pattern, q.views, run);
    VJ_CHECK(reference.ok) << q.name << ": " << reference.error;
    q.expected_hash = reference.result_hash;
    q.expected_count = reference.match_count;
    prepared.push_back(std::move(q));
  }
  return prepared;
}

void RunDataset(const std::string& dataset, const xml::Document& doc,
                const std::vector<QuerySpec>& specs, const Combo& combo,
                int replicas, const std::vector<int>& thread_sweep,
                int repeats, JsonReport* report) {
  // A small pool keeps replicated queries from serving each other entirely
  // out of cache: eviction pressure forces real (simulated) I/O per query,
  // which is the workload a concurrent server actually faces.
  core::EngineOptions options;
  options.pool_pages = 64;
  std::string path = "/tmp/viewjoin_bench_conc_" + dataset + ".db";
  core::Engine engine(&doc, path, options);
  std::vector<PreparedQuery> prepared = Prepare(&engine, specs, combo);

  std::vector<SessionQuery> batch;
  for (int r = 0; r < replicas; ++r) {
    for (const PreparedQuery& q : prepared) {
      batch.push_back({&q.pattern, q.views});
    }
  }

  std::printf("-- %s path queries, %s, batch of %zu (%zu queries x %d) --\n",
              dataset.c_str(), combo.Label().c_str(), batch.size(),
              prepared.size(), replicas);
  util::TablePrinter table({"threads", "n", "wall med (ms)", "wall min-max",
                            "throughput (q/s)", "speedup", "pages read",
                            "degraded"});
  double single_thread_ms = 0;
  for (int threads : thread_sweep) {
    core::RunOptions run;
    run.algorithm = combo.algorithm;
    std::vector<double> walls;
    uint64_t pages_read = 0;
    int degraded = 0;
    for (int r = 0; r < repeats; ++r) {
      engine.catalog()->DropCaches();  // every batch starts cold
      util::Timer timer;
      std::vector<core::RunResult> results =
          RunOnSessions(&engine, batch, static_cast<size_t>(threads), run);
      walls.push_back(timer.ElapsedMillis());
      for (size_t i = 0; i < results.size(); ++i) {
        const PreparedQuery& q = prepared[i % prepared.size()];
        VJ_CHECK(results[i].ok) << q.name << ": " << results[i].error;
        VJ_CHECK(results[i].result_hash == q.expected_hash &&
                 results[i].match_count == q.expected_count)
            << q.name << " diverged from single-query Execute at " << threads
            << " threads: " << results[i].match_count << " matches vs "
            << q.expected_count;
        pages_read += results[i].io.pages_read;
        degraded += results[i].degraded ? 1 : 0;
      }
    }
    pages_read /= static_cast<uint64_t>(repeats);
    const SampleSummary wall = Summarize(walls);

    if (threads == 1) single_thread_ms = wall.median;
    double qps = wall.median > 0 ? 1000.0 * batch.size() / wall.median : 0;
    double speedup = wall.median > 0 ? single_thread_ms / wall.median : 0;
    table.AddRow({std::to_string(threads), std::to_string(wall.n),
                  util::FormatDouble(wall.median, 1),
                  util::FormatDouble(wall.min, 1) + "-" +
                      util::FormatDouble(wall.max, 1),
                  util::FormatDouble(qps, 1), util::FormatDouble(speedup, 2),
                  std::to_string(pages_read), std::to_string(degraded)});
    report->AddRow()
        .Set("dataset", dataset)
        .Set("combo", combo.Label())
        .Set("threads", threads)
        .Set("batch_size", static_cast<uint64_t>(batch.size()))
        .Set("n", wall.n)
        .Set("wall_ms", wall.median)
        .Set("wall_ms_min", wall.min)
        .Set("wall_ms_max", wall.max)
        .Set("throughput_qps", qps)
        .Set("speedup_vs_single", speedup)
        .Set("pages_read", pages_read)
        .Set("degraded_queries", degraded);
  }
  table.Print();
  std::printf("\n");
}

void Main(int argc, char** argv) {
  // Default to sleep-mode simulated read latency so concurrent queries
  // overlap their I/O; an explicit environment setting wins (overwrite=0).
  setenv("VIEWJOIN_PAGE_READ_MICROS", "150", 0);
  setenv("VIEWJOIN_PAGE_READ_SLEEP", "1", 0);

  // Strip --smoke before the report parser sees argv (it rejects flags it
  // does not know).
  bool smoke = false;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }

  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", smoke ? 0.1 : 2.0);
  int64_t nasa_datasets = static_cast<int64_t>(
      EnvScale("VIEWJOIN_NASA_DATASETS", smoke ? 60 : 800));
  int replicas =
      static_cast<int>(EnvScale("VIEWJOIN_CONC_REPLICAS", smoke ? 2 : 3));
  std::vector<int> thread_sweep(std::begin(kThreadSweep),
                                std::end(kThreadSweep));
  if (smoke) {
    thread_sweep.assign(std::begin(kSmokeThreadSweep),
                        std::end(kSmokeThreadSweep));
  }

  const int repeats = smoke ? 2 : 7;
  JsonReport report("concurrency");
  report.ParseArgs(static_cast<int>(args.size()), args.data());
  report.SetMeta("repeats", repeats);
  report.SetMeta("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("nasa_datasets", static_cast<uint64_t>(nasa_datasets));
  report.SetMeta("replicas", replicas);
  report.SetMeta("page_read_micros",
                 std::string(std::getenv("VIEWJOIN_PAGE_READ_MICROS")));
  report.SetMeta("pool_pages", static_cast<uint64_t>(64));

  std::printf("Concurrent serving bench: sessions over Fig. 5 paths\n");
  std::printf("(simulated page read latency %s us, sleep mode %s)\n\n",
              std::getenv("VIEWJOIN_PAGE_READ_MICROS"),
              std::getenv("VIEWJOIN_PAGE_READ_SLEEP"));

  data::XmarkOptions xmark_options;
  xmark_options.scale = xmark_scale;
  xmark_options.seed = 42;
  xml::Document xmark = data::GenerateXmark(xmark_options);
  data::NasaOptions nasa_options;
  nasa_options.datasets = nasa_datasets;
  nasa_options.seed = 7;
  xml::Document nasa = data::GenerateNasa(nasa_options);

  Combo vj{core::Algorithm::kViewJoin, storage::Scheme::kLinkedElement};
  Combo ts{core::Algorithm::kTwigStack, storage::Scheme::kLinkedElement};
  RunDataset("xmark", xmark, XmarkPathQueries(), vj, replicas, thread_sweep,
             repeats, &report);
  RunDataset("xmark", xmark, XmarkPathQueries(), ts, replicas, thread_sweep,
             repeats, &report);
  RunDataset("nasa", nasa, NasaPathQueries(), vj, replicas, thread_sweep,
             repeats, &report);
  RunDataset("nasa", nasa, NasaPathQueries(), ts, replicas, thread_sweep,
             repeats, &report);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
