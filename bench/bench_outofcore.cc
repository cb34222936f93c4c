// Out-of-core sweep: the XMark queries answered by TwigStack over the base
// document's own tag lists (no views), three ways — in memory (baseline),
// paged on disk through a deliberately tiny document-store pool, and paged
// on disk with async read-ahead. Each run scans the tag lists of its query
// from the document store the sweep sizes. Expectations: every variant
// produces bit-identical solutions; disk variants pay real page traffic
// (pages_read > 0 on cold scans); read-ahead converts demand misses into
// prefetch hits, so disk+RA never demand-misses more than disk alone and its
// hit rate is visible in the JSON (`prefetch_hits` / issued). A failed
// expectation is reported by name after the engines have removed their
// scratch files, and the exit status is then 1.
//
// Knobs: VIEWJOIN_XMARK_SCALE (default 2.0), VIEWJOIN_OOC_POOL_PAGES
// (default 32 — far below the store's page count, forcing the out-of-core
// regime), VIEWJOIN_OOC_READAHEAD (default 8).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/query_context.h"
#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "data/xmark_generator.h"
#include "plan/operator.h"
#include "storage/document_store.h"
#include "tpq/evaluator.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace viewjoin::bench {
namespace {

struct Variant {
  const char* name;
  core::Engine* engine;
};

/// One cold TwigStack run over the base binding of `engine`'s document: its
/// in-memory tag lists, or in disk doc mode the document store's page lists
/// through the store's pool. Fills the fields Row::Metrics reports; `io` is
/// the document store's traffic.
core::RunResult RunBase(core::Engine& engine, const tpq::TreePattern& query) {
  core::RunResult result;
  const storage::DocumentStore* store = engine.doc_store();
  storage::IoStats before;
  if (store != nullptr) {
    store->pool()->Clear();  // every scan is cold
    before = store->Stats();
  }
  util::Timer timer;
  std::unique_ptr<plan::Operator> op = plan::MakeBaseFallbackOperator(
      engine.doc(), query, engine.catalog()->pool(), store);
  util::Status open = op->Open();
  if (!open.ok()) {
    result.error = open.message();
    return result;
  }
  tpq::HashingSink sink;
  algo::QueryContext ctx;
  op->Evaluate(&sink, &ctx);
  op->Close();
  result.total_ms = timer.ElapsedMillis();
  result.ok = true;
  result.match_count = sink.count();
  result.result_hash = sink.hash();
  result.stats = op->stats();
  if (store != nullptr) result.io = store->Stats().Delta(before);
  return result;
}

/// Demand misses and read-ahead counters summed over the query sweep.
struct Totals {
  uint64_t misses_disk = 0;
  uint64_t misses_ra = 0;
  uint64_t hits_ra = 0;
  uint64_t issued_ra = 0;
};

/// Runs the sweep over the three engines. Gate failures are appended to
/// `failed` instead of aborting, so the engines' destructors still remove
/// their scratch files.
Totals Sweep(const xml::Document& doc, size_t pool_pages, size_t readahead,
             JsonReport* report, std::vector<std::string>* failed) {
  Totals totals;
  core::Engine memory(&doc, "/tmp/vj_ooc_memory.db");
  core::EngineOptions disk_options;
  disk_options.doc_mode = core::DocMode::kDisk;
  disk_options.doc_pool_pages = pool_pages;
  core::Engine disk(&doc, "/tmp/vj_ooc_disk.db", disk_options);
  disk_options.readahead_pages = readahead;
  core::Engine disk_ra(&doc, "/tmp/vj_ooc_disk_ra.db", disk_options);
  for (core::Engine* engine : {&disk, &disk_ra}) {
    if (engine->doc_store() == nullptr) {
      failed->push_back("doc store built: " +
                        engine->doc_store_status().ToString());
      return totals;
    }
  }
  report->SetMeta("doc_store_pages",
                  static_cast<uint64_t>(disk.doc_store()->Stats().pages_written));

  Variant variants[] = {{"memory", &memory},
                        {"disk", &disk},
                        {"disk+ra", &disk_ra}};

  // TwigStack over the base document is the pure tag-list-scan workload:
  // every query tag streams its full list through the doc pool.
  util::TablePrinter table({"query", "matches", "mem ms", "disk ms",
                            "disk+ra ms", "disk pages", "ra hit rate"});
  for (const QuerySpec& spec : XmarkQueries()) {
    tpq::TreePattern query = ParseQuery(spec.xpath);
    core::RunResult results[3];
    for (int v = 0; v < 3; ++v) {
      results[v] = RunBase(*variants[v].engine, query);
      if (!results[v].ok) {
        failed->push_back(spec.name + " " + variants[v].name +
                          " ran: " + results[v].error);
        return totals;
      }
      report->AddRow()
          .Set("query", spec.name)
          .Set("variant", variants[v].name)
          .Metrics(results[v]);
    }
    // Disk placement must not change a single solution.
    for (int v = 1; v < 3; ++v) {
      if (results[0].result_hash != results[v].result_hash) {
        failed->push_back(spec.name + " " + variants[v].name +
                          " result hash == memory result hash");
      }
    }
    totals.misses_disk += results[1].io.pool_misses;
    totals.misses_ra += results[2].io.pool_misses;
    totals.hits_ra += results[2].io.prefetch_hits;
    totals.issued_ra += results[2].io.prefetch_issued;
    double rate = results[2].io.prefetch_issued == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(results[2].io.prefetch_hits) /
                            static_cast<double>(results[2].io.prefetch_issued);
    table.AddRow({spec.name, std::to_string(results[0].match_count),
                  util::FormatDouble(results[0].total_ms, 3),
                  util::FormatDouble(results[1].total_ms, 3),
                  util::FormatDouble(results[2].total_ms, 3),
                  std::to_string(results[1].io.pages_read),
                  util::FormatDouble(rate, 1) + "%"});
  }
  table.Print();
  return totals;
}

int Main(int argc, char** argv) {
  std::printf(
      "Out-of-core base document: memory vs paged-disk vs "
      "paged-disk + read-ahead (cold scans)\n\n");
  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", 2.0);
  size_t pool_pages =
      static_cast<size_t>(EnvScale("VIEWJOIN_OOC_POOL_PAGES", 32));
  size_t readahead =
      static_cast<size_t>(EnvScale("VIEWJOIN_OOC_READAHEAD", 8));
  JsonReport report("outofcore");
  report.ParseArgs(argc, argv);
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("doc_pool_pages", static_cast<uint64_t>(pool_pages));
  report.SetMeta("readahead_pages", static_cast<uint64_t>(readahead));

  xml::Document doc = data::GenerateXmark({.scale = xmark_scale});
  std::printf("document: %zu nodes (xmark scale %.2f), doc pool %zu pages, "
              "read-ahead %zu\n\n",
              doc.NodeCount(), xmark_scale, pool_pages, readahead);

  std::vector<std::string> failed;
  const Totals t = Sweep(doc, pool_pages, readahead, &report, &failed);
  // Read-ahead must actually fire and must actually help: prefetched pages
  // arrive before the cursor asks, so demand misses can only go down.
  if (failed.empty()) {
    if (!(t.issued_ra > 0)) failed.push_back("read-ahead issued > 0");
    if (!(t.hits_ra > 0)) failed.push_back("read-ahead hits > 0");
    if (!(t.misses_ra <= t.misses_disk)) {
      failed.push_back("disk+ra demand misses <= disk demand misses");
    }
  }
  for (const std::string& gate : failed) {
    std::fprintf(stderr, "bench_outofcore: gate failed: %s\n", gate.c_str());
  }
  if (!failed.empty()) return 1;
  double hit_rate = 100.0 * static_cast<double>(t.hits_ra) /
                    static_cast<double>(t.issued_ra);
  std::printf("\nread-ahead: %llu issued, %llu hits (%.1f%%); demand misses "
              "%llu -> %llu\n",
              static_cast<unsigned long long>(t.issued_ra),
              static_cast<unsigned long long>(t.hits_ra), hit_rate,
              static_cast<unsigned long long>(t.misses_disk),
              static_cast<unsigned long long>(t.misses_ra));
  report.SetMeta("prefetch_hit_rate_pct", hit_rate);
  report.SetMeta("demand_misses_disk", t.misses_disk);
  report.SetMeta("demand_misses_disk_ra", t.misses_ra);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) { return viewjoin::bench::Main(argc, argv); }
