// Durability bench: what crash safety costs and what recovery buys.
//
// Three sections, one row group each in the JSON report:
//   1. recovery — a persistent store of XMark path views is crashed at every
//      install crash point (data synced / journal torn) via the fault
//      injector, then reopened; the row records the wall time of
//      ViewCatalog::Open (journal replay + rollback + staging cleanup) and
//      what recovery did. A clean-close reopen is the
//      baseline row.
//   2. scrub — one synchronous full scrubber pass over the store, reported
//      as pages/second of checksum verification throughput.
//   3. scrub_overhead — the same query batch with the background scrubber
//      off vs. racing at a 1 ms cadence, reporting the wall-clock overhead
//      queries pay for continuous integrity scanning.
//
// `--smoke` shrinks the document and batch for CI; `--json PATH` emits the
// machine-readable report (schema in bench/README.md).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "data/xmark_generator.h"
#include "storage/materialized_view.h"
#include "storage/scrubber.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace viewjoin::bench {
namespace {

using storage::MaterializedView;
using storage::Scheme;
using storage::ViewCatalog;
using util::CrashPoint;
using util::CrashPointName;
using util::ScopedFaultInjection;

constexpr const char* kStorePath = "/tmp/viewjoin_bench_dur.db";
constexpr const char* kEnginePath = "/tmp/viewjoin_bench_dur_engine.db";

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

/// View patterns for the store under test: each XMark path query doubles as
/// its own covering view.
std::vector<tpq::TreePattern> StorePatterns() {
  std::vector<tpq::TreePattern> patterns;
  for (const QuerySpec& spec : XmarkPathQueries()) {
    patterns.push_back(ParseQuery(spec.xpath));
  }
  return patterns;
}

void BenchRecovery(const xml::Document& doc, JsonReport* report) {
  const std::vector<tpq::TreePattern> patterns = StorePatterns();
  RemoveStore(kStorePath);
  {
    ViewCatalog catalog(kStorePath, 256, /*persistent=*/true);
    for (const tpq::TreePattern& pattern : patterns) {
      catalog.Materialize(doc, pattern, Scheme::kLinkedElement);
    }
    VJ_CHECK(catalog.Close().ok());
  }

  util::TablePrinter table({"crash point", "open (ms)", "views", "rolled back",
                            "orphan pages"});
  struct Case {
    const char* label;
    CrashPoint point;
  };
  const Case cases[] = {
      {"clean close", CrashPoint::kNone},
      {CrashPointName(CrashPoint::kCrashAfterDataSync),
       CrashPoint::kCrashAfterDataSync},
      {CrashPointName(CrashPoint::kCrashMidJournal),
       CrashPoint::kCrashMidJournal},
  };
  for (const Case& c : cases) {
    if (c.point != CrashPoint::kNone) {
      // Reopen writable and crash one extra install at the chosen point,
      // leaving real mid-flight state on disk for the timed reopen below.
      auto victim = ViewCatalog::Open(kStorePath, 256);
      VJ_CHECK(victim.ok()) << victim.status().ToString();
      ScopedFaultInjection fi;
      // Mid-journal tears the *install commit* record (the Begin is append
      // #1 of the operation and must land for rollback to have a target).
      fi->ArmCrashPoint(c.point,
                        c.point == CrashPoint::kCrashMidJournal ? 2 : 1);
      auto failed = (*victim)->TryMaterialize(
          doc, ParseQuery("//people//person//name"), Scheme::kElement);
      VJ_CHECK(!failed.ok()) << CrashPointName(c.point);
    }
    util::Timer timer;
    auto reopened = ViewCatalog::Open(kStorePath, 256);
    double open_ms = timer.ElapsedMillis();
    VJ_CHECK(reopened.ok()) << reopened.status().ToString();
    ViewCatalog& catalog = **reopened;
    const storage::RecoveryReport& recovery = catalog.recovery_report();
    VJ_CHECK(catalog.views().size() == patterns.size());
    table.AddRow({c.label, util::FormatDouble(open_ms, 2),
                  std::to_string(catalog.views().size()),
                  std::to_string(recovery.pending_rebuild.size()),
                  std::to_string(recovery.orphan_pages_truncated)});
    report->AddRow()
        .Set("section", "recovery")
        .Set("crash_point", c.label)
        .Set("open_ms", open_ms)
        .Set("views_recovered", static_cast<uint64_t>(catalog.views().size()))
        .Set("pending_rebuild",
             static_cast<uint64_t>(recovery.pending_rebuild.size()))
        .Set("orphan_pages_truncated",
             static_cast<uint64_t>(recovery.orphan_pages_truncated))
        .Set("journal_tail_truncated", recovery.journal_tail_truncated);
    // Restore the store to N committed views for the next crash point: the
    // interrupted install rolled back, so nothing to undo — just close.
    VJ_CHECK(catalog.Close().ok());
  }
  std::printf("-- recovery: timed ViewCatalog::Open after each crash --\n");
  table.Print();
  std::printf("\n");
  RemoveStore(kStorePath);
}

void BenchScrubAndOverhead(const xml::Document& doc, int batch_replicas,
                           JsonReport* report) {
  RemoveStore(kEnginePath);
  core::Engine engine(&doc, kEnginePath);
  std::vector<core::BatchQuery> batch;
  std::vector<tpq::TreePattern> patterns = StorePatterns();
  std::vector<std::vector<const MaterializedView*>> views(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    views[i] = {engine.AddView(patterns[i], Scheme::kLinkedElement)};
  }
  for (int r = 0; r < batch_replicas; ++r) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      batch.push_back({&patterns[i], views[i]});
    }
  }

  // Section 2: raw verification throughput of one synchronous full pass.
  storage::Scrubber* scrubber = engine.scrubber();
  uint64_t passes = scrubber->stats().full_passes;
  util::Timer scrub_timer;
  uint64_t scanned = 0;
  while (scrubber->stats().full_passes == passes) {
    scanned += scrubber->Step(256);
  }
  double scrub_ms = scrub_timer.ElapsedMillis();
  double pages_per_sec = scrub_ms > 0 ? 1000.0 * scanned / scrub_ms : 0;
  VJ_CHECK(scrubber->stats().corrupt_pages == 0);
  std::printf("-- scrub: full pass over %llu pages in %.2f ms (%.0f pages/s) "
              "--\n\n",
              static_cast<unsigned long long>(scanned), scrub_ms,
              pages_per_sec);
  report->AddRow()
      .Set("section", "scrub")
      .Set("pages_scanned", scanned)
      .Set("pass_ms", scrub_ms)
      .Set("pages_per_sec", pages_per_sec);

  // Section 3: batch wall time without, then with, the background scrubber.
  auto run_batch = [&]() -> double {
    core::BatchOptions options;
    options.threads = 4;
    util::Timer timer;
    std::vector<core::RunResult> results = engine.ExecuteBatch(batch, options);
    double wall_ms = timer.ElapsedMillis();
    for (const core::RunResult& r : results) {
      VJ_CHECK(r.ok) << r.error;
    }
    return wall_ms;
  };
  run_batch();  // warm the pool so both measured runs start equal
  double off_ms = run_batch();
  engine.scrubber()->Start(std::chrono::milliseconds(1), 64);
  double on_ms = run_batch();
  engine.scrubber()->Stop();
  double overhead = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0;
  std::printf("-- scrub overhead: batch of %zu queries %.1f ms scrub-off vs "
              "%.1f ms scrub-on (%+.1f%%) --\n\n",
              batch.size(), off_ms, on_ms, overhead);
  report->AddRow()
      .Set("section", "scrub_overhead")
      .Set("batch_size", static_cast<uint64_t>(batch.size()))
      .Set("scrub_off_ms", off_ms)
      .Set("scrub_on_ms", on_ms)
      .Set("overhead_pct", overhead);
}

void Main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", smoke ? 0.1 : 1.0);
  int batch_replicas =
      static_cast<int>(EnvScale("VIEWJOIN_DUR_REPLICAS", smoke ? 2 : 4));

  JsonReport report("durability");
  report.ParseArgs(static_cast<int>(args.size()), args.data());
  report.SetMeta("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("batch_replicas", batch_replicas);

  std::printf("Durability bench: crash recovery and scrubber cost\n\n");

  data::XmarkOptions options;
  options.scale = xmark_scale;
  options.seed = 42;
  xml::Document doc = data::GenerateXmark(options);

  BenchRecovery(doc, &report);
  BenchScrubAndOverhead(doc, batch_replicas, &report);
  RemoveStore(kEnginePath);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
