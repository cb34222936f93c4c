// Microbenchmarks (google-benchmark) for the substrate primitives: XPath
// parsing, label predicates, structural joins, buffer-pool access, stored
// list scans/seeks, cursor landings on delta pages (warm: read the pool's
// decoded frame in place; cold: read and decode the page), view
// materialization, the output pass (label -> node resolution and candidate
// enumeration), and the planner's document statistics (full collection vs.
// per-update upkeep).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "algo/candidate_enumerator.h"
#include "algo/monotone_resolver.h"
#include "algo/structural_join.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "tpq/pattern.h"
#include "util/rng.h"
#include "xml/document.h"
#include "xml/statistics.h"

namespace viewjoin {
namespace {

const xml::Document& XmarkDoc() {
  static const xml::Document* doc =
      new xml::Document(data::GenerateXmark({.scale = 0.5, .seed = 42}));
  return *doc;
}

const xml::Document& XmarkScale1Doc() {
  static const xml::Document* doc =
      new xml::Document(data::GenerateXmark({.scale = 1, .seed = 42}));
  return *doc;
}

/// Large enough that one tag's view list spans a few dozen delta pages.
const xml::Document& XmarkScale8Doc() {
  static const xml::Document* doc =
      new xml::Document(data::GenerateXmark({.scale = 8, .seed = 42}));
  return *doc;
}

void BM_ParsePattern(benchmark::State& state) {
  const std::string xpath =
      "//dataset//tableHead[//tableLink//title]//field//definition//para";
  for (auto _ : state) {
    auto pattern = tpq::TreePattern::Parse(xpath);
    benchmark::DoNotOptimize(pattern);
  }
}
BENCHMARK(BM_ParsePattern);

void BM_LabelAncestorCheck(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  size_t n = doc.NodeCount();
  uint64_t i = 0;
  uint64_t acc = 0;
  for (auto _ : state) {
    const xml::Label& a = doc.NodeLabel(static_cast<xml::NodeId>(i % n));
    const xml::Label& b =
        doc.NodeLabel(static_cast<xml::NodeId>((i * 7 + 13) % n));
    acc += xml::IsAncestor(a, b);
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_LabelAncestorCheck);

void BM_StructuralJoin(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  xml::TagId item = doc.FindTag("item");
  xml::TagId keyword = doc.FindTag("keyword");
  std::vector<xml::Label> anc, desc;
  for (xml::NodeId n : doc.NodesOfTag(item)) anc.push_back(doc.NodeLabel(n));
  for (xml::NodeId n : doc.NodesOfTag(keyword)) {
    desc.push_back(doc.NodeLabel(n));
  }
  for (auto _ : state) {
    uint64_t pairs = 0;
    algo::StackTreeDesc(anc, desc, tpq::Axis::kDescendant,
                        [&](size_t, size_t) { ++pairs; });
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(anc.size() + desc.size()));
}
BENCHMARK(BM_StructuralJoin);

void BM_NaiveEvaluatorSolutionNodes(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//item//text//keyword");
  for (auto _ : state) {
    tpq::NaiveEvaluator eval(doc, pattern);
    auto lists = eval.SolutionNodes();
    benchmark::DoNotOptimize(lists);
  }
}
BENCHMARK(BM_NaiveEvaluatorSolutionNodes);

void BM_MaterializeView(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//item//text//keyword");
  storage::Scheme scheme = static_cast<storage::Scheme>(state.range(0));
  for (auto _ : state) {
    storage::ViewCatalog catalog("/tmp/viewjoin_micro.db", 1024);
    const auto* view = catalog.Materialize(doc, pattern, scheme);
    benchmark::DoNotOptimize(view->SizeBytes());
  }
}
BENCHMARK(BM_MaterializeView)
    ->Arg(static_cast<int>(storage::Scheme::kElement))
    ->Arg(static_cast<int>(storage::Scheme::kTuple))
    ->Arg(static_cast<int>(storage::Scheme::kLinkedElement))
    ->Arg(static_cast<int>(storage::Scheme::kLinkedElementPartial));

void BM_ListCursorScan(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//item//text//keyword");
  storage::ViewCatalog catalog("/tmp/viewjoin_micro_scan.db", 1024);
  const auto* view =
      catalog.Materialize(doc, pattern, storage::Scheme::kLinkedElement);
  for (auto _ : state) {
    storage::ListCursor cursor(&view->list(2), catalog.pool());
    uint64_t sum = 0;
    for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
      sum += cursor.LabelAt().start;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * view->ListLength(2));
}
BENCHMARK(BM_ListCursorScan);

void BM_ListCursorPointerChase(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//item//text//keyword");
  storage::ViewCatalog catalog("/tmp/viewjoin_micro_chase.db", 1024);
  const auto* view =
      catalog.Materialize(doc, pattern, storage::Scheme::kLinkedElement);
  for (auto _ : state) {
    storage::ListCursor cursor(&view->list(0), catalog.pool());
    uint64_t hops = 0;
    cursor.Reset();
    while (!cursor.AtEnd()) {
      storage::EntryIndex next = cursor.Following();
      if (next == storage::kNullEntry) break;
      cursor.Seek(next);
      ++hops;
    }
    benchmark::DoNotOptimize(hops);
  }
}
BENCHMARK(BM_ListCursorPointerChase);

// One landing per page of a delta list: seek to the page's first entry and
// read its label. Arg 0 picks the E (0) or LE (1) scheme, arg 1 a warm pool
// (every landing reads a decoded frame in place) or a cold one (cleared
// before each pass, so every landing reads and decodes its page once).
void BM_CursorLanding(benchmark::State& state) {
  const bool linked = state.range(0) != 0;
  const bool cold = state.range(1) != 0;
  const xml::Document& doc = XmarkScale8Doc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//text");
  storage::ViewCatalog catalog("/tmp/viewjoin_micro_landing.db", 1024);
  const auto* view = catalog.Materialize(
      doc, pattern,
      linked ? storage::Scheme::kLinkedElement : storage::Scheme::kElement);
  const storage::StoredList& list = view->list(0);
  const uint32_t pages = list.PageSpan();
  storage::ListCursor cursor(&list, catalog.pool());
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      cursor.Reset();  // drop the pin so Clear takes every frame
      catalog.pool()->Clear();
      state.ResumeTiming();
    }
    uint64_t sum = 0;
    for (uint32_t p = 0; p < pages; ++p) {
      cursor.Seek(list.FirstEntryOfPage(p));
      sum += cursor.LabelAt().start;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * pages);
  state.counters["pages"] = pages;
}
BENCHMARK(BM_CursorLanding)
    ->ArgNames({"le", "cold"})
    ->ArgsProduct({{0, 1}, {0, 1}});

void BM_CandidateEnumerator(benchmark::State& state) {
  const xml::Document& doc = XmarkDoc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//item//text//keyword");
  tpq::NaiveEvaluator eval(doc, pattern);
  // Exact solution lists: the in-place filter keeps every candidate, so the
  // same lists serve every iteration.
  algo::CandidateLists lists =
      testing::WithLabels(doc, eval.SolutionNodes());
  algo::CandidateEnumerator enumerator(doc, pattern);
  for (auto _ : state) {
    tpq::CountingSink sink;
    enumerator.Enumerate(&lists, &sink);
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_CandidateEnumerator);

// The output pass's first step: every solution label of //item//text//keyword
// resolved back to its node, one forward scan of each tag's start index.
void BM_ResolveCandidates(benchmark::State& state) {
  const xml::Document& doc = XmarkScale1Doc();
  tpq::TreePattern pattern = *tpq::TreePattern::Parse("//item//text//keyword");
  const algo::CandidateLists lists = testing::WithLabels(
      doc, tpq::NaiveEvaluator(doc, pattern).SolutionNodes());
  std::vector<xml::TagId> tags;
  int64_t labels = 0;
  for (size_t q = 0; q < pattern.size(); ++q) {
    tags.push_back(doc.FindTag(pattern.node(static_cast<int>(q)).tag));
    labels += static_cast<int64_t>(lists[q].size());
  }
  for (auto _ : state) {
    algo::MonotoneResolver resolver(&doc, tags);
    uint64_t acc = 0;
    for (size_t q = 0; q < lists.size(); ++q) {
      for (const algo::Candidate& c : lists[q]) {
        acc += resolver.Resolve(static_cast<int>(q), c.label.start);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * labels);
}
BENCHMARK(BM_ResolveCandidates);

void BM_CollectStatistics(benchmark::State& state) {
  const xml::Document& doc = XmarkScale1Doc();
  for (auto _ : state) {
    xml::DocumentStatistics stats = xml::DocumentStatistics::Collect(doc);
    benchmark::DoNotOptimize(stats.node_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.NodeCount()));
}
BENCHMARK(BM_CollectStatistics)->Unit(benchmark::kMillisecond);

// One bidder insert and one delete, each followed by its statistics delta —
// what a live update adds to an ApplyUpdates batch instead of a full
// Collect. The document mutations are part of the timed work.
void BM_MaintainStatistics(benchmark::State& state) {
  xml::Document doc = data::GenerateXmark({.scale = 1, .seed = 42});
  if (!doc.RelabelWithGap(256).ok()) {
    state.SkipWithError("relabel failed");
    return;
  }
  xml::DocumentStatistics stats = xml::DocumentStatistics::Collect(doc);
  const xml::SubtreeSpec bidder = xml::SpecFromDocument(
      doc, doc.NodesOfTag(doc.FindTag("bidder")).front());
  const xml::NodeId auction =
      doc.NodesOfTag(doc.FindTag("open_auction")).front();
  for (auto _ : state) {
    util::StatusOr<xml::NodeId> inserted = doc.InsertSubtree(bidder, auction);
    if (!inserted.ok()) {
      state.SkipWithError("insert failed");
      break;
    }
    stats.ApplySubtree(doc, *inserted, +1);
    if (!doc.DeleteSubtree(*inserted).ok()) {
      state.SkipWithError("delete failed");
      break;
    }
    stats.ApplySubtree(doc, *inserted, -1);
    benchmark::DoNotOptimize(stats.node_count());
  }
}
BENCHMARK(BM_MaintainStatistics);

void BM_GenerateXmark(benchmark::State& state) {
  for (auto _ : state) {
    xml::Document doc = data::GenerateXmark({.scale = 0.1, .seed = 1});
    benchmark::DoNotOptimize(doc.NodeCount());
  }
}
BENCHMARK(BM_GenerateXmark);

void BM_GenerateNasa(benchmark::State& state) {
  for (auto _ : state) {
    xml::Document doc = data::GenerateNasa({.datasets = 100, .seed = 1});
    benchmark::DoNotOptimize(doc.NodeCount());
  }
}
BENCHMARK(BM_GenerateNasa);

}  // namespace
}  // namespace viewjoin

BENCHMARK_MAIN();
