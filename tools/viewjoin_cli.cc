// viewjoin_cli — command-line front end for the ViewJoin engine.
//
// Evaluate a tree pattern query over an XML document (from a file or a
// built-in generator) using materialized views, with any algorithm ×
// storage-scheme combination, and inspect the plan and runtime counters.
//
// Examples:
//   viewjoin_cli --xmark 1.0 --query '//people//person//name'
//                --views '//people//person;//name'
//   viewjoin_cli --xml data.xml --query '//a//b[//c]//d'
//                --candidates '//a//b;//c;//d;//b//c' --algo VJ --scheme LE_p
//   viewjoin_cli --nasa 400 --query '//field//footnote//para'
//                --views '//field//footnote;//para' --explain --limit 5

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "algo/query_binding.h"
#include "core/engine.h"
#include "core/segmented_query.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "tpq/pattern.h"
#include "util/table_printer.h"
#include "view/selection.h"
#include "xml/parser.h"
#include "xml/statistics.h"

namespace {

using viewjoin::core::Algorithm;
using viewjoin::core::Engine;
using viewjoin::core::RunOptions;
using viewjoin::core::RunResult;
using viewjoin::storage::MaterializedView;
using viewjoin::storage::Scheme;
using viewjoin::tpq::TreePattern;

struct Options {
  std::string xml_path;
  double xmark_scale = 0;
  int64_t nasa_datasets = 0;
  std::string query;
  std::vector<std::string> views;
  std::vector<std::string> candidates;
  Algorithm algorithm = Algorithm::kViewJoin;
  Scheme scheme = Scheme::kLinkedElement;
  bool scheme_set = false;
  bool disk_mode = false;
  /// Base-document residency: "", "memory", or "disk". Empty defers to the
  /// VIEWJOIN_DOC_MODE environment knob (and its siblings).
  std::string doc_mode;
  int64_t readahead = -1;  // -1: defer to VIEWJOIN_READAHEAD_PAGES
  bool explain = false;
  bool scrub = false;
  bool estimate = false;
  bool count_only = false;
  bool store_result = false;
  int64_t limit = 20;
  double deadline_ms = 0;
  uint64_t memory_budget = 0;
  uint64_t disk_budget = 0;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s (--xml FILE | --xmark SCALE | --nasa DATASETS)\n"
      "          --query XPATH (--views 'V1;V2;..' | --candidates 'V1;..')\n"
      "          [--algo TS|VJ|IJ|auto] [--scheme E|T|LE|LE_p] [--disk]\n"
      "          [--doc-mode memory|disk] [--readahead PAGES]\n"
      "          [--explain] [--count-only] [--store-result] [--limit N]\n"
      "          [--deadline-ms MS] [--memory-budget BYTES]\n"
      "          [--disk-budget BYTES] [--scrub]\n"
      "\n"
      "  --views       covering view set, materialized as given\n"
      "  --candidates  candidate pool; the cost-based greedy heuristic\n"
      "                (paper Section V) picks the covering subset\n"
      "  --algo auto   let the planner pick algorithm and scheme per query\n"
      "  --doc-mode    where the base document's tag lists live: 'memory'\n"
      "                (in-RAM arena, the default) or 'disk' (paged\n"
      "                DocumentStore; scans go through the buffer pool).\n"
      "                Overrides the VIEWJOIN_DOC_MODE environment knob.\n"
      "  --readahead   async read-ahead depth in pages for cold list scans\n"
      "                (0 disables; overrides VIEWJOIN_READAHEAD_PAGES)\n"
      "  --explain     print the physical plan with per-step runtime stats\n"
      "                (plus the view-segmented query Q' before the run)\n"
      "  --estimate    drive view selection from single-pass statistics\n"
      "                instead of exact list lengths\n"
      "  --store-result  store the answer back as a materialized view\n"
      "  --deadline-ms   abort the query after MS milliseconds (exit 3)\n"
      "  --memory-budget cap buffered intermediates; overruns degrade to\n"
      "                  disk spilling, then fail with RESOURCE_EXHAUSTED\n"
      "  --disk-budget   cap spilled intermediates in bytes\n"
      "  --scrub         run the background integrity scrubber while the\n"
      "                  query executes (counters appear under --explain)\n",
      prog);
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(';', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--xml") {
      const char* v = next();
      if (v == nullptr) return false;
      options->xml_path = v;
    } else if (arg == "--xmark") {
      const char* v = next();
      if (v == nullptr) return false;
      options->xmark_scale = std::atof(v);
    } else if (arg == "--nasa") {
      const char* v = next();
      if (v == nullptr) return false;
      options->nasa_datasets = std::atol(v);
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return false;
      options->query = v;
    } else if (arg == "--views") {
      const char* v = next();
      if (v == nullptr) return false;
      options->views = SplitList(v);
    } else if (arg == "--candidates") {
      const char* v = next();
      if (v == nullptr) return false;
      options->candidates = SplitList(v);
    } else if (arg == "--algo") {
      const char* v = next();
      if (v == nullptr) return false;
      std::optional<Algorithm> parsed = viewjoin::plan::ParseAlgorithm(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "unknown algorithm '%s' (expected TS, VJ, IJ or "
                     "auto)\n", v);
        return false;
      }
      options->algorithm = *parsed;
      // InterJoin only runs over tuple-scheme views; default the scheme
      // accordingly unless the user picked one explicitly.
      if (*parsed == Algorithm::kInterJoin && !options->scheme_set) {
        options->scheme = Scheme::kTuple;
      }
    } else if (arg == "--scheme") {
      const char* v = next();
      if (v == nullptr) return false;
      std::optional<Scheme> parsed = viewjoin::storage::ParseScheme(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "unknown scheme '%s' (expected E, T, LE or "
                     "LE_p)\n", v);
        return false;
      }
      options->scheme = *parsed;
      options->scheme_set = true;
    } else if (arg == "--disk") {
      options->disk_mode = true;
    } else if (arg == "--doc-mode") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "memory") != 0 && std::strcmp(v, "disk") != 0) {
        std::fprintf(stderr,
                     "unknown doc mode '%s' (expected memory or disk)\n", v);
        return false;
      }
      options->doc_mode = v;
    } else if (arg == "--readahead") {
      const char* v = next();
      if (v == nullptr) return false;
      options->readahead = std::atol(v);
      if (options->readahead < 0) {
        std::fprintf(stderr, "--readahead expects a page count >= 0\n");
        return false;
      }
    } else if (arg == "--scrub") {
      options->scrub = true;
    } else if (arg == "--estimate") {
      options->estimate = true;
    } else if (arg == "--explain") {
      options->explain = true;
    } else if (arg == "--count-only") {
      options->count_only = true;
    } else if (arg == "--store-result") {
      options->store_result = true;
    } else if (arg == "--limit") {
      const char* v = next();
      if (v == nullptr) return false;
      options->limit = std::atol(v);
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      options->deadline_ms = std::atof(v);
    } else if (arg == "--memory-budget") {
      const char* v = next();
      if (v == nullptr) return false;
      options->memory_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--disk-budget") {
      const char* v = next();
      if (v == nullptr) return false;
      options->disk_budget = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (options->query.empty()) {
    std::fprintf(stderr, "--query is required\n");
    return false;
  }
  bool has_source = !options->xml_path.empty() || options->xmark_scale > 0 ||
                    options->nasa_datasets > 0;
  if (!has_source) {
    std::fprintf(stderr, "one of --xml / --xmark / --nasa is required\n");
    return false;
  }
  if (options->views.empty() && options->candidates.empty()) {
    std::fprintf(stderr, "--views or --candidates is required\n");
    return false;
  }
  return true;
}

/// Prints the first `limit` matches, one per line.
class PrintingSink : public viewjoin::tpq::MatchSink {
 public:
  PrintingSink(const viewjoin::xml::Document& doc, const TreePattern& query,
               int64_t limit)
      : doc_(doc), query_(query), limit_(limit) {}

  void OnMatch(const viewjoin::tpq::Match& match) override {
    if (printed_ >= limit_) return;
    ++printed_;
    std::printf("match %lld:", static_cast<long long>(printed_));
    for (size_t q = 0; q < match.size(); ++q) {
      const auto& label = doc_.NodeLabel(match[q]);
      std::printf(" %s[%u..%u]", query_.node(static_cast<int>(q)).tag.c_str(),
                  label.start, label.end);
    }
    std::printf("\n");
  }

 private:
  const viewjoin::xml::Document& doc_;
  const TreePattern& query_;
  int64_t limit_;
  int64_t printed_ = 0;
};

void Explain(const viewjoin::xml::Document& doc, const TreePattern& query,
             const std::vector<const MaterializedView*>& views) {
  std::string error;
  auto binding =
      viewjoin::algo::QueryBinding::Bind(doc, query, views, &error);
  if (!binding.has_value()) {
    std::printf("explain unavailable: %s\n", error.c_str());
    return;
  }
  viewjoin::core::SegmentedQuery sq =
      viewjoin::core::BuildSegmentedQuery(*binding);
  std::printf("view-segmented query Q': %s\n", sq.ToString(query).c_str());
  std::printf("inter-view edges (#Cond): %d\n", sq.inter_view_edges);
  std::printf("query nodes dropped from Q' (pointer extension): %zu\n",
              sq.removed.size());
  viewjoin::util::TablePrinter table(
      {"query node", "view", "scheme", "|L_q|", "e_q"});
  for (size_t q = 0; q < query.size(); ++q) {
    const auto& nb = binding->binding(static_cast<int>(q));
    const MaterializedView* view = views[static_cast<size_t>(nb.view)];
    table.AddRow({query.node(static_cast<int>(q)).tag,
                  view->pattern().ToString(), SchemeName(view->scheme()),
                  std::to_string(view->ListLength(nb.view_node)),
                  std::to_string(binding->InterViewEdgeCount(
                      static_cast<int>(q)))});
  }
  table.Print();
}

int Run(const Options& options) {
  // Load or generate the document.
  viewjoin::xml::Document doc;
  if (!options.xml_path.empty()) {
    viewjoin::xml::ParseResult parsed =
        viewjoin::xml::ParseDocumentFile(options.xml_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cannot parse %s: %s (offset %zu)\n",
                   options.xml_path.c_str(), parsed.error.c_str(),
                   parsed.error_offset);
      return 1;
    }
    doc = std::move(*parsed.document);
  } else if (options.xmark_scale > 0) {
    doc = viewjoin::data::GenerateXmark({.scale = options.xmark_scale});
  } else {
    doc = viewjoin::data::GenerateNasa({.datasets = options.nasa_datasets});
  }
  std::printf("document: %zu elements\n", doc.NodeCount());

  std::optional<TreePattern> query;
  {
    std::string error;
    query = TreePattern::Parse(options.query, &error);
    if (!query.has_value()) {
      std::fprintf(stderr, "bad query: %s\n", error.c_str());
      return 1;
    }
  }

  viewjoin::core::EngineOptions engine_options;
  engine_options.scrub = options.scrub;
  // Environment knobs first (malformed values are hard errors, not silent
  // defaults), then explicit flags override them.
  viewjoin::util::Status env = viewjoin::core::ApplyEnvOptions(&engine_options);
  if (!env.ok()) {
    std::fprintf(stderr, "%s\n", env.ToString().c_str());
    return 2;
  }
  if (!options.doc_mode.empty()) {
    engine_options.doc_mode = options.doc_mode == "disk"
                                  ? viewjoin::core::DocMode::kDisk
                                  : viewjoin::core::DocMode::kMemory;
  }
  if (options.readahead >= 0) {
    engine_options.readahead_pages = static_cast<size_t>(options.readahead);
  }
  Engine engine(&doc, "/tmp/viewjoin_cli.db", engine_options);
  if (engine_options.doc_mode == viewjoin::core::DocMode::kDisk) {
    if (engine.doc_store() != nullptr) {
      std::printf("doc mode: disk (%zu tag lists paged, read-ahead %zu)\n",
                  engine.doc_store()->TagCount(),
                  engine_options.readahead_pages);
    } else {
      std::fprintf(stderr, "doc store unavailable, running in memory: %s\n",
                   engine.doc_store_status().ToString().c_str());
    }
  }

  // Resolve the view set: explicit or via cost-based selection.
  std::vector<const MaterializedView*> views;
  // Under --algo auto with no forced scheme, materialize every scheme for
  // each view so the planner has real twins to choose between.
  const bool all_schemes =
      options.algorithm == Algorithm::kAuto && !options.scheme_set;
  if (!options.views.empty()) {
    for (const std::string& v : options.views) {
      auto added = engine.TryAddView(v, options.scheme);
      if (!added.ok()) {
        std::fprintf(stderr, "bad view '%s': %s\n", v.c_str(),
                     added.status().ToString().c_str());
        return 1;
      }
      views.push_back(*added);
      if (all_schemes) {
        for (Scheme twin : {Scheme::kElement, Scheme::kTuple,
                            Scheme::kLinkedElementPartial}) {
          (void)engine.TryAddView(v, twin);
        }
      }
    }
  } else {
    std::vector<TreePattern> candidates;
    for (const std::string& c : options.candidates) {
      std::string error;
      auto pattern = TreePattern::Parse(c, &error);
      if (!pattern.has_value()) {
        std::fprintf(stderr, "bad candidate view '%s': %s\n", c.c_str(),
                     error.c_str());
        return 1;
      }
      candidates.push_back(*pattern);
    }
    viewjoin::view::SelectionOptions sel_options;
    viewjoin::xml::DocumentStatistics stats;
    if (options.estimate) {
      stats = viewjoin::xml::DocumentStatistics::Collect(doc);
      sel_options.statistics = &stats;
    }
    viewjoin::view::SelectionResult selection = viewjoin::view::SelectViews(
        doc, *query, candidates, sel_options);
    if (!selection.covers) {
      std::fprintf(stderr, "candidates cannot cover the query\n");
      return 1;
    }
    std::printf("selected views:");
    for (size_t index : selection.selected) {
      std::printf(" %s", candidates[index].ToString().c_str());
    }
    std::printf("\n");
    for (size_t index : selection.selected) {
      // candidates[i] was parsed from options.candidates[i].
      auto added = engine.TryAddView(options.candidates[index], options.scheme);
      if (!added.ok()) {
        std::fprintf(stderr, "candidate view '%s': %s\n",
                     options.candidates[index].c_str(),
                     added.status().ToString().c_str());
        return 1;
      }
      views.push_back(*added);
    }
  }

  if (options.explain && options.scheme != Scheme::kTuple) {
    Explain(doc, *query, views);
  }

  if (options.scrub) {
    // One-shot process: the 50 ms background cadence would rarely fire
    // before a fast query returns, so force one synchronous full pass over
    // the freshly materialized views up front. The background thread keeps
    // scanning while the query runs.
    viewjoin::storage::Scrubber* scrubber = engine.scrubber();
    const uint64_t passes = scrubber->stats().full_passes;
    while (scrubber->stats().full_passes == passes) {
      scrubber->Step();
    }
  }

  RunOptions run;
  run.algorithm = options.algorithm;
  run.output_mode = options.disk_mode ? viewjoin::algo::OutputMode::kDisk
                                      : viewjoin::algo::OutputMode::kMemory;
  run.deadline_ms = options.deadline_ms;
  run.memory_budget_bytes = options.memory_budget;
  run.disk_budget_bytes = options.disk_budget;
  PrintingSink printer(doc, *query, options.count_only ? 0 : options.limit);
  RunResult result;
  if (options.store_result) {
    const MaterializedView* stored = nullptr;
    result = engine.ExecuteToView(*query, views, Scheme::kLinkedElement,
                                  &stored, run);
    if (result.ok) {
      std::printf("stored result view: %s (%llu bytes, %llu pointers)\n",
                  stored->pattern().ToString().c_str(),
                  static_cast<unsigned long long>(stored->SizeBytes()),
                  static_cast<unsigned long long>(stored->PointerCount()));
    }
  } else {
    result = engine.Execute(*query, views, run, &printer);
  }
  if (!result.ok) {
    std::fprintf(stderr, "execution failed: %s\n", result.error.c_str());
    // Governance stops exit 3 so scripts can tell "over budget / too slow"
    // from hard failures.
    return (result.timed_out || result.cancelled) ? 3 : 1;
  }
  if (result.degraded) {
    std::printf("note: degraded run (budget overrun spilled to disk or a "
                "view was rebuilt)\n");
  }
  if (options.explain) {
    std::printf("%s", result.plan.ToString().c_str());
    if (result.io.prefetch_issued > 0 || result.io.prefetch_hits > 0 ||
        result.io.prefetch_wasted > 0) {
      std::printf(
          "read-ahead: %llu issued, %llu hits, %llu wasted (%.0f%% hit rate)\n",
          static_cast<unsigned long long>(result.io.prefetch_issued),
          static_cast<unsigned long long>(result.io.prefetch_hits),
          static_cast<unsigned long long>(result.io.prefetch_wasted),
          result.io.prefetch_issued > 0
              ? 100.0 * static_cast<double>(result.io.prefetch_hits) /
                    static_cast<double>(result.io.prefetch_issued)
              : 0.0);
    }
    if (options.scrub || result.scrub.pages_scanned > 0) {
      std::printf(
          "scrub: %llu pages scanned, %llu corrupt, %llu views quarantined, "
          "%llu healed, %llu heal failures, %llu full passes\n",
          static_cast<unsigned long long>(result.scrub.pages_scanned),
          static_cast<unsigned long long>(result.scrub.corrupt_pages),
          static_cast<unsigned long long>(result.scrub.views_quarantined),
          static_cast<unsigned long long>(result.scrub.views_healed),
          static_cast<unsigned long long>(result.scrub.heal_failures),
          static_cast<unsigned long long>(result.scrub.full_passes));
    }
  }
  std::printf(
      "%llu matches in %.3f ms (I/O %.3f ms, %llu pages read, "
      "%llu entries scanned, %llu skipped)\n",
      static_cast<unsigned long long>(result.match_count), result.total_ms,
      result.io_ms, static_cast<unsigned long long>(result.io.pages_read),
      static_cast<unsigned long long>(result.stats.entries_scanned),
      static_cast<unsigned long long>(result.stats.entries_skipped));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage(argv[0]);
    return 2;
  }
  return Run(options);
}
