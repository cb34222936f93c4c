#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/check.h"
#include "util/table_printer.h"
#include "xml/statistics.h"
#include "xml/writer.h"

namespace viewjoin::bench {

using core::Algorithm;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using tpq::TreePattern;

std::string Combo::Label() const {
  return std::string(core::AlgorithmName(algorithm)) + "+" +
         storage::SchemeName(scheme);
}

std::vector<Combo> AllCombos() {
  std::vector<Combo> combos = {{Algorithm::kInterJoin, Scheme::kTuple}};
  for (const Combo& c : ListCombos()) combos.push_back(c);
  return combos;
}

std::vector<Combo> ListCombos() {
  return {
      {Algorithm::kTwigStack, Scheme::kElement},
      {Algorithm::kTwigStack, Scheme::kLinkedElement},
      {Algorithm::kTwigStack, Scheme::kLinkedElementPartial},
      {Algorithm::kViewJoin, Scheme::kElement},
      {Algorithm::kViewJoin, Scheme::kLinkedElement},
      {Algorithm::kViewJoin, Scheme::kLinkedElementPartial},
  };
}

namespace {

std::string UniqueStoragePath() {
  static int counter = 0;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/tmp/viewjoin_bench_%d_%d.db", getpid(),
                counter++);
  return buf;
}

}  // namespace

BenchContext::BenchContext(xml::Document doc)
    : doc_(std::move(doc)), storage_path_(UniqueStoragePath()) {
  core::EngineOptions options;
  options.pool_pages = 4096;
  // Every bench honors the out-of-core knobs (VIEWJOIN_DOC_MODE,
  // VIEWJOIN_DOC_POOL_PAGES, VIEWJOIN_PARSE_BUDGET,
  // VIEWJOIN_READAHEAD_PAGES), so any figure can be re-measured with the
  // base document paged through a bounded pool.
  util::Status env = core::ApplyEnvOptions(&options);
  VJ_CHECK(env.ok()) << env.ToString();
  engine_ = std::make_unique<core::Engine>(&doc_, storage_path_, options);
  if (options.doc_mode == core::DocMode::kDisk) {
    VJ_CHECK(engine_->doc_store() != nullptr)
        << engine_->doc_store_status().ToString();
  }
}

std::unique_ptr<BenchContext> BenchContext::Xmark(double scale, uint64_t seed) {
  data::XmarkOptions options;
  options.scale = scale;
  options.seed = seed;
  return std::unique_ptr<BenchContext>(
      new BenchContext(data::GenerateXmark(options)));
}

std::unique_ptr<BenchContext> BenchContext::Nasa(int64_t datasets,
                                                 uint64_t seed) {
  data::NasaOptions options;
  options.datasets = datasets;
  options.seed = seed;
  return std::unique_ptr<BenchContext>(
      new BenchContext(data::GenerateNasa(options)));
}

const MaterializedView* BenchContext::View(const std::string& xpath,
                                           Scheme scheme) {
  auto key = std::make_pair(xpath, static_cast<int>(scheme));
  auto it = view_cache_.find(key);
  if (it != view_cache_.end()) return it->second;
  const MaterializedView* view = engine_->AddView(xpath, scheme);
  view_cache_[key] = view;
  return view;
}

const MaterializedView* BenchContext::View(const TreePattern& pattern,
                                           Scheme scheme) {
  return View(pattern.ToString(), scheme);
}

std::vector<const MaterializedView*> BenchContext::Views(
    const std::vector<std::string>& xpaths, Scheme scheme) {
  std::vector<const MaterializedView*> views;
  views.reserve(xpaths.size());
  for (const std::string& xpath : xpaths) views.push_back(View(xpath, scheme));
  return views;
}

std::vector<const MaterializedView*> BenchContext::Views(
    const std::vector<TreePattern>& patterns, Scheme scheme) {
  std::vector<const MaterializedView*> views;
  views.reserve(patterns.size());
  for (const TreePattern& p : patterns) views.push_back(View(p, scheme));
  return views;
}

RunResult BenchContext::Run(
    const TreePattern& query,
    const std::vector<const MaterializedView*>& views, const Combo& combo,
    algo::OutputMode mode, int repeats, std::vector<double>* times_ms) {
  VJ_CHECK(repeats > 0);
  RunOptions run;
  run.algorithm = combo.algorithm;
  run.output_mode = mode;
  run.cold_cache = true;
  RunResult average;
  double total = 0;
  double io = 0;
  storage::IoStats io_sum;
  algo::HolisticStats stats_sum;
  uint64_t retries = 0;
  for (int r = 0; r < repeats; ++r) {
    RunResult result = engine_->Execute(query, views, run);
    VJ_CHECK(result.ok) << combo.Label() << ": " << result.error;
    if (r == 0) {
      average = result;
    } else {
      // A repeat is a re-measurement, not a new query: the answer must not
      // drift between repeats.
      VJ_CHECK(result.match_count == average.match_count &&
               result.result_hash == average.result_hash)
          << combo.Label() << ": match set drifted across repeats ("
          << result.match_count << " vs " << average.match_count << ")";
      average.degraded |= result.degraded;
      for (const std::string& v : result.quarantined_views) {
        if (std::find(average.quarantined_views.begin(),
                      average.quarantined_views.end(),
                      v) == average.quarantined_views.end()) {
          average.quarantined_views.push_back(v);
        }
      }
    }
    if (times_ms != nullptr) times_ms->push_back(result.total_ms);
    total += result.total_ms;
    io += result.io_ms;
    io_sum += result.io;
    stats_sum += result.stats;
    retries += result.retries;
  }
  // Average every reported counter over the repeats, not just the times —
  // a result whose io_ms is a mean but whose pages_read is the last run's
  // sample reads as self-contradictory in reports.
  uint64_t n = static_cast<uint64_t>(repeats);
  average.total_ms = total / repeats;
  average.io_ms = io / repeats;
  average.retries = retries / n;
  average.io.pages_read = io_sum.pages_read / n;
  average.io.pages_written = io_sum.pages_written / n;
  average.io.read_micros = io_sum.read_micros / repeats;
  average.io.write_micros = io_sum.write_micros / repeats;
  average.io.pool_hits = io_sum.pool_hits / n;
  average.io.pool_misses = io_sum.pool_misses / n;
  average.io.read_retries = io_sum.read_retries / n;
  average.io.prefetch_issued = io_sum.prefetch_issued / n;
  average.io.prefetch_hits = io_sum.prefetch_hits / n;
  average.io.prefetch_wasted = io_sum.prefetch_wasted / n;
  average.io.pages_decoded = io_sum.pages_decoded / n;
  average.io.decode_mismatches = io_sum.decode_mismatches / n;
  // The join counters repeat exactly; output_pass_ms is a timing. The sum
  // already holds the largest peak_buffered, which is a peak, not a total.
  average.stats = stats_sum;
  average.stats.entries_scanned /= n;
  average.stats.entries_skipped /= n;
  average.stats.pointer_jumps /= n;
  average.stats.candidates /= n;
  average.stats.flushes /= n;
  average.stats.certified_flushes /= n;
  average.stats.filtered_lists /= n;
  average.stats.extended /= n;
  average.stats.drained /= n;
  average.stats.spill_pages_written /= n;
  average.stats.spill_pages_read /= n;
  average.stats.output_pass_ms /= repeats;
  average.stats.output_entries_scanned /= n;
  average.stats.output_pointer_jumps /= n;
  return average;
}

RunResult BenchContext::RunSplit(const std::string& xpath, const Combo& combo,
                                 int pieces, algo::OutputMode mode) {
  TreePattern query = ParseQuery(xpath);
  std::vector<TreePattern> split = SplitViews(query, pieces);
  return Run(query, Views(split, combo.scheme), combo, mode);
}

std::vector<RunResult> RunOnSessions(core::Engine* engine,
                                     const std::vector<SessionQuery>& queries,
                                     size_t threads, const RunOptions& run) {
  VJ_CHECK(threads > 0);
  std::vector<RunResult> results(queries.size());
  std::atomic<size_t> next{0};
  auto serve = [&](size_t id) {
    core::Engine::Session session(engine, id);
    for (size_t i = next.fetch_add(1); i < queries.size();
         i = next.fetch_add(1)) {
      results[i] = session.Run(*queries[i].pattern, queries[i].views, run);
    }
  };
  std::vector<std::thread> pool;
  for (size_t id = 0; id < std::min(threads, queries.size()); ++id) {
    pool.emplace_back(serve, id);
  }
  for (std::thread& t : pool) t.join();
  return results;
}

SampleSummary Summarize(std::vector<double> samples) {
  SampleSummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p of the sample at or
  // below it.
  auto rank = [&](double p) {
    size_t k = static_cast<size_t>(std::ceil(p * samples.size()));
    return samples[k == 0 ? 0 : k - 1];
  };
  summary.n = samples.size();
  summary.median = rank(0.5);
  summary.p95 = rank(0.95);
  summary.min = samples.front();
  summary.max = samples.back();
  return summary;
}

void RunFig5Panel(const std::string& title, const std::string& dataset,
                  BenchContext* context, const std::vector<QuerySpec>& queries,
                  const std::vector<Combo>& combos, int repeats,
                  JsonReport* report) {
  PrintBanner(title, *context);
  std::vector<std::string> header = {"query", "matches"};
  for (const Combo& c : combos) header.push_back(c.Label() + " med/p95 ms");
  util::TablePrinter table(header);
  std::vector<std::string> pheader = {"query"};
  for (const Combo& c : combos) pheader.push_back(c.Label() + " (pages)");
  util::TablePrinter pages(pheader);
  for (const QuerySpec& spec : queries) {
    TreePattern query = ParseQuery(spec.xpath);
    std::vector<TreePattern> split = PairViews(query);
    std::vector<std::string> row = {spec.name, ""};
    std::vector<std::string> prow = {spec.name};
    uint64_t count = 0;
    uint64_t hash = 0;
    bool first = true;
    for (const Combo& combo : combos) {
      std::vector<double> times;
      RunResult result =
          context->Run(query, context->Views(split, combo.scheme), combo,
                       algo::OutputMode::kMemory, repeats, &times);
      if (first) {
        count = result.match_count;
        hash = result.result_hash;
        first = false;
      } else {
        VJ_CHECK(result.match_count == count && result.result_hash == hash)
            << spec.name << " " << combo.Label() << " diverged: "
            << result.match_count << " vs " << count;
      }
      const SampleSummary summary = Summarize(times);
      result.total_ms = summary.median;
      row.push_back(util::FormatDouble(summary.median, 3) + "/" +
                    util::FormatDouble(summary.p95, 3));
      prow.push_back(std::to_string(result.io.pages_read));
      report->AddRow()
          .Set("dataset", dataset)
          .Set("query", spec.name)
          .Set("combo", combo.Label())
          .Metrics(result)
          .Set("n", summary.n)
          .Set("p95_ms", summary.p95)
          .Set("entries_scanned", result.stats.entries_scanned)
          .Set("flushes", result.stats.flushes)
          .Set("certified_flushes", result.stats.certified_flushes);
    }
    row[1] = std::to_string(count);
    table.AddRow(row);
    pages.AddRow(prow);
  }
  std::printf("cold runs per cell: %d\n", repeats);
  table.Print();
  std::printf("\npage reads per cold run (the I/O the LE pointers save):\n");
  pages.Print();
  std::printf("\n");
}

TreePattern ParseQuery(const std::string& xpath) {
  std::string error;
  std::optional<TreePattern> pattern = TreePattern::Parse(xpath, &error);
  VJ_CHECK(pattern.has_value()) << xpath << ": " << error;
  return *pattern;
}

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void WriteFields(
    std::FILE* out,
    const std::vector<std::pair<std::string, std::string>>& fields,
    const char* indent) {
  for (size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(out, "%s%s: %s%s\n", indent, JsonQuote(fields[i].first).c_str(),
                 fields[i].second.c_str(), i + 1 < fields.size() ? "," : "");
  }
}

}  // namespace

JsonReport::Row& JsonReport::Row::Set(const std::string& key,
                                      const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}

JsonReport::Row& JsonReport::Row::Set(const std::string& key,
                                      const char* value) {
  return Set(key, std::string(value));
}

JsonReport::Row& JsonReport::Row::Set(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "null");
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonReport::Row& JsonReport::Row::Set(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonReport::Row& JsonReport::Row::Set(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonReport::Row& JsonReport::Row::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonReport::Row& JsonReport::Row::Metrics(const core::RunResult& result) {
  Set("matches", result.match_count);
  // The 64-bit fingerprint exceeds JSON's exact double range; a hex string
  // round-trips losslessly everywhere.
  char hash[32];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(result.result_hash));
  Set("result_hash", hash);
  Set("total_ms", result.total_ms);
  Set("io_ms", result.io_ms);
  Set("pages_read", result.io.pages_read);
  Set("pages_written", result.io.pages_written);
  Set("pool_hits", result.io.pool_hits);
  Set("pool_misses", result.io.pool_misses);
  Set("read_retries", result.io.read_retries);
  Set("prefetch_issued", result.io.prefetch_issued);
  Set("prefetch_hits", result.io.prefetch_hits);
  Set("prefetch_wasted", result.io.prefetch_wasted);
  Set("pages_decoded", result.io.pages_decoded);
  Set("degraded", result.degraded);
  return *this;
}

void JsonReport::ParseArgs(int argc, char** argv, int* repeats) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      VJ_CHECK(i + 1 < argc) << "--json requires a path";
      set_path(argv[++i]);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      set_path(arg + 7);
    } else if (repeats != nullptr && std::strcmp(arg, "--repeats") == 0) {
      VJ_CHECK(i + 1 < argc) << "--repeats requires a count";
      *repeats = std::atoi(argv[++i]);
      VJ_CHECK(*repeats >= 1) << "--repeats must be at least 1";
    } else {
      VJ_CHECK(false) << "unknown argument '" << arg << "' (this bench takes "
                      << (repeats != nullptr ? "--json <path> and --repeats N"
                                             : "--json <path> only")
                      << ")";
    }
  }
  if (repeats != nullptr) SetMeta("repeats", *repeats);
}

JsonReport::Row& JsonReport::AddRow() {
  rows_.emplace_back();
  return rows_.back();
}

void JsonReport::Write() const {
  if (!enabled()) return;
  std::FILE* out = std::fopen(path_.c_str(), "w");
  VJ_CHECK(out != nullptr) << "cannot write " << path_;
  std::fprintf(out, "{\n  \"bench\": %s,\n  \"meta\": {\n",
               JsonQuote(bench_name_).c_str());
  WriteFields(out, meta_.fields_, "    ");
  std::fprintf(out, "  },\n  \"rows\": [\n");
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::fprintf(out, "    {\n");
    WriteFields(out, rows_[r].fields_, "      ");
    std::fprintf(out, "    }%s\n", r + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("json report written to %s\n", path_.c_str());
}

void PrintBanner(const std::string& title, const BenchContext& context) {
  std::printf("== %s ==\n", title.c_str());
  xml::DocumentStatistics stats =
      xml::DocumentStatistics::Collect(context.doc());
  std::printf(
      "document: %zu elements (~%.1f MB serialized with text), %zu tags, "
      "max depth %u, avg depth %.1f\n",
      context.doc().LiveNodeCount(),
      static_cast<double>(xml::SerializedSize(
          context.doc(), {.synthetic_text = true, .indent = 0})) /
          (1024.0 * 1024.0),
      context.doc().TagCount(), stats.max_depth(), stats.average_depth());
}

}  // namespace viewjoin::bench
