// fig5-cold: the paper's Fig. 5 grid measured cold. Every cell (query ×
// algorithm × scheme) runs through Engine::Execute with cold_cache and a
// forced algorithm, in a seeded order, pass after pass. The work sits in the
// storage read path and the join loops; the planner, plan cache, server and
// write paths are bypassed, and the buffer pool is dropped before every call,
// so the working set is never resident.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "src/workloads.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/rng.h"
#include "xml/writer.h"

namespace viewjoin::perfbench {
namespace {

using storage::MaterializedView;
using storage::Scheme;

struct Combo {
  core::Algorithm algorithm;
  Scheme scheme;
};

/// Table I's seven combinations; IJ+T answers path queries only.
std::vector<Combo> CombosFor(bool is_path) {
  std::vector<Combo> combos;
  if (is_path) combos.push_back({core::Algorithm::kInterJoin, Scheme::kTuple});
  for (core::Algorithm a :
       {core::Algorithm::kTwigStack, core::Algorithm::kViewJoin}) {
    for (Scheme s : {Scheme::kElement, Scheme::kLinkedElement,
                     Scheme::kLinkedElementPartial}) {
      combos.push_back({a, s});
    }
  }
  return combos;
}

struct Dataset {
  std::string name;
  std::unique_ptr<xml::Document> doc;
  std::string store_dir;
  std::unique_ptr<core::Engine> engine;
};

struct Cell {
  size_t dataset = 0;
  std::string label;
  const tpq::TreePattern* query = nullptr;
  core::Algorithm algorithm = core::Algorithm::kViewJoin;
  std::vector<const MaterializedView*> views;
  uint64_t expected_hash = 0;
  uint64_t expected_count = 0;
};

struct Fixture {
  std::vector<Dataset> datasets;
  std::vector<std::unique_ptr<tpq::TreePattern>> queries;
  std::vector<Cell> cells;
  double generate_s = 0;
  double materialize_s = 0;
};

/// Generates both documents, opens one engine per document and materializes
/// every covering view the grid uses (PairViews, once per scheme).
std::unique_ptr<Fixture> Setup(const RunConfig& config, Tracer* tracer) {
  auto fixture = std::make_unique<Fixture>();
  double start = WallMs();
  int64_t span = tracer->Begin("data.generate", "data", -1, 0);
  {
    data::XmarkOptions xmark;
    xmark.scale = config.small ? 0.2 : 1.0;
    data::NasaOptions nasa;
    nasa.datasets = config.small ? 40 : 400;
    fixture->datasets.push_back(
        {"xmark", std::make_unique<xml::Document>(data::GenerateXmark(xmark)),
         "", nullptr});
    fixture->datasets.push_back(
        {"nasa", std::make_unique<xml::Document>(data::GenerateNasa(nasa)),
         "", nullptr});
  }
  tracer->End(span);
  fixture->generate_s = (WallMs() - start) / 1000.0;

  start = WallMs();
  span = tracer->Begin("ViewCatalog.materialize", "storage", -1, 0);
  for (size_t d = 0; d < fixture->datasets.size(); ++d) {
    Dataset& dataset = fixture->datasets[d];
    dataset.store_dir = FreshDir(config, "fig5-" + dataset.name);
    dataset.engine = std::make_unique<core::Engine>(
        static_cast<const xml::Document*>(dataset.doc.get()),
        dataset.store_dir + "/views.db");
    std::map<std::pair<std::string, Scheme>, const MaterializedView*> made;
    std::vector<bench::QuerySpec> specs =
        d == 0 ? bench::XmarkQueries() : bench::NasaQueries();
    for (const bench::QuerySpec& spec : specs) {
      std::string error;
      std::optional<tpq::TreePattern> parsed =
          tpq::TreePattern::Parse(spec.xpath, &error);
      VJ_CHECK(parsed.has_value()) << spec.xpath << ": " << error;
      fixture->queries.push_back(
          std::make_unique<tpq::TreePattern>(std::move(*parsed)));
      const tpq::TreePattern* query = fixture->queries.back().get();
      std::vector<tpq::TreePattern> cover = bench::PairViews(*query);
      for (const Combo& combo : CombosFor(spec.is_path)) {
        Cell cell;
        cell.dataset = d;
        cell.label = dataset.name + "/" + spec.name + "/" +
                     core::AlgorithmName(combo.algorithm) + "+" +
                     storage::SchemeName(combo.scheme);
        cell.query = query;
        cell.algorithm = combo.algorithm;
        for (const tpq::TreePattern& piece : cover) {
          auto key = std::make_pair(piece.ToString(), combo.scheme);
          auto it = made.find(key);
          if (it == made.end()) {
            it = made.emplace(key, dataset.engine->AddView(piece, combo.scheme))
                     .first;
          }
          cell.views.push_back(it->second);
        }
        fixture->cells.push_back(std::move(cell));
      }
    }
  }
  tracer->End(span);
  fixture->materialize_s = (WallMs() - start) / 1000.0;
  return fixture;
}

/// Pins every cell's expected answer: the exhaustive evaluator's match set
/// over the document, which shares no code with the algorithms under test.
void PinAnswers(Fixture* fixture) {
  std::map<const tpq::TreePattern*, tpq::HashingSink> pinned;
  for (Cell& cell : fixture->cells) {
    auto it = pinned.find(cell.query);
    if (it == pinned.end()) {
      tpq::HashingSink sink;
      tpq::NaiveEvaluator(*fixture->datasets[cell.dataset].doc, *cell.query)
          .Evaluate(&sink);
      it = pinned.emplace(cell.query, sink).first;
    }
    cell.expected_hash = it->second.hash();
    cell.expected_count = it->second.count();
  }
}

struct PhaseResult {
  uint64_t queries = 0;
  double process_cpu_ms = 0;
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  QueryLayers layers;
  ProcIo io;
  double first_pass_misses = 0;
};

/// Runs whole seeded passes over the grid until `seconds` have elapsed and
/// at least `min_passes` passes are done.
PhaseResult RunPhase(Fixture* fixture, util::Rng* rng, double seconds,
                     uint64_t min_passes, Tracer* tracer, RunReport* report) {
  PhaseResult phase;
  IoProbe probe;
  std::vector<size_t> order(fixture->cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  ProcIo io_start = probe.Sample();
  double cpu_start = ProcessCpuMs();
  double wall_start = WallMs();
  uint64_t passes = 0;
  while (passes < min_passes || WallMs() - wall_start < seconds * 1000) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Uniform(i)]);
    }
    uint64_t pass_misses = 0;
    for (size_t index : order) {
      const Cell& cell = fixture->cells[index];
      core::RunOptions run;
      run.algorithm = cell.algorithm;
      run.cold_cache = true;
      core::Engine* engine = fixture->datasets[cell.dataset].engine.get();
      double wall0 = WallMs();
      double cpu0 = ThreadCpuMs();
      core::RunResult result = engine->Execute(*cell.query, cell.views, run);
      double cpu1 = ThreadCpuMs();
      double wall1 = WallMs();
      TraceEngineCall(tracer, "Engine::Execute", phase.queries + 1, wall0,
                      wall1, result);
      ++phase.queries;
      if (!result.ok) {
        report->Failed(cell.label + ": " + result.error);
      } else {
        report->Succeeded();
      }
      if (result.ok && (result.result_hash != cell.expected_hash ||
                        result.match_count != cell.expected_count)) {
        report->Mismatch(cell.label + " returned " +
                         std::to_string(result.match_count) + " matches");
      }
      phase.cpu_ms.push_back(cpu1 - cpu0);
      phase.wall_ms.push_back(wall1 - wall0);
      phase.layers.Add(result);
      pass_misses += result.io.pool_misses;
    }
    if (passes == 0) {
      phase.first_pass_misses =
          static_cast<double>(pass_misses) / static_cast<double>(order.size());
    }
    ++passes;
  }
  phase.process_cpu_ms = ProcessCpuMs() - cpu_start;
  phase.io = probe.Delta(io_start, probe.Sample());
  report->Info("fig5.passes", static_cast<double>(passes));
  return phase;
}

}  // namespace

void RunFig5Cold(const RunConfig& config, RunReport* report) {
  HostNoise noise;
  Tracer tracer(config.trace);
  std::unique_ptr<Fixture> fixture;
  std::vector<double> generate_s, materialize_s;
  double setup_s = MedianSetupSeconds(
      kSetupRepeats, [&] { fixture.reset(); },
      [&] {
    fixture = Setup(config, &tracer);
    generate_s.push_back(fixture->generate_s);
    materialize_s.push_back(fixture->materialize_s);
  });
  PinAnswers(fixture.get());

  uint64_t doc_bytes = 0, doc_elements = 0, store_bytes = 0, view_pages = 0;
  uint64_t pool_pages = 0;
  LiveViews live;
  for (Dataset& dataset : fixture->datasets) {
    doc_bytes += xml::SerializedSize(*dataset.doc);
    doc_elements += dataset.doc->NodeCount();
    store_bytes += DirectoryBytes(dataset.store_dir);
    storage::ViewCatalog* catalog = dataset.engine->catalog();
    view_pages += catalog->pager()->page_count();
    pool_pages = std::max<uint64_t>(pool_pages, catalog->pool()->capacity());
    LiveViews one = LiveViewSpace(catalog);
    live.size_bytes += one.size_bytes;
    live.pages += one.pages;
    live.count += one.count;
  }

  util::Rng rng(config.seed);
  const uint64_t cells = fixture->cells.size();
  // ≥ 10 samples beyond the p99 of the per-call CPU times.
  const uint64_t min_passes =
      config.small ? 1 : (SamplesNeeded(0.99, 10) + cells - 1) / cells;
  Tracer off(false);
  PhaseResult untraced =
      RunPhase(fixture.get(), &rng, config.trace ? config.seconds / 2
                                                 : config.seconds,
               min_passes, &off, report);
  double query_cpu_ms =
      untraced.process_cpu_ms / static_cast<double>(untraced.queries);

  report->Set("setup_s", setup_s);
  report->Set("query_cpu_ms", query_cpu_ms);
  report->Set("query_cpu_p50_ms", Percentile(untraced.cpu_ms, 0.5));
  report->Set("query_cpu_p99_ms", Percentile(untraced.cpu_ms, 0.99));
  report->Set("store_bytes_per_doc_byte",
              static_cast<double>(store_bytes) / static_cast<double>(doc_bytes));
  report->Set("space_amp", static_cast<double>(store_bytes) /
                               static_cast<double>(live.size_bytes));

  report->Info("doc.elements", static_cast<double>(doc_elements));
  report->Info("doc.bytes", static_cast<double>(doc_bytes));
  report->Info("fig5.cells", static_cast<double>(cells));
  report->Info("views.live", static_cast<double>(live.count));
  report->Info("views.live_pages", static_cast<double>(live.pages));
  report->Info("pool.pages", static_cast<double>(pool_pages));
  report->Info("samples.query_cpu", static_cast<double>(untraced.queries));
  report->Info("samples.beyond_p99",
               static_cast<double>(SamplesBeyond(untraced.queries, 0.99)));
  report->Info("query_wall_p50_ms", Percentile(untraced.wall_ms, 0.5));
  report->Info("query_wall_p99_ms", Percentile(untraced.wall_ms, 0.99));

  PhaseResult layered = untraced;
  if (config.trace) {
    layered = RunPhase(fixture.get(), &rng, config.seconds / 2, min_passes,
                       &tracer, report);
    double traced_cpu_ms =
        layered.process_cpu_ms / static_cast<double>(layered.queries);
    report->Set("trace.query_cpu_ms", traced_cpu_ms);
    report->Set("trace.untraced_query_cpu_ms", query_cpu_ms);
    report->Set("trace.overhead_frac", traced_cpu_ms / query_cpu_ms - 1);
    ReportSelfTimes(tracer, layered.queries, report);
    tracer.WriteJson(config.work_dir + "/trace-fig5-cold.json");
  }
  double n = static_cast<double>(layered.queries);
  layered.layers.Report(report);
  report->Set("data.generate_s", Percentile(generate_s, 0.5));
  report->Set("storage.materialize_s", Percentile(materialize_s, 0.5));
  report->Set("storage.view_pages", static_cast<double>(view_pages));
  report->Set("storage.read_syscalls_per_query", layered.io.syscr / n);
  report->Set("storage.read_bytes_per_query", layered.io.rchar / n);
  report->Set("storage.first_pass_pool_misses", layered.first_pass_misses);
  report->Set("query_wall_p50_ms", Percentile(layered.wall_ms, 0.5));
  report->Set("query_wall_p99_ms", Percentile(layered.wall_ms, 0.99));
  noise.Report(report);

  for (Dataset& dataset : fixture->datasets) {
    dataset.engine.reset();
    RemoveDir(dataset.store_dir);
  }
}

}  // namespace viewjoin::perfbench
