// update-mix: reads and writes interleaved on a persistent engine. The
// engine runs over a mutable XMark document relabelled with a wide label gap
// and holds the 14 XMark queries as standing E-scheme views. Each loop
// applies one seeded ApplyUpdates batch (bidder inserts and deletes at fresh
// anchors, never reusing a gap), then runs one pass of the 14 queries through
// Session::Run with algorithm=auto. The work is view delta maintenance, the
// manifest journal, pager appends and fsync; every epoch bump also
// invalidates the plan cache and puts fresh pages in front of the pool.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "data/xmark_generator.h"
#include "src/workloads.h"
#include "util/check.h"
#include "util/rng.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace viewjoin::perfbench {
namespace {

using storage::MaterializedView;
using storage::Scheme;

/// Wide enough that every insert lands in an untouched original gap, so no
/// batch relabels the document.
constexpr uint32_t kLabelGap = 256;
constexpr size_t kInsertsPerBatch = 2;
constexpr size_t kDeletesPerBatch = 1;
/// Anchors are taken newest first (the hot end of a live auction site, which
/// also keeps the rewritten suffix of each list short), shuffled by the seed
/// within consecutive windows of this many.
constexpr size_t kAnchorWindow = 16;
constexpr size_t kPoolPages = 4096;

/// Bidder shapes an insert picks from: each touches a different subset of
/// the bidder-area views (Q2, Q4, Q11).
constexpr const char* kBidderShapes[] = {
    "<bidder><date/><time/><personref/><increase/></bidder>",
    "<bidder><date/><time/><increase/></bidder>",
    "<bidder><date/><time/><personref/></bidder>",
};

struct Standing {
  std::string name;
  tpq::TreePattern query;
  std::string view_pattern;  // serialized pattern of its standing view
  const MaterializedView* view = nullptr;
  uint64_t last_hash = 0;
};

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  std::string store_dir;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<core::Engine::Session> session;
  std::vector<Standing> standing;
  double generate_s = 0;
  double materialize_s = 0;
};

std::unique_ptr<Fixture> Setup(const RunConfig& config, Tracer* tracer) {
  auto fixture = std::make_unique<Fixture>();
  double start = WallMs();
  int64_t span = tracer->Begin("data.generate", "data", -1, 0);
  data::XmarkOptions xmark;
  xmark.scale = config.small ? 0.3 : 4.0;
  fixture->doc = std::make_unique<xml::Document>(data::GenerateXmark(xmark));
  util::Status relabeled = fixture->doc->RelabelWithGap(kLabelGap);
  VJ_CHECK(relabeled.ok()) << relabeled.ToString();
  tracer->End(span);
  fixture->generate_s = (WallMs() - start) / 1000.0;

  start = WallMs();
  span = tracer->Begin("Engine::AddView", "storage", -1, 0);
  fixture->store_dir = FreshDir(config, "update-mix");
  core::EngineOptions options;
  options.persistent = true;
  options.pool_pages = kPoolPages;
  fixture->engine = std::make_unique<core::Engine>(
      fixture->doc.get(), fixture->store_dir + "/views.db", options);
  for (const bench::QuerySpec& spec : bench::XmarkQueries()) {
    std::string error;
    std::optional<tpq::TreePattern> query =
        tpq::TreePattern::Parse(spec.xpath, &error);
    VJ_CHECK(query.has_value()) << spec.xpath << ": " << error;
    Standing standing;
    standing.name = spec.name;
    standing.query = *query;
    standing.view = fixture->engine->AddView(*query, Scheme::kElement);
    standing.view_pattern = standing.view->pattern().ToString();
    fixture->standing.push_back(std::move(standing));
  }
  fixture->session =
      std::make_unique<core::Engine::Session>(fixture->engine.get(), 0);
  tracer->End(span);
  fixture->materialize_s = (WallMs() - start) / 1000.0;
  return fixture;
}

/// Insert and delete anchors in consumption order, from the seed alone.
struct Anchors {
  std::vector<uint32_t> auctions;  // insert a bidder as first child
  std::vector<uint32_t> bidders;   // delete an original bidder
  size_t next_auction = 0;
  size_t next_bidder = 0;
  std::vector<xml::SubtreeSpec> shapes;

  /// Batches the remaining anchors can still serve.
  size_t BatchesLeft() const {
    return std::min((auctions.size() - next_auction) / kInsertsPerBatch,
                    (bidders.size() - next_bidder) / kDeletesPerBatch);
  }
};

std::vector<uint32_t> NewestFirst(const xml::Document& doc, const char* tag,
                                  util::Rng* rng) {
  std::vector<uint32_t> starts;
  for (xml::NodeId n : doc.NodesOfTag(doc.FindTag(tag))) {
    starts.push_back(doc.NodeLabel(n).start);
  }
  std::sort(starts.rbegin(), starts.rend());
  for (size_t lo = 0; lo < starts.size(); lo += kAnchorWindow) {
    size_t hi = std::min(starts.size(), lo + kAnchorWindow);
    for (size_t i = hi - lo; i > 1; --i) {
      std::swap(starts[lo + i - 1], starts[lo + rng->Uniform(i)]);
    }
  }
  return starts;
}

Anchors MakeAnchors(const xml::Document& doc, util::Rng* rng) {
  Anchors anchors;
  anchors.auctions = NewestFirst(doc, "open_auction", rng);
  anchors.bidders = NewestFirst(doc, "bidder", rng);
  for (const char* shape : kBidderShapes) {
    xml::ParseResult parsed = xml::ParseDocument(shape);
    VJ_CHECK(parsed.ok()) << parsed.error;
    anchors.shapes.push_back(xml::SpecFromDocument(*parsed.document));
  }
  return anchors;
}

std::vector<core::UpdateOp> NextBatch(Anchors* anchors, util::Rng* rng) {
  std::vector<core::UpdateOp> ops;
  for (size_t i = 0; i < kInsertsPerBatch; ++i) {
    core::UpdateOp op;
    op.kind = core::UpdateOp::Kind::kInsertSubtree;
    op.target_tag = "open_auction";
    op.target_start = anchors->auctions[anchors->next_auction++];
    op.subtree = anchors->shapes[rng->Uniform(anchors->shapes.size())];
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < kDeletesPerBatch; ++i) {
    core::UpdateOp op;
    op.kind = core::UpdateOp::Kind::kDeleteSubtree;
    op.target_tag = "bidder";
    op.target_start = anchors->bidders[anchors->next_bidder++];
    ops.push_back(std::move(op));
  }
  return ops;
}

struct PhaseResult {
  uint64_t batches = 0;
  uint64_t ops_applied = 0;
  uint64_t queries = 0;
  double query_process_cpu_ms = 0;
  std::vector<double> query_cpu_ms;
  std::vector<double> query_wall_ms;
  std::vector<double> update_cpu_ms;
  std::vector<double> update_offcpu_ms;
  uint64_t update_wchar = 0;
  uint64_t update_syscw = 0;
  uint64_t delta_views = 0;
  uint64_t rebuilt_views = 0;
  uint64_t relabels = 0;
  uint64_t first_pass_misses = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  ProcIo query_io;
  QueryLayers layers;
  bool anchors_exhausted = false;
};

/// Space figures taken after a fixed number of batches, so they do not
/// depend on how many batches a run's time allowed.
struct SpaceCheckpoint {
  uint64_t after_batches = 0;
  bool taken = false;
  uint64_t store_bytes = 0;
  uint64_t doc_bytes = 0;
  LiveViews live;
};

/// Runs loops (one batch, one query pass) until `seconds` have elapsed and
/// at least `min_loops` loops are done, or `max_loops` anchors' worth of
/// batches are spent.
PhaseResult RunPhase(Fixture* fixture, Anchors* anchors, util::Rng* rng,
                     double seconds, uint64_t min_loops, uint64_t max_loops,
                     Tracer* tracer, SpaceCheckpoint* checkpoint,
                     RunReport* report) {
  PhaseResult phase;
  core::Engine* engine = fixture->engine.get();
  plan::PlanCache* plans = engine->plan_cache();
  uint64_t hits0 = plans->hits(), misses0 = plans->misses();
  IoProbe probe;
  core::RunOptions run;
  run.algorithm = core::Algorithm::kAuto;
  run.cold_cache = false;
  uint64_t request = 0;
  double wall_start = WallMs();
  while (phase.batches < min_loops || WallMs() - wall_start < seconds * 1000) {
    if (anchors->BatchesLeft() == 0) {
      phase.anchors_exhausted = true;
      break;
    }
    if (phase.batches >= max_loops) break;
    std::vector<core::UpdateOp> ops = NextBatch(anchors, rng);
    ProcIo io0 = probe.Sample();
    double wall0 = WallMs();
    double cpu0 = ThreadCpuMs();
    util::StatusOr<core::UpdateResult> applied = engine->ApplyUpdates(ops);
    double cpu1 = ThreadCpuMs();
    double wall1 = WallMs();
    ProcIo io = probe.Delta(io0, probe.Sample());
    tracer->Add("Engine::ApplyUpdates", "view", -1, ++request, wall0, wall1);
    ++phase.batches;
    bool ok = applied.ok() && applied->failed.empty() &&
              applied->quarantined == 0;
    if (!ok) {
      report->Failed("update batch " + std::to_string(phase.batches) + ": " +
                     (!applied.ok()           ? applied.status().ToString()
                      : applied->failed.empty() ? "view quarantined"
                                                : applied->failed.front()));
      continue;
    }
    report->Succeeded();
    phase.ops_applied += applied->applied;
    phase.update_cpu_ms.push_back(cpu1 - cpu0);
    phase.update_offcpu_ms.push_back(std::max(0.0, wall1 - wall0 - (cpu1 - cpu0)));
    phase.update_wchar += io.wchar;
    phase.update_syscw += io.syscw;
    phase.delta_views += applied->delta_maintained;
    phase.rebuilt_views += applied->fully_rebuilt;
    phase.relabels += applied->relabeled ? 1 : 0;

    // The standing views' latest replacements (bookkeeping, untimed).
    storage::ViewCatalog* catalog = engine->catalog();
    for (Standing& standing : fixture->standing) {
      standing.view = catalog->FindView(standing.view_pattern, Scheme::kElement);
      VJ_CHECK(standing.view != nullptr) << standing.name << " lost its view";
    }
    if (!checkpoint->taken && phase.batches == checkpoint->after_batches) {
      checkpoint->taken = true;
      checkpoint->store_bytes = DirectoryBytes(fixture->store_dir);
      checkpoint->doc_bytes = xml::SerializedSize(*fixture->doc);
      checkpoint->live = LiveViewSpace(catalog);
    }

    ProcIo query_io0 = probe.Sample();
    double pass_cpu0 = ProcessCpuMs();
    for (Standing& standing : fixture->standing) {
      double q_wall0 = WallMs();
      double q_cpu0 = ThreadCpuMs();
      core::RunResult result =
          fixture->session->Run(standing.query, {standing.view}, run);
      double q_cpu1 = ThreadCpuMs();
      double q_wall1 = WallMs();
      TraceEngineCall(tracer, "Session::Run", ++request, q_wall0, q_wall1,
                      result);
      ++phase.queries;
      if (!result.ok) {
        report->Failed(standing.name + ": " + result.error);
      } else {
        report->Succeeded();
      }
      phase.query_cpu_ms.push_back(q_cpu1 - q_cpu0);
      phase.query_wall_ms.push_back(q_wall1 - q_wall0);
      phase.layers.Add(result);
      phase.first_pass_misses += result.io.pool_misses;
      standing.last_hash = result.result_hash;
    }
    phase.query_process_cpu_ms += ProcessCpuMs() - pass_cpu0;
    ProcIo query_io = probe.Delta(query_io0, probe.Sample());
    phase.query_io.rchar += query_io.rchar;
    phase.query_io.syscr += query_io.syscr;
  }
  phase.plan_hits = plans->hits() - hits0;
  phase.plan_misses = plans->misses() - misses0;
  report->Info("update.batches", static_cast<double>(phase.batches));
  return phase;
}

/// The untimed gate: every standing view, delta-maintained through the run,
/// must answer exactly like the same view re-materialized from scratch over
/// the mutated document, and so must the last timed pass.
void CheckAgainstRebuild(const RunConfig& config, Fixture* fixture,
                         RunReport* report) {
  std::string dir = FreshDir(config, "update-mix-rebuild");
  {
    core::Engine rebuilt(static_cast<const xml::Document*>(fixture->doc.get()),
                         dir + "/views.db");
    core::RunOptions run;
    run.algorithm = core::Algorithm::kViewJoin;
    for (const Standing& standing : fixture->standing) {
      const MaterializedView* fresh =
          rebuilt.AddView(standing.query, Scheme::kElement);
      core::RunResult expected = rebuilt.Execute(standing.query, {fresh}, run);
      core::RunResult maintained =
          fixture->engine->Execute(standing.query, {standing.view}, run);
      bool ok = expected.ok && maintained.ok;
      if (!ok) {
        report->Failed(standing.name + ": rebuild check failed");
      } else {
        report->Succeeded();
      }
      if (ok && (maintained.result_hash != expected.result_hash ||
                 maintained.match_count != expected.match_count)) {
        report->Mismatch(standing.name + ": maintained view diverged");
      }
      if (ok && standing.last_hash != expected.result_hash) {
        report->Mismatch(standing.name + ": last timed answer diverged");
      }
    }
  }
  RemoveDir(dir);
}

}  // namespace

void RunUpdateMix(const RunConfig& config, RunReport* report) {
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
  uint64_t setup_pages = fixture->engine->catalog()->pager()->page_count();

  util::Rng rng(config.seed);
  Anchors anchors = MakeAnchors(*fixture->doc, &rng);
  const uint64_t queries_per_loop = fixture->standing.size();
  const uint64_t min_loops =
      config.small ? 2
                   : (SamplesNeeded(0.99, 10) + queries_per_loop - 1) /
                         queries_per_loop;
  SpaceCheckpoint checkpoint;
  checkpoint.after_batches = min_loops;
  Tracer off(false);
  // A traced run leaves half the anchors for its traced phase.
  const uint64_t untraced_loops =
      config.trace ? anchors.BatchesLeft() / 2 : anchors.BatchesLeft();
  PhaseResult untraced =
      RunPhase(fixture.get(), &anchors, &rng,
               config.trace ? config.seconds / 2 : config.seconds, min_loops,
               untraced_loops, &off, &checkpoint, report);
  if (!checkpoint.taken) {
    report->Failed("anchors ran out before the space checkpoint");
  }
  double query_cpu_ms = untraced.query_process_cpu_ms /
                        static_cast<double>(std::max<uint64_t>(1, untraced.queries));

  report->Set("setup_s", setup_s);
  report->Set("query_cpu_ms", query_cpu_ms);
  report->Set("query_cpu_p50_ms", Percentile(untraced.query_cpu_ms, 0.5));
  report->Set("query_cpu_p99_ms", Percentile(untraced.query_cpu_ms, 0.99));
  if (checkpoint.taken) {
    report->Set("store_bytes_per_doc_byte",
                static_cast<double>(checkpoint.store_bytes) /
                    static_cast<double>(checkpoint.doc_bytes));
    report->Set("space_amp", static_cast<double>(checkpoint.store_bytes) /
                                 static_cast<double>(checkpoint.live.size_bytes));
  }

  report->Info("doc.elements", static_cast<double>(fixture->doc->NodeCount()));
  report->Info("doc.bytes", static_cast<double>(checkpoint.doc_bytes));
  report->Info("space.checkpoint_batches",
               static_cast<double>(checkpoint.after_batches));
  report->Info("views.live", static_cast<double>(checkpoint.live.count));
  report->Info("views.live_pages", static_cast<double>(checkpoint.live.pages));
  report->Info("pool.pages", static_cast<double>(kPoolPages));
  report->Info("update.anchors_exhausted", untraced.anchors_exhausted ? 1 : 0);
  report->Info("samples.query_cpu", static_cast<double>(untraced.queries));
  report->Info("samples.beyond_p99",
               static_cast<double>(SamplesBeyond(untraced.queries, 0.99)));
  report->Info("samples.update_cpu",
               static_cast<double>(untraced.update_cpu_ms.size()));
  report->Info("query_wall_p50_ms", Percentile(untraced.query_wall_ms, 0.5));
  report->Info("query_wall_p99_ms", Percentile(untraced.query_wall_ms, 0.99));
  report->Info("update.cpu_p50_ms", Percentile(untraced.update_cpu_ms, 0.5));

  PhaseResult layered = untraced;
  if (config.trace) {
    layered = RunPhase(fixture.get(), &anchors, &rng, config.seconds / 2,
                       min_loops, anchors.BatchesLeft(), &tracer, &checkpoint,
                       report);
    double traced_cpu_ms = layered.query_process_cpu_ms /
                           static_cast<double>(std::max<uint64_t>(1, layered.queries));
    report->Set("trace.query_cpu_ms", traced_cpu_ms);
    report->Set("trace.untraced_query_cpu_ms", query_cpu_ms);
    report->Set("trace.overhead_frac", traced_cpu_ms / query_cpu_ms - 1);
    ReportSelfTimes(tracer, layered.queries + layered.batches, report);
  }
  double batches = static_cast<double>(std::max<uint64_t>(1, layered.batches));
  double queries = static_cast<double>(std::max<uint64_t>(1, layered.queries));
  layered.layers.Report(report);
  report->Set("data.generate_s", Percentile(generate_s, 0.5));
  report->Set("storage.materialize_s", Percentile(materialize_s, 0.5));
  report->Set("storage.view_pages", static_cast<double>(setup_pages));
  report->Set("storage.read_syscalls_per_query", layered.query_io.syscr / queries);
  report->Set("storage.read_bytes_per_query", layered.query_io.rchar / queries);
  report->Set("storage.first_pass_pool_misses",
              layered.first_pass_misses / queries);
  uint64_t plan_lookups = layered.plan_hits + layered.plan_misses;
  report->Set("plan.cache_hit_ratio",
              plan_lookups > 0 ? static_cast<double>(layered.plan_hits) /
                                     static_cast<double>(plan_lookups)
                               : 0);
  report->Set("view.delta_views_per_batch", layered.delta_views / batches);
  report->Set("view.rebuilt_views_per_batch", layered.rebuilt_views / batches);
  report->Set("view.relabels", static_cast<double>(layered.relabels));
  report->Set("update.cpu_p50_ms", Percentile(layered.update_cpu_ms, 0.5));
  report->Set("update.offcpu_ms_p50", Percentile(layered.update_offcpu_ms, 0.5));
  report->Set("update.write_bytes_per_op",
              static_cast<double>(layered.update_wchar) /
                  static_cast<double>(std::max<uint64_t>(1, layered.ops_applied)));
  report->Set("storage.write_syscalls_per_batch", layered.update_syscw / batches);
  report->Set("query_wall_p50_ms", Percentile(layered.query_wall_ms, 0.5));
  report->Set("query_wall_p99_ms", Percentile(layered.query_wall_ms, 0.99));

  CheckAgainstRebuild(config, fixture.get(), report);

  // Reopen the final store: recovery replays the whole journal.
  std::string store_dir = fixture->store_dir;
  std::string path = store_dir + "/views.db";
  fixture->session.reset();
  fixture->engine.reset();
  int64_t span = tracer.Begin("ViewCatalog::Open", "storage", -1, 0);
  double open0 = WallMs();
  util::StatusOr<std::unique_ptr<storage::ViewCatalog>> reopened =
      storage::ViewCatalog::Open(path, kPoolPages);
  double open_ms = WallMs() - open0;
  tracer.End(span);
  if (reopened.ok() && (*reopened)->recovery_report().pending_rebuild.empty()) {
    report->Succeeded();
  } else {
    report->Failed("reopen of the final store failed");
  }
  if (reopened.ok()) (*reopened)->Close();
  report->Set("storage.catalog_open_ms", open_ms);
  if (config.trace) tracer.WriteJson(config.work_dir + "/trace-update-mix.json");
  noise.Report(report);

  fixture.reset();
  RemoveDir(store_dir);
}

}  // namespace viewjoin::perfbench
