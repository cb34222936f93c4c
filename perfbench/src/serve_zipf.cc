// serve-zipf: the production query path. One keep-alive Client drives an
// in-process QueryServer (2 workers) over XMark in a closed loop. Request
// kinds are the 14 XMark queries × {E, LE, LE_p} with algorithm=auto; their
// frequencies follow Zipf(θ = 1) over a fixed popularity ranking, and the
// seed shuffles the order of each request cycle. A warm-up pass materializes
// every view before timing starts and the buffer pool holds them all, so the
// work is wire codec, net, server view resolution, planner + plan-cache hits,
// warm pool hits and the join loops — no cold I/O and no writes. The store is
// non-persistent: the query path never touches the journal.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "data/xmark_generator.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "src/workloads.h"
#include "util/check.h"
#include "util/rng.h"
#include "xml/writer.h"

namespace viewjoin::perfbench {
namespace {

using storage::MaterializedView;
using storage::Scheme;

constexpr double kZipfTheta = 1.0;
/// Requests per cycle; the rarest of the 42 kinds still appears twice.
constexpr size_t kCycleRequests = 420;
/// Fixed seed of the popularity ranking: which kinds are hot does not vary
/// with --seed, so runs with different seeds do the same mix of work.
constexpr uint64_t kRankingSeed = 0x5EEDF00D;

struct Kind {
  std::string label;
  server::QueryRequest request;
  tpq::TreePattern query;
  std::vector<tpq::TreePattern> cover;
  Scheme scheme = Scheme::kElement;
  uint64_t expected_hash = 0;
  uint64_t expected_count = 0;
};

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  std::string store_dir;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<server::QueryServer> server;
  server::Client client;
  std::vector<Kind> kinds;
  double generate_s = 0;
  double materialize_s = 0;

  ~Fixture() {
    client.Close();
    if (server) server->Drain();
  }
};

std::vector<Kind> MakeKinds() {
  std::vector<Kind> kinds;
  for (const bench::QuerySpec& spec : bench::XmarkQueries()) {
    for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                          Scheme::kLinkedElementPartial}) {
      std::string error;
      std::optional<tpq::TreePattern> query =
          tpq::TreePattern::Parse(spec.xpath, &error);
      VJ_CHECK(query.has_value()) << spec.xpath << ": " << error;
      Kind kind;
      kind.label = spec.name + "/" + storage::SchemeName(scheme);
      kind.query = *query;
      kind.cover = bench::PairViews(*query);
      kind.scheme = scheme;
      kind.request.tenant = "bench";
      kind.request.query = spec.xpath;
      for (const tpq::TreePattern& view : kind.cover) {
        kind.request.views.push_back(view.ToString());
      }
      kind.request.scheme = storage::SchemeName(scheme);
      kind.request.algorithm = "auto";
      kinds.push_back(std::move(kind));
    }
  }
  return kinds;
}

/// One request cycle: kind k (in popularity order) appears
/// round(kCycleRequests · p_k) times, p_k ∝ 1/rank^θ, in seeded order.
std::vector<size_t> MakeCycle(size_t kinds, util::Rng* rng) {
  std::vector<size_t> ranking(kinds);
  for (size_t i = 0; i < kinds; ++i) ranking[i] = i;
  util::Rng fixed(kRankingSeed);
  for (size_t i = kinds; i > 1; --i) {
    std::swap(ranking[i - 1], ranking[fixed.Uniform(i)]);
  }
  double total = 0;
  for (size_t r = 0; r < kinds; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta);
  }
  std::vector<size_t> cycle;
  for (size_t r = 0; r < kinds; ++r) {
    double share = 1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta);
    size_t copies = std::max<size_t>(
        1, static_cast<size_t>(std::lround(kCycleRequests * share / total)));
    cycle.insert(cycle.end(), copies, ranking[r]);
  }
  for (size_t i = cycle.size(); i > 1; --i) {
    std::swap(cycle[i - 1], cycle[rng->Uniform(i)]);
  }
  return cycle;
}

/// Generates the document, starts the server, connects the client and sends
/// every request kind once (the server materializes each view on first use).
std::unique_ptr<Fixture> Setup(const RunConfig& config, Tracer* tracer,
                               RunReport* report) {
  auto fixture = std::make_unique<Fixture>();
  double start = WallMs();
  int64_t span = tracer->Begin("data.generate", "data", -1, 0);
  data::XmarkOptions xmark;
  xmark.scale = config.small ? 0.2 : 2.0;
  fixture->doc = std::make_unique<xml::Document>(data::GenerateXmark(xmark));
  tracer->End(span);
  fixture->generate_s = (WallMs() - start) / 1000.0;

  fixture->store_dir = FreshDir(config, "serve-zipf");
  core::EngineOptions options;
  options.pool_pages = 8192;
  fixture->engine = std::make_unique<core::Engine>(
      static_cast<const xml::Document*>(fixture->doc.get()),
      fixture->store_dir + "/views.db", options);
  server::ServerOptions server_options;
  server_options.workers = 2;
  fixture->server =
      std::make_unique<server::QueryServer>(fixture->engine.get(),
                                            server_options);
  util::Status started = fixture->server->Start();
  VJ_CHECK(started.ok()) << started.ToString();
  util::Status connected =
      fixture->client.Connect("127.0.0.1", fixture->server->port());
  VJ_CHECK(connected.ok()) << connected.ToString();
  fixture->client.set_deadline_ms(30000);

  fixture->kinds = MakeKinds();
  span = tracer->Begin("warm-up (materialize on first use)", "storage", -1, 0);
  for (Kind& kind : fixture->kinds) {
    double wall0 = WallMs();
    util::StatusOr<server::QueryResponse> response =
        fixture->client.Query(kind.request);
    double wall = WallMs() - wall0;
    bool ok = response.ok() && response->verdict == server::Verdict::kOk;
    if (!ok) {
      report->Failed("warm-up " + kind.label + " failed");
    } else {
      report->Succeeded();
    }
    kind.expected_hash = ok ? response->result_hash : 0;
    kind.expected_count = ok ? response->match_count : 0;
    // Round trip minus engine time: the first use of a view materializes it.
    if (ok) fixture->materialize_s += (wall - response->server_ms) / 1000.0;
  }
  tracer->End(span);
  return fixture;
}

/// Every kind's reference answer, from an in-process Execute with a forced
/// TwigStack over the views the server materialized (the server is idle: no
/// Session::Run overlaps these calls). Each warm-up answer must equal it.
void PinAnswers(Fixture* fixture, RunReport* report) {
  storage::ViewCatalog* catalog = fixture->engine->catalog();
  for (Kind& kind : fixture->kinds) {
    std::vector<const MaterializedView*> views;
    for (const tpq::TreePattern& piece : kind.cover) {
      views.push_back(catalog->FindView(piece.ToString(), kind.scheme));
    }
    core::RunOptions run;
    run.algorithm = core::Algorithm::kTwigStack;
    run.cold_cache = false;
    core::RunResult reference = fixture->engine->Execute(kind.query, views, run);
    VJ_CHECK(reference.ok) << kind.label << ": " << reference.error;
    if (reference.result_hash != kind.expected_hash ||
        reference.match_count != kind.expected_count) {
      report->Mismatch("warm-up answer of " + kind.label);
    }
    kind.expected_hash = reference.result_hash;
    kind.expected_count = reference.match_count;
  }
}

struct PhaseResult {
  uint64_t queries = 0;
  double process_cpu_ms = 0;
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  std::vector<double> engine_ms;
  std::vector<double> overhead_ms;
  uint64_t pages_read = 0;
  double first_cycle_misses = 0;
  storage::IoStats pool;
  ProcIo io;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  double codec_us = 0;
  uint64_t frame_bytes = 0;
};

/// Sends whole request cycles until `seconds` have elapsed and at least
/// `min_cycles` cycles are done. Each request's CPU cost is the process CPU
/// time across its round trip: client, server worker and every other thread
/// (only one request is ever in flight).
PhaseResult RunPhase(Fixture* fixture, const std::vector<size_t>& cycle,
                     double seconds, uint64_t min_cycles, Tracer* tracer,
                     RunReport* report) {
  PhaseResult phase;
  storage::ViewCatalog* catalog = fixture->engine->catalog();
  plan::PlanCache* plans = fixture->engine->plan_cache();
  IoProbe probe;
  ProcIo io_start = probe.Sample();
  storage::IoStats pool_start = catalog->Stats();
  uint64_t hits0 = plans->hits(), misses0 = plans->misses();
  double cpu_start = ProcessCpuMs();
  double wall_start = WallMs();
  uint64_t cycles = 0;
  while (cycles < min_cycles || WallMs() - wall_start < seconds * 1000) {
    storage::IoStats cycle_start = catalog->Stats();
    for (size_t index : cycle) {
      const Kind& kind = fixture->kinds[index];
      double wall0 = WallMs();
      double cpu0 = ProcessCpuMs();
      util::StatusOr<server::QueryResponse> response =
          fixture->client.Query(kind.request);
      double cpu1 = ProcessCpuMs();
      double wall1 = WallMs();
      ++phase.queries;
      bool ok = response.ok() && response->verdict == server::Verdict::kOk;
      if (!ok) {
        report->Failed(kind.label + ": " +
                       (response.ok() ? response->error
                                      : response.status().ToString()));
        continue;
      }
      report->Succeeded();
      if (response->result_hash != kind.expected_hash ||
          response->match_count != kind.expected_count) {
        report->Mismatch(kind.label + " served a different answer");
      }
      phase.cpu_ms.push_back(cpu1 - cpu0);
      phase.wall_ms.push_back(wall1 - wall0);
      phase.engine_ms.push_back(response->server_ms);
      phase.overhead_ms.push_back(wall1 - wall0 - response->server_ms);
      phase.pages_read += response->pages_read;
      if (tracer->enabled()) {
        // The engine time sits inside the round trip; the rest of it is the
        // server layer's own (wire, net, queueing, view resolution).
        int64_t trip =
            tracer->Add("Client::Query", "server", -1, phase.queries, wall0,
                        wall1);
        double engine_start =
            wall0 + std::max(0.0, (wall1 - wall0 - response->server_ms) / 2);
        tracer->Add("Session::Run", "core", trip, phase.queries, engine_start,
                    std::min(wall1, engine_start + response->server_ms));
        double codec0 = WallMs();
        std::string request_bytes = server::EncodeQueryRequest(kind.request);
        server::QueryRequest request;
        util::Status decoded = server::DecodeQueryRequest(request_bytes, &request);
        std::string response_bytes = server::EncodeQueryResponse(*response);
        server::QueryResponse echoed;
        util::Status redecoded =
            server::DecodeQueryResponse(response_bytes, &echoed);
        phase.codec_us += (WallMs() - codec0) * 1000;
        VJ_CHECK(decoded.ok() && redecoded.ok());
        phase.frame_bytes += request_bytes.size() + response_bytes.size() +
                             2 * server::kFrameHeaderBytes;
      }
    }
    if (cycles == 0) {
      phase.first_cycle_misses =
          static_cast<double>(catalog->Stats().pool_misses -
                              cycle_start.pool_misses) /
          static_cast<double>(cycle.size());
    }
    ++cycles;
  }
  phase.process_cpu_ms = ProcessCpuMs() - cpu_start;
  phase.io = probe.Delta(io_start, probe.Sample());
  phase.pool = catalog->Stats().Delta(pool_start);
  phase.plan_hits = plans->hits() - hits0;
  phase.plan_misses = plans->misses() - misses0;
  report->Info("serve.cycles", static_cast<double>(cycles));
  return phase;
}

/// The engine-side layer counters of one request cycle, replayed in-process
/// through an Engine::Session with the server's run options (the wire does
/// not carry plan steps or join counters). The server is idle meanwhile.
QueryLayers ReplayCycle(Fixture* fixture, const std::vector<size_t>& cycle,
                        Tracer* tracer, RunReport* report) {
  QueryLayers layers;
  core::Engine::Session session(fixture->engine.get(), 1000);
  storage::ViewCatalog* catalog = fixture->engine->catalog();
  uint64_t request = 1u << 30;
  for (size_t index : cycle) {
    const Kind& kind = fixture->kinds[index];
    std::vector<const MaterializedView*> views;
    for (const tpq::TreePattern& piece : kind.cover) {
      views.push_back(catalog->FindView(piece.ToString(), kind.scheme));
    }
    core::RunOptions run;
    run.algorithm = core::Algorithm::kAuto;
    run.cold_cache = false;
    double wall0 = WallMs();
    core::RunResult result = session.Run(kind.query, views, run);
    TraceEngineCall(tracer, "Session::Run (replay)", ++request, wall0,
                    WallMs(), result);
    if (!result.ok || result.result_hash != kind.expected_hash) {
      report->Mismatch("in-process replay of " + kind.label);
    }
    layers.Add(result);
  }
  return layers;
}

}  // namespace

void RunServeZipf(const RunConfig& config, RunReport* report) {
  HostNoise noise;
  Tracer tracer(config.trace);
  std::unique_ptr<Fixture> fixture;
  std::vector<double> generate_s, materialize_s;
  double setup_s = MedianSetupSeconds(
      kSetupRepeats, [&] { fixture.reset(); },
      [&] {
    fixture = Setup(config, &tracer, report);
    generate_s.push_back(fixture->generate_s);
    materialize_s.push_back(fixture->materialize_s);
  });
  PinAnswers(fixture.get(), report);

  storage::ViewCatalog* catalog = fixture->engine->catalog();
  uint64_t doc_bytes = xml::SerializedSize(*fixture->doc);
  uint64_t store_bytes = DirectoryBytes(fixture->store_dir);
  LiveViews live = LiveViewSpace(catalog);

  util::Rng rng(config.seed);
  std::vector<size_t> cycle = MakeCycle(fixture->kinds.size(), &rng);
  const uint64_t min_cycles =
      config.small ? 1
                   : (SamplesNeeded(0.99, 10) + cycle.size() - 1) / cycle.size();
  Tracer off(false);
  PhaseResult untraced = RunPhase(
      fixture.get(), cycle, config.trace ? config.seconds / 2 : config.seconds,
      min_cycles, &off, report);
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

  report->Info("doc.elements", static_cast<double>(fixture->doc->NodeCount()));
  report->Info("doc.bytes", static_cast<double>(doc_bytes));
  report->Info("serve.kinds", static_cast<double>(fixture->kinds.size()));
  report->Info("serve.cycle_requests", static_cast<double>(cycle.size()));
  report->Info("views.live", static_cast<double>(live.count));
  report->Info("views.live_pages", static_cast<double>(live.pages));
  report->Info("pool.pages", static_cast<double>(catalog->pool()->capacity()));
  report->Info("samples.query_cpu", static_cast<double>(untraced.queries));
  report->Info("samples.beyond_p99",
               static_cast<double>(SamplesBeyond(untraced.queries, 0.99)));
  report->Info("query_wall_p50_ms", Percentile(untraced.wall_ms, 0.5));
  report->Info("query_wall_p99_ms", Percentile(untraced.wall_ms, 0.99));

  PhaseResult layered = untraced;
  if (config.trace) {
    layered = RunPhase(fixture.get(), cycle, config.seconds / 2, min_cycles,
                       &tracer, report);
    double traced_cpu_ms =
        layered.process_cpu_ms / static_cast<double>(layered.queries);
    report->Set("trace.query_cpu_ms", traced_cpu_ms);
    report->Set("trace.untraced_query_cpu_ms", query_cpu_ms);
    report->Set("trace.overhead_frac", traced_cpu_ms / query_cpu_ms - 1);
    double n = static_cast<double>(layered.queries);
    report->Set("server.wire_codec_us", layered.codec_us / n);
    report->Set("server.frame_bytes_per_query", layered.frame_bytes / n);
    ReportSelfTimes(tracer, layered.queries, report);
    // Join and plan counters from the replay; the pool and page figures
    // below come from the served phase itself and overwrite the replay's.
    ReplayCycle(fixture.get(), cycle, &tracer, report).Report(report);
    tracer.WriteJson(config.work_dir + "/trace-serve-zipf.json");
  }
  double n = static_cast<double>(layered.queries);
  report->Set("data.generate_s", Percentile(generate_s, 0.5));
  report->Set("storage.materialize_s", Percentile(materialize_s, 0.5));
  report->Set("storage.view_pages",
              static_cast<double>(catalog->pager()->page_count()));
  report->Set("storage.pages_read_per_query", layered.pages_read / n);
  report->Set("storage.read_syscalls_per_query", layered.io.syscr / n);
  report->Set("storage.read_bytes_per_query", layered.io.rchar / n);
  uint64_t lookups = layered.pool.pool_hits + layered.pool.pool_misses;
  report->Set("storage.pool_hit_ratio",
              lookups > 0 ? static_cast<double>(layered.pool.pool_hits) /
                                static_cast<double>(lookups)
                          : 0);
  report->Set("storage.first_pass_pool_misses", layered.first_cycle_misses);
  uint64_t plan_lookups = layered.plan_hits + layered.plan_misses;
  report->Set("plan.cache_hit_ratio",
              plan_lookups > 0 ? static_cast<double>(layered.plan_hits) /
                                     static_cast<double>(plan_lookups)
                               : 0);
  report->Set("server.overhead_ms_p50", Percentile(layered.overhead_ms, 0.5));
  report->Set("server.engine_ms_p50", Percentile(layered.engine_ms, 0.5));
  report->Set("server.engine_ms_p99", Percentile(layered.engine_ms, 0.99));
  report->Set("query_wall_p50_ms", Percentile(layered.wall_ms, 0.5));
  report->Set("query_wall_p99_ms", Percentile(layered.wall_ms, 0.99));
  noise.Report(report);

  fixture.reset();
  RemoveDir(config.work_dir + "/serve-zipf");
}

}  // namespace viewjoin::perfbench
