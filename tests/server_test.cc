// Query-server tests: wire encoding, token-bucket quotas, end-to-end serving
// over real TCP, overload shedding, slowloris reaping, injected network
// faults, and the drain/shutdown races (SIGTERM mid-query, drain during
// scrubber activity, double-signal hard kill). The races are the point —
// this binary runs under the TSan matrix job, where a lock ordering or
// notify-without-lock bug in the drain path becomes a hard failure.
//
// main() arms simulated per-page read latency (sleep mode) before the pager
// caches the knob, so the big-document queries used by the drain tests run
// hundreds of milliseconds — long enough that "drain while a query is in
// flight" is a real interleaving, not a lucky no-op.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "server/token_bucket.h"
#include "server/wire.h"
#include "storage/fsck.h"
#include "tests/test_util.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "xml/document.h"

namespace viewjoin {
namespace {

using core::Engine;
using core::EngineOptions;
using server::Client;
using server::Conn;
using server::QueryRequest;
using server::QueryResponse;
using server::QueryServer;
using server::ServerOptions;
using server::StatusResponse;
using server::TenantQuotas;
using server::TokenBucket;
using server::Verdict;
using util::SocketEnd;
using util::SocketFault;
using util::SocketFaultInjector;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

/// `groups` independent a(b(c)) subtrees: //a//b//c matches `groups` times.
xml::Document GroupDoc(int groups) {
  xml::Document doc;
  doc.StartElement("r");
  for (int i = 0; i < groups; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.StartElement("c");
    doc.EndElement();
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  return doc;
}

QueryRequest GroupRequest() {
  QueryRequest request;
  request.query = "//a//b//c";
  request.views = {"//a//b", "//c"};
  request.scheme = "LE";
  request.algorithm = "VJ";
  return request;
}

/// One server over its own document and engine, torn down by Drain().
struct Fixture {
  explicit Fixture(int groups, ServerOptions options = {},
                   EngineOptions engine_options = {},
                   const std::string& name = "server_test.db")
      : doc(GroupDoc(groups)) {
    // A leftover persistent store from a previous run would be recovered
    // instead of created; every test starts from nothing.
    std::filesystem::remove(TempPath(name));
    std::filesystem::remove(TempPath(name) + ".manifest");
    engine = std::make_unique<Engine>(&doc, TempPath(name), engine_options);
    server = std::make_unique<QueryServer>(engine.get(), options);
    util::Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~Fixture() {
    if (server != nullptr) server->Drain();
  }

  Client Connected() {
    Client client;
    util::Status status = client.Connect("127.0.0.1", server->port(), 5000);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return client;
  }

  xml::Document doc;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryServer> server;
};

/// Disarms socket faults on scope exit so a failing test cannot leak an
/// armed fault into the next one.
struct ScopedSocketFaults {
  ScopedSocketFaults() { SocketFaultInjector::Global().Reset(); }
  ~ScopedSocketFaults() { SocketFaultInjector::Global().Reset(); }
};

/// Polls `predicate` (on the server snapshot) until true or ~2s elapsed.
bool WaitFor(QueryServer* server,
             const std::function<bool(const StatusResponse&)>& predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate(server->Snapshot())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  StatusResponse s = server->Snapshot();
  ADD_FAILURE() << "WaitFor timed out; accepted=" << s.connections_accepted
                << " queued=" << s.queued_connections
                << " in_flight=" << s.in_flight << " served="
                << s.queries_served << " shed=" << s.rejected_shed
                << " timeouts=" << s.read_timeouts
                << " frame_errors=" << s.frame_errors;
  return false;
}

// ---- Wire ------------------------------------------------------------------

TEST(WireTest, QueryRequestRoundTrips) {
  QueryRequest in;
  in.tenant = "tenant-7";
  in.query = "//a//b[c]";
  in.views = {"//a//b", "//c", ""};
  in.scheme = "LE_p";
  in.algorithm = "TS";
  in.deadline_ms = 1234.5;
  in.count_only = true;

  std::string payload = server::EncodeQueryRequest(in);
  ASSERT_EQ(*server::PeekType(payload), server::MsgType::kQueryRequest);
  QueryRequest out;
  ASSERT_TRUE(server::DecodeQueryRequest(payload, &out).ok());
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.query, in.query);
  EXPECT_EQ(out.views, in.views);
  EXPECT_EQ(out.scheme, in.scheme);
  EXPECT_EQ(out.algorithm, in.algorithm);
  EXPECT_DOUBLE_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.count_only, in.count_only);
}

TEST(WireTest, QueryResponseRoundTrips) {
  QueryResponse in;
  in.verdict = Verdict::kRejected;
  in.error = "over quota";
  in.retry_after_ms = 250.25;
  in.match_count = 42;
  in.result_hash = 0xDEADBEEFCAFEF00Dull;
  in.server_ms = 3.5;
  in.degraded = true;
  in.pages_read = 17;
  in.attempts = 3;

  std::string payload = server::EncodeQueryResponse(in);
  QueryResponse out;
  ASSERT_TRUE(server::DecodeQueryResponse(payload, &out).ok());
  EXPECT_EQ(out.verdict, in.verdict);
  EXPECT_EQ(out.error, in.error);
  EXPECT_DOUBLE_EQ(out.retry_after_ms, in.retry_after_ms);
  EXPECT_EQ(out.match_count, in.match_count);
  EXPECT_EQ(out.result_hash, in.result_hash);
  EXPECT_EQ(out.degraded, in.degraded);
  EXPECT_EQ(out.pages_read, in.pages_read);
  EXPECT_EQ(out.attempts, in.attempts);
}

TEST(WireTest, StatusResponseRoundTrips) {
  StatusResponse in;
  in.healthy = true;
  in.ready = false;
  in.draining = true;
  in.in_flight = 3;
  in.queued_connections = 5;
  in.connections_accepted = 100;
  in.queries_served = 90;
  in.rejected_quota = 4;
  in.rejected_shed = 2;
  in.rejected_draining = 1;
  in.read_timeouts = 7;
  in.frame_errors = 8;
  in.views_cached = 6;

  std::string payload = server::EncodeStatusResponse(in);
  StatusResponse out;
  ASSERT_TRUE(server::DecodeStatusResponse(payload, &out).ok());
  EXPECT_EQ(out.ready, in.ready);
  EXPECT_EQ(out.draining, in.draining);
  EXPECT_EQ(out.in_flight, in.in_flight);
  EXPECT_EQ(out.queued_connections, in.queued_connections);
  EXPECT_EQ(out.connections_accepted, in.connections_accepted);
  EXPECT_EQ(out.queries_served, in.queries_served);
  EXPECT_EQ(out.rejected_quota, in.rejected_quota);
  EXPECT_EQ(out.rejected_shed, in.rejected_shed);
  EXPECT_EQ(out.rejected_draining, in.rejected_draining);
  EXPECT_EQ(out.read_timeouts, in.read_timeouts);
  EXPECT_EQ(out.frame_errors, in.frame_errors);
  EXPECT_EQ(out.views_cached, in.views_cached);
}

TEST(WireTest, MalformedPayloadsAreTypedErrors) {
  EXPECT_FALSE(server::PeekType("").ok());
  EXPECT_FALSE(server::PeekType(std::string(1, '\x7F')).ok());

  // Truncation anywhere inside the body is an error, not a mis-parse.
  std::string payload = server::EncodeQueryRequest(GroupRequest());
  for (size_t len : {size_t{1}, payload.size() / 2, payload.size() - 1}) {
    QueryRequest out;
    EXPECT_FALSE(
        server::DecodeQueryRequest(payload.substr(0, len), &out).ok())
        << "prefix of " << len;
  }
  // Trailing garbage too: a frame is exactly one message.
  QueryRequest out;
  EXPECT_FALSE(server::DecodeQueryRequest(payload + "x", &out).ok());
}

TEST(WireTest, FrameHeaderValidatesMagicAndCap) {
  uint8_t header[server::kFrameHeaderBytes];
  server::EncodeFrameHeader(100, header);
  ASSERT_EQ(*server::DecodeFrameHeader(header, 1024), 100u);

  util::StatusOr<uint32_t> over = server::DecodeFrameHeader(header, 64);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), util::StatusCode::kResourceExhausted);

  header[0] ^= 0xFF;  // bad magic: the peer is not speaking this protocol
  util::StatusOr<uint32_t> bad = server::DecodeFrameHeader(header, 1024);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kCorruption);
}

// ---- Token bucket ----------------------------------------------------------

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  // 10 tokens/sec, burst 2, with a caller-supplied clock: fully deterministic.
  TokenBucket bucket(10.0, 2.0, 0);
  double retry_after = 0;
  EXPECT_TRUE(bucket.TryAcquire(0, &retry_after));
  EXPECT_TRUE(bucket.TryAcquire(0, &retry_after));
  EXPECT_FALSE(bucket.TryAcquire(0, &retry_after));
  // Empty bucket at 10/sec: the next token exists in 100 ms.
  EXPECT_NEAR(retry_after, 100.0, 1.0);

  // 100 ms later exactly one token has refilled.
  int64_t t = 100 * 1000 * 1000;
  EXPECT_TRUE(bucket.TryAcquire(t, &retry_after));
  EXPECT_FALSE(bucket.TryAcquire(t, &retry_after));

  // Refill is capped at burst, not unbounded.
  t += 60ll * 1000 * 1000 * 1000;
  EXPECT_TRUE(bucket.TryAcquire(t, &retry_after));
  EXPECT_TRUE(bucket.TryAcquire(t, &retry_after));
  EXPECT_FALSE(bucket.TryAcquire(t, &retry_after));
}

TEST(TokenBucketTest, TenantsAreIsolated) {
  TenantQuotas quotas(/*rate_per_sec=*/1.0, /*burst=*/1.0);
  double retry_after = 0;
  EXPECT_TRUE(quotas.TryAcquire("alice", 0, &retry_after));
  EXPECT_FALSE(quotas.TryAcquire("alice", 0, &retry_after));
  EXPECT_GT(retry_after, 0);
  // Alice's exhaustion must not tax Bob.
  EXPECT_TRUE(quotas.TryAcquire("bob", 0, &retry_after));

  // rate <= 0 disables quotas entirely.
  TenantQuotas off(0, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(off.TryAcquire("anyone", 0, nullptr));
  }
}

// ---- End-to-end serving ----------------------------------------------------

TEST(ServerTest, ServesQueriesOverTcp) {
  Fixture fx(50, {}, {}, "serve_e2e.db");
  core::RunResult reference = fx.engine->Execute(
      testing::MustParse("//a//b//c"),
      {fx.engine->AddView("//a//b", storage::Scheme::kLinkedElement),
       fx.engine->AddView("//c", storage::Scheme::kLinkedElement)});
  ASSERT_TRUE(reference.ok) << reference.error;

  Client client = fx.Connected();
  // Keep-alive: several queries down one connection.
  for (int i = 0; i < 3; ++i) {
    util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
    EXPECT_EQ(response->match_count, 50u);
    EXPECT_EQ(response->result_hash, reference.result_hash);
  }

  util::StatusOr<StatusResponse> status = client.GetStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->healthy);
  EXPECT_TRUE(status->ready);
  EXPECT_FALSE(status->draining);
  EXPECT_EQ(status->queries_served, 3u);
  EXPECT_GE(status->views_cached, 2u);
}

TEST(ServerTest, BadQueryIsTypedErrorAndServerSurvives) {
  Fixture fx(10, {}, {}, "serve_bad_query.db");
  Client client = fx.Connected();

  QueryRequest bad = GroupRequest();
  bad.query = "((((not an xpath";
  util::StatusOr<QueryResponse> response = client.Query(bad);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kError);
  EXPECT_FALSE(response->error.empty());

  // The same connection still works afterwards.
  response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
}

TEST(ServerTest, RepeatedTagViewIsTypedErrorAndServerSurvives) {
  // A view pattern must name each element type once. A request naming one
  // that does not gets an error verdict instead of aborting the server.
  Fixture fx(10, {}, {}, "serve_repeated_tag.db");
  Client client = fx.Connected();

  QueryRequest bad = GroupRequest();
  bad.query = "//parlist//listitem";
  bad.views = {"//parlist//parlist", "//listitem"};
  util::StatusOr<QueryResponse> response = client.Query(bad);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kError);
  EXPECT_NE(response->error.find("unique element types"), std::string::npos)
      << response->error;

  // The same connection, and the server behind it, still answer.
  response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
  EXPECT_EQ(response->match_count, 10u);
}

TEST(ServerTest, OverQuotaIsRejectedWithRetryAfter) {
  ServerOptions options;
  options.quota_rate_per_sec = 0.001;  // effectively: the burst and no more
  options.quota_burst = 2;
  Fixture fx(10, options, {}, "serve_quota.db");
  Client client = fx.Connected();

  for (int i = 0; i < 2; ++i) {
    util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->verdict, Verdict::kOk) << response->error;
  }
  util::StatusOr<QueryResponse> over = client.Query(GroupRequest());
  ASSERT_TRUE(over.ok()) << over.status().ToString();
  EXPECT_EQ(over->verdict, Verdict::kRejected);
  EXPECT_GT(over->retry_after_ms, 0);

  // A different tenant is not taxed by this one's exhaustion.
  QueryRequest other = GroupRequest();
  other.tenant = "other";
  util::StatusOr<QueryResponse> ok = client.Query(other);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->verdict, Verdict::kOk) << ok->error;
  EXPECT_EQ(fx.server->Snapshot().rejected_quota, 1u);
}

TEST(ServerTest, QueueHighWaterShedsBeforeReadingRequest) {
  ServerOptions options;
  options.workers = 1;
  options.max_pending = 1;
  // The idle connections must outlive every ~2 s WaitFor poll below: with
  // the default read deadline the worker could reap the busy one and claim
  // the queued one before the poll sees it queued.
  options.read_deadline_ms = 60000;
  Fixture fx(10, options, {}, "serve_shed.db");

  // One idle connection occupies the single worker; a second sits in the
  // pending queue at its high water. Both send nothing. The connects are
  // sequenced on the snapshot so the first is *claimed* by the worker before
  // the second arrives — otherwise the second could be the one shed.
  util::StatusOr<Conn> busy = Conn::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(busy.ok());
  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.connections_accepted == 1 && s.queued_connections == 0;
  }));
  util::StatusOr<Conn> queued = Conn::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.connections_accepted == 2 && s.queued_connections == 1;
  }));

  // The third connection is shed: a typed kRejected with Retry-After arrives
  // even though this client never got to send its request.
  Client client = fx.Connected();
  util::StatusOr<QueryResponse> shed = client.Query(GroupRequest());
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->verdict, Verdict::kRejected);
  EXPECT_GT(shed->retry_after_ms, 0);
  EXPECT_EQ(fx.server->Snapshot().rejected_shed, 1u);
}

TEST(ServerTest, MemoryHighWaterSheds) {
  ServerOptions options;
  options.workers = 4;
  options.per_query_memory_budget = 1 << 20;
  options.memory_high_water_bytes = 1;  // any admission would cross it
  Fixture fx(10, options, {}, "serve_mem_shed.db");

  Client client = fx.Connected();
  util::StatusOr<QueryResponse> shed = client.Query(GroupRequest());
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->verdict, Verdict::kRejected);
  EXPECT_EQ(fx.server->Snapshot().rejected_shed, 1u);
}

TEST(ServerTest, SlowlorisConnIsReaped) {
  ServerOptions options;
  options.workers = 1;
  options.read_deadline_ms = 100;
  Fixture fx(10, options, {}, "serve_slowloris.db");

  // A peer that sends half a frame header and stalls forever costs the
  // worker one read deadline, not a pinned thread.
  util::StatusOr<Conn> conn = Conn::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(conn.ok());
  uint8_t header[server::kFrameHeaderBytes];
  server::EncodeFrameHeader(16, header);
  ASSERT_EQ(::send(conn->fd(), header, 4, 0), 4);

  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.read_timeouts >= 1;
  }));

  // And the worker is free again for real clients.
  Client client = fx.Connected();
  util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
}

TEST(ServerTest, OversizedFrameDeclarationIsRefusedCheaply) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  Fixture fx(10, options, {}, "serve_cap.db");

  // Declare a 64 MiB payload. The server must refuse on the 8-byte header —
  // no allocation, no read — and close.
  util::StatusOr<Conn> conn = Conn::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(conn.ok());
  uint8_t header[server::kFrameHeaderBytes];
  server::EncodeFrameHeader(64u << 20, header);
  ASSERT_EQ(::send(conn->fd(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));

  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.frame_errors >= 1;
  }));
  // The refusal is typed — an error response — and then the server hangs up.
  conn->set_read_deadline_ms(2000);
  util::StatusOr<std::string> refusal = conn->RecvFrame(4096);
  ASSERT_TRUE(refusal.ok()) << refusal.status().ToString();
  QueryResponse response;
  ASSERT_TRUE(server::DecodeQueryResponse(*refusal, &response).ok());
  EXPECT_EQ(response.verdict, Verdict::kError);
  EXPECT_FALSE(conn->RecvFrame(4096).ok());  // connection was closed on us
}

TEST(ServerTest, GarbagePayloadCountsAsFrameErrorAndServerSurvives) {
  Fixture fx(10, {}, {}, "serve_garbage.db");
  util::StatusOr<Conn> conn = Conn::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(conn.ok());
  conn->set_write_deadline_ms(2000);
  ASSERT_TRUE(conn->SendFrame(std::string("\x7Fgarbage"),
                              server::kDefaultMaxFrameBytes)
                  .ok());
  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.frame_errors >= 1;
  }));

  Client client = fx.Connected();
  util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
}

// ---- Injected network faults -----------------------------------------------

TEST(ServerFaultTest, ShortReadsAndWritesAreTransparent) {
  ScopedSocketFaults guard;
  Fixture fx(20, {}, {}, "serve_short_io.db");
  Client client = fx.Connected();

  // Every server-side recv and client-side send dribbles 1 byte per syscall:
  // the framing layer must still assemble complete messages.
  SocketFaultInjector::Global().ArmRecvFault(SocketFault::kShortRead,
                                             /*nth=*/1, /*count=*/-1,
                                             SocketEnd::kServer);
  SocketFaultInjector::Global().ArmSendFault(SocketFault::kShortWrite,
                                             /*nth=*/1, /*count=*/-1,
                                             SocketEnd::kClient);
  util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
  EXPECT_EQ(response->match_count, 20u);
  EXPECT_GT(SocketFaultInjector::Global().injected_faults(), 0u);
}

TEST(ServerFaultTest, ClientResetMidRequestLeavesServerHealthy) {
  ScopedSocketFaults guard;
  Fixture fx(20, {}, {}, "serve_reset.db");

  {
    Client victim = fx.Connected();
    // The victim's first send becomes an abortive close: the server sees a
    // real RST mid-request.
    SocketFaultInjector::Global().ArmSendFault(SocketFault::kReset,
                                               /*nth=*/1, /*count=*/1,
                                               SocketEnd::kClient);
    util::StatusOr<QueryResponse> doomed = victim.Query(GroupRequest());
    EXPECT_FALSE(doomed.ok());
  }
  SocketFaultInjector::Global().Reset();

  // The server shrugged it off: healthy, and still serving.
  Client client = fx.Connected();
  util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
  EXPECT_TRUE(fx.server->Snapshot().healthy);
}

TEST(ServerFaultTest, StalledServerSendIsBoundedByClientDeadline) {
  ScopedSocketFaults guard;
  Fixture fx(20, {}, {}, "serve_stall.db");
  Client client = fx.Connected();

  // A 50 ms stall on the server's sends is absorbed; the round trip still
  // completes inside the client's deadline.
  SocketFaultInjector::Global().set_stall_ms(50);
  SocketFaultInjector::Global().ArmSendFault(SocketFault::kStall,
                                             /*nth=*/1, /*count=*/1,
                                             SocketEnd::kServer);
  client.set_deadline_ms(5000);
  util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
}

// ---- Drain and shutdown races ----------------------------------------------
//
// These run against the big slow-read document (see main()): one query takes
// hundreds of milliseconds, so a drain issued 50 ms in genuinely overlaps
// execution.

constexpr int kSlowGroups = 20000;

TEST(DrainTest, DrainFinishesInFlightQueriesAndStoreIsClean) {
  std::string store = TempPath("drain_inflight.db");
  EngineOptions engine_options;
  engine_options.persistent = true;
  ServerOptions options;
  options.drain_deadline_ms = 60000;
  {
    Fixture fx(kSlowGroups, options, engine_options, "drain_inflight.db");

    std::atomic<bool> done{false};
    util::StatusOr<QueryResponse> response =
        util::Status::IoError("never ran");
    std::thread querier([&] {
      Client client = fx.Connected();
      client.set_deadline_ms(120000);
      QueryRequest request = GroupRequest();
      request.deadline_ms = 60000;
      response = client.Query(request);
      done.store(true);
    });

    ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
      return s.in_flight >= 1;
    }));
    EXPECT_TRUE(fx.server->Drain());  // clean: the query got to finish
    querier.join();
    ASSERT_TRUE(done.load());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
    EXPECT_EQ(response->match_count, static_cast<uint64_t>(kSlowGroups));

    // Post-drain the server refuses new work instead of hanging: either the
    // connect itself is refused (listener gone) or the query is bounced.
    Client late;
    late.set_deadline_ms(2000);
    if (late.Connect("127.0.0.1", fx.server->port(), 1000).ok()) {
      util::StatusOr<QueryResponse> refused = late.Query(GroupRequest());
      EXPECT_FALSE(refused.ok() && refused->verdict == Verdict::kOk);
    }
  }
  // The catalog was closed crash-safely: fsck finds a clean store.
  storage::FsckCatalogReport report = storage::FsckCatalog(store);
  EXPECT_FALSE(report.corrupt());
  EXPECT_FALSE(report.repair_needed());
}

TEST(DrainTest, DrainDeadlineAbortsStuckQueries) {
  ServerOptions options;
  options.drain_deadline_ms = 100;  // far shorter than the query
  Fixture fx(kSlowGroups, options, {}, "drain_abort.db");

  util::StatusOr<QueryResponse> response = util::Status::IoError("never ran");
  std::thread querier([&] {
    Client client = fx.Connected();
    client.set_deadline_ms(120000);
    QueryRequest request = GroupRequest();
    request.deadline_ms = 60000;
    response = client.Query(request);
  });
  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.in_flight >= 1;
  }));

  // The drain budget expires mid-query: the watchdog aborts it, drain
  // reports "forced", and the client still gets a typed verdict.
  EXPECT_FALSE(fx.server->Drain());
  querier.join();
  if (response.ok()) {
    EXPECT_NE(response->verdict, Verdict::kOk);
  }
}

TEST(DrainTest, HardKillUnblocksAPatientDrain) {
  ServerOptions options;
  options.drain_deadline_ms = 600000;  // patient enough to need the kill
  Fixture fx(kSlowGroups, options, {}, "drain_hardkill.db");

  std::thread querier([&] {
    Client client = fx.Connected();
    client.set_deadline_ms(120000);
    QueryRequest request = GroupRequest();
    request.deadline_ms = 60000;
    (void)client.Query(request);
  });
  ASSERT_TRUE(WaitFor(fx.server.get(), [](const StatusResponse& s) {
    return s.in_flight >= 1;
  }));

  std::atomic<bool> drain_returned{false};
  bool clean = true;
  std::thread drainer([&] {
    clean = fx.server->Drain();
    drain_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_FALSE(drain_returned.load());  // drain is waiting on the query

  fx.server->HardKill();  // the double-SIGTERM path
  drainer.join();
  EXPECT_FALSE(clean);
  querier.join();
}

TEST(DrainTest, DrainWhileScrubberIsRunning) {
  // The scrubber steps every millisecond while queries flow; Drain() must
  // stop it before closing the catalog, never after (use-after-close) —
  // under TSan this interleaving is checked for real.
  EngineOptions engine_options;
  engine_options.persistent = true;
  engine_options.scrub = true;
  engine_options.scrub_interval_ms = 1;
  Fixture fx(100, {}, engine_options, "drain_scrub.db");

  Client client = fx.Connected();
  for (int i = 0; i < 5; ++i) {
    util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->verdict, Verdict::kOk) << response->error;
  }
  EXPECT_TRUE(fx.server->Drain());
}

TEST(DrainTest, DrainIsIdempotentAndSafeFromConcurrentCallers) {
  Fixture fx(10, {}, {}, "drain_concurrent.db");
  Client client = fx.Connected();
  util::StatusOr<QueryResponse> response = client.Query(GroupRequest());
  ASSERT_TRUE(response.ok());

  bool results[3] = {false, false, false};
  std::vector<std::thread> callers;
  for (int i = 0; i < 3; ++i) {
    callers.emplace_back([&, i] { results[i] = fx.server->Drain(); });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(results[0]);
  EXPECT_TRUE(results[1]);
  EXPECT_TRUE(results[2]);
  EXPECT_TRUE(fx.server->Drain());  // and again, long after
}

// ---- Live-document updates over the wire -----------------------------------

TEST(WireTest, UpdateRequestRoundTrips) {
  server::UpdateRequest in;
  in.tenant = "tenant-3";
  server::UpdateRequest::Op insert;
  insert.kind = 0;
  insert.target_tag = "r";
  insert.target_start = 1;
  insert.after_tag = "a";
  insert.after_start = 2;
  insert.fragment = "<a><b><c/></b></a>";
  in.ops.push_back(insert);
  server::UpdateRequest::Op del;
  del.kind = 1;
  del.target_tag = "x";
  del.target_start = 77;
  in.ops.push_back(del);

  std::string payload = server::EncodeUpdateRequest(in);
  ASSERT_EQ(*server::PeekType(payload), server::MsgType::kUpdateRequest);
  server::UpdateRequest out;
  ASSERT_TRUE(server::DecodeUpdateRequest(payload, &out).ok());
  EXPECT_EQ(out.tenant, in.tenant);
  ASSERT_EQ(out.ops.size(), 2u);
  EXPECT_EQ(out.ops[0].kind, 0);
  EXPECT_EQ(out.ops[0].target_tag, "r");
  EXPECT_EQ(out.ops[0].target_start, 1u);
  EXPECT_EQ(out.ops[0].after_tag, "a");
  EXPECT_EQ(out.ops[0].after_start, 2u);
  EXPECT_EQ(out.ops[0].fragment, insert.fragment);
  EXPECT_EQ(out.ops[1].kind, 1);
  EXPECT_EQ(out.ops[1].target_tag, "x");
  EXPECT_EQ(out.ops[1].target_start, 77u);
}

TEST(WireTest, UpdateResponseRoundTrips) {
  server::UpdateResponse in;
  in.verdict = Verdict::kOk;
  in.error = "";
  in.retry_after_ms = 12.5;
  in.applied = 3;
  in.failed = {"op 1: no live node <z> with start 9"};
  in.relabeled = true;
  in.txn_epoch = 41;
  in.delta_maintained = 2;
  in.fully_rebuilt = 1;
  in.server_ms = 7.25;

  std::string payload = server::EncodeUpdateResponse(in);
  ASSERT_EQ(*server::PeekType(payload), server::MsgType::kUpdateResponse);
  server::UpdateResponse out;
  ASSERT_TRUE(server::DecodeUpdateResponse(payload, &out).ok());
  EXPECT_EQ(out.verdict, in.verdict);
  EXPECT_DOUBLE_EQ(out.retry_after_ms, in.retry_after_ms);
  EXPECT_EQ(out.applied, in.applied);
  EXPECT_EQ(out.failed, in.failed);
  EXPECT_EQ(out.relabeled, in.relabeled);
  EXPECT_EQ(out.txn_epoch, in.txn_epoch);
  EXPECT_EQ(out.delta_maintained, in.delta_maintained);
  EXPECT_EQ(out.fully_rebuilt, in.fully_rebuilt);
  EXPECT_DOUBLE_EQ(out.server_ms, in.server_ms);
}

TEST(WireTest, UpdateOpCountIsCapped) {
  // An attacker-controlled op count past the cap is a typed malformed-frame
  // error, decoded cheaply before any per-op allocation spree.
  server::UpdateRequest huge;
  huge.ops.resize(4097);
  std::string payload = server::EncodeUpdateRequest(huge);
  server::UpdateRequest out;
  util::Status decoded = server::DecodeUpdateRequest(payload, &out);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.ToString().find("too many update ops"), std::string::npos)
      << decoded.ToString();
}

// The client-side refusal retry schedule: every delay is clamped to
// [base, cap] regardless of the server's Retry-After hint, so total wait is
// provably bounded by max_retries x cap — a hostile hint cannot park the
// client.
TEST(RetryPolicyTest, TotalWaitIsBoundedDespiteHostileRetryAfter) {
  const int kMaxRetries = 5;
  const double kBase = 10, kCap = 500;
  server::RefusalRetryPolicy policy(kMaxRetries, kBase, kCap, /*seed=*/42);

  // Execution failures are never retried and never consume budget.
  EXPECT_LT(policy.NextDelayMs(Verdict::kError, 100), 0);
  EXPECT_LT(policy.NextDelayMs(Verdict::kTimeout, 100), 0);
  EXPECT_EQ(policy.remaining(), kMaxRetries);

  for (int i = 0; i < kMaxRetries; ++i) {
    const Verdict verdict =
        i % 2 == 0 ? Verdict::kRejected : Verdict::kShuttingDown;
    double delay = policy.NextDelayMs(verdict, /*retry_after_ms=*/1e9);
    EXPECT_GE(delay, kBase);
    EXPECT_LE(delay, kCap);
  }
  // Budget spent: further refusals are surrendered, not slept on.
  EXPECT_LT(policy.NextDelayMs(Verdict::kRejected, 1), 0);
  EXPECT_EQ(policy.remaining(), 0);
  EXPECT_LE(policy.total_wait_ms(), kMaxRetries * kCap);
  EXPECT_GE(policy.total_wait_ms(), kMaxRetries * kBase);
}

TEST(ServerUpdateTest, AppliesUpdateBatchOverTcp) {
  Fixture fx(4);
  Client client = fx.Connected();

  // Baseline: 4 groups -> 4 matches.
  util::StatusOr<QueryResponse> baseline = client.Query(GroupRequest());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->match_count, 4u);

  // Graft a fifth a(b(c)) group under the root. GroupDoc has consecutive
  // labels (no gap), so this exercises the relabel + rebuild path end to
  // end through the wire.
  server::UpdateRequest update;
  server::UpdateRequest::Op op;
  op.kind = 0;
  op.target_tag = "r";
  op.target_start = 1;
  op.fragment = "<a><b><c/></b></a>";
  update.ops.push_back(op);

  util::StatusOr<server::UpdateResponse> response = client.Update(update);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kOk) << response->error;
  EXPECT_EQ(response->applied, 1u);
  EXPECT_TRUE(response->failed.empty());
  EXPECT_TRUE(response->relabeled);
  EXPECT_GT(response->txn_epoch, 0u);
  EXPECT_GT(response->fully_rebuilt, 0u);
  EXPECT_GE(response->server_ms, 0.0);

  // The same connection immediately queries the new epoch.
  util::StatusOr<QueryResponse> after = client.Query(GroupRequest());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->verdict, Verdict::kOk) << after->error;
  EXPECT_EQ(after->match_count, 5u);
}

TEST(ServerUpdateTest, MalformedFragmentRejectsWholeBatchTyped) {
  Fixture fx(2);
  Client client = fx.Connected();

  server::UpdateRequest update;
  server::UpdateRequest::Op op;
  op.kind = 0;
  op.target_tag = "r";
  op.target_start = 1;
  op.fragment = "<a><b>";  // unclosed
  update.ops.push_back(op);

  util::StatusOr<server::UpdateResponse> response = client.Update(update);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kError);
  EXPECT_NE(response->error.find("bad fragment"), std::string::npos)
      << response->error;
  EXPECT_EQ(response->applied, 0u);

  // Nothing was half-applied and the server still serves.
  util::StatusOr<QueryResponse> query = client.Query(GroupRequest());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->match_count, 2u);
}

TEST(ServerUpdateTest, OverQuotaUpdateIsRetryableThroughPolicy) {
  ServerOptions options;
  options.quota_rate_per_sec = 0.25;  // sustains one call every 4s
  options.quota_burst = 1;
  Fixture fx(2, options);
  Client client = fx.Connected();

  server::UpdateRequest update;
  update.tenant = "t";
  server::UpdateRequest::Op op;
  op.kind = 0;
  op.target_tag = "r";
  op.target_start = 1;
  op.fragment = "<a><b><c/></b></a>";
  update.ops.push_back(op);

  util::StatusOr<server::UpdateResponse> first = client.Update(update);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->verdict, Verdict::kOk) << first->error;

  // The burst is spent: the second update is refused with a Retry-After
  // hint, which the retry policy turns into one bounded, clamped delay.
  util::StatusOr<server::UpdateResponse> second = client.Update(update);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->verdict, Verdict::kRejected);
  EXPECT_GT(second->retry_after_ms, 0.0);

  server::RefusalRetryPolicy policy(/*max_retries=*/3, /*base_ms=*/5,
                                    /*cap_ms=*/50, /*seed=*/7);
  ASSERT_TRUE(server::RefusalRetryPolicy::Retryable(second->verdict));
  double delay = policy.NextDelayMs(second->verdict, second->retry_after_ms);
  EXPECT_GE(delay, 5.0);
  EXPECT_LE(delay, 50.0);  // clamped even if the hint says seconds
}

TEST(ServerUpdateTest, UpdateDuringDrainIsShuttingDownNotHalfApplied) {
  Fixture fx(2);
  Client client = fx.Connected();
  ASSERT_TRUE(client.Query(GroupRequest()).ok());

  std::thread drainer([&] { fx.server->Drain(); });
  // Wait until the server has entered the draining state.
  while (!fx.server->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server::UpdateRequest update;
  server::UpdateRequest::Op op;
  op.kind = 0;
  op.target_tag = "r";
  op.target_start = 1;
  op.fragment = "<a><b><c/></b></a>";
  update.ops.push_back(op);
  util::StatusOr<server::UpdateResponse> refused = client.Update(update);
  if (refused.ok()) {
    EXPECT_EQ(refused->verdict, Verdict::kShuttingDown);
    EXPECT_GT(refused->retry_after_ms, 0.0);
    EXPECT_EQ(refused->applied, 0u);
    EXPECT_TRUE(server::RefusalRetryPolicy::Retryable(refused->verdict));
  } else {
    // The keep-alive connection may already have been torn down by drain;
    // a transport error is the other legal outcome, never a half-applied
    // batch.
    EXPECT_FALSE(refused.ok());
  }
  drainer.join();
  // The document was never touched: still 2 groups' worth of structure.
  EXPECT_EQ(fx.doc.NodesOfTag(fx.doc.FindTag("a")).size(), 2u);
}

}  // namespace
}  // namespace viewjoin

int main(int argc, char** argv) {
  // Simulated slow page reads (sleep mode) make the drain-test queries take
  // hundreds of milliseconds — must be armed before the pager's first read
  // caches the knobs. The small-document tests barely notice (their few
  // pages are read once and then served from the pool). Sized so the slow
  // query outlives the 100ms drain budget even with delta-compressed lists
  // reading ~4x fewer pages than the fixed format.
  setenv("VIEWJOIN_PAGE_READ_MICROS", "8000", /*overwrite=*/1);
  setenv("VIEWJOIN_PAGE_READ_SLEEP", "1", /*overwrite=*/1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
