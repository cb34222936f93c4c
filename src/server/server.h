#ifndef VIEWJOIN_SERVER_SERVER_H_
#define VIEWJOIN_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/net.h"
#include "server/token_bucket.h"
#include "server/wire.h"
#include "util/status.h"

namespace viewjoin::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Worker threads, each holding one Engine::Session.
  size_t workers = 4;
  /// Queued-connection high water: an accept that would push the pending
  /// queue past this is answered kRejected with a Retry-After hint and
  /// closed, before its request is even read (load shedding).
  size_t max_pending = 16;
  /// Retry-After hint handed to shed clients, in milliseconds.
  double shed_retry_after_ms = 100;
  /// Per-operation socket deadlines (the slowloris defense): a peer that
  /// cannot deliver a frame within the read deadline is disconnected.
  double read_deadline_ms = 2000;
  double write_deadline_ms = 2000;
  /// During drain, new socket reads use this much shorter deadline so idle
  /// keep-alive connections cannot stretch the drain.
  double drain_read_deadline_ms = 100;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Query deadline defaulting/clamping: a request with deadline_ms == 0
  /// gets the default; every request is clamped to the max.
  double default_deadline_ms = 10000;
  double max_deadline_ms = 60000;
  /// Per-tenant token-bucket quota (<= 0 disables): sustained queries/sec
  /// and burst allowance. Over quota is a typed kRejected with Retry-After,
  /// layered *above* the engine's own admission control.
  double quota_rate_per_sec = 0;
  double quota_burst = 10;
  /// Per-query intermediate-solution budget in bytes (0 = unlimited).
  uint64_t per_query_memory_budget = 0;
  /// Memory high water in bytes (0 = off): when admitted queries' committed
  /// budgets (in_flight x per_query_memory_budget) would cross it, new
  /// connections are shed at accept time.
  uint64_t memory_high_water_bytes = 0;
  /// Engine-side bounded retry for transient storage faults.
  core::RetryPolicy retry = {
      .max_retries = 2, .backoff_ms = 1.0, .backoff_cap_ms = 50.0};
  /// Serving prefers a bounded, typed failure over the base-document
  /// fallback's unbounded full scan; flip for availability-over-latency.
  bool allow_base_fallback = false;
  /// Graceful-drain budget: in-flight queries still running this long after
  /// Drain() starts are watchdog-aborted (kCancelled) so drain always
  /// terminates.
  double drain_deadline_ms = 5000;
  /// Default destination for triggered hot backups (SIGUSR2 or a
  /// kBackupRequest with an empty dest_dir); "" = backups must name a
  /// directory explicitly.
  std::string backup_dir;
  /// Copy pacing for hot backups in bytes/sec (0 = unthrottled). Servers
  /// wire VIEWJOIN_BACKUP_RATE_BYTES through here so a backup cannot starve
  /// the serving I/O path.
  uint64_t backup_rate_bytes = 0;
  /// Idempotency dedup window: the committed responses of the most recent N
  /// tokened update batches are kept, so a client retry with the same token
  /// replays the response instead of double-applying (0 disables; wired from
  /// VIEWJOIN_UPDATE_DEDUP_WINDOW).
  size_t update_dedup_window = 64;
};

/// A long-lived multi-tenant query server over one Engine.
///
/// Threads: one blocking accept loop, `workers` worker threads (each owning
/// an Engine::Session), and one watchdog that fires query deadlines on stuck
/// workers and enforces the drain budget. Connections are keep-alive: a
/// worker serves one connection's requests to completion before taking the
/// next from the pending queue.
///
/// Overload behavior is "reject fast, typed": per-tenant quota exhaustion,
/// queue high water and memory high water all produce an immediate
/// QueryResponse{kRejected, retry_after_ms} — never a hang, never a silent
/// close.
///
/// Lifecycle: Start() → serving → Drain() (graceful: stop accepting, answer
/// queued/late requests with kShuttingDown, finish or deadline-abort
/// in-flight, close the catalog crash-safely) → stopped. HardKill() (the
/// double-signal path) aborts in-flight work immediately; a Drain() blocked
/// on stubborn queries unblocks and completes. All three are safe to call
/// from threads other than the owner's.
class QueryServer {
 public:
  QueryServer(core::Engine* engine, const ServerOptions& options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds the listener and spawns the serving threads.
  util::Status Start();

  /// The bound port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

  /// Graceful shutdown; blocks until the server is fully stopped and the
  /// engine's catalog is closed. Returns true when every in-flight query
  /// finished inside the drain budget (no watchdog abort, no hard kill).
  /// Idempotent; concurrent callers all block until done.
  bool Drain();

  /// Immediate abort of all in-flight work (does not block; pair with
  /// Drain() to finish teardown).
  void HardKill();

  bool draining() const {
    return state_.load(std::memory_order_acquire) >= State::kDraining;
  }

  /// Point-in-time health/readiness counters.
  StatusResponse Snapshot() const;

  /// Takes an online hot backup into `dest_dir` ("" = options.backup_dir)
  /// while the server keeps serving — the SIGUSR2 handler and the
  /// kBackupRequest admin frame both land here. Refused typed while
  /// draining; Drain() waits out an in-flight backup before closing the
  /// catalog, so the drain guarantees are unchanged. The copy is paced by
  /// options.backup_rate_bytes.
  BackupResponse TriggerBackup(const std::string& dest_dir = "");

 private:
  enum class State : int { kIdle = 0, kServing = 1, kDraining = 2, kStopped = 3 };

  void AcceptLoop();
  void WorkerLoop(size_t worker_id);
  void WatchdogLoop();

  /// Sheds `conn` at accept time with a typed kRejected, before reading its
  /// request (respond → half-close → drain unread bytes → close).
  void Shed(Conn conn, const char* why);

  /// Serves one connection's requests until EOF, timeout, error, or drain.
  void ServeConn(Conn conn, core::Engine::Session* session);

  QueryResponse HandleQuery(const QueryRequest& request,
                            core::Engine::Session* session);

  /// Applies one live-document update batch through the engine (atomic view
  /// epoch bump; see core::Engine::ApplyUpdates). Shares the tenant quota
  /// bucket with queries, and is refused typed (kShuttingDown) during drain.
  /// Requests carrying an idempotency token are answered from the dedup
  /// window when the same token already committed — exactly-once under
  /// client retries.
  UpdateResponse HandleUpdate(const UpdateRequest& request);

  /// The apply path under HandleUpdate's dedup wrapper: admission checks,
  /// fragment parsing, and the engine transaction.
  UpdateResponse ApplyUpdateRequest(const UpdateRequest& request);

  /// Resolves a view pattern to a materialized view, materializing on first
  /// use (cached by scheme + pattern).
  util::StatusOr<const storage::MaterializedView*> ResolveView(
      const std::string& pattern, storage::Scheme scheme);

  double EffectiveReadDeadline() const;
  static int64_t NowNanos();

  core::Engine* engine_;
  const ServerOptions options_;
  TenantQuotas quotas_;

  Listener listener_;
  std::atomic<State> state_{State::kIdle};
  std::atomic<bool> hard_killed_{false};
  /// Set once drain begins; the watchdog aborts in-flight queries past it.
  std::atomic<int64_t> drain_deadline_ns_{0};
  /// True when the drain watchdog had to abort a still-running query.
  std::atomic<bool> drain_forced_{false};

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::thread watchdog_;
  std::vector<std::unique_ptr<core::Engine::Session>> sessions_;

  mutable std::mutex mu_;  // guards pending_
  std::condition_variable cv_;
  std::deque<Conn> pending_;

  mutable std::mutex views_mu_;  // guards view_cache_, serializes materialize
  std::map<std::string, const storage::MaterializedView*> view_cache_;

  /// Serializes Drain()'s teardown so concurrent Drain callers are safe.
  std::mutex drain_mu_;
  bool drained_ = false;
  bool drain_clean_ = false;

  /// Serializes tokened update batches end to end (dedup lookup → engine
  /// apply → dedup insert), making the exactly-once window airtight against
  /// two concurrent retries of the same token. Update batches are already
  /// serialized inside the engine, so this costs no parallelism.
  std::mutex dedup_mu_;
  /// token → committed response, bounded FIFO of options_.update_dedup_window.
  std::map<std::string, UpdateResponse> dedup_cache_;
  std::deque<std::string> dedup_order_;

  /// Backups in flight (0 or 1 in practice; the engine serializes them).
  /// Drain() waits for this to reach zero before closing the catalog.
  std::atomic<uint64_t> backups_in_flight_{0};
  mutable std::mutex backup_status_mu_;  // guards last_backup_error_
  std::string last_backup_error_;

  // Counters (see StatusResponse).
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> rejected_quota_{0};
  std::atomic<uint64_t> rejected_shed_{0};
  std::atomic<uint64_t> rejected_draining_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> frame_errors_{0};
  std::atomic<uint64_t> backups_completed_{0};
  std::atomic<uint64_t> backups_failed_{0};
  std::atomic<uint64_t> update_dedup_hits_{0};
  std::atomic<uint64_t> resource_exhausted_{0};
};

}  // namespace viewjoin::server

#endif  // VIEWJOIN_SERVER_SERVER_H_
