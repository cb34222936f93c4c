#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "tpq/pattern.h"
#include "util/check.h"
#include "xml/parser.h"

namespace viewjoin::server {

namespace {

constexpr auto kWatchdogTick = std::chrono::milliseconds(5);

QueryResponse ErrorResponse(std::string message) {
  QueryResponse response;
  response.verdict = Verdict::kError;
  response.error = std::move(message);
  return response;
}

}  // namespace

QueryServer::QueryServer(core::Engine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      quotas_(options.quota_rate_per_sec, options.quota_burst) {}

QueryServer::~QueryServer() {
  if (state_.load(std::memory_order_acquire) == State::kServing ||
      state_.load(std::memory_order_acquire) == State::kDraining) {
    Drain();
  }
}

int64_t QueryServer::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double QueryServer::EffectiveReadDeadline() const {
  return draining() ? options_.drain_read_deadline_ms
                    : options_.read_deadline_ms;
}

util::Status QueryServer::Start() {
  VJ_CHECK(state_.load() == State::kIdle) << "server already started";
  util::StatusOr<Listener> bound = Listener::Bind(options_.port);
  if (!bound.ok()) return bound.status();
  listener_ = std::move(*bound);

  size_t workers = std::max<size_t>(options_.workers, 1);
  sessions_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    sessions_.push_back(std::make_unique<core::Engine::Session>(engine_, i));
  }

  state_.store(State::kServing, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  worker_threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  return util::Status::Ok();
}

void QueryServer::AcceptLoop() {
  while (true) {
    util::StatusOr<Conn> conn = listener_.Accept();
    if (!conn.ok()) return;  // listener shut down: drain step 1

    // Load shedding happens here, before the request is read: a saturated
    // server answers "come back later" in O(1) instead of queueing work it
    // cannot serve within any deadline. The count, the verdict and the
    // enqueue share one critical section, so a status snapshot never sees
    // a connection accepted but neither queued, claimed nor shed.
    const char* shed = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      const size_t depth = pending_.size();
      if (depth >= options_.max_pending) {
        shed = "pending-connection queue at high water";
      } else if (options_.memory_high_water_bytes > 0 &&
                 options_.per_query_memory_budget > 0 &&
                 (in_flight_.load(std::memory_order_relaxed) + depth + 1) *
                         options_.per_query_memory_budget >
                     options_.memory_high_water_bytes) {
        shed = "memory budget at high water";
      } else {
        pending_.push_back(std::move(*conn));
      }
      if (shed != nullptr) {
        rejected_shed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (shed != nullptr) {
      Shed(std::move(*conn), shed);
      continue;
    }
    cv_.notify_one();
  }
}

void QueryServer::Shed(Conn conn, const char* why) {
  QueryResponse response;
  response.verdict = Verdict::kRejected;
  response.error = std::string("shed: ") + why;
  response.retry_after_ms = options_.shed_retry_after_ms;
  conn.set_write_deadline_ms(options_.write_deadline_ms);
  if (conn.SendFrame(EncodeQueryResponse(response), options_.max_frame_bytes)
          .ok()) {
    // The peer is about to send (or already sent) a request we never read;
    // a plain close would RST our response out of its receive buffer.
    conn.FinishAndDrain(options_.write_deadline_ms);
  }
}

void QueryServer::WorkerLoop(size_t worker_id) {
  core::Engine::Session* session = sessions_[worker_id].get();
  while (true) {
    Conn conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !pending_.empty() ||
               state_.load(std::memory_order_acquire) >= State::kDraining;
      });
      if (pending_.empty()) return;  // draining and nothing left to answer
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConn(std::move(conn), session);
  }
}

void QueryServer::ServeConn(Conn conn, core::Engine::Session* session) {
  conn.set_write_deadline_ms(options_.write_deadline_ms);
  while (conn.valid()) {
    conn.set_read_deadline_ms(EffectiveReadDeadline());
    util::StatusOr<std::string> frame = conn.RecvFrame(options_.max_frame_bytes);
    if (!frame.ok()) {
      if (IsPeerClosed(frame.status())) return;  // orderly keep-alive end
      if (IsTimeout(frame.status())) {
        // Slowloris reaping while serving; during drain it is just an idle
        // keep-alive connection being retired.
        if (!draining()) read_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      // A decodable transport (bad magic, over-cap frame) still gets a typed
      // answer before the disconnect; a dead socket just closes.
      conn.SendFrame(EncodeQueryResponse(ErrorResponse(
                         frame.status().ToString())),
                     options_.max_frame_bytes);
      return;
    }

    util::StatusOr<MsgType> type = PeekType(*frame);
    if (!type.ok()) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.SendFrame(
          EncodeQueryResponse(ErrorResponse(type.status().ToString())),
          options_.max_frame_bytes);
      return;
    }

    if (*type == MsgType::kStatusRequest) {
      if (!conn.SendFrame(EncodeStatusResponse(Snapshot()),
                          options_.max_frame_bytes)
               .ok()) {
        return;
      }
      continue;
    }
    if (*type == MsgType::kBackupRequest) {
      BackupRequest backup;
      util::Status backup_decoded = DecodeBackupRequest(*frame, &backup);
      if (!backup_decoded.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        conn.SendFrame(
            EncodeQueryResponse(ErrorResponse(backup_decoded.ToString())),
            options_.max_frame_bytes);
        return;
      }
      if (!conn.SendFrame(EncodeBackupResponse(TriggerBackup(backup.dest_dir)),
                          options_.max_frame_bytes)
               .ok()) {
        return;
      }
      continue;
    }
    if (*type == MsgType::kUpdateRequest) {
      UpdateRequest update;
      util::Status update_decoded = DecodeUpdateRequest(*frame, &update);
      if (!update_decoded.ok()) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        conn.SendFrame(
            EncodeQueryResponse(ErrorResponse(update_decoded.ToString())),
            options_.max_frame_bytes);
        return;
      }
      if (!conn.SendFrame(EncodeUpdateResponse(HandleUpdate(update)),
                          options_.max_frame_bytes)
               .ok()) {
        return;
      }
      continue;
    }
    if (*type != MsgType::kQueryRequest) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.SendFrame(EncodeQueryResponse(
                         ErrorResponse("unexpected message type")),
                     options_.max_frame_bytes);
      return;
    }

    QueryRequest request;
    util::Status decoded = DecodeQueryRequest(*frame, &request);
    if (!decoded.ok()) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.SendFrame(EncodeQueryResponse(ErrorResponse(decoded.ToString())),
                     options_.max_frame_bytes);
      return;
    }

    QueryResponse response = HandleQuery(request, session);
    if (!conn.SendFrame(EncodeQueryResponse(response),
                        options_.max_frame_bytes)
             .ok()) {
      return;
    }
  }
}

util::StatusOr<const storage::MaterializedView*> QueryServer::ResolveView(
    const std::string& pattern, storage::Scheme scheme) {
  std::string key =
      std::string(storage::SchemeName(scheme)) + "|" + pattern;
  std::lock_guard<std::mutex> lock(views_mu_);
  auto it = view_cache_.find(key);
  if (it != view_cache_.end()) return it->second;
  // First use: materialize through the engine (one-time preprocessing, like
  // AddView at startup). Serialized by views_mu_ so concurrent workers
  // requesting the same new view build it once.
  util::StatusOr<const storage::MaterializedView*> made =
      engine_->TryAddView(pattern, scheme);
  if (!made.ok()) return made.status();
  view_cache_.emplace(std::move(key), *made);
  return *made;
}

QueryResponse QueryServer::HandleQuery(const QueryRequest& request,
                                       core::Engine::Session* session) {
  QueryResponse response;
  if (draining()) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    response.verdict = Verdict::kShuttingDown;
    response.error = "server is draining";
    response.retry_after_ms = options_.drain_deadline_ms;
    return response;
  }

  double retry_after = 0;
  if (!quotas_.TryAcquire(request.tenant, NowNanos(), &retry_after)) {
    rejected_quota_.fetch_add(1, std::memory_order_relaxed);
    response.verdict = Verdict::kRejected;
    response.error = "tenant '" + request.tenant + "' over quota";
    response.retry_after_ms = retry_after;
    return response;
  }

  std::string parse_error;
  std::optional<tpq::TreePattern> query =
      tpq::TreePattern::Parse(request.query, &parse_error);
  if (!query.has_value()) {
    return ErrorResponse("bad query '" + request.query + "': " + parse_error);
  }
  std::optional<storage::Scheme> scheme = storage::ParseScheme(request.scheme);
  if (!scheme.has_value()) {
    return ErrorResponse("bad scheme '" + request.scheme + "'");
  }
  std::optional<core::Algorithm> algorithm =
      core::ParseAlgorithm(request.algorithm);
  if (!algorithm.has_value()) {
    return ErrorResponse("bad algorithm '" + request.algorithm + "'");
  }

  std::vector<const storage::MaterializedView*> views;
  views.reserve(request.views.size());
  for (const std::string& pattern : request.views) {
    util::StatusOr<const storage::MaterializedView*> view =
        ResolveView(pattern, *scheme);
    if (!view.ok()) {
      return ErrorResponse("bad view '" + pattern +
                           "': " + view.status().ToString());
    }
    views.push_back(*view);
  }

  core::RunOptions run;
  run.algorithm = *algorithm;
  run.cold_cache = false;
  run.deadline_ms = request.deadline_ms > 0 ? request.deadline_ms
                                            : options_.default_deadline_ms;
  if (options_.max_deadline_ms > 0) {
    run.deadline_ms = std::min(run.deadline_ms, options_.max_deadline_ms);
  }
  run.memory_budget_bytes = options_.per_query_memory_budget;
  run.allow_base_fallback = options_.allow_base_fallback;

  in_flight_.fetch_add(1, std::memory_order_relaxed);
  core::RunResult result = session->Run(*query, views, run, options_.retry);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  queries_served_.fetch_add(1, std::memory_order_relaxed);

  if (result.ok) {
    response.verdict = Verdict::kOk;
  } else if (result.timed_out) {
    response.verdict = Verdict::kTimeout;
    response.error = result.error;
  } else if (result.cancelled) {
    // The only canceller here is the drain watchdog (clients have no cancel
    // channel yet), so tell the client the truth about why.
    response.verdict = Verdict::kCancelled;
    response.error = draining() ? "cancelled by drain" : result.error;
  } else {
    response.verdict = Verdict::kError;
    response.error = result.error;
  }
  response.match_count = result.match_count;
  response.result_hash = result.result_hash;
  response.server_ms = result.total_ms;
  response.degraded = result.degraded;
  response.pages_read = result.io.pages_read;
  response.attempts = static_cast<uint32_t>(result.attempts);
  return response;
}

UpdateResponse QueryServer::HandleUpdate(const UpdateRequest& request) {
  const bool tokened =
      !request.token.empty() && options_.update_dedup_window > 0;
  if (!tokened) return ApplyUpdateRequest(request);

  // Exactly-once under retries: lookup, apply, and cache-insert happen under
  // one lock, so a second in-flight retry of the same token cannot slip past
  // the lookup before the first commits. Update batches are serialized
  // inside the engine anyway, so this serialization costs nothing.
  std::lock_guard<std::mutex> dedup_lock(dedup_mu_);
  auto it = dedup_cache_.find(request.token);
  if (it != dedup_cache_.end()) {
    update_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;  // replay the committed response; nothing re-applies
  }
  UpdateResponse response = ApplyUpdateRequest(request);
  // Only committed batches enter the window: a refused or failed batch did
  // not apply, so the client's retry with the same token must run for real.
  if (response.verdict == Verdict::kOk) {
    dedup_cache_.emplace(request.token, response);
    dedup_order_.push_back(request.token);
    while (dedup_order_.size() > options_.update_dedup_window) {
      dedup_cache_.erase(dedup_order_.front());
      dedup_order_.pop_front();
    }
  }
  return response;
}

UpdateResponse QueryServer::ApplyUpdateRequest(const UpdateRequest& request) {
  UpdateResponse response;
  if (draining()) {
    // An update refused mid-drain must NOT be half-accepted: the catalog is
    // about to be closed crash-safely, and a transaction racing that close is
    // the corruption this server exists to prevent.
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    response.verdict = Verdict::kShuttingDown;
    response.error = "server is draining";
    response.retry_after_ms = options_.drain_deadline_ms;
    return response;
  }

  double retry_after = 0;
  if (!quotas_.TryAcquire(request.tenant, NowNanos(), &retry_after)) {
    rejected_quota_.fetch_add(1, std::memory_order_relaxed);
    response.verdict = Verdict::kRejected;
    response.error = "tenant '" + request.tenant + "' over quota";
    response.retry_after_ms = retry_after;
    return response;
  }

  // Fragment parsing happens here, before any document mutation: a batch
  // with a malformed fragment is refused whole rather than partially applied
  // up to the bad op.
  std::vector<core::UpdateOp> ops;
  ops.reserve(request.ops.size());
  for (size_t i = 0; i < request.ops.size(); ++i) {
    const UpdateRequest::Op& wire_op = request.ops[i];
    core::UpdateOp op;
    op.kind = wire_op.kind == 0 ? core::UpdateOp::Kind::kInsertSubtree
                                : core::UpdateOp::Kind::kDeleteSubtree;
    op.target_tag = wire_op.target_tag;
    op.target_start = wire_op.target_start;
    op.after_tag = wire_op.after_tag;
    op.after_start = wire_op.after_start;
    if (op.kind == core::UpdateOp::Kind::kInsertSubtree) {
      xml::ParseResult parsed = xml::ParseDocument(wire_op.fragment);
      if (!parsed.ok()) {
        response.verdict = Verdict::kError;
        response.error = "op " + std::to_string(i) +
                         ": bad fragment: " + parsed.error;
        return response;
      }
      op.subtree = xml::SpecFromDocument(*parsed.document);
    }
    ops.push_back(std::move(op));
  }

  const int64_t start_ns = NowNanos();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  util::StatusOr<core::UpdateResult> result = engine_->ApplyUpdates(ops);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  response.server_ms = static_cast<double>(NowNanos() - start_ns) / 1e6;

  if (!result.ok()) {
    if (result.status().code() == util::StatusCode::kResourceExhausted) {
      // Disk full: the batch aborted cleanly (no torn page, no orphan file)
      // and reads keep serving; surface the pressure in the status snapshot.
      resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
    }
    response.verdict = Verdict::kError;
    response.error = result.status().ToString();
    return response;
  }
  response.verdict = Verdict::kOk;
  response.applied = result->applied;
  response.failed = result->failed;
  response.relabeled = result->relabeled;
  response.txn_epoch = result->txn_epoch;
  response.delta_maintained = result->delta_maintained;
  response.fully_rebuilt = result->fully_rebuilt;
  return response;
}

BackupResponse QueryServer::TriggerBackup(const std::string& dest_dir) {
  BackupResponse response;
  // Claim an in-flight slot before the drain check: Drain() flips state
  // first and then waits for this counter, so either we see the drain and
  // refuse, or the drain sees us and waits — never a backup racing the
  // catalog close.
  backups_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (draining()) {
    backups_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    response.verdict = Verdict::kShuttingDown;
    response.error = "server is draining";
    return response;
  }
  const std::string dir = dest_dir.empty() ? options_.backup_dir : dest_dir;
  if (dir.empty()) {
    backups_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    backups_failed_.fetch_add(1, std::memory_order_relaxed);
    response.verdict = Verdict::kError;
    response.error = "no backup directory: request named none and the server "
                     "has no --backup-dir configured";
    return response;
  }

  const int64_t start_ns = NowNanos();
  util::StatusOr<storage::BackupReport> report =
      engine_->CreateBackup(dir, options_.backup_rate_bytes);
  response.server_ms = static_cast<double>(NowNanos() - start_ns) / 1e6;
  backups_in_flight_.fetch_sub(1, std::memory_order_acq_rel);

  if (!report.ok()) {
    if (report.status().code() == util::StatusCode::kResourceExhausted) {
      resource_exhausted_.fetch_add(1, std::memory_order_relaxed);
    }
    backups_failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(backup_status_mu_);
    last_backup_error_ = report.status().ToString();
    response.verdict = Verdict::kError;
    response.error = last_backup_error_;
    return response;
  }
  backups_completed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(backup_status_mu_);
    last_backup_error_.clear();
  }
  response.verdict = Verdict::kOk;
  response.directory = report->directory;
  response.epoch = report->epoch;
  response.view_pages = report->view_page_count;
  response.bytes_copied = report->bytes_copied;
  return response;
}

void QueryServer::WatchdogLoop() {
  while (state_.load(std::memory_order_acquire) != State::kStopped) {
    std::this_thread::sleep_for(kWatchdogTick);
    // Cooperative checkpoints cannot run while a worker sits inside a long
    // page read; expired deadlines are fired from here.
    for (const std::unique_ptr<core::Engine::Session>& session : sessions_) {
      session->governance()->FireIfExpired();
    }
    int64_t drain_deadline = drain_deadline_ns_.load(std::memory_order_acquire);
    if (drain_deadline != 0 && NowNanos() >= drain_deadline) {
      // Drain budget exhausted: abort whatever is still running so drain
      // always terminates. The aborted queries answer kCancelled.
      if (in_flight_.load(std::memory_order_relaxed) > 0) {
        drain_forced_.store(true, std::memory_order_relaxed);
      }
      for (const std::unique_ptr<core::Engine::Session>& session : sessions_) {
        session->governance()->RequestAbort(algo::AbortReason::kCancelled);
      }
    }
  }
}

void QueryServer::HardKill() {
  hard_killed_.store(true, std::memory_order_release);
  // Pull the drain deadline to "now": the watchdog's next tick aborts all
  // in-flight queries. Workers never have their sockets yanked from under
  // them (fd-reuse races); bounded op deadlines get them out on their own.
  drain_deadline_ns_.store(1, std::memory_order_release);
  for (const std::unique_ptr<core::Engine::Session>& session : sessions_) {
    session->governance()->RequestAbort(algo::AbortReason::kCancelled);
  }
  listener_.Shutdown();
  State expected = State::kServing;
  state_.compare_exchange_strong(expected, State::kDraining);
  {
    std::lock_guard<std::mutex> lock(mu_);
  }
  cv_.notify_all();
}

bool QueryServer::Drain() {
  State state = state_.load(std::memory_order_acquire);
  if (state == State::kIdle) {
    state_.store(State::kStopped, std::memory_order_release);
    return true;
  }

  State expected = State::kServing;
  if (state_.compare_exchange_strong(expected, State::kDraining)) {
    drain_deadline_ns_.store(
        NowNanos() + static_cast<int64_t>(options_.drain_deadline_ms * 1e6),
        std::memory_order_release);
    listener_.Shutdown();  // step 1: stop accepting; unblocks AcceptLoop
    {
      // Empty critical section: a worker between its predicate check and its
      // wait must not miss the state change.
      std::lock_guard<std::mutex> lock(mu_);
    }
    cv_.notify_all();
  }

  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_) return drain_clean_;

  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : worker_threads_) {
    if (worker.joinable()) worker.join();
  }
  state_.store(State::kStopped, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();

  // A backup that won the race against the drain flag finishes before the
  // catalog closes under it (TriggerBackup claims its slot before checking
  // the state, so this wait cannot miss one).
  while (backups_in_flight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(kWatchdogTick);
  }

  // Step 3: quiesce the background scrubber before touching the catalog —
  // a heal racing a closing catalog is exactly the kind of shutdown race
  // this server exists to not have.
  engine_->scrubber()->Stop();
  util::Status closed = engine_->catalog()->Close();

  drain_clean_ = closed.ok() &&
                 !drain_forced_.load(std::memory_order_acquire) &&
                 !hard_killed_.load(std::memory_order_acquire);
  drained_ = true;
  return drain_clean_;
}

StatusResponse QueryServer::Snapshot() const {
  StatusResponse status;
  State state = state_.load(std::memory_order_acquire);
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = pending_.size();
    status.connections_accepted =
        connections_accepted_.load(std::memory_order_relaxed);
  }
  status.healthy = true;
  status.draining = state >= State::kDraining;
  status.in_flight = in_flight_.load(std::memory_order_relaxed);
  status.queued_connections = depth;
  bool memory_ok = true;
  if (options_.memory_high_water_bytes > 0 &&
      options_.per_query_memory_budget > 0) {
    memory_ok = (status.in_flight + depth + 1) *
                    options_.per_query_memory_budget <=
                options_.memory_high_water_bytes;
  }
  status.ready =
      state == State::kServing && depth < options_.max_pending && memory_ok;
  status.queries_served = queries_served_.load(std::memory_order_relaxed);
  status.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  status.rejected_shed = rejected_shed_.load(std::memory_order_relaxed);
  status.rejected_draining =
      rejected_draining_.load(std::memory_order_relaxed);
  status.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  status.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(views_mu_);
    status.views_cached = view_cache_.size();
  }
  status.backups_completed = backups_completed_.load(std::memory_order_relaxed);
  status.backups_failed = backups_failed_.load(std::memory_order_relaxed);
  status.update_dedup_hits =
      update_dedup_hits_.load(std::memory_order_relaxed);
  status.resource_exhausted =
      resource_exhausted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(backup_status_mu_);
    status.last_backup_error = last_backup_error_;
  }
  return status;
}

}  // namespace viewjoin::server
