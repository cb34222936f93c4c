#ifndef VIEWJOIN_CORE_ENGINE_H_
#define VIEWJOIN_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "algo/holistic_stats.h"
#include "algo/query_context.h"
#include "plan/algorithm.h"
#include "plan/physical_plan.h"
#include "plan/plan_cache.h"
#include "storage/backup.h"
#include "storage/document_store.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/scrubber.h"
#include "tpq/pattern.h"
#include "util/status.h"
#include "view/selection.h"
#include "xml/document.h"
#include "xml/statistics.h"

namespace viewjoin::core {

/// Evaluation algorithm (paper Table I's columns, plus kAuto, which hands
/// the choice to the cost-based planner). Lives in plan/algorithm.h; aliased
/// here so the engine's historical spelling (core::Algorithm) keeps working.
using Algorithm = plan::Algorithm;
using plan::AlgorithmName;
using plan::ParseAlgorithm;

/// The public facade: owns a document's materialized-view store and runs
/// queries against covering view sets with any algorithm × scheme combo.
///
///   Engine engine(&doc, "/tmp/views.db");
///   auto* v1 = engine.AddView("//item//text//keyword", Scheme::kLinkedElement);
///   auto* v2 = engine.AddView("//bold", Scheme::kLinkedElement);
///   RunResult r = engine.Execute(*query, {v1, v2},
///                                     {.algorithm = Algorithm::kViewJoin});
/// Where the base document's element streams live during evaluation.
enum class DocMode {
  /// The in-memory document's tag-list vectors serve base scans (seed
  /// behavior, bit-identical results by construction).
  kMemory,
  /// A paged DocumentStore ("<storage_path>.doc") serves base scans through
  /// pinned buffer-pool pages — the out-of-core path for documents bigger
  /// than RAM. The in-memory document remains the update/NodeId-resolution
  /// authority; only the label streams move to disk.
  kDisk,
};

struct EngineOptions {
  /// Buffer-pool capacity in 4 KiB pages.
  size_t pool_pages = 1024;
  /// Base-document stream placement (see DocMode).
  DocMode doc_mode = DocMode::kMemory;
  /// Buffer-pool frames of the document store (disk doc-mode only).
  size_t doc_pool_pages = 1024;
  /// In-memory budget of streaming document-store builds; beyond it the
  /// builder spills sorted runs (disk doc-mode only).
  size_t doc_parse_budget_bytes = size_t{64} << 20;
  /// Background read-ahead depth in pages (0 = off), applied to both the
  /// view catalog's and the document store's buffer pools.
  size_t readahead_pages = 0;
  /// Run the background integrity scrubber: every `scrub_interval_ms` it
  /// checksum-verifies up to `scrub_pages_per_step` view pages and
  /// quarantines + re-materializes any view with a corrupt page, so latent
  /// bit rot is healed before a query trips over it. Off by default; tests
  /// and tools can also drive engine.scrubber()->Step() synchronously.
  bool scrub = false;
  double scrub_interval_ms = 50;
  uint32_t scrub_pages_per_step = storage::Scrubber::kDefaultStepPages;
  /// Open the view store in persistent mode: installs are journaled through
  /// the crash-safe manifest, and reopening the same path recovers the
  /// catalog. Long-lived servers run persistent so a drain's catalog Close()
  /// leaves a store vj_fsck can vouch for.
  bool persistent = false;
};

/// Applies the strict environment knobs to `options` (util/env.h parsing):
///   VIEWJOIN_DOC_MODE         = "memory" | "disk"
///   VIEWJOIN_DOC_POOL_PAGES   = document-store buffer-pool frames
///   VIEWJOIN_PARSE_BUDGET     = doc-store build spill budget in bytes
///   VIEWJOIN_READAHEAD_PAGES  = background read-ahead depth (0 = off)
/// Unset variables leave their field untouched; malformed values are
/// rejected with a typed InvalidArgument naming the variable and value.
util::Status ApplyEnvOptions(EngineOptions* options);

struct RunOptions {
  Algorithm algorithm = Algorithm::kViewJoin;
  algo::OutputMode output_mode = algo::OutputMode::kMemory;
  /// Drop cached pages and reset I/O counters before running, so the
  /// reported I/O reflects a cold start (as the paper measures).
  bool cold_cache = true;
  /// Wall-clock deadline in milliseconds (0 = none). Enforced cooperatively
  /// at amortized checkpoints; an expired query stops within one checkpoint
  /// interval and returns RunResult::timed_out.
  double deadline_ms = 0;
  /// Cooperative cancellation token (may be flipped from any thread; nullptr
  /// = not cancellable). A cancelled query returns RunResult::cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Budget for buffered intermediate solutions, in bytes (0 = unlimited).
  /// Exceeding it in memory output mode degrades the query to disk-mode
  /// spilling; exceeding it again aborts with RESOURCE_EXHAUSTED.
  uint64_t memory_budget_bytes = 0;
  /// Budget for spilled intermediate solutions, in bytes of live spill file
  /// (0 = unlimited). Exceeding it aborts with RESOURCE_EXHAUSTED.
  uint64_t disk_budget_bytes = 0;
  /// When false, a view-store fault that outlasts quarantine + rebuild fails
  /// the query with a retryable error instead of silently answering from the
  /// base document — batch serving prefers bounded retry over the fallback's
  /// unbounded full-document scan.
  bool allow_base_fallback = true;
};

/// One query of an ExecuteBatch call: the pattern plus its covering views.
/// The pointed-to pattern must outlive the batch call.
struct BatchQuery {
  const tpq::TreePattern* query = nullptr;
  std::vector<const storage::MaterializedView*> views;
  /// Per-query deadline override in ms; < 0 inherits
  /// BatchOptions::run.deadline_ms.
  double deadline_ms = -1;
  /// Per-query cancellation token; overrides BatchOptions::run.cancel.
  const std::atomic<bool>* cancel = nullptr;
};

/// Bounded retry for queries that failed on a transient storage fault
/// (RunResult::retryable): up to `max_retries` re-executions with
/// decorrelated-jitter backoff — each delay is uniform in
/// [backoff_ms, min(backoff_cap_ms, 3 x previous delay)], so workers that
/// faulted together retry spread out instead of in lockstep (the
/// thundering-herd hazard of deterministic doubling). Deterministic failures
/// (bad bindings, budget exhaustion, deadline, cancel) are never retried.
struct RetryPolicy {
  int max_retries = 0;
  double backoff_ms = 1.0;
  double backoff_cap_ms = 100.0;
};

struct BatchOptions {
  /// Worker threads serving the batch (clamped to [1, queries.size()]).
  size_t threads = 4;
  /// Admission control: at most `threads + max_queued` queries are admitted;
  /// the overflow is returned immediately with BatchAdmission::kRejected and
  /// never executed (backpressure instead of unbounded queueing). The
  /// default admits everything.
  size_t max_queued = SIZE_MAX;
  /// Retry ladder applied to every admitted query.
  RetryPolicy retry;
  /// Per-query options. A deadline's clock starts when a worker picks the
  /// query up; it is enforced both cooperatively and by a watchdog thread
  /// that fires deadlines on workers stuck inside long page reads.
  /// `cold_cache` applies once to the whole batch (the pool is shared;
  /// dropping it per query would evict siblings' pages).
  RunOptions run;
};

/// Admission verdict of a batch query (see BatchOptions::max_queued).
enum class BatchAdmission {
  kAdmitted,
  kRejected,  // bounced by admission control; never executed
};

struct RunResult {
  bool ok = false;
  std::string error;
  /// Governance verdicts — they distinguish "stopped" from "failed": the
  /// query was healthy but ran into its deadline / cancellation token.
  /// Both imply ok == false with no matches reported.
  bool timed_out = false;
  bool cancelled = false;
  /// False for deterministic failures; true when the failure was a storage
  /// fault that a retry might not hit (the retry ladder keys on this).
  bool retryable = false;
  /// Admission verdict (always kAdmitted outside ExecuteBatch). Rejected
  /// queries carry no other information: they were never executed.
  BatchAdmission admission = BatchAdmission::kAdmitted;
  /// Execution attempts the retry ladder spent (1 = no retry).
  int attempts = 1;
  /// Peak bytes of buffered intermediate solutions charged against the
  /// memory budget (0 when the run was ungoverned and unbudgeted — the
  /// counter itself is always maintained, so this is also populated for
  /// deadline-only runs).
  uint64_t peak_memory_bytes = 0;
  /// Slow governance checkpoints performed (clock + token inspections; one
  /// per kCheckInterval advances).
  uint64_t checkpoints = 0;
  /// True when the answer was produced only after recovering from a storage
  /// fault: a corrupt view was quarantined and re-materialized, the spill
  /// spool was abandoned for in-memory buffering, or evaluation fell back to
  /// TwigStack over the base document. The match set is still exact.
  bool degraded = false;
  /// Patterns of the views quarantined during this call (empty when clean).
  std::vector<std::string> quarantined_views;
  /// Physical read retries absorbed by the pagers during this call.
  uint64_t retries = 0;
  uint64_t match_count = 0;
  /// Order-independent fingerprint of the match set (for differential
  /// testing across algorithms).
  uint64_t result_hash = 0;
  /// Total processing time (paper's "I/O time + CPU time").
  double total_ms = 0;
  /// Wall time spent inside page reads/writes (view store + spill).
  double io_ms = 0;
  storage::IoStats io;
  /// Evaluation counters, accumulated over every attempt this call made
  /// (recovery retries and the base fallback included), so they agree with
  /// the per-step plan stats below.
  algo::HolisticStats stats;
  /// The executed physical plan: resolved algorithm, rendered tree, and
  /// per-step stats whose columns sum exactly to this result's totals
  /// (total_ms, io.pages_read, stats.entries_scanned, stats.pointer_jumps).
  plan::ExplainResult plan;
  /// Lifetime counters of the engine's integrity scrubber as of this call's
  /// end (all zero when scrubbing is off). Cumulative across calls, not a
  /// per-call delta — surfaced so --explain can report scrub health.
  storage::ScrubStats scrub;
};

/// One live-document mutation of an Engine::ApplyUpdates batch. Nodes are
/// addressed by (tag, start label) — the document-independent coordinates a
/// client can learn from query results — as they were *before* the batch:
/// if the batch triggers a relabel mid-way, earlier coordinates still
/// resolve (labels scale uniformly).
struct UpdateOp {
  enum class Kind {
    kInsertSubtree,  // graft `subtree` under the target node
    kDeleteSubtree,  // remove the target node and everything below it
  };
  Kind kind = Kind::kInsertSubtree;

  /// Insert: the parent to graft under. Delete: the subtree root to remove.
  std::string target_tag;
  uint32_t target_start = 0;

  /// Insert position among the target's existing children: after the child
  /// with these coordinates, or as the first child when after_start == 0.
  std::string after_tag;
  uint32_t after_start = 0;

  /// The subtree to insert (ignored for deletes). Parse a fragment with
  /// xml::ParseDocument and convert via xml::SpecFromDocument.
  xml::SubtreeSpec subtree;
};

/// What Engine::ApplyUpdates did. Per-op failures (unknown coordinates, a
/// malformed spec) are recorded and *skipped* — the rest of the batch still
/// applies; callers check `failed` for partial rejection.
struct UpdateResult {
  /// Ops applied to the document (ops.size() - failed.size()).
  size_t applied = 0;
  /// "op <index>: <reason>" for every skipped op, in op order.
  std::vector<std::string> failed;
  /// A gap filled up and the whole document was relabelled (every view was
  /// then rebuilt rather than delta-maintained).
  bool relabeled = false;
  /// Document revision after the batch (see xml::Document::revision()).
  uint64_t doc_revision = 0;
  /// Manifest epoch of the update transaction (0 when no view needed
  /// maintenance — e.g. every op failed, or no view was affected).
  uint64_t txn_epoch = 0;
  /// Views patched by sorted delta merge vs rebuilt from scratch.
  size_t delta_maintained = 0;
  size_t fully_rebuilt = 0;
  /// Views a fault-recovery rebuild replaced after the document changed and
  /// before the batch's transaction: built from the updated document, they
  /// needed no maintenance.
  size_t superseded = 0;
  /// Views that failed post-commit verification and were quarantined (their
  /// reasons are also appended to `failed`).
  size_t quarantined = 0;
};

class Engine {
 public:
  /// The one code path that runs a query: Execute runs on the engine's own
  /// session, ExecuteBatch on one session per worker, and a query server's
  /// worker thread holds one for its lifetime. Each session owns a private
  /// spill pager and one reusable governance context, and runs queries
  /// through the fault-recovery + bounded-retry ladder, one at a time,
  /// concurrently with sibling sessions on the same engine.
  ///
  /// Rules: Run() is serial per session (one query at a time); sessions on
  /// one engine may Run() concurrently with each other and with the
  /// scrubber, but not with Execute/ExecuteBatch (those drop caches for
  /// cold_cache). governance() is safe to poll from a watchdog thread while
  /// Run() executes — FireIfExpired/RequestAbort only.
  class Session {
   public:
    Session(Engine* engine, size_t id);

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Runs one query, streaming matches into `sink` when provided (only a
    /// fault-free attempt's matches reach it). Never drops caches:
    /// cold_cache is the caller's business, everything else in `run`
    /// applies as documented there. RunResult::attempts counts the retry
    /// ladder's executions; peak_memory_bytes and checkpoints are this
    /// query's own, not the session's running totals. The run holds an
    /// epoch pin on the catalog from before it resolves its views until it
    /// returns, so no page it can reach is reused under it.
    RunResult Run(const tpq::TreePattern& query,
                  const std::vector<const storage::MaterializedView*>& views,
                  const RunOptions& run, const RetryPolicy& retry = {},
                  tpq::MatchSink* sink = nullptr);

    /// The session's governance context, for an external watchdog:
    /// FireIfExpired()/RequestAbort() only (those are thread-safe).
    algo::QueryContext* governance() { return &gov_; }

   private:
    friend class Engine;
    Session(Engine* engine, const std::string& spill_path, uint64_t seed);

    Engine* engine_;
    storage::Pager spill_;
    algo::QueryContext gov_;
    /// Deterministic reseed counter for the per-query jitter ladder.
    uint64_t seed_;
  };

  /// Replaces the retry ladder's backoff sleeps (Session::Run) with `hook` —
  /// tests observe the jittered delays instead of waiting them out. Pass
  /// nullptr to restore real sleeping. Not thread-safe against in-flight
  /// queries; set it before running.
  static void SetRetrySleepHookForTest(std::function<void(double)> hook);

  /// `storage_path` is the backing file for materialized views; a sibling
  /// file with suffix ".spill" backs disk-mode intermediate solutions.
  Engine(const xml::Document* doc, const std::string& storage_path,
         const EngineOptions& options = {});

  /// Mutable-document overload: everything the const overload does, plus
  /// ApplyUpdates() becomes available. The engine never mutates the document
  /// outside ApplyUpdates.
  Engine(xml::Document* doc, const std::string& storage_path,
         const EngineOptions& options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const xml::Document& doc() const { return *doc_; }

  /// Parses and materializes a view. Dies on a malformed pattern (views are
  /// programmer-supplied); returns the materialized view.
  const storage::MaterializedView* AddView(const std::string& xpath,
                                           storage::Scheme scheme);
  const storage::MaterializedView* AddView(const tpq::TreePattern& pattern,
                                           storage::Scheme scheme);

  /// Non-dying variant for user-supplied patterns (the CLI's --views):
  /// returns InvalidArgument on a malformed pattern and forwards
  /// materialization failures instead of aborting the process.
  util::StatusOr<const storage::MaterializedView*> TryAddView(
      const std::string& xpath, storage::Scheme scheme);

  /// Runs `query` over the covering `views`, streaming matches into an
  /// internal hashing sink (see Result) — or into `sink` when provided — on
  /// the engine's own session (spill file "<storage_path>.spill"), after a
  /// cache drop when run.cold_cache is set. One Execute at a time.
  RunResult Execute(const tpq::TreePattern& query,
                 const std::vector<const storage::MaterializedView*>& views,
                 const RunOptions& run = {}, tpq::MatchSink* sink = nullptr);

  /// Serves `queries` concurrently on a fixed pool of `options.threads`
  /// workers sharing this engine's view store and buffer pool. Results are
  /// positional: results[i] answers queries[i], with the same fault-recovery
  /// ladder as Execute. Per-query isolation guarantees:
  ///   - a storage fault in one query degrades *that* RunResult only (error
  ///     latching is per-query via BufferPool::ErrorScope);
  ///   - quarantine + re-materialization is serialized engine-wide, and a
  ///     worker reuses a replacement a sibling already rebuilt;
  ///   - each worker spools disk-mode intermediates into its own spill file
  ///     ("<storage_path>.spill.<worker>").
  /// Each worker is a Session. Governance (see BatchOptions): queries beyond
  /// threads + max_queued are rejected up front (kRejected) without
  /// perturbing admitted queries; a watchdog thread fires per-query
  /// deadlines on stuck workers; queries failing on transient storage
  /// faults are retried with jittered backoff up to retry.max_retries times.
  /// io counters in batch results come from the shared pool/pager and so
  /// attribute sibling I/O to whichever query observed it; use the aggregate
  /// across the batch, not per-query splits. Not reentrant: one batch (or
  /// Execute) at a time per engine.
  std::vector<RunResult> ExecuteBatch(const std::vector<BatchQuery>& queries,
                                      const BatchOptions& options = {});

  /// Runs the query and stores its answer back as a new materialized view:
  /// the distinct solution nodes per query node become the view's lists
  /// (with pointers under LE/LE_p). This is the paper's "result as a
  /// materialized view" capability (Section IV-B, feature 2); the stored
  /// view can immediately serve later queries through this same engine.
  /// `*result_view` receives the stored view (left untouched on error).
  RunResult ExecuteToView(
      const tpq::TreePattern& query,
      const std::vector<const storage::MaterializedView*>& views,
      storage::Scheme result_scheme,
      const storage::MaterializedView** result_view, const RunOptions& run = {});

  /// Convenience: greedy view selection (paper Section V) over candidate
  /// patterns, materialization in `scheme`, then Execute. The selection
  /// details are returned through *selection when non-null.
  RunResult SelectAndExecute(const tpq::TreePattern& query,
                          const std::vector<tpq::TreePattern>& candidates,
                          storage::Scheme scheme, const RunOptions& run = {},
                          view::SelectionResult* selection = nullptr);

  /// Applies a batch of live-document updates and delta-maintains every
  /// affected materialized view, atomically (one manifest update
  /// transaction; see storage::ViewCatalog::ApplyUpdateBatch):
  ///   - the document mutates under an exclusive lock, so concurrent
  ///     queries (sessions, batches) never observe a half-applied batch;
  ///     queries running while the new views install keep answering from
  ///     the still-registered previous-epoch views;
  ///   - list-scheme views get sorted label deltas merged into their stored
  ///     lists; T-scheme views and every view after a relabel are rebuilt;
  ///   - each op failing validation is skipped and reported, the rest of
  ///     the batch proceeds; a gap too small for an insert triggers
  ///     RelabelWithGap(16) + full rebuild of all views;
  ///   - freshly installed views are checksum-verified post-commit and
  ///     quarantined on failure;
  ///   - plans invalidate via the catalog epoch; the planner's document
  ///     statistics, once collected, are kept current per inserted and
  ///     deleted subtree instead of being re-collected.
  /// Serialized deltas over 1 MiB spill to a sidecar file (see
  /// ViewCatalog::ApplyUpdateBatch).
  /// Fails with InvalidArgument when constructed over a const document.
  /// Update batches are serialized engine-wide.
  util::StatusOr<UpdateResult> ApplyUpdates(const std::vector<UpdateOp>& ops);

  /// Takes an online hot backup of the view store (and the document store in
  /// disk doc-mode) into `dest_dir` — see storage::CreateBackup for the
  /// image layout and consistency guarantees. Queries keep serving
  /// throughout; update batches wait only while the (small) document store
  /// is copied, not for the view-page copy. `rate_bytes_per_sec` paces the
  /// copy (0 = unthrottled; servers wire VIEWJOIN_BACKUP_RATE_BYTES here).
  /// Backups are serialized engine-wide; a second concurrent call waits.
  util::StatusOr<storage::BackupReport> CreateBackup(
      const std::string& dest_dir, uint64_t rate_bytes_per_sec = 0);

  storage::ViewCatalog* catalog() { return catalog_.get(); }

  /// The paged base-document store (null in memory doc-mode, or when a
  /// disk-mode build failed — see doc_store_status()).
  const storage::DocumentStore* doc_store() const { return doc_store_.get(); }

  /// Why disk doc-mode is not serving (Ok when it is, or when memory mode
  /// was requested). A failed store build degrades the engine to in-memory
  /// streams instead of failing construction — results stay correct, the
  /// out-of-core property is lost; this status says so.
  const util::Status& doc_store_status() const { return doc_store_status_; }

  /// The engine's plan cache (hit/miss counters for tests and benches).
  /// Entries key on the catalog's manifest epoch, so materialization,
  /// quarantine and replacement invalidate implicitly — including across a
  /// close/reopen of a persistent store, where the epoch counter resumes
  /// from the journal; Clear() exists for tests only.
  plan::PlanCache* plan_cache() { return &plan_cache_; }

  /// The engine's integrity scrubber (always constructed; its background
  /// thread runs only when EngineOptions::scrub is set). Tests drive
  /// scrubber()->Step() directly for determinism. The scrubber's healer
  /// re-materializes a corrupt view from the document under the same
  /// recovery lock the query path uses, so a scrub heal and a query-path
  /// rebuild of the same view never race.
  storage::Scrubber* scrubber() { return scrubber_.get(); }

  /// Full document walks the planner's statistics have cost so far (tests
  /// pin that update batches maintain them instead of re-collecting).
  uint64_t statistics_collections() {
    std::lock_guard<std::mutex> lock(doc_stats_mu_);
    return doc_stats_collections_;
  }

 private:
  /// One service attempt of Session::Run: plans `query`, then evaluates it
  /// through the fault-recovery ladder, spooling disk-mode intermediates
  /// into `spill`, governed by `gov`, with page faults latched in the
  /// attempt's own BufferPool::ErrorScope.
  RunResult ExecuteInternal(
      const tpq::TreePattern& query,
      const std::vector<const storage::MaterializedView*>& views,
      const RunOptions& run, tpq::MatchSink* sink, storage::Pager* spill,
      algo::QueryContext* gov);

  /// Cold start for Execute/ExecuteBatch: drops the cached pages of the view
  /// store and the document store and resets their I/O counters (and the
  /// engine session's spill counters).
  void DropCaches();

  /// (Re)snapshots the document into the paged store (disk doc-mode only;
  /// no-op otherwise). Must not race queries — callers run it from the
  /// constructor or under an exclusive doc_mu_. On failure the engine keeps
  /// answering from in-memory streams and records doc_store_status_.
  void RebuildDocStore();

  /// Re-materializes pattern × scheme for the fault ladder and the
  /// scrubber's healer: from the document store's page lists in disk mode
  /// (tuple scheme and store faults fall back to the in-memory document).
  util::StatusOr<const storage::MaterializedView*> Rematerialize(
      const tpq::TreePattern& pattern, storage::Scheme scheme);

  const xml::Document* doc_;
  /// Non-null only via the mutable-document constructor; ApplyUpdates'
  /// write handle.
  xml::Document* mutable_doc_ = nullptr;
  /// Readers-writer lock over the document: every query path holds it
  /// shared for the duration of execution, ApplyUpdates holds it exclusive
  /// while mutating — queries see either the pre- or the post-batch
  /// document, never a torn one.
  std::shared_mutex doc_mu_;
  /// Serializes whole update batches (mutation + view maintenance) so two
  /// ApplyUpdates calls cannot interleave their catalog transactions.
  std::mutex update_mu_;
  /// Serializes hot backups engine-wide (two concurrent CreateBackup calls
  /// would race on the destination directory for no benefit).
  std::mutex backup_mu_;
  /// Document statistics for the planner's cardinality estimates, collected
  /// lazily on the first kAuto query, maintained per subtree by
  /// ApplyUpdates, and re-collected only when the document revision moved
  /// some other way. Maintenance runs under an exclusive doc_mu_ and a
  /// re-collection only after revision() moved, so a pointer a query takes
  /// under a shared doc_mu_ stays valid until it releases the lock.
  std::mutex doc_stats_mu_;
  uint64_t doc_stats_revision_ = UINT64_MAX;
  std::optional<xml::DocumentStatistics> doc_stats_;
  uint64_t doc_stats_collections_ = 0;
  std::string storage_path_;
  EngineOptions options_;
  std::unique_ptr<storage::ViewCatalog> catalog_;
  /// Paged base document (disk doc-mode; see doc_store()). Rebuilt by
  /// ApplyUpdates under the exclusive document lock, so no cursor is ever
  /// live over a store being torn down.
  std::unique_ptr<storage::DocumentStore> doc_store_;
  util::Status doc_store_status_;
  /// Execute's session (spill file "<storage_path>.spill").
  std::unique_ptr<Session> session_;
  /// Declared after catalog_ so it is destroyed (and its thread joined)
  /// first; ~Engine also stops it explicitly before members tear down.
  std::unique_ptr<storage::Scrubber> scrubber_;
  plan::PlanCache plan_cache_;
  /// Serializes quarantine + re-materialization across batch workers so two
  /// workers hitting the same corrupt view rebuild it once.
  std::mutex recovery_mu_;
};

}  // namespace viewjoin::core

#endif  // VIEWJOIN_CORE_ENGINE_H_
