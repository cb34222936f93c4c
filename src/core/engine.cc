#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "plan/operator.h"
#include "plan/planner.h"
#include "tpq/evaluator.h"
#include "util/backoff.h"
#include "util/check.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/timer.h"
#include "view/delta.h"

namespace viewjoin::core {

using storage::MaterializedView;
using storage::Scheme;
using tpq::TreePattern;

namespace {

/// Forwards matches while fingerprinting them, optionally teeing to a user
/// sink.
class TeeSink : public tpq::MatchSink {
 public:
  explicit TeeSink(tpq::MatchSink* user) : user_(user) {}

  void OnMatch(const tpq::Match& match) override {
    hasher_.OnMatch(match);
    if (user_ != nullptr) user_->OnMatch(match);
  }

  uint64_t count() const { return hasher_.count(); }
  uint64_t hash() const { return hasher_.hash(); }

 private:
  tpq::HashingSink hasher_;
  tpq::MatchSink* user_;
};

/// Buffers matches so a user-supplied sink only ever sees the matches of a
/// run that finished without a storage fault. A faulted attempt's matches
/// (possibly truncated by a page that failed its read) are dropped with
/// Reset().
class ReplaySink : public tpq::MatchSink {
 public:
  void OnMatch(const tpq::Match& match) override { matches_.push_back(match); }

  void Reset() { matches_.clear(); }

  void ReplayInto(tpq::MatchSink* sink) {
    for (const tpq::Match& match : matches_) sink->OnMatch(match);
  }

 private:
  std::vector<tpq::Match> matches_;
};

/// Arms a query's governance context from its run options.
void ConfigureGovernance(algo::QueryContext* gov, const RunOptions& run) {
  if (run.deadline_ms > 0) gov->set_deadline_after_ms(run.deadline_ms);
  gov->set_cancel_token(run.cancel);
  gov->set_memory_budget(run.memory_budget_bytes);
  gov->set_disk_budget(run.disk_budget_bytes);
}

std::function<void(double)>& RetrySleepHook() {
  static std::function<void(double)> hook;
  return hook;
}

/// One backoff delay of the retry ladder: real sleep, or the test hook.
void RetrySleep(double delay_ms) {
  const std::function<void(double)>& hook = RetrySleepHook();
  if (hook) {
    hook(delay_ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
}

}  // namespace

util::Status ApplyEnvOptions(EngineOptions* options) {
  util::StatusOr<std::string> mode = util::ParseEnumEnv(
      "VIEWJOIN_DOC_MODE", {"memory", "disk"},
      options->doc_mode == DocMode::kDisk ? "disk" : "memory");
  if (!mode.ok()) return mode.status();
  options->doc_mode = *mode == "disk" ? DocMode::kDisk : DocMode::kMemory;
  util::StatusOr<int64_t> pool_pages = util::ParseNonNegativeIntEnv(
      "VIEWJOIN_DOC_POOL_PAGES",
      static_cast<int64_t>(options->doc_pool_pages));
  if (!pool_pages.ok()) return pool_pages.status();
  options->doc_pool_pages = static_cast<size_t>(*pool_pages);
  util::StatusOr<int64_t> budget = util::ParseNonNegativeIntEnv(
      "VIEWJOIN_PARSE_BUDGET",
      static_cast<int64_t>(options->doc_parse_budget_bytes));
  if (!budget.ok()) return budget.status();
  options->doc_parse_budget_bytes = static_cast<size_t>(*budget);
  util::StatusOr<int64_t> readahead = util::ParseNonNegativeIntEnv(
      "VIEWJOIN_READAHEAD_PAGES",
      static_cast<int64_t>(options->readahead_pages));
  if (!readahead.ok()) return readahead.status();
  options->readahead_pages = static_cast<size_t>(*readahead);
  return util::Status::Ok();
}

void Engine::SetRetrySleepHookForTest(std::function<void(double)> hook) {
  RetrySleepHook() = std::move(hook);
}

Engine::Engine(const xml::Document* doc, const std::string& storage_path,
               const EngineOptions& options)
    : doc_(doc),
      storage_path_(storage_path),
      options_(options),
      catalog_(std::make_unique<storage::ViewCatalog>(
          storage_path, options.pool_pages, options.persistent)),
      session_(new Session(this, storage_path + ".spill", /*seed=*/0)) {
  if (options_.readahead_pages > 0) {
    catalog_->pool()->SetReadAhead(options_.readahead_pages);
  }
  RebuildDocStore();
  // The scrubber's healer mirrors the query path's recovery step: rebuild
  // the quarantined view from the in-memory document and register the
  // replacement. recovery_mu_ serializes it against query-path rebuilds, so
  // a scrub heal and a session tripping over the same view build one
  // replacement between them.
  scrubber_ = std::make_unique<storage::Scrubber>(
      catalog_.get(),
      [this](const MaterializedView* view) -> util::Status {
        // Rebuilding reads the document; hold it shared so a live-update
        // batch cannot mutate it mid-materialization.
        std::shared_lock<std::shared_mutex> doc_lock(doc_mu_);
        std::lock_guard<std::mutex> recovery_lock(recovery_mu_);
        if (catalog_->ReplacementFor(view) != nullptr) {
          return util::Status::Ok();  // a sibling already healed it
        }
        util::StatusOr<const MaterializedView*> repl =
            Rematerialize(view->pattern(), view->scheme());
        if (!repl.ok()) return repl.status();
        catalog_->SetReplacement(view, *repl);
        return util::Status::Ok();
      });
  if (options.scrub) {
    scrubber_->Start(std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::duration<double, std::milli>(
                             options.scrub_interval_ms)),
                     options.scrub_pages_per_step);
  }
}

Engine::Engine(xml::Document* doc, const std::string& storage_path,
               const EngineOptions& options)
    : Engine(static_cast<const xml::Document*>(doc), storage_path, options) {
  mutable_doc_ = doc;
}

Engine::~Engine() { scrubber_->Stop(); }

const MaterializedView* Engine::AddView(const std::string& xpath,
                                        Scheme scheme) {
  std::string error;
  std::optional<TreePattern> pattern = TreePattern::Parse(xpath, &error);
  VJ_CHECK(pattern.has_value()) << "bad view pattern '" << xpath << "': "
                                << error;
  return AddView(*pattern, scheme);
}

const MaterializedView* Engine::AddView(const TreePattern& pattern,
                                        Scheme scheme) {
  std::shared_lock<std::shared_mutex> doc_lock(doc_mu_);
  return catalog_->Materialize(*doc_, pattern, scheme);
}

util::StatusOr<const MaterializedView*> Engine::TryAddView(
    const std::string& xpath, Scheme scheme) {
  std::string error;
  std::optional<TreePattern> pattern = TreePattern::Parse(xpath, &error);
  if (!pattern.has_value()) {
    return util::Status::InvalidArgument("bad view pattern '" + xpath +
                                         "': " + error);
  }
  std::shared_lock<std::shared_mutex> doc_lock(doc_mu_);
  return catalog_->TryMaterialize(*doc_, *pattern, scheme);
}

void Engine::DropCaches() {
  // An update batch rebuilds the document store under the exclusive lock;
  // holding it shared keeps the store alive while its frames are dropped.
  std::shared_lock<std::shared_mutex> doc_lock(doc_mu_);
  catalog_->DropCaches();
  catalog_->ResetStats();
  session_->spill_.ResetStats();
  if (doc_store_ != nullptr) {
    doc_store_->DropCaches();
    doc_store_->ResetStats();
  }
}

RunResult Engine::Execute(
    const TreePattern& query,
    const std::vector<const MaterializedView*>& views, const RunOptions& run,
    tpq::MatchSink* sink) {
  if (run.cold_cache) DropCaches();
  return session_->Run(query, views, run, {}, sink);
}

RunResult Engine::ExecuteInternal(
    const TreePattern& query,
    const std::vector<const MaterializedView*>& views, const RunOptions& run,
    tpq::MatchSink* sink, storage::Pager* spill, algo::QueryContext* gov) {
  RunResult result;
  // The whole run holds the document shared: a live-update batch
  // (ApplyUpdates) waits for in-flight queries before mutating, and this
  // query keeps answering from the views it resolved — the previous epoch —
  // even while a batch's replacement views install concurrently.
  std::shared_lock<std::shared_mutex> doc_lock(doc_mu_);
  // When a user sink is supplied, attempts stream into a replay buffer so
  // the user only ever observes the matches of a fault-free run.
  ReplaySink replay;

  // This query's page faults latch in a thread-local scope, so a sibling
  // session's poison latch cannot leak into this result (and vice versa).
  storage::BufferPool::ErrorScope scope(catalog_->pool());

  storage::IoStats before = catalog_->Stats();
  storage::IoStats spill_before = spill->stats();
  storage::IoStats doc_before =
      doc_store_ != nullptr ? doc_store_->Stats() : storage::IoStats{};

  // Document statistics feed the planner's cardinality estimates, which only
  // kAuto planning reads. Collecting them is document preprocessing (one DFS
  // per engine lifetime, like view materialization), so it happens before
  // the query timer starts; ApplyUpdates keeps them current per subtree and
  // re-keys them to the new revision(). A revision mismatch means the
  // document changed outside ApplyUpdates, and the DFS runs again. The
  // statistics only change under the exclusive document lock, so the
  // pointer stays valid while this query holds the lock shared.
  const xml::DocumentStatistics* statistics = nullptr;
  if (run.algorithm == Algorithm::kAuto) {
    std::lock_guard<std::mutex> stats_lock(doc_stats_mu_);
    if (!doc_stats_.has_value() || doc_stats_revision_ != doc_->revision()) {
      doc_stats_.emplace(xml::DocumentStatistics::Collect(*doc_));
      doc_stats_revision_ = doc_->revision();
      ++doc_stats_collections_;
    }
    statistics = &*doc_stats_;
  }

  util::Timer timer;

  // ---- Plan ----------------------------------------------------------------
  // The planner resolves algorithm (kAuto -> cost-based choice), applies
  // quarantine redirects, and under kAuto picks the covering view subset and
  // per-view schemes. Plans are memoized keyed on (query fingerprint,
  // environment, catalog version).
  plan::Planner planner(&plan_cache_);
  plan::PlannerInput pin;
  pin.doc = doc_;
  pin.query = &query;
  pin.views = views;
  pin.catalog = catalog_.get();
  pin.statistics = statistics;
  pin.algorithm = run.algorithm;
  pin.mode = run.output_mode;
  pin.disk_doc_mode = doc_store_ != nullptr;
  pin.readahead_pages = options_.readahead_pages;
  bool plan_cached = false;
  std::shared_ptr<const plan::PhysicalPlan> planned =
      planner.Plan(pin, &plan_cached);
  const Algorithm algorithm = planned->algorithm;  // resolved, never kAuto
  result.plan.algorithm = algorithm;
  result.plan.from_cache = plan_cached;
  result.plan.estimated_cost = planned->estimated_cost;
  result.plan.text = planned->text;
  result.plan.steps = planned->steps;  // stats columns start at zero

  auto step = [&](plan::StepKind kind) -> plan::PlanStep* {
    for (plan::PlanStep& s : result.plan.steps) {
      if (s.kind == kind) return &s;
    }
    return nullptr;
  };
  if (plan::PlanStep* resolve = step(plan::StepKind::kResolveCover)) {
    resolve->stats.elapsed_ms = timer.ElapsedMillis();
  }

  std::vector<const MaterializedView*> active = planned->views;

  // Runs one attempt through the uniform Operator interface — the engine
  // holds no per-algorithm knowledge; plan::MakeOperator is the single
  // dispatch point. Returns false on a bind/argument error (recorded in
  // result.error with the binder's message) — those are caller mistakes, not
  // storage faults, and are never retried.
  auto run_once = [&](const std::vector<const MaterializedView*>& vs,
                      algo::OutputMode mode, tpq::MatchSink* out) -> bool {
    plan::Operator::Config config;
    config.doc = doc_;
    config.query = &query;
    config.views = vs;
    config.pool = catalog_->pool();
    config.mode = mode;
    config.spill = spill;
    config.doc_store = doc_store_.get();
    std::unique_ptr<plan::Operator> op = plan::MakeOperator(algorithm, config);
    util::Status open = op->Open();
    if (!open.ok()) {
      result.error = open.message();
      return false;
    }
    util::Timer attempt_timer;
    op->Evaluate(out, gov);
    double attempt_ms = attempt_timer.ElapsedMillis();
    const algo::HolisticStats& s = op->stats();
    result.stats += s;
    // Attribute the attempt to the plan steps: the output pass (ViewJoin
    // instruments it; zero for the others) belongs to extend-output, the
    // remainder to eval-segments. Page reads all land on eval-segments —
    // spill traffic is credited to the spill step at finish time.
    if (plan::PlanStep* eval = step(plan::StepKind::kEvalSegments)) {
      eval->stats.elapsed_ms += attempt_ms - s.output_pass_ms;
      eval->stats.pages_read += op->io().pages_read;
      eval->stats.pages_decoded += op->io().pages_decoded;
      eval->stats.entries_advanced +=
          s.entries_scanned - s.output_entries_scanned;
      eval->stats.pointer_jumps += s.pointer_jumps - s.output_pointer_jumps;
    }
    if (plan::PlanStep* extend = step(plan::StepKind::kExtendOutput)) {
      extend->stats.elapsed_ms += s.output_pass_ms;
      extend->stats.entries_advanced += s.output_entries_scanned;
      extend->stats.pointer_jumps += s.output_pointer_jumps;
    }
    op->Close();
    return true;
  };

  // Shared tail of every exit path: timing, I/O deltas, governance counters.
  auto fill_common = [&]() {
    result.total_ms = timer.ElapsedMillis();
    result.io = catalog_->Stats().Delta(before);
    if (doc_store_ != nullptr) {
      result.io += doc_store_->Stats().Delta(doc_before);
    }
    storage::IoStats spill_io = spill->stats().Delta(spill_before);
    result.io.pages_read += spill_io.pages_read;
    result.io.pages_written += spill_io.pages_written;
    result.io.read_micros += spill_io.read_micros;
    result.io.write_micros += spill_io.write_micros;
    result.io.read_retries += spill_io.read_retries;
    result.io_ms = result.io.TotalIoMillis();
    result.retries = result.io.read_retries;
    result.peak_memory_bytes = gov->peak_memory_bytes();
    result.checkpoints = gov->checkpoints();
    result.scrub = scrubber_->stats();
    // Close the per-step ledger: spill traffic goes to the spill step, and
    // verify-fallback absorbs every residual (planning already accounted,
    // recovery, rebuilds, the base fallback), so the step columns sum
    // exactly to this result's totals.
    if (plan::PlanStep* spill_step = step(plan::StepKind::kSpill)) {
      spill_step->stats.pages_read = spill_io.pages_read;
    }
    plan::StepStats accounted;
    for (const plan::PlanStep& s : result.plan.steps) {
      if (s.kind != plan::StepKind::kVerifyFallback) accounted += s.stats;
    }
    if (plan::PlanStep* verify = step(plan::StepKind::kVerifyFallback)) {
      verify->stats.elapsed_ms =
          std::max(0.0, result.total_ms - accounted.elapsed_ms);
      verify->stats.pages_read =
          result.io.pages_read > accounted.pages_read
              ? result.io.pages_read - accounted.pages_read
              : 0;
      verify->stats.pages_decoded =
          result.io.pages_decoded > accounted.pages_decoded
              ? result.io.pages_decoded - accounted.pages_decoded
              : 0;
      verify->stats.entries_advanced =
          result.stats.entries_scanned > accounted.entries_advanced
              ? result.stats.entries_scanned - accounted.entries_advanced
              : 0;
      verify->stats.pointer_jumps =
          result.stats.pointer_jumps > accounted.pointer_jumps
              ? result.stats.pointer_jumps - accounted.pointer_jumps
              : 0;
    }
  };

  auto finish = [&](const TeeSink& tee) -> RunResult& {
    fill_common();
    result.ok = true;
    result.match_count = tee.count();
    result.result_hash = tee.hash();
    if (sink != nullptr) replay.ReplayInto(sink);
    return result;
  };

  // Terminal abort: the query stopped on a governance verdict. Partial
  // matches are never replayed to the user sink.
  auto finish_aborted = [&]() -> RunResult& {
    fill_common();
    result.ok = false;
    switch (gov->reason()) {
      case algo::AbortReason::kDeadline:
        result.timed_out = true;
        result.error = "deadline exceeded";
        break;
      case algo::AbortReason::kCancelled:
        result.cancelled = true;
        result.error = "cancelled";
        break;
      case algo::AbortReason::kMemoryBudget:
        result.error = util::Status::ResourceExhausted(
                           "intermediate solutions exceed the memory budget "
                           "(and disk-mode degradation is unavailable)")
                           .ToString();
        break;
      case algo::AbortReason::kDiskBudget:
        result.error = util::Status::ResourceExhausted(
                           "spilled intermediate solutions exceed the disk "
                           "budget")
                           .ToString();
        break;
      case algo::AbortReason::kNone:
        result.error = "aborted";
        break;
    }
    return result;
  };

  // Attempt loop: a clean run returns directly; a storage fault quarantines
  // the corrupt view, re-materializes it from the in-memory document, and
  // retries. Bounded so a persistently failing medium cannot loop forever.
  constexpr int kMaxViewAttempts = 3;
  algo::OutputMode mode = run.output_mode;
  bool memory_downgraded = false;
  util::Status last_storage_error;
  for (int attempt = 0; attempt < kMaxViewAttempts; ++attempt) {
    scope.Clear();
    spill->ClearError();
    replay.Reset();
    TeeSink tee(sink != nullptr ? static_cast<tpq::MatchSink*>(&replay)
                                : nullptr);
    if (!run_once(active, mode, &tee)) return result;

    if (gov->aborted()) {
      // Degradation ladder, rung 1: a memory-budget overrun in memory output
      // mode reruns the query with disk-mode spilling — intermediates go to
      // the spill spool and only anchors stay resident. Only when disk
      // spilling is unavailable or also over budget does the abort become
      // terminal (RESOURCE_EXHAUSTED, the ladder's last rung).
      if (gov->reason() == algo::AbortReason::kMemoryBudget &&
          mode == algo::OutputMode::kMemory && !memory_downgraded) {
        memory_downgraded = true;
        mode = algo::OutputMode::kDisk;
        result.degraded = true;
        gov->ResetForRetry();
        --attempt;  // a budget downgrade does not consume a fault attempt
        continue;
      }
      return finish_aborted();
    }

    util::Status view_err = scope.error();
    util::Status spill_err = spill->last_error();
    if (view_err.ok() && spill_err.ok()) return finish(tee);
    last_storage_error = view_err.ok() ? spill_err : view_err;

    // The spill spool is scratch space: nothing to re-materialize. Fall back
    // to in-memory intermediate buffering and keep going.
    if (!spill_err.ok()) mode = algo::OutputMode::kMemory;
    result.degraded = true;

    if (!view_err.ok()) {
      // Quarantine the view owning the failed page — or, if the page cannot
      // be attributed, every active view — and rebuild from the document.
      // Serialized engine-wide so concurrent sessions tripping over the
      // same corrupt view rebuild it once and share the replacement.
      std::lock_guard<std::mutex> recovery_lock(recovery_mu_);
      std::vector<const MaterializedView*> suspects;
      const MaterializedView* culprit =
          catalog_->ViewOfPage(scope.error_page());
      if (culprit != nullptr) {
        suspects.push_back(culprit);
      } else {
        suspects = active;
      }
      bool rebuilt = true;
      for (const MaterializedView* v : suspects) {
        // A sibling may have quarantined and replaced this view while we were
        // waiting on the lock — reuse its replacement instead of rebuilding.
        if (const MaterializedView* existing = catalog_->ReplacementFor(v)) {
          std::replace(active.begin(), active.end(), v, existing);
          continue;
        }
        if (!catalog_->IsQuarantined(v)) {
          catalog_->Quarantine(v);
          result.quarantined_views.push_back(v->pattern().ToString());
        }
        util::StatusOr<const MaterializedView*> repl =
            Rematerialize(v->pattern(), v->scheme());
        if (!repl.ok()) {
          rebuilt = false;
          break;
        }
        catalog_->SetReplacement(v, *repl);
        std::replace(active.begin(), active.end(), v, *repl);
      }
      // The fault is handled (or about to be escalated): drop the latch so a
      // stale poison record cannot outlive the view it referred to.
      scope.Clear();
      if (!rebuilt) break;  // medium too sick to rebuild on — fall back
    }
    // Test hook: an armed recovery barrier holds the session here — between
    // the rebuild and the retry run — so tests can land an event (e.g. a
    // cancellation) in this window deterministically.
    util::FaultInjector::Global().OnRecoveryPoint();
  }

  // The view store is persistently failing. Callers that disabled the
  // base-document fallback get a typed, retryable error instead — the
  // session's retry ladder (bounded, with backoff) is their recovery path.
  if (!run.allow_base_fallback) {
    scope.Clear();
    spill->ClearError();
    fill_common();
    result.ok = false;
    result.retryable = true;
    result.error = last_storage_error.ok()
                       ? "view store unavailable"
                       : last_storage_error.ToString();
    return result;
  }

  // Last resort: answer from the base document alone. The fallback operator
  // runs TwigStack over the document's own tag lists (or, in disk doc-mode,
  // the document store's page lists through the store's own pool) and
  // touches no view-store page, so it cannot be harmed by view-store or
  // spill faults; the match set is identical by definition. Its work is
  // charged to the plan's verify-fallback step (via residual absorption in
  // fill_common).
  scope.Clear();
  spill->ClearError();
  replay.Reset();
  result.error.clear();
  std::unique_ptr<plan::Operator> base = plan::MakeBaseFallbackOperator(
      *doc_, query, catalog_->pool(), doc_store_.get());
  util::Status base_open = base->Open();
  if (!base_open.ok()) {
    result.error = base_open.message();
    return result;
  }
  TeeSink tee(sink != nullptr ? static_cast<tpq::MatchSink*>(&replay)
                              : nullptr);
  base->Evaluate(&tee, gov);
  result.stats += base->stats();
  base->Close();
  result.degraded = true;
  if (gov->aborted()) return finish_aborted();
  return finish(tee);
}

Engine::Session::Session(Engine* engine, size_t id)
    : Session(engine,
              engine->storage_path_ + ".session." + std::to_string(id),
              0x5E5510ULL ^ (static_cast<uint64_t>(id) << 20)) {}

Engine::Session::Session(Engine* engine, const std::string& spill_path,
                         uint64_t seed)
    // kTruncate removes the scratch file when the session ends.
    : engine_(engine),
      spill_(spill_path, storage::Pager::Mode::kTruncate),
      seed_(seed) {}

RunResult Engine::Session::Run(
    const TreePattern& query, const std::vector<const MaterializedView*>& views,
    const RunOptions& run, const RetryPolicy& retry, tpq::MatchSink* sink) {
  // Fresh jitter ladder per query, deterministically reseeded so two queries
  // on one session (and the same query on two sessions) spread differently.
  util::DecorrelatedJitterBackoff backoff(retry.backoff_ms,
                                          retry.backoff_cap_ms, seed_++);
  // A reused context must not inherit the previous query's deadline, abort
  // verdict or counters.
  gov_.ResetForQuery();
  // Registered before the planner resolves a single view: no page those
  // views reach is reused until this run returns.
  const storage::PageReclaimer::Pin pin = engine_->catalog_->PinReader();
  RunResult result;
  for (int attempt = 1;; ++attempt) {
    // Arms (and on a retry re-arms) the deadline: each service attempt gets
    // the full budget.
    ConfigureGovernance(&gov_, run);
    result = engine_->ExecuteInternal(query, views, run, sink, &spill_, &gov_);
    result.attempts = attempt;
    if (result.ok || !result.retryable || attempt > retry.max_retries) break;
    // Transient storage fault: back off with jitter, then retry.
    RetrySleep(backoff.NextDelayMs());
    gov_.ResetForRetry();
  }
  return result;
}

namespace {

/// Accumulates the distinct solution nodes per query node.
class SolutionListSink : public tpq::MatchSink {
 public:
  explicit SolutionListSink(size_t nq) : lists_(nq) {}

  void OnMatch(const tpq::Match& match) override {
    for (size_t q = 0; q < match.size(); ++q) lists_[q].push_back(match[q]);
  }

  std::vector<std::vector<xml::NodeId>> TakeSorted() {
    for (auto& list : lists_) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return std::move(lists_);
  }

 private:
  std::vector<std::vector<xml::NodeId>> lists_;
};

}  // namespace

void Engine::RebuildDocStore() {
  if (options_.doc_mode != DocMode::kDisk) return;
  // Callers guarantee no cursor is live over the old store (constructor, or
  // the exclusive phase of an update batch), so tearing it down is safe.
  doc_store_.reset();
  storage::DocumentStore::Options opts;
  opts.pool_pages = options_.doc_pool_pages;
  opts.parse_budget_bytes = options_.doc_parse_budget_bytes;
  opts.persistent = options_.persistent;
  util::StatusOr<std::unique_ptr<storage::DocumentStore>> store =
      storage::DocumentStore::BuildFromDocument(storage_path_ + ".doc", *doc_,
                                                opts);
  if (!store.ok()) {
    // Degrade to in-memory streams: queries stay correct, the out-of-core
    // property is lost, and doc_store_status() says why.
    doc_store_status_ = store.status();
    return;
  }
  doc_store_ = std::move(*store);
  doc_store_status_ = util::Status::Ok();
  if (options_.readahead_pages > 0) {
    doc_store_->pool()->SetReadAhead(options_.readahead_pages);
  }
}

util::StatusOr<const MaterializedView*> Engine::Rematerialize(
    const TreePattern& pattern, Scheme scheme) {
  // Tuple views and memory doc-mode rebuild straight from the in-memory
  // document. In disk doc-mode, list-scheme views rebuild by evaluating the
  // pattern over the store's page lists, so re-materialization scans pinned
  // pages instead of materializing whole label vectors.
  if (doc_store_ == nullptr || scheme == Scheme::kTuple) {
    return catalog_->TryMaterialize(*doc_, pattern, scheme);
  }
  std::unique_ptr<plan::Operator> op = plan::MakeBaseFallbackOperator(
      *doc_, pattern, catalog_->pool(), doc_store_.get());
  util::Status open = op->Open();
  if (!open.ok()) {
    // A pattern the base binder rejects (duplicate tags) still materializes
    // through the document-path evaluator.
    return catalog_->TryMaterialize(*doc_, pattern, scheme);
  }
  storage::BufferPool::ErrorScope guard(doc_store_->pool());
  SolutionListSink sink(pattern.size());
  op->Evaluate(&sink, nullptr);
  op->Close();
  if (!guard.error().ok()) {
    // A doc-store page fault would install a truncated view; the in-memory
    // document is authoritative, so heal from it instead.
    return catalog_->TryMaterialize(*doc_, pattern, scheme);
  }
  return catalog_->MaterializeFromLists(*doc_, pattern, sink.TakeSorted(),
                                        scheme);
}

RunResult Engine::ExecuteToView(
    const TreePattern& query,
    const std::vector<const MaterializedView*>& views, Scheme result_scheme,
    const MaterializedView** result_view, const RunOptions& run) {
  VJ_CHECK(result_view != nullptr);
  util::Timer timer;
  SolutionListSink sink(query.size());
  RunResult result = Execute(query, views, run, &sink);
  if (!result.ok) return result;
  // The run's governance knobs cover the whole call, not just the query:
  // re-check deadline and cancellation before the (possibly large)
  // store-back, which used to run ungoverned.
  if (run.deadline_ms > 0 && timer.ElapsedMillis() >= run.deadline_ms) {
    result.ok = false;
    result.timed_out = true;
    result.error = "deadline exceeded";
    return result;
  }
  if (run.cancel != nullptr &&
      run.cancel->load(std::memory_order_relaxed)) {
    result.ok = false;
    result.cancelled = true;
    result.error = "cancelled";
    return result;
  }
  std::shared_lock<std::shared_mutex> doc_lock(doc_mu_);
  util::StatusOr<const MaterializedView*> stored =
      catalog_->MaterializeFromLists(*doc_, query, sink.TakeSorted(),
                                     result_scheme);
  if (!stored.ok()) {
    // Storing the answer failed but the answer itself is sound; surface the
    // storage fault as a retryable error instead of dying mid-call.
    result.ok = false;
    result.retryable = true;
    result.error = stored.status().ToString();
    return result;
  }
  *result_view = *stored;
  return result;
}

util::StatusOr<UpdateResult> Engine::ApplyUpdates(
    const std::vector<UpdateOp>& ops) {
  if (mutable_doc_ == nullptr) {
    return util::Status::InvalidArgument(
        "engine was constructed over a const document; live updates need "
        "the mutable-document constructor");
  }
  // One batch at a time engine-wide: the document mutation below and the
  // catalog's update transaction must not interleave with a sibling batch.
  std::lock_guard<std::mutex> update_lock(update_mu_);

  UpdateResult out;

  // Exclusive document phase: waits out in-flight queries, mutates, and
  // collects per-op deltas. Queries admitted after it see the new document;
  // view maintenance below runs without the lock (the document is read-only
  // again), so queries overlap the install.
  std::unique_lock<std::shared_mutex> doc_lock(doc_mu_);

  // Maintain every live view (the tip of each replacement chain);
  // quarantined views without a replacement are already unusable and stay
  // behind. Chosen under the lock: rebuilds hold the document shared, so a
  // replacement registered before this point was built from the pre-batch
  // document and is maintained here, and one registered after the lock is
  // released was built from the updated document — ApplyUpdateBatch then
  // skips the version it superseded.
  std::vector<const MaterializedView*> maintain;
  std::vector<tpq::TreePattern> patterns;
  for (const MaterializedView* v : catalog_->LiveViews()) {
    if (catalog_->IsQuarantined(v)) continue;
    maintain.push_back(v);
    patterns.push_back(v->pattern());
  }
  view::DeltaCollector collector(mutable_doc_, std::move(patterns));

  bool rebuild_all = false;
  {
    // Statistics that describe the pre-batch document follow each op by its
    // subtree delta instead of being re-collected by the next kAuto query.
    // RelabelWithGap leaves them as they are: they are structural, and
    // levels do not move.
    std::lock_guard<std::mutex> stats_lock(doc_stats_mu_);
    xml::DocumentStatistics* stats = nullptr;
    if (doc_stats_.has_value() &&
        doc_stats_revision_ == mutable_doc_->revision()) {
      stats = &*doc_stats_;
    }
    // Ops address nodes by their pre-batch labels; a mid-batch relabel
    // multiplies every position by the gap, so scale later ops' coordinates.
    uint32_t label_scale = 1;
    for (size_t i = 0; i < ops.size(); ++i) {
      const UpdateOp& op = ops[i];
      auto fail = [&](const std::string& reason) {
        out.failed.push_back("op " + std::to_string(i) + ": " + reason);
      };
      const xml::TagId target_tag = mutable_doc_->FindTag(op.target_tag);
      const xml::NodeId target =
          target_tag == xml::kInvalidTag
              ? xml::kInvalidNode
              : mutable_doc_->FindByStart(target_tag,
                                          op.target_start * label_scale);
      if (target == xml::kInvalidNode) {
        fail("no live node <" + op.target_tag + "> with start " +
             std::to_string(op.target_start));
        continue;
      }
      if (op.kind == UpdateOp::Kind::kDeleteSubtree) {
        if (!rebuild_all) collector.WillDelete(target);
        util::Status deleted = mutable_doc_->DeleteSubtree(target);
        if (!deleted.ok()) {
          fail(deleted.ToString());
          continue;
        }
        if (!rebuild_all) collector.DidDelete();
        if (stats != nullptr) stats->ApplySubtree(*mutable_doc_, target, -1);
        ++out.applied;
        continue;
      }
      xml::NodeId after = xml::kInvalidNode;
      if (op.after_start != 0) {
        const xml::TagId after_tag = mutable_doc_->FindTag(op.after_tag);
        after = after_tag == xml::kInvalidTag
                    ? xml::kInvalidNode
                    : mutable_doc_->FindByStart(after_tag,
                                                op.after_start * label_scale);
        if (after == xml::kInvalidNode) {
          fail("no live node <" + op.after_tag + "> with start " +
               std::to_string(op.after_start));
          continue;
        }
      }
      if (!rebuild_all) collector.WillInsert(target);
      util::StatusOr<xml::NodeId> inserted =
          mutable_doc_->InsertSubtree(op.subtree, target, after);
      int relabels = 0;
      while (!inserted.ok() &&
             inserted.status().code() == util::StatusCode::kResourceExhausted &&
             relabels < 3) {
        // The gap at the insertion point filled up: widen every gap and
        // retry. Stored labels are now all stale — every view rebuilds and
        // the deltas collected so far are moot.
        util::Status relabel = mutable_doc_->RelabelWithGap(16);
        if (!relabel.ok()) {
          inserted = relabel;
          break;
        }
        ++relabels;
        label_scale *= 16;
        rebuild_all = true;
        out.relabeled = true;
        inserted = mutable_doc_->InsertSubtree(op.subtree, target, after);
      }
      if (!inserted.ok()) {
        fail(inserted.status().ToString());
        continue;  // the Will* scope stays open; the next op overwrites it
      }
      if (!rebuild_all) collector.DidInsert(*inserted);
      if (stats != nullptr) stats->ApplySubtree(*mutable_doc_, *inserted, +1);
      ++out.applied;
    }
    // Disk doc-mode: re-snapshot the paged store while the exclusive lock
    // still guarantees no cursor is live over the old pages. Queries
    // admitted after this block scan the post-batch streams.
    if (out.applied > 0 || out.relabeled) RebuildDocStore();
    if (stats != nullptr) doc_stats_revision_ = mutable_doc_->revision();
  }
  doc_lock.unlock();
  out.doc_revision = mutable_doc_->revision();
  if (out.applied == 0 && !out.relabeled) return out;  // document unchanged

  // Turn the collected deltas into per-view maintenance specs. Views whose
  // deltas are empty were untouched by the batch (an unchanged solution set
  // implies an unchanged match set) and are skipped outright.
  std::vector<view::PatternDeltas> deltas;
  if (!rebuild_all) deltas = collector.TakeDeltas();
  std::vector<storage::ViewCatalog::ViewUpdateSpec> specs;
  for (size_t vi = 0; vi < maintain.size(); ++vi) {
    const MaterializedView* v = maintain[vi];
    if (!rebuild_all && deltas[vi].empty()) continue;
    storage::ViewCatalog::ViewUpdateSpec spec;
    spec.view = v;
    if (rebuild_all || v->scheme() == Scheme::kTuple) {
      spec.full_rebuild = true;
      if (v->scheme() != Scheme::kTuple) {
        spec.solutions =
            tpq::NaiveEvaluator(*mutable_doc_, v->pattern()).SolutionNodes();
      }
    } else {
      spec.deltas.added = std::move(deltas[vi].added);
      spec.deltas.removed = std::move(deltas[vi].removed);
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) return out;  // no view touched: no transaction needed

  // Maintenance phase: no lock on the document — it is read-only again, so
  // concurrent queries proceed (answering from the still-registered old
  // views) while the new epoch stages and installs. ApplyUpdateBatch
  // registers the whole batch atomically after its commit record lands.
  util::FaultInjector::Global().OnUpdateMaintenancePoint();
  util::StatusOr<storage::ViewCatalog::UpdateBatchResult> applied =
      catalog_->ApplyUpdateBatch(*mutable_doc_, specs);
  if (!applied.ok()) return applied.status();
  out.txn_epoch = applied->txn_epoch;
  out.delta_maintained = applied->delta_maintained;
  out.fully_rebuilt = applied->fully_rebuilt;
  out.superseded = applied->superseded;

  // Post-commit verification: read back every freshly patched view through
  // the checksummed page path; a view that fails is quarantined (queries
  // fall back to rebuilding it) rather than served. The pin keeps a rebuild
  // that retires one of them meanwhile from reusing its pages mid-read.
  const storage::PageReclaimer::Pin pin = catalog_->PinReader();
  for (const MaterializedView* fresh : applied->new_views) {
    util::Status verified = catalog_->VerifyView(fresh);
    if (!verified.ok()) {
      catalog_->Quarantine(fresh);
      ++out.quarantined;
      out.failed.push_back("verify " + fresh->pattern().ToString() + ": " +
                           verified.ToString());
    }
  }
  // Plan-cache invalidation is implicit: entries key on the catalog epoch,
  // which the transaction just bumped. Document statistics were maintained
  // in the exclusive phase above.
  return out;
}

util::StatusOr<storage::BackupReport> Engine::CreateBackup(
    const std::string& dest_dir, uint64_t rate_bytes_per_sec) {
  std::lock_guard<std::mutex> backup_lock(backup_mu_);
  storage::BackupOptions opts;
  opts.rate_bytes_per_sec = rate_bytes_per_sec;
  if (doc_store_ != nullptr) {
    opts.doc_store_path = storage_path_ + ".doc";
    // The doc store is rewritten in place by ApplyUpdates under the
    // exclusive document lock; holding it shared for just the doc-store
    // copy keeps the image's doc files internally consistent while queries
    // (also shared holders) continue.
    opts.doc_copy_begin = [this] { doc_mu_.lock_shared(); };
    opts.doc_copy_end = [this] { doc_mu_.unlock_shared(); };
  }
  return storage::CreateBackup(*catalog_, dest_dir, opts);
}

}  // namespace viewjoin::core
