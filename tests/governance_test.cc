// Query-lifecycle governance tests: deadlines, cooperative cancellation,
// memory/disk budgets, watchdog firing, and the bounded retry ladder. An
// aborted query must stop promptly, leak no buffer pins, and leave no spill
// files behind; a degraded (budget-downgraded) query must still produce the
// exact clean answer.
//
// This binary simulates a slow disk: main() arms per-page read latency
// (VIEWJOIN_PAGE_READ_MICROS, sleep mode) before the pager caches the
// setting, so a full scan over the large fixture takes long enough that a
// 50 ms deadline meaningfully truncates it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "algo/query_context.h"
#include "core/engine.h"
#include "storage/buffer_pool.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using core::Algorithm;
using core::Engine;
using core::RetryPolicy;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using testing::MustParse;
using tpq::TreePattern;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

bool Exists(const std::string& path) {
  return std::filesystem::exists(path);
}

/// `groups` independent a(b(c)) subtrees: //a//b//c yields exactly `groups`
/// matches, and the three stored lists scan linearly with no skipping, so
/// evaluation time is proportional to pages read. `pairs` x(y) subtrees
/// follow them, for a light //x//y query on the same document.
xml::Document GroupDoc(int groups, int pairs = 0) {
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
  for (int i = 0; i < pairs; ++i) {
    doc.StartElement("x");
    doc.StartElement("y");
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  return doc;
}

std::vector<const MaterializedView*> AddGroupViews(Engine* engine) {
  return {engine->AddView("//a//b", Scheme::kLinkedElement),
          engine->AddView("//c", Scheme::kLinkedElement)};
}

// ---- Slow-workload fixture -------------------------------------------------
//
// One large shared document (built once) whose clean //a//b//c evaluation
// reads several hundred pages; with the simulated 2 ms page reads that is a
// multi-hundred-millisecond workload, long enough that deadline and
// cancellation verdicts are clearly distinguishable from a full run.

class SlowGovernanceTest : public ::testing::Test {
 protected:
  static constexpr int kGroups = 60000;

  static void SetUpTestSuite() {
    doc_ = new xml::Document(GroupDoc(kGroups));
    query_ = new TreePattern(MustParse("//a//b//c"));
    Engine engine(doc_, TempPath("gov_clean.db"));
    RunResult r = engine.Execute(*query_, AddGroupViews(&engine));
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.match_count, static_cast<uint64_t>(kGroups));
    clean_ = new RunResult(r);
    // The latency arming worked: this workload is slow enough that a 50 ms
    // deadline cuts deep into it.
    ASSERT_GT(clean_->total_ms, 400.0);
  }

  static void TearDownTestSuite() {
    delete clean_;
    delete query_;
    delete doc_;
    clean_ = nullptr;
    query_ = nullptr;
    doc_ = nullptr;
  }

  static xml::Document* doc_;
  static TreePattern* query_;
  static RunResult* clean_;
};

xml::Document* SlowGovernanceTest::doc_ = nullptr;
TreePattern* SlowGovernanceTest::query_ = nullptr;
RunResult* SlowGovernanceTest::clean_ = nullptr;

TEST_F(SlowGovernanceTest, DeadlineTimesOutPromptlyWithoutLeaks) {
  std::string path = TempPath("gov_deadline.db");
  {
    Engine engine(doc_, path);
    std::vector<const MaterializedView*> views = AddGroupViews(&engine);
    RunOptions run;
    run.deadline_ms = 50;
    RunResult r = engine.Execute(*query_, views, run);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.timed_out) << r.error;
    EXPECT_FALSE(r.cancelled);
    EXPECT_EQ(r.error, "deadline exceeded");
    // Stops within one checkpoint interval of the deadline — far below the
    // clean runtime (the bound is generous for loaded CI hosts).
    EXPECT_LT(r.total_ms, clean_->total_ms / 2);
    EXPECT_LT(r.total_ms, 400.0);
    EXPECT_GT(r.checkpoints, 0u);
    // An aborted query must unwind cleanly: no pinned frames survive it.
    EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
  }
  // kTruncate spill spools vanish with the engine: nothing left on disk.
  EXPECT_FALSE(Exists(path + ".spill"));
}

TEST_F(SlowGovernanceTest, PreCancelledQueryStopsAtFirstSlowCheckpoint) {
  Engine engine(doc_, TempPath("gov_precancel.db"));
  std::vector<const MaterializedView*> views = AddGroupViews(&engine);
  std::atomic<bool> cancel{true};
  RunOptions run;
  run.cancel = &cancel;
  RunResult r = engine.Execute(*query_, views, run);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.cancelled) << r.error;
  EXPECT_FALSE(r.timed_out);
  EXPECT_LT(r.total_ms, clean_->total_ms / 3);
  EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
}

TEST_F(SlowGovernanceTest, MidRunCancellationInterruptsTheScan) {
  Engine engine(doc_, TempPath("gov_midcancel.db"));
  std::vector<const MaterializedView*> views = AddGroupViews(&engine);
  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.store(true);
  });
  RunOptions run;
  run.cancel = &cancel;
  RunResult r = engine.Execute(*query_, views, run);
  canceller.join();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.cancelled) << r.error;
  EXPECT_LT(r.total_ms, clean_->total_ms / 2);
  EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
}

// A FindFirstStart gallop must observe cancellation at a slow checkpoint
// *inside* the search — a skip that only polls governance between whole
// seeks would overshoot its cancellation by an unbounded amount on a long
// gallop — and the position reported by the cut-short search must still be
// sound (no live entry skipped).
TEST(CancelMidGallopTest, GallopObservesCancellationBetweenProbes) {
  util::Rng rng(97);
  xml::Document doc = testing::RandomDoc(&rng, 20000, {"a", "b"});
  storage::ViewCatalog catalog(TempPath("gallop_cancel.db"), 128);
  const MaterializedView* view =
      catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  const storage::StoredList* list = &view->list(1);
  ASSERT_GT(list->count, 1000u);

  storage::ListCursor reader(list, catalog.pool());
  std::vector<uint32_t> starts(list->count);
  for (uint32_t i = 0; i < list->count; ++i, reader.Next()) {
    starts[i] = reader.LabelAt().start;
  }
  uint32_t bound = starts[list->count - 2];

  std::atomic<bool> cancel{true};
  algo::QueryContext ctx;
  ctx.set_cancel_token(&cancel);
  // Drain the checkpoint interval down to 2 remaining charges: the gallop's
  // first probe passes, its second reaches the slow checkpoint, which sees
  // the flipped token — the abort lands between probes, mid-search.
  ASSERT_FALSE(ctx.CheckpointN(algo::QueryContext::kCheckInterval - 2));

  storage::ListCursor cursor(list, catalog.pool());
  uint64_t probes = 0;
  storage::SeekOutcome out =
      cursor.FindFirstStart(bound, /*strict=*/false, &probes,
                            [&](uint32_t n) { return ctx.CheckpointN(n); });
  EXPECT_TRUE(out.aborted);
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.reason(), algo::AbortReason::kCancelled);
  EXPECT_EQ(probes, 2u);
  for (uint32_t i = 0; i < out.pos; ++i) {
    ASSERT_LT(starts[i], bound) << "aborted seek skipped a live entry";
  }
}

// ---- Budgets ---------------------------------------------------------------

TEST(BudgetTest, MemoryOverrunDegradesToDiskSpillingWithExactAnswer) {
  xml::Document doc = GroupDoc(5000);
  TreePattern query = MustParse("//a//b//c");
  Engine engine(&doc, TempPath("gov_membudget.db"));
  std::vector<const MaterializedView*> views = AddGroupViews(&engine);
  RunResult clean = engine.Execute(query, views);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.match_count, 5000u);
  EXPECT_GT(clean.peak_memory_bytes, 0u);

  RunOptions run;
  run.memory_budget_bytes = 16 * 1024;  // far below the ~240 KiB buffered
  RunResult r = engine.Execute(query, views, run);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);  // rung 1: reran with disk-mode spilling
  EXPECT_GT(r.stats.spill_pages_written, 0u);
  EXPECT_EQ(r.match_count, clean.match_count);
  EXPECT_EQ(r.result_hash, clean.result_hash);
  EXPECT_FALSE(r.timed_out);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
}

TEST(BudgetTest, ExhaustedDiskBudgetIsTerminal) {
  xml::Document doc = GroupDoc(5000);
  TreePattern query = MustParse("//a//b//c");
  std::string path = TempPath("gov_diskbudget.db");
  {
    Engine engine(&doc, path);
    std::vector<const MaterializedView*> views = AddGroupViews(&engine);
    RunOptions run;
    run.memory_budget_bytes = 16 * 1024;
    run.disk_budget_bytes = 4 * 1024;  // one spill page, then the ladder ends
    RunResult r = engine.Execute(query, views, run);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("RESOURCE_EXHAUSTED"), std::string::npos)
        << r.error;
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.cancelled);
    EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
  }
  EXPECT_FALSE(Exists(path + ".spill"));
}

TEST(BudgetTest, UnlimitedBudgetsReportPeakWithoutAborting) {
  xml::Document doc = GroupDoc(2000);
  TreePattern query = MustParse("//a//b//c");
  Engine engine(&doc, TempPath("gov_peak.db"));
  RunResult r = engine.Execute(query, AddGroupViews(&engine));
  ASSERT_TRUE(r.ok) << r.error;
  // The accounting runs even when nothing is budgeted, so the observability
  // fields are populated on every governed run.
  EXPECT_GT(r.peak_memory_bytes, 0u);
  EXPECT_GT(r.checkpoints, 0u);
}

// ---- Per-query counters on a reused session --------------------------------

TEST(SessionCountersTest, RepeatedQueryReportsItsOwnCheckpoints) {
  xml::Document doc = GroupDoc(2000);
  TreePattern query = MustParse("//a//b//c");
  Engine engine(&doc, TempPath("gov_session_ckpt.db"));
  std::vector<const MaterializedView*> views = AddGroupViews(&engine);
  Engine::Session session(&engine, 0);
  RunResult first = session.Run(query, views, {});
  RunResult second = session.Run(query, views, {});
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_GT(first.checkpoints, 0u);
  EXPECT_EQ(second.checkpoints, first.checkpoints);
  EXPECT_EQ(second.peak_memory_bytes, first.peak_memory_bytes);
}

TEST(SessionCountersTest, LightQueryAfterHeavyReportsItsOwnPeak) {
  xml::Document doc = GroupDoc(2000, /*pairs=*/3);
  TreePattern heavy = MustParse("//a//b//c");
  TreePattern light = MustParse("//x//y");
  Engine engine(&doc, TempPath("gov_session_peak.db"));
  std::vector<const MaterializedView*> heavy_views = AddGroupViews(&engine);
  std::vector<const MaterializedView*> light_views = {
      engine.AddView("//x//y", Scheme::kLinkedElement)};
  RunResult fresh = engine.Execute(light, light_views);
  ASSERT_TRUE(fresh.ok) << fresh.error;

  Engine::Session session(&engine, 0);
  RunResult h = session.Run(heavy, heavy_views, {});
  RunResult l = session.Run(light, light_views, {});
  ASSERT_TRUE(h.ok) << h.error;
  ASSERT_TRUE(l.ok) << l.error;
  EXPECT_GT(h.peak_memory_bytes, fresh.peak_memory_bytes);
  EXPECT_EQ(l.peak_memory_bytes, fresh.peak_memory_bytes);
  EXPECT_EQ(l.checkpoints, fresh.checkpoints);

  // Execute runs on the engine's own session: same contract.
  ASSERT_TRUE(engine.Execute(heavy, heavy_views).ok);
  RunResult again = engine.Execute(light, light_views);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.peak_memory_bytes, fresh.peak_memory_bytes);
}

// ---- Watchdog firing -------------------------------------------------------

TEST(WatchdogFireTest, FiresAnExpiredArmingButNotALaterOne) {
  algo::QueryContext ctx;
  EXPECT_FALSE(ctx.FireIfExpired());  // nothing armed
  ctx.set_deadline_after_ms(-1);      // already in the past
  EXPECT_TRUE(ctx.FireIfExpired());
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.reason(), algo::AbortReason::kDeadline);

  // The owner starts the next query after that check: the stale verdict is
  // gone, and neither an unarmed nor a future deadline fires.
  ctx.ResetForQuery();
  EXPECT_FALSE(ctx.aborted());
  EXPECT_EQ(ctx.reason(), algo::AbortReason::kNone);
  EXPECT_FALSE(ctx.FireIfExpired());
  ctx.set_deadline_after_ms(60000);
  EXPECT_FALSE(ctx.FireIfExpired());
  EXPECT_FALSE(ctx.aborted());
}

// ---- Bounded retry ---------------------------------------------------------

TEST(SessionRetryTest, TransientStorageFaultIsRetriedWithBackoff) {
  util::Rng rng(31);
  xml::Document doc = testing::RandomDoc(&rng, 600, {"a", "b", "c"});
  TreePattern query = MustParse("//a//b//c");
  uint64_t clean_hash;
  {
    util::ScopedFaultInjection off;
    Engine engine(&doc, TempPath("gov_retry_clean.db"));
    RunResult r = engine.Execute(query, AddGroupViews(&engine));
    ASSERT_TRUE(r.ok) << r.error;
    clean_hash = r.result_hash;
  }

  util::ScopedFaultInjection fi;
  // Calibration pass: under a permanently dead disk with the base-document
  // fallback disabled, one service attempt fails with a *retryable* error
  // after consuming a deterministic number of injected read faults.
  uint64_t consumed;
  {
    Engine engine(&doc, TempPath("gov_retry_cal.db"));
    std::vector<const MaterializedView*> views = AddGroupViews(&engine);
    fi->ArmReadFault(/*nth=*/1, /*count=*/-1);
    RunOptions run;
    run.allow_base_fallback = false;
    engine.catalog()->DropCaches();  // every view page is read under fault
    Engine::Session session(&engine, 0);
    RunResult r = session.Run(query, views, run, RetryPolicy{});
    ASSERT_FALSE(r.ok);
    EXPECT_TRUE(r.retryable) << r.error;
    EXPECT_EQ(r.attempts, 1);
    consumed = fi->injected_read_faults();
    ASSERT_GT(consumed, 0u);
  }
  fi->Reset();

  // Real pass: the identical fault burst is now *transient* — it covers
  // exactly the first service attempt, so the retry ladder's second attempt
  // runs clean and must reproduce the exact answer.
  {
    Engine engine(&doc, TempPath("gov_retry_real.db"));
    std::vector<const MaterializedView*> views = AddGroupViews(&engine);
    fi->ArmReadFault(/*nth=*/1, /*count=*/static_cast<int>(consumed));
    RunOptions run;
    run.allow_base_fallback = false;
    RetryPolicy retry;
    retry.max_retries = 5;
    retry.backoff_ms = 0.1;
    engine.catalog()->DropCaches();  // cold, as in the calibration pass
    Engine::Session session(&engine, 0);
    RunResult r = session.Run(query, views, run, retry);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GE(r.attempts, 2);
    EXPECT_EQ(r.result_hash, clean_hash);
    EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
  }
}

TEST(SessionRetryTest, DeterministicFailuresAreNeverRetried) {
  xml::Document doc = GroupDoc(100);
  TreePattern query = MustParse("//a//b//c");
  Engine engine(&doc, TempPath("gov_noretry.db"));
  // Views that do not cover the query: a bind error, not a storage fault.
  std::vector<const MaterializedView*> bad = {
      engine.AddView("//a//b", Scheme::kLinkedElement)};
  RetryPolicy retry;
  retry.max_retries = 5;
  Engine::Session session(&engine, 0);
  RunResult r = session.Run(query, bad, {}, retry);
  ASSERT_FALSE(r.ok);
  EXPECT_FALSE(r.retryable);
  EXPECT_EQ(r.attempts, 1);  // the ladder never spun
}

TEST(SessionRetryTest, RetryBackoffIsJitteredNotADeterministicLadder) {
  // A deterministic base, 2*base, 4*base... schedule re-synchronizes every
  // retrier that tripped on the same fault (a thundering herd). The ladder
  // now draws each delay from [base, min(cap, 3 x previous)], reseeded per
  // query and per session — so the recorded sleeps must spread across that
  // interval, not collapse onto one schedule.
  xml::Document doc = GroupDoc(200);
  TreePattern query = MustParse("//a//b//c");
  util::ScopedFaultInjection fi;
  Engine engine(&doc, TempPath("gov_jitter.db"));
  std::vector<const MaterializedView*> views = AddGroupViews(&engine);

  std::vector<double> delays;
  Engine::SetRetrySleepHookForTest([&](double ms) { delays.push_back(ms); });
  fi->ArmReadFault(/*nth=*/1, /*count=*/-1);  // permanently dead disk
  RunOptions run;
  run.allow_base_fallback = false;
  RetryPolicy retry;
  retry.max_retries = 4;
  retry.backoff_ms = 1.0;
  retry.backoff_cap_ms = 8.0;
  // Two sessions, two queries each: each query reseeds its session's ladder.
  engine.catalog()->DropCaches();
  std::vector<RunResult> results;
  for (size_t id = 0; id < 2; ++id) {
    Engine::Session session(&engine, id);
    for (int q = 0; q < 2; ++q) {
      results.push_back(session.Run(query, views, run, retry));
    }
  }
  Engine::SetRetrySleepHookForTest(nullptr);
  fi->Reset();

  for (const RunResult& r : results) EXPECT_FALSE(r.ok);
  // 4 queries x up to 4 retries each; every sleep inside [base, cap].
  ASSERT_GE(delays.size(), 8u);
  for (double ms : delays) {
    EXPECT_GE(ms, 1.0 - 1e-9);
    EXPECT_LE(ms, 8.0 + 1e-9);
  }
  // The spread assertion: jittered delays are (nearly) all distinct, where
  // the old deterministic ladder produced exactly {1, 2, 4, 8} repeated.
  std::vector<double> uniq = delays;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_GE(uniq.size(), delays.size() / 2);
  EXPECT_GT(uniq.size(), 4u);  // more values than the ladder's 4 rungs
}

}  // namespace
}  // namespace viewjoin

// The pager samples its simulated-latency environment variables once, at the
// first page read, so they must be armed before any test runs. Sleep mode
// lets concurrent workers overlap their simulated I/O (and the OS reclaim
// the CPU) exactly as bench_concurrency configures it.
int main(int argc, char** argv) {
  setenv("VIEWJOIN_PAGE_READ_MICROS", "2000", /*overwrite=*/1);
  setenv("VIEWJOIN_PAGE_READ_SLEEP", "1", /*overwrite=*/1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
