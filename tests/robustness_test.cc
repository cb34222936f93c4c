// Robustness and failure-injection tests: parser fuzzing, pathological pool
// sizes, empty/missing inputs, cache behaviour, resolver monotonicity, and
// the storage fault matrix (transient read faults, torn pages, bit flips,
// persistent media failure) — under every injected fault Execute must either
// succeed with the exact clean answer (possibly degraded) or return a typed
// error; it must never abort or fabricate matches.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algo/monotone_resolver.h"
#include "core/engine.h"
#include "storage/buffer_pool.h"
#include "storage/fsck.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace viewjoin {
namespace {

using core::Algorithm;
using core::Engine;
using core::EngineOptions;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using testing::MakeDoc;
using testing::MustParse;
using tpq::TreePattern;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(MonotoneResolverTest, ResolvesAscendingStreams) {
  xml::Document doc = MakeDoc("a(b(c) b(c c) b)");
  xml::TagId b = doc.FindTag("b");
  xml::TagId c = doc.FindTag("c");
  algo::MonotoneResolver resolver(&doc, {b, c});
  for (xml::NodeId n : doc.NodesOfTag(b)) {
    EXPECT_EQ(resolver.Resolve(0, doc.NodeLabel(n).start), n);
  }
  for (xml::NodeId n : doc.NodesOfTag(c)) {
    EXPECT_EQ(resolver.Resolve(1, doc.NodeLabel(n).start), n);
  }
  // Unknown start past the end resolves to invalid.
  EXPECT_EQ(resolver.Resolve(0, 100000u), xml::kInvalidNode);
}

TEST(MonotoneResolverTest, RepeatedStartsAreStable) {
  xml::Document doc = MakeDoc("a(b b)");
  xml::TagId b = doc.FindTag("b");
  algo::MonotoneResolver resolver(&doc, {b});
  xml::NodeId first = doc.NodesOfTag(b)[0];
  uint32_t start = doc.NodeLabel(first).start;
  EXPECT_EQ(resolver.Resolve(0, start), first);
  EXPECT_EQ(resolver.Resolve(0, start), first);  // same start: no advance
}

TEST(ParserFuzzTest, MutatedDocumentsNeverCrash) {
  util::Rng rng(77);
  xml::Document doc = testing::RandomDoc(&rng, 60, {"a", "bb", "c"});
  std::string base = xml::WriteDocument(doc);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Uniform(128));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.Uniform(3));
          break;
        default:
          mutated.insert(pos, 1, "<>/ab\""[rng.Uniform(6)]);
          break;
      }
      if (mutated.empty()) mutated = "<a/>";
    }
    // Must either parse to a complete document or fail cleanly.
    xml::ParseResult result = xml::ParseDocument(mutated);
    if (result.ok()) {
      EXPECT_TRUE(result.document->IsComplete());
    } else {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  util::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back("<>/= \"'abc![]-?x"[rng.Uniform(16)]);
    }
    xml::ParseResult result = xml::ParseDocument(garbage);
    if (result.ok()) {
      EXPECT_TRUE(result.document->IsComplete());
    }
  }
}

TEST(PoolPressureTest, CapacityOneStillAnswersCorrectly) {
  util::Rng rng(5);
  xml::Document doc = testing::RandomDoc(&rng, 400, {"a", "b", "c", "d"});
  TreePattern query = MustParse("//a//b[//c]//d");
  uint64_t expected = tpq::NaiveEvaluator(doc, query).Count();
  EngineOptions options;
  options.pool_pages = 1;  // every page access is a miss after the first
  Engine engine(&doc, TempPath("pool1.db"), options);
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
      engine.AddView("//d", Scheme::kLinkedElement),
  };
  RunResult r = engine.Execute(query, views);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, expected);
  EXPECT_GT(r.io.pool_misses, 0u);
}

TEST(CacheBehaviourTest, WarmRunsReadFewerPages) {
  xml::Document doc = MakeDoc("r(a(b(c) b) a(b(c c)))");
  Engine engine(&doc, TempPath("warm.db"));
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  TreePattern query = MustParse("//a//b//c");
  RunOptions cold;
  cold.cold_cache = true;
  RunResult first = engine.Execute(query, views, cold);
  ASSERT_TRUE(first.ok);
  RunOptions warm;
  warm.cold_cache = false;
  RunResult second = engine.Execute(query, views, warm);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.match_count, second.match_count);
  EXPECT_LT(second.io.pages_read, first.io.pages_read + 1);
}

TEST(MissingTagTest, AllAlgorithmsReturnEmpty) {
  xml::Document doc = MakeDoc("r(a(b))");
  Engine engine(&doc, TempPath("missing.db"));
  TreePattern query = MustParse("//a//zzz");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a", Scheme::kLinkedElement),
      engine.AddView("//zzz", Scheme::kLinkedElement),
  };
  for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
    RunOptions run;
    run.algorithm = algorithm;
    RunResult r = engine.Execute(query, views, run);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.match_count, 0u);
  }
  std::vector<const MaterializedView*> tuples = {
      engine.AddView("//a", Scheme::kTuple),
      engine.AddView("//zzz", Scheme::kTuple),
  };
  RunOptions ij;
  ij.algorithm = Algorithm::kInterJoin;
  RunResult r = engine.Execute(query, tuples, ij);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, 0u);
}

TEST(EmptyResultViewTest, StoringAnEmptyAnswerWorks) {
  xml::Document doc = MakeDoc("r(a(b) c)");
  Engine engine(&doc, TempPath("emptyview.db"));
  TreePattern query = MustParse("//c//a");  // a never under c
  std::vector<const MaterializedView*> views = {
      engine.AddView("//c", Scheme::kLinkedElement),
      engine.AddView("//a", Scheme::kLinkedElement),
  };
  const MaterializedView* stored = nullptr;
  RunResult r =
      engine.ExecuteToView(query, views, Scheme::kLinkedElement, &stored);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, 0u);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->ListLength(0), 0u);
  EXPECT_EQ(stored->ListLength(1), 0u);
}

TEST(DiskModeTest, SmallFlushesAgreeWithMemoryOnManyGroups) {
  // Many independent root groups: disk mode flushes repeatedly once the
  // spill threshold is crossed; the final answers must agree regardless.
  xml::Document doc;
  doc.StartElement("r");
  for (int i = 0; i < 5000; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.StartElement("c");
    doc.EndElement();
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  Engine engine(&doc, TempPath("diskgroups.db"));
  TreePattern query = MustParse("//a//b//c");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  RunOptions mem;
  mem.output_mode = algo::OutputMode::kMemory;
  RunOptions disk;
  disk.output_mode = algo::OutputMode::kDisk;
  RunResult m = engine.Execute(query, views, mem);
  RunResult d = engine.Execute(query, views, disk);
  ASSERT_TRUE(m.ok && d.ok);
  EXPECT_EQ(m.match_count, 5000u);
  EXPECT_EQ(m.result_hash, d.result_hash);
  EXPECT_GT(d.stats.flushes, 1u);          // threshold-triggered group flushes
  EXPECT_GT(d.stats.spill_pages_written, 0u);
  EXPECT_LT(d.stats.peak_buffered, m.stats.peak_buffered);
}

// ---- Storage fault matrix ------------------------------------------------
//
// Every scenario compares the faulted run's result_hash against a clean
// TwigStack run over an untouched store: recovery must reproduce the exact
// match set, not an approximation.

class FaultMatrixTest : public ::testing::Test {
 protected:
  FaultMatrixTest() {
    util::Rng rng(11);
    doc_ = testing::RandomDoc(&rng, 600, {"a", "b", "c", "d"});
    query_ = MustParse("//a//b//c");
  }

  /// Clean reference hash from a fresh, fault-free engine.
  RunResult CleanBaseline() {
    util::ScopedFaultInjection off;  // ensure nothing is armed
    Engine engine(&doc_, TempPath("fault_clean.db"));
    std::vector<const MaterializedView*> views = {
        engine.AddView("//a//b", Scheme::kLinkedElement),
        engine.AddView("//c", Scheme::kLinkedElement),
    };
    RunOptions ts;
    ts.algorithm = Algorithm::kTwigStack;
    RunResult r = engine.Execute(query_, views, ts);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.degraded);
    return r;
  }

  xml::Document doc_;
  TreePattern query_;
};

TEST_F(FaultMatrixTest, TransientReadFaultIsAbsorbedByRetry) {
  RunResult clean = CleanBaseline();
  util::ScopedFaultInjection fi;
  Engine engine(&doc_, TempPath("fault_transient.db"));
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  fi->ArmReadFault(/*nth=*/1, /*count=*/1);
  RunResult r = engine.Execute(query_, views);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.degraded);  // the retry hid the fault entirely
  EXPECT_GT(r.retries, 0u);
  EXPECT_TRUE(r.quarantined_views.empty());
  EXPECT_EQ(r.result_hash, clean.result_hash);
  EXPECT_EQ(r.match_count, clean.match_count);
}

TEST_F(FaultMatrixTest, BitFlippedViewIsQuarantinedAndRematerialized) {
  RunResult clean = CleanBaseline();
  util::ScopedFaultInjection fi;
  Engine engine(&doc_, TempPath("fault_bitflip.db"));
  const MaterializedView* ab = engine.AddView("//a//b",
                                              Scheme::kLinkedElement);
  // Corrupt the first page written for //c: the checksum is computed before
  // the flip, so the page reads back as kCorruption.
  fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/1, /*count=*/1);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  RunResult r = engine.Execute(query_, {ab, c});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  ASSERT_FALSE(r.quarantined_views.empty());
  EXPECT_EQ(r.quarantined_views[0], "//c");
  EXPECT_EQ(r.result_hash, clean.result_hash);
  EXPECT_EQ(r.match_count, clean.match_count);
  // The catalog remembers the quarantine and the healthy replacement, so the
  // next run with the stale pointer is clean again.
  EXPECT_GE(engine.catalog()->quarantined_count(), 1u);
  RunResult again = engine.Execute(query_, {ab, c});
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_FALSE(again.degraded);
  EXPECT_EQ(again.result_hash, clean.result_hash);
}

TEST_F(FaultMatrixTest, TornPageIsDetectedAndRecovered) {
  RunResult clean = CleanBaseline();
  util::ScopedFaultInjection fi;
  Engine engine(&doc_, TempPath("fault_torn.db"));
  const MaterializedView* ab = engine.AddView("//a//b",
                                              Scheme::kLinkedElement);
  fi->ArmWriteFault(util::WriteFault::kTornPage, /*nth=*/1, /*count=*/1);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  RunResult r = engine.Execute(query_, {ab, c});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.quarantined_views.empty());
  EXPECT_EQ(r.result_hash, clean.result_hash);
}

TEST_F(FaultMatrixTest, PersistentReadFaultFallsBackToBaseDocument) {
  RunResult clean = CleanBaseline();
  util::ScopedFaultInjection fi;
  Engine engine(&doc_, TempPath("fault_dead_disk.db"));
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  // Every physical read fails from here on: retry cannot hide it and
  // re-materialized replacements are just as unreadable, so the engine must
  // end up answering from the in-memory document alone.
  fi->ArmReadFault(/*nth=*/1, /*count=*/-1);
  for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
    RunOptions run;
    run.algorithm = algorithm;
    RunResult r = engine.Execute(query_, views, run);
    ASSERT_TRUE(r.ok) << AlgorithmName(algorithm) << ": " << r.error;
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.quarantined_views.empty());
    EXPECT_EQ(r.result_hash, clean.result_hash) << AlgorithmName(algorithm);
    EXPECT_EQ(r.match_count, clean.match_count);
  }
}

TEST_F(FaultMatrixTest, SpillWriteFaultDegradesToMemoryBuffering) {
  // Many independent groups so disk mode actually spills (cf. DiskModeTest).
  xml::Document doc;
  doc.StartElement("r");
  for (int i = 0; i < 5000; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.StartElement("c");
    doc.EndElement();
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  util::ScopedFaultInjection fi;
  Engine engine(&doc, TempPath("fault_spill.db"));
  TreePattern query = MustParse("//a//b//c");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  RunOptions mem;
  mem.output_mode = algo::OutputMode::kMemory;
  RunResult clean = engine.Execute(query, views, mem);
  ASSERT_TRUE(clean.ok);
  // All further writes fail short: only the spill spool writes from here on.
  fi->ArmWriteFault(util::WriteFault::kShortWrite, /*nth=*/1, /*count=*/-1);
  RunOptions disk;
  disk.output_mode = algo::OutputMode::kDisk;
  RunResult r = engine.Execute(query, views, disk);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.quarantined_views.empty());  // the views were never at fault
  EXPECT_EQ(r.match_count, 5000u);
  EXPECT_EQ(r.result_hash, clean.result_hash);
}

TEST(FsckTest, DetectsExactlyTheCorruptedPages) {
  util::ScopedFaultInjection fi;
  std::string path = TempPath("fsck_matrix.db");
  {
    storage::Pager pager(path, storage::Pager::Mode::kPersist);
    ASSERT_TRUE(pager.init_status().ok());
    std::vector<uint8_t> page(storage::Pager::kPageSize);
    // Bit-flip write #4 (page 3), tear writes #7 and #8 (pages 6 and 7).
    fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/4, /*count=*/1);
    for (uint32_t i = 0; i < 10; ++i) {
      if (i == 6) {
        fi->ArmWriteFault(util::WriteFault::kTornPage, /*nth=*/1, /*count=*/2);
      }
      for (size_t b = 0; b < page.size(); ++b) {
        page[b] = static_cast<uint8_t>(i + b);
      }
      storage::PageId id = *pager.AllocatePage();
      pager.WritePage(id, page.data());  // torn writes still report success
    }
  }
  storage::FsckReport report = storage::FsckPagerFile(path);
  ASSERT_TRUE(report.file_status.ok()) << report.file_status.ToString();
  EXPECT_EQ(report.page_count, 10u);
  EXPECT_FALSE(report.ok());
  std::set<storage::PageId> bad;
  for (const auto& [id, status] : report.bad_pages) {
    EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
        << status.ToString();
    bad.insert(id);
  }
  EXPECT_EQ(bad, (std::set<storage::PageId>{3, 6, 7}));
  std::remove(path.c_str());
}

TEST(FsckTest, RejectsGarbageFileViaHeader) {
  std::string path = TempPath("fsck_garbage.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 9000; ++i) std::fputc(0x42, f);
    std::fclose(f);
  }
  storage::FsckReport report = storage::FsckPagerFile(path);
  EXPECT_EQ(report.file_status.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(report.ok());
  std::remove(path.c_str());
}

// ---- Error-latch lifecycle ----------------------------------------------

TEST(PoolLatchTest, ClearResetsTheErrorLatch) {
  std::string path = TempPath("latch_clear.db");
  storage::Pager pager(path, storage::Pager::Mode::kTruncate);
  ASSERT_TRUE(pager.init_status().ok());
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, 1);
  storage::BufferPool pool(&pager, 4);
  // Out-of-range read: the pool hands back sentinels and latches the error.
  EXPECT_EQ(testing::PageTag(&pool, 999, key), 0xFFFFFFFFu);
  EXPECT_FALSE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), 999u);
  // Regression: Clear() (the cold-cache path) must reset the latch along
  // with the frames; it used to drop only the frames, so a later run saw a
  // stale fault it never experienced.
  pool.Clear();
  EXPECT_TRUE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), storage::kInvalidPage);
  // ResetError() — the quarantine path's explicit reset — works on its own.
  testing::PageTag(&pool, 999, key);
  EXPECT_FALSE(pool.error().ok());
  pool.ResetError();
  EXPECT_TRUE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), storage::kInvalidPage);
  // A valid page still reads correctly after both resets.
  EXPECT_EQ(testing::PageTag(&pool, 0, key), 0u);
  EXPECT_TRUE(pool.error().ok());
  std::remove(path.c_str());
}

TEST(PoolLatchTest, RecoveredEngineStaysCleanOnColdRuns) {
  util::Rng rng(13);
  xml::Document doc = testing::RandomDoc(&rng, 400, {"a", "b", "c"});
  TreePattern query = MustParse("//a//b//c");
  util::ScopedFaultInjection fi;
  Engine engine(&doc, TempPath("latch_engine.db"));
  const MaterializedView* ab = engine.AddView("//a//b",
                                              Scheme::kLinkedElement);
  fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/1, /*count=*/1);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  RunResult faulted = engine.Execute(query, {ab, c});
  ASSERT_TRUE(faulted.ok) << faulted.error;
  EXPECT_TRUE(faulted.degraded);
  // Every later cold-cache run (DropCaches → BufferPool::Clear) must start
  // from a clean latch: same answer, no phantom degradation.
  for (int i = 0; i < 3; ++i) {
    RunResult r = engine.Execute(query, {ab, c});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(r.quarantined_views.empty());
    EXPECT_EQ(r.result_hash, faulted.result_hash);
  }
}

// ---- Batch fault isolation ----------------------------------------------

TEST(BatchFaultIsolationTest, CorruptViewDegradesOnlyItsOwnQuery) {
  util::Rng rng(21);
  xml::Document doc = testing::RandomDoc(&rng, 600, {"a", "b", "c", "d"});
  TreePattern q_bad = MustParse("//a//b");
  TreePattern q_good = MustParse("//c//d");
  uint64_t bad_expected = tpq::NaiveEvaluator(doc, q_bad).Count();
  uint64_t good_expected = tpq::NaiveEvaluator(doc, q_good).Count();
  util::ScopedFaultInjection fi;
  Engine engine(&doc, TempPath("batch_fault.db"));
  const MaterializedView* a = engine.AddView("//a", Scheme::kLinkedElement);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  const MaterializedView* d = engine.AddView("//d", Scheme::kLinkedElement);
  fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/1, /*count=*/1);
  const MaterializedView* b = engine.AddView("//b", Scheme::kLinkedElement);
  std::vector<core::BatchQuery> batch;
  for (int rep = 0; rep < 4; ++rep) {
    batch.push_back({&q_bad, {a, b}});    // touches the corrupt view
    batch.push_back({&q_good, {c, d}});   // never touches it
  }
  core::BatchOptions options;
  options.threads = 4;
  std::vector<RunResult> results = engine.ExecuteBatch(batch, options);
  ASSERT_EQ(results.size(), batch.size());
  bool any_bad_degraded = false;
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << "query " << i << ": " << results[i].error;
    if (i % 2 == 0) {
      EXPECT_EQ(results[i].match_count, bad_expected);
      any_bad_degraded |= results[i].degraded;
    } else {
      // Sibling queries must not be contaminated by the corrupt view's
      // poison latch or quarantine (per-query ErrorScope isolation).
      EXPECT_FALSE(results[i].degraded) << "sibling " << i << " contaminated";
      EXPECT_TRUE(results[i].quarantined_views.empty());
      EXPECT_EQ(results[i].match_count, good_expected);
    }
  }
  // At least the first query to touch the corrupt view saw the fault (later
  // replicas may already be served by the rebuilt replacement).
  EXPECT_TRUE(any_bad_degraded);
  EXPECT_GE(engine.catalog()->quarantined_count(), 1u);
}

TEST(BatchFaultIsolationTest, CancelDuringQuarantineRecoveryLeaksNothing) {
  // A query hits a corrupt view, the engine quarantines and rebuilds it, and
  // the caller cancels *during* that recovery: an armed recovery barrier
  // holds the victim's worker between the rebuild and the retry run until
  // the canceller has flipped the token, so the cancellation lands
  // mid-recovery deterministically — the retry can never outrun it. The
  // cancelled query must stop without leaking buffer pins or spill files,
  // and sibling batch queries must complete with clean answers.
  util::Rng rng(33);
  xml::Document doc = testing::RandomDoc(&rng, 40000, {"a", "b", "c", "d"});
  TreePattern q_bad = MustParse("//a//b");
  TreePattern q_good = MustParse("//c//d");
  uint64_t good_expected = tpq::NaiveEvaluator(doc, q_good).Count();
  util::ScopedFaultInjection fi;
  std::string path = TempPath("cancel_recovery.db");
  Engine engine(&doc, path);
  const MaterializedView* a = engine.AddView("//a", Scheme::kLinkedElement);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  const MaterializedView* d = engine.AddView("//d", Scheme::kLinkedElement);
  fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/1, /*count=*/1);
  const MaterializedView* b = engine.AddView("//b", Scheme::kLinkedElement);
  fi->ArmRecoveryBarrier();

  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.catalog()->quarantined_count() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    cancel.store(true);
    // The token is set; let the recovering worker proceed into the retry,
    // whose first checkpoint observes the cancellation.
    util::FaultInjector::Global().ReleaseRecoveryBarrier();
  });

  core::BatchQuery victim{&q_bad, {a, b}};
  victim.cancel = &cancel;
  std::vector<core::BatchQuery> batch = {
      victim, {&q_good, {c, d}}, {&q_good, {c, d}}};
  core::BatchOptions options;
  options.threads = 2;
  std::vector<RunResult> results = engine.ExecuteBatch(batch, options);
  canceller.join();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_TRUE(results[0].cancelled) << results[0].error;
  // The quarantine had already happened when the token flipped.
  EXPECT_GE(engine.catalog()->quarantined_count(), 1u);
  ASSERT_FALSE(results[0].quarantined_views.empty());
  EXPECT_EQ(results[0].quarantined_views[0], "//b");
  // No pins survive the abort and the worker spill spools are gone.
  EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path + ".spill.0"));
  EXPECT_FALSE(std::filesystem::exists(path + ".spill.1"));
  // Siblings were untouched by both the fault and the cancellation.
  for (size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(results[i].ok) << "sibling " << i << ": " << results[i].error;
    EXPECT_FALSE(results[i].cancelled);
    EXPECT_FALSE(results[i].degraded) << "sibling " << i << " contaminated";
    EXPECT_EQ(results[i].match_count, good_expected);
  }
  // The rebuilt replacement serves the cancelled query cleanly afterwards.
  RunResult after = engine.Execute(q_bad, {a, b});
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(after.match_count, tpq::NaiveEvaluator(doc, q_bad).Count());
}

TEST(SingleNodeQueryTest, DegenerateQueriesWork) {
  xml::Document doc = MakeDoc("a(b b(b))");
  Engine engine(&doc, TempPath("single.db"));
  TreePattern query = MustParse("//b");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//b", Scheme::kLinkedElement)};
  for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
    RunOptions run;
    run.algorithm = algorithm;
    RunResult r = engine.Execute(query, views, run);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.match_count, 3u);
  }
}

}  // namespace
}  // namespace viewjoin
