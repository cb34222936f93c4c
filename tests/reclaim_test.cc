// Page reuse: a catalog rewrites the pages of retired view versions once no
// pinned reader or backup can reach them.
//
// Under test, through the public surfaces:
//   - epoch pins: a reader pinned before a batch keeps reading intact pages
//     while later batches run, and those pages are reused only after it
//     releases; sessions racing reusing batches answer from one snapshot;
//   - crash safety: a crash at every injection point of a batch or an
//     install that reuses pages reopens to the oracle's answers with a
//     clean fsck, and a commit record that lands although its append
//     failed keeps its pages from the next install;
//   - a fault-recovery rebuild that supersedes a view between an update
//     batch's document phase and its transaction is left alone by it;
//   - backups: a backup pin makes the catalog append only, and a backup
//     taken while batches reuse pages verifies and restores;
//   - bounds: over 200 batches the pager file stays within the live pages
//     plus two suffixes, and the journal compacts itself; a scratch catalog
//     reuses pages too;
//   - the pool never serves a stale frame for a reused page id;
//   - fsck counts free pages as free and still flags a page two live lists
//     claim; the scrubber never touches a free page.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "plan/operator.h"
#include "storage/backup.h"
#include "storage/buffer_pool.h"
#include "storage/fsck.h"
#include "storage/manifest.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/scrubber.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "view/delta.h"

namespace viewjoin {
namespace {

using core::Engine;
using core::RunOptions;
using core::RunResult;
using core::UpdateOp;
using storage::BufferPool;
using storage::MaterializedView;
using storage::PageId;
using storage::Pager;
using storage::Scheme;
using storage::StoredList;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::NaiveEvaluator;
using tpq::TreePattern;
using util::CrashPoint;
using util::ScopedFaultInjection;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".manifest.tmp").c_str());
  std::remove((path + ".spill").c_str());
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

constexpr int kParents = 600;

/// `parents` `p` anchors, each holding one a(b(c)), with room for hundreds
/// of nested inserts per anchor.
xml::Document MakeAnchorDocument(int parents) {
  std::string spec = "r(";
  for (int i = 0; i < parents; ++i) spec += " p(a(b(c)))";
  xml::Document made = MakeDoc(spec + ")");
  VJ_CHECK(made.RelabelWithGap(1u << 16).ok());
  return made;
}

/// Grafts a fresh a(b(c)) as the first child of `d`'s `anchor`-th `p` and,
/// with `drop_old`, drops the anchor's previous `a` subtree.
std::vector<UpdateOp> GraftOps(const xml::Document& d, size_t anchor,
                               bool drop_old) {
  const xml::NodeId p = d.NodesOfTag(d.FindTag("p"))[anchor];
  UpdateOp ins;
  ins.kind = UpdateOp::Kind::kInsertSubtree;
  ins.target_tag = "p";
  ins.target_start = d.NodeLabel(p).start;
  ins.subtree = xml::SpecFromDocument(MakeDoc("a(b(c))"));
  if (!drop_old) return {ins};
  xml::NodeId old_a = xml::kInvalidNode;
  for (xml::NodeId n : d.NodesOfTag(d.FindTag("a"))) {
    if (d.Parent(n) == p) {
      old_a = n;
      break;
    }
  }
  VJ_CHECK(old_a != xml::kInvalidNode);
  UpdateOp del;
  del.kind = UpdateOp::Kind::kDeleteSubtree;
  del.target_tag = "a";
  del.target_start = d.NodeLabel(old_a).start;
  return {ins, del};
}

/// Batch i's anchor: the last 100 anchors in turn, so each batch rewrites
/// a short suffix of every list.
size_t AnchorOf(int i) { return kParents - 100 + static_cast<size_t>(i % 100); }

/// Applies `ops` to `d` directly (the mirror of what the engine applied).
void ApplyToDoc(xml::Document* d, const std::vector<UpdateOp>& ops) {
  for (const UpdateOp& op : ops) {
    const xml::NodeId target =
        d->FindByStart(d->FindTag(op.target_tag), op.target_start);
    if (op.kind == UpdateOp::Kind::kDeleteSubtree) {
      VJ_CHECK(d->DeleteSubtree(target).ok());
    } else {
      VJ_CHECK(d->InsertSubtree(op.subtree, target).ok());
    }
  }
}

uint64_t OracleHash(const xml::Document& d, const TreePattern& query) {
  tpq::HashingSink sink;
  NaiveEvaluator(d, query).Evaluate(&sink);
  return sink.hash();
}

std::vector<PageId> PagesOf(const MaterializedView* view) {
  std::vector<PageId> pages;
  for (const StoredList& list : view->lists()) {
    pages.insert(pages.end(), list.pages.begin(), list.pages.end());
  }
  pages.insert(pages.end(), view->tuple_list().pages.begin(),
               view->tuple_list().pages.end());
  return pages;
}

std::set<PageId> LivePages(const ViewCatalog& catalog) {
  std::set<PageId> pages;
  for (const MaterializedView* v : catalog.LiveViews()) {
    for (PageId page : PagesOf(v)) pages.insert(page);
  }
  return pages;
}

/// Answer hash of `query` over `views`, read from `catalog`'s pages by the
/// plan layer's ViewJoin operator.
uint64_t CatalogAnswerHash(const xml::Document& d, ViewCatalog* catalog,
                           const TreePattern& query,
                           const std::vector<const MaterializedView*>& views) {
  plan::Operator::Config config;
  config.doc = &d;
  config.query = &query;
  config.views = views;
  config.pool = catalog->pool();
  std::unique_ptr<plan::Operator> op =
      plan::MakeOperator(core::Algorithm::kViewJoin, config);
  util::Status opened = op->Open();
  EXPECT_TRUE(opened.ok()) << opened.ToString();
  if (!opened.ok()) return 0;
  tpq::HashingSink sink;
  algo::QueryContext context;
  op->Evaluate(&sink, &context);
  op->Close();
  return sink.hash();
}

std::vector<uint8_t> PageBytes(ViewCatalog* catalog, PageId page) {
  std::vector<uint8_t> bytes(Pager::kPageSize);
  EXPECT_TRUE(catalog->pager()->ReadPage(page, bytes.data()).ok());
  return bytes;
}

/// Rewrites `page`'s own payload with one bit flipped after the checksum.
void FlipBitOnDisk(ViewCatalog* catalog, PageId page) {
  std::vector<uint8_t> bytes(Pager::kPageSize);
  ASSERT_TRUE(catalog->pager()->VerifyPage(page, bytes.data()).ok());
  ScopedFaultInjection fi;
  fi->ArmWriteFault(util::WriteFault::kBitFlip, 1);
  ASSERT_TRUE(catalog->pager()->WritePage(page, bytes.data()).ok());
}

/// An engine holding //p//a and //b//c (E) and //a//b (LE, which every
/// batch re-encodes whole); persistent unless asked for a scratch one.
struct ReclaimFixture {
  explicit ReclaimFixture(const std::string& name, bool drop_old = true,
                          bool persistent = true)
      : doc(MakeAnchorDocument(kParents)),
        mirror(MakeAnchorDocument(kParents)),
        path(TempPath(name)),
        drop_old(drop_old) {
    RemoveStore(path);
    core::EngineOptions options;
    options.persistent = persistent;
    engine = std::make_unique<Engine>(&doc, path, options);
    engine->AddView("//p//a", Scheme::kElement);
    engine->AddView("//b//c", Scheme::kElement);
    engine->AddView("//a//b", Scheme::kLinkedElement);
  }
  ~ReclaimFixture() {
    engine.reset();
    RemoveStore(path);
  }

  ViewCatalog* catalog() { return engine->catalog(); }

  /// The live //p//a and //b//c versions.
  std::vector<const MaterializedView*> QueryViews() {
    return {catalog()->FindView(MustParse("//p//a").ToString(),
                                Scheme::kElement),
            catalog()->FindView(MustParse("//b//c").ToString(),
                                Scheme::kElement)};
  }

  void ApplyBatch(int i) {
    const std::vector<UpdateOp> ops = GraftOps(doc, AnchorOf(i), drop_old);
    auto result = engine->ApplyUpdates(ops);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->failed.empty()) << result->failed.front();
    ASSERT_FALSE(result->relabeled) << "batch " << i << " ran out of gap";
  }

  /// The oracle hash after each of the first `batches` batches, index 0
  /// being the document before any.
  std::vector<uint64_t> MirrorHashes(int batches) {
    std::vector<uint64_t> hashes = {OracleHash(mirror, query)};
    for (int i = 0; i < batches; ++i) {
      ApplyToDoc(&mirror, GraftOps(mirror, AnchorOf(i), drop_old));
      hashes.push_back(OracleHash(mirror, query));
    }
    return hashes;
  }

  xml::Document doc;
  xml::Document mirror;
  std::string path;
  bool drop_old;
  std::unique_ptr<Engine> engine;
  const TreePattern query = MustParse("//p//a//b//c");
};

// ---- Positioned page writes ------------------------------------------------

TEST(ReclaimPagerTest, RewritesLandAtTheirIdsAndStopAtARefusedPage) {
  const std::string path = TempPath("reclaim_pager.db");
  Pager pager(path, Pager::Mode::kTruncate);
  ASSERT_TRUE(pager.init_status().ok());
  auto page_of = [](uint8_t fill) {
    return std::vector<uint8_t>(Pager::kPageSize, fill);
  };
  for (uint8_t fill = 1; fill <= 3; ++fill) {
    auto id = pager.AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(pager.WritePage(*id, page_of(fill).data()).ok());
  }
  auto encode = [&](const std::vector<PageId>& ids, uint8_t fill) {
    std::vector<uint8_t> phys(ids.size() * Pager::kPhysicalPageSize);
    for (size_t k = 0; k < ids.size(); ++k) {
      Pager::EncodePhysicalPage(ids[k],
                                page_of(static_cast<uint8_t>(fill + k)).data(),
                                phys.data() + k * Pager::kPhysicalPageSize);
    }
    return phys;
  };
  std::vector<uint8_t> read(Pager::kPageSize);
  {
    // Rewrite pages 0 and 1 and append page 3; the device refuses the
    // second page, so nothing from it on may land.
    const std::vector<PageId> ids = {0, 1, 3};
    const std::vector<uint8_t> phys = encode(ids, 10);
    ScopedFaultInjection fi;
    fi->ArmWriteFault(util::WriteFault::kNoSpace, 2);
    EXPECT_EQ(pager.WritePhysicalPages(ids, phys.data()).code(),
              util::StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(pager.page_count(), 3u);
  ASSERT_TRUE(pager.ReadPage(0, read.data()).ok());
  EXPECT_EQ(read, page_of(10));
  ASSERT_TRUE(pager.ReadPage(1, read.data()).ok());
  EXPECT_EQ(read, page_of(2)) << "a page from the refused one on was written";

  // Out-of-order rewrites plus an append, in one call.
  pager.ClearError();
  const std::vector<PageId> ids = {2, 0, 3};
  const std::vector<uint8_t> phys = encode(ids, 20);
  ASSERT_TRUE(pager.WritePhysicalPages(ids, phys.data()).ok());
  EXPECT_EQ(pager.page_count(), 4u);
  for (size_t k = 0; k < ids.size(); ++k) {
    ASSERT_TRUE(pager.ReadPage(ids[k], read.data()).ok());
    EXPECT_EQ(read, page_of(static_cast<uint8_t>(20 + k)))
        << "page " << ids[k];
  }
  // An id past the append position is refused outright.
  EXPECT_EQ(pager.WritePhysicalPages({9}, phys.data()).code(),
            util::StatusCode::kInvalidArgument);
}

// ---- Epoch pins -----------------------------------------------------------

TEST(ReclaimPinTest, PinnedReaderKeepsRetiredPagesUntilItReturns) {
  ReclaimFixture fx("reclaim_pin.db");
  ViewCatalog* catalog = fx.catalog();
  // Some free pages first, so reuse is possible from the next batch on.
  for (int i = 0; i < 3; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  // The mirror stays at this document: the pinned versions' labels are its.
  const uint64_t pre_hash = fx.MirrorHashes(3).back();

  // What a session does first: pin, then resolve.
  storage::PageReclaimer::Pin pin = catalog->PinReader();
  const std::vector<const MaterializedView*> pinned = fx.QueryViews();
  std::vector<PageId> pages;
  for (const MaterializedView* v : pinned) {
    for (PageId page : PagesOf(v)) pages.push_back(page);
  }
  std::vector<std::vector<uint8_t>> bytes;
  for (PageId page : pages) bytes.push_back(PageBytes(catalog, page));

  const uint32_t count_before = catalog->pager()->page_count();
  for (int i = 3; i < 8; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  // Everything retired while the pin lives waits for it: batches append.
  EXPECT_GT(catalog->reclaimer().pending_pages(), 0u);
  EXPECT_GT(catalog->pager()->page_count(), count_before);
  for (size_t k = 0; k < pages.size(); ++k) {
    EXPECT_EQ(PageBytes(catalog, pages[k]), bytes[k])
        << "page " << pages[k] << " of a pinned version was rewritten";
  }
  EXPECT_NE(pinned, fx.QueryViews()) << "the pinned versions were retired";
  EXPECT_EQ(CatalogAnswerHash(fx.mirror, catalog, fx.query, pinned),
            pre_hash)
      << "the pinned versions answer for the pre-batch document";

  // The pinned versions' pages that no live version holds any more.
  const std::set<PageId> live_pinned = LivePages(*catalog);
  std::vector<PageId> retired;
  for (PageId page : pages) {
    if (live_pinned.count(page) == 0) retired.push_back(page);
  }
  ASSERT_FALSE(retired.empty());

  // Released: the next batch reuses instead of appending, and the pinned
  // versions' retired pages return to service within a few batches.
  pin.Release();
  const uint32_t count_released = catalog->pager()->page_count();
  fx.ApplyBatch(8);
  if (HasFatalFailure()) return;
  EXPECT_EQ(catalog->pager()->page_count(), count_released);
  bool reused = false;
  for (int i = 9; i < 16 && !reused; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
    const std::set<PageId> live = LivePages(*catalog);
    for (PageId page : retired) reused |= live.count(page) != 0;
  }
  EXPECT_TRUE(reused) << "no page of the released versions was reused";
  RunOptions run;
  run.algorithm = core::Algorithm::kViewJoin;
  RunResult answer = fx.engine->Execute(fx.query, fx.QueryViews(), run);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_FALSE(answer.degraded);
  EXPECT_EQ(answer.result_hash, OracleHash(fx.doc, fx.query));
}

TEST(ReclaimPinTest, SessionsRacingReusingBatchesAnswerFromOneSnapshot) {
  // Insert-only batches: a query overlapping a batch's maintenance answers
  // from the pre-batch views over the post-batch document, which is one
  // snapshot only while no label it returns was deleted.
  ReclaimFixture fx("reclaim_race.db", /*drop_old=*/false);
  constexpr int kBatches = 40;
  const std::vector<uint64_t> hashes = fx.MirrorHashes(kBatches);
  const std::set<uint64_t> allowed(hashes.begin(), hashes.end());
  const std::vector<const MaterializedView*> originals = fx.QueryViews();

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> runs{0};
  auto reader = [&](uint64_t id) {
    Engine::Session session(fx.engine.get(), id);
    RunOptions run;
    run.algorithm = core::Algorithm::kViewJoin;
    run.cold_cache = false;
    while (!stop.load(std::memory_order_acquire)) {
      // Stale pointers on purpose: the planner resolves them to the tips
      // live when the session pinned.
      RunResult r = session.Run(fx.query, originals, run);
      std::string failure;
      if (!r.ok) {
        failure = "query failed: " + r.error;
      } else if (r.degraded) {
        failure = "query degraded: a page changed under its pin";
      } else if (allowed.count(r.result_hash) == 0) {
        failure = "answer matches no document version";
      }
      if (!failure.empty()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(failure);
        return;
      }
      runs.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const uint32_t setup_pages = fx.catalog()->pager()->page_count();
  uint64_t written = 0;  // pages the batches staged
  std::thread t1(reader, 1), t2(reader, 2);
  for (int i = 0; i < kBatches; ++i) {
    const std::set<PageId> before = LivePages(*fx.catalog());
    fx.ApplyBatch(i);
    if (HasFatalFailure()) break;
    for (PageId page : LivePages(*fx.catalog())) {
      if (before.count(page) == 0) ++written;
    }
  }
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(runs.load(), 0u);
  EXPECT_LT(fx.catalog()->pager()->page_count(), setup_pages + written)
      << "no batch reused a page";
  EXPECT_EQ(fx.catalog()->reclaimer().live_pins(), 0u);
  EXPECT_EQ(fx.catalog()->pool()->pinned_frames(), 0u);
}

// ---- Crashes in batches and installs that reuse pages ----------------------

struct ReclaimCrash {
  CrashPoint point;
  int nth;       // which armed occurrence fires
  bool install;  // crash an install instead of an update batch
  const char* name;
};

std::string ReclaimCrashName(
    const ::testing::TestParamInfo<ReclaimCrash>& info) {
  return info.param.name;
}

/// Catalog-level batch: graft at `anchor`, collect deltas, apply them.
util::StatusOr<ViewCatalog::UpdateBatchResult> GraftBatch(ViewCatalog* catalog,
                                                          xml::Document* d,
                                                          size_t anchor) {
  const std::vector<const MaterializedView*> live = catalog->LiveViews();
  std::vector<TreePattern> patterns;
  for (const MaterializedView* v : live) patterns.push_back(v->pattern());
  view::DeltaCollector collector(d, patterns);
  for (const UpdateOp& op : GraftOps(*d, anchor, /*drop_old=*/true)) {
    const xml::NodeId target =
        d->FindByStart(d->FindTag(op.target_tag), op.target_start);
    if (op.kind == UpdateOp::Kind::kDeleteSubtree) {
      collector.WillDelete(target);
      VJ_CHECK(d->DeleteSubtree(target).ok());
      collector.DidDelete();
    } else {
      collector.WillInsert(target);
      util::StatusOr<xml::NodeId> inserted =
          d->InsertSubtree(op.subtree, target);
      VJ_CHECK(inserted.ok());
      collector.DidInsert(*inserted);
    }
  }
  std::vector<view::PatternDeltas> deltas = collector.TakeDeltas();
  std::vector<ViewCatalog::ViewUpdateSpec> specs;
  for (size_t i = 0; i < live.size(); ++i) {
    if (deltas[i].empty()) continue;
    ViewCatalog::ViewUpdateSpec spec;
    spec.view = live[i];
    if (live[i]->scheme() == Scheme::kElement) {
      spec.deltas.added = std::move(deltas[i].added);
      spec.deltas.removed = std::move(deltas[i].removed);
    } else {
      spec.full_rebuild = true;
      spec.solutions = NaiveEvaluator(*d, live[i]->pattern()).SolutionNodes();
    }
    specs.push_back(std::move(spec));
  }
  return catalog->ApplyUpdateBatch(*d, specs);
}

class ReclaimCrashTest : public ::testing::TestWithParam<ReclaimCrash> {};

TEST_P(ReclaimCrashTest, ReopenAnswersLikeTheOracleAndFsckIsClean) {
  const ReclaimCrash param = GetParam();
  const std::string path =
      TempPath(std::string("reclaim_crash_") + param.name + ".db");
  RemoveStore(path);
  xml::Document doc = MakeAnchorDocument(kParents);
  xml::Document pre = MakeAnchorDocument(kParents);  // doc before the crash
  const TreePattern query = MustParse("//p//a//b//c");
  const TreePattern pair = MustParse("//a//b");
  {
    ViewCatalog victim(path, 256, /*persistent=*/true);
    victim.Materialize(doc, MustParse("//p//a"), Scheme::kElement);
    victim.Materialize(doc, MustParse("//b//c"), Scheme::kElement);
    victim.Materialize(doc, pair, Scheme::kLinkedElement);
    for (int i = 0; i < 3; ++i) {
      auto applied = GraftBatch(&victim, &doc, AnchorOf(i));
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ApplyToDoc(&pre, GraftOps(pre, AnchorOf(i), /*drop_old=*/true));
    }
    // The last batch's retirements are pending with no pin on them: the
    // crashing operation below reclaims and rewrites them.
    ASSERT_GT(victim.reclaimer().pending_pages(), 0u);

    ScopedFaultInjection fi;
    fi->ArmCrashPoint(param.point, param.nth);
    if (param.install) {
      auto failed = victim.TryMaterialize(doc, MustParse("//c"),
                                          Scheme::kLinkedElement);
      ASSERT_FALSE(failed.ok());
    } else {
      auto failed = GraftBatch(&victim, &doc, AnchorOf(3));
      ASSERT_FALSE(failed.ok());
    }
    EXPECT_EQ(fi->injected_crashes(), 1u);
    // Scope exit abandons the catalog with the mid-flight on-disk state.
  }
  // A batch crashed before its commit rolls back to the pre-batch views,
  // which answer for the pre-batch document.
  const bool committed = param.install ||
                         param.point == CrashPoint::kCrashAfterEpochBump;
  const xml::Document& at = committed ? doc : pre;

  storage::FsckCatalogReport before = storage::FsckCatalog(path);
  EXPECT_FALSE(before.corrupt()) << storage::ToJson(before);
  EXPECT_GT(before.free_pages, 0u);
  {
    auto reopened = ViewCatalog::Open(path, 256);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ViewCatalog& catalog = **reopened;
    auto find = [&](const char* pattern, Scheme scheme) {
      return catalog.FindView(MustParse(pattern).ToString(), scheme);
    };
    const MaterializedView* pa = find("//p//a", Scheme::kElement);
    const MaterializedView* bc = find("//b//c", Scheme::kElement);
    const MaterializedView* ab = find("//a//b", Scheme::kLinkedElement);
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(bc, nullptr);
    ASSERT_NE(ab, nullptr);
    for (const MaterializedView* v : {pa, bc, ab}) {
      EXPECT_TRUE(catalog.VerifyView(v).ok()) << v->pattern().ToString();
    }
    EXPECT_EQ(CatalogAnswerHash(at, &catalog, query, {pa, bc}),
              OracleHash(at, query));
    EXPECT_EQ(CatalogAnswerHash(at, &catalog, pair, {ab}),
              OracleHash(at, pair));
    if (param.install) {
      ASSERT_EQ(catalog.recovery_report().pending_rebuild.size(), 1u);
    }
    // The derived free list feeds the next install.
    EXPECT_GT(catalog.reclaimer().free_pages(), 0u);
    const uint32_t pages = catalog.pager()->page_count();
    auto rebuilt =
        catalog.TryMaterialize(doc, MustParse("//c"), Scheme::kLinkedElement);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(catalog.pager()->page_count(), pages) << "no page was reused";
    EXPECT_EQ(CatalogAnswerHash(doc, &catalog, MustParse("//c"), {*rebuilt}),
              OracleHash(doc, MustParse("//c")));
    ASSERT_TRUE(catalog.Close().ok());
  }
  storage::FsckCatalogReport after = storage::FsckCatalog(path);
  EXPECT_TRUE(after.clean()) << storage::ToJson(after);
  RemoveStore(path);
}

INSTANTIATE_TEST_SUITE_P(
    BatchAndInstallPoints, ReclaimCrashTest,
    ::testing::Values(
        // A batch of three views: journal appends are begin (1), then an
        // install (2k) and a replace (2k+1) per view, then the commit (8).
        ReclaimCrash{CrashPoint::kCrashMidDeltaMerge, 2, false,
                     "batch_mid_delta_merge"},
        ReclaimCrash{CrashPoint::kCrashBeforeEpochBump, 1, false,
                     "batch_before_epoch_bump"},
        ReclaimCrash{CrashPoint::kCrashAfterEpochBump, 1, false,
                     "batch_after_epoch_bump"},
        ReclaimCrash{CrashPoint::kCrashMidJournal, 4, false,
                     "batch_mid_journal_install"},
        ReclaimCrash{CrashPoint::kCrashMidJournal, 8, false,
                     "batch_mid_journal_commit"},
        ReclaimCrash{CrashPoint::kCrashAfterDataSync, 1, true,
                     "install_after_data_sync"},
        ReclaimCrash{CrashPoint::kCrashMidJournal, 2, true,
                     "install_mid_journal"}),
    ReclaimCrashName);

// ---- A commit record that lands although its append failed ------------------

TEST(ReclaimSyncFaultTest, FailedCommitAppendKeepsItsPagesOffTheFreeList) {
  // The record reaches the file whole and only its fsync fails, so a reopen
  // replays it as committed. The process keeps serving: the next install
  // must not rewrite the pages that committed record names.
  for (const bool install : {false, true}) {
    SCOPED_TRACE(install ? "install commit" : "batch commit");
    const std::string path = TempPath(
        std::string("reclaim_sync_") + (install ? "install" : "batch") + ".db");
    RemoveStore(path);
    xml::Document doc = MakeAnchorDocument(kParents);
    const TreePattern query = MustParse("//p//a//b//c");
    const TreePattern pair = MustParse("//a//b");
    const TreePattern c = MustParse("//c");
    const TreePattern b = MustParse("//b");
    {
      ViewCatalog catalog(path, 256, /*persistent=*/true);
      catalog.Materialize(doc, MustParse("//p//a"), Scheme::kElement);
      catalog.Materialize(doc, MustParse("//b//c"), Scheme::kElement);
      catalog.Materialize(doc, pair, Scheme::kLinkedElement);
      for (int i = 0; i < 3; ++i) {
        auto applied = GraftBatch(&catalog, &doc, AnchorOf(i));
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      }
      // Retired pages for the failing operation to take.
      ASSERT_GT(catalog.reclaimer().free_pages() +
                    catalog.reclaimer().pending_pages(),
                0u);
      {
        // Flushes: one per journal append plus the page sync after the
        // begin record. A batch of three views appends begin, install +
        // replace per view, and the commit (9); an install appends begin and
        // its install (3).
        ScopedFaultInjection fi;
        fi->ArmFlushFault(install ? 3 : 9);
        util::Status failed =
            install ? catalog.TryMaterialize(doc, c, Scheme::kLinkedElement)
                          .status()
                    : GraftBatch(&catalog, &doc, AnchorOf(3)).status();
        ASSERT_FALSE(failed.ok());
        ASSERT_NE(failed.message().find("manifest journal"), std::string::npos)
            << failed.ToString();
      }
      // The next install takes the lowest free ids first.
      auto next = catalog.TryMaterialize(doc, b, Scheme::kLinkedElement);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(catalog.Close().ok());
    }
    storage::FsckCatalogReport fsck = storage::FsckCatalog(path);
    EXPECT_TRUE(fsck.clean()) << storage::ToJson(fsck);
    {
      auto reopened = ViewCatalog::Open(path, 256);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ViewCatalog& catalog = **reopened;
      auto find = [&](const TreePattern& pattern, Scheme scheme) {
        return catalog.FindView(pattern.ToString(), scheme);
      };
      const MaterializedView* pa = find(MustParse("//p//a"), Scheme::kElement);
      const MaterializedView* bc = find(MustParse("//b//c"), Scheme::kElement);
      const MaterializedView* ab = find(pair, Scheme::kLinkedElement);
      const MaterializedView* bv = find(b, Scheme::kLinkedElement);
      ASSERT_NE(pa, nullptr);
      ASSERT_NE(bc, nullptr);
      ASSERT_NE(ab, nullptr);
      ASSERT_NE(bv, nullptr);
      // The batch's views (or the //c install) came back committed, with
      // their own bytes.
      EXPECT_EQ(CatalogAnswerHash(doc, &catalog, query, {pa, bc}),
                OracleHash(doc, query));
      EXPECT_EQ(CatalogAnswerHash(doc, &catalog, pair, {ab}),
                OracleHash(doc, pair));
      EXPECT_EQ(CatalogAnswerHash(doc, &catalog, b, {bv}), OracleHash(doc, b));
      if (install) {
        const MaterializedView* cv = find(c, Scheme::kLinkedElement);
        ASSERT_NE(cv, nullptr);
        EXPECT_EQ(CatalogAnswerHash(doc, &catalog, c, {cv}),
                  OracleHash(doc, c));
      }
      for (const MaterializedView* v : catalog.LiveViews()) {
        EXPECT_TRUE(catalog.VerifyView(v).ok()) << v->pattern().ToString();
      }
    }
    RemoveStore(path);
  }
}

// ---- A rebuild racing an update batch ---------------------------------------

TEST(ReclaimRaceTest, RebuildAfterTheDocumentPhaseSupersedesItsSpec) {
  ReclaimFixture fx("reclaim_rebuild_race.db");
  for (int i = 0; i < 3; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  ViewCatalog* catalog = fx.catalog();
  const MaterializedView* victim = fx.QueryViews()[0];  // live //p//a
  // One of its pages rots; the next read from disk trips over it.
  FlipBitOnDisk(catalog, PagesOf(victim).front());
  if (HasFatalFailure()) return;
  catalog->DropCaches();

  ScopedFaultInjection fi;
  fi->ArmUpdateBarrier();
  const std::vector<UpdateOp> ops = GraftOps(fx.doc, AnchorOf(3), true);
  util::StatusOr<core::UpdateResult> batch =
      util::Status::IoError("the batch never ran");
  std::thread updater([&] { batch = fx.engine->ApplyUpdates(ops); });
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!fi->update_barrier_reached() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(fi->update_barrier_reached()) << "the batch never parked";

  // The document holds the update; the batch has not taken the install
  // lock. A query trips over the rotten page of the live //p//a version,
  // quarantines it and rebuilds it from the updated document.
  RunOptions run;
  run.algorithm = core::Algorithm::kViewJoin;
  RunResult tripped = fx.engine->Execute(fx.query, fx.QueryViews(), run);
  const MaterializedView* rebuilt = catalog->ReplacementFor(victim);
  fi->ReleaseUpdateBarrier();
  updater.join();
  ASSERT_TRUE(tripped.ok) << tripped.error;
  ASSERT_EQ(tripped.quarantined_views,
            std::vector<std::string>{MustParse("//p//a").ToString()});
  ASSERT_NE(rebuilt, nullptr);

  // The batch commits the other views and leaves the rebuilt one alone.
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->failed.empty()) << batch->failed.front();
  EXPECT_EQ(batch->superseded, 1u);
  EXPECT_EQ(catalog->ReplacementFor(victim), rebuilt);
  EXPECT_EQ(catalog->LiveViews().size(), 3u);
  run.cold_cache = true;
  RunResult answer = fx.engine->Execute(fx.query, fx.QueryViews(), run);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_FALSE(answer.degraded);
  EXPECT_EQ(answer.result_hash, OracleHash(fx.doc, fx.query));

  fx.engine.reset();
  storage::FsckCatalogReport fsck = storage::FsckCatalog(fx.path);
  EXPECT_TRUE(fsck.clean()) << storage::ToJson(fsck);
  auto reopened = ViewCatalog::Open(fx.path, 256);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<const MaterializedView*> views = {
      (*reopened)->FindView(MustParse("//p//a").ToString(), Scheme::kElement),
      (*reopened)->FindView(MustParse("//b//c").ToString(), Scheme::kElement)};
  ASSERT_NE(views[0], nullptr);
  ASSERT_NE(views[1], nullptr);
  EXPECT_EQ(CatalogAnswerHash(fx.doc, reopened->get(), fx.query, views),
            OracleHash(fx.doc, fx.query));
}

// ---- Backups ---------------------------------------------------------------

TEST(ReclaimBackupTest, BackupPinMakesTheCatalogAppendOnly) {
  ReclaimFixture fx("reclaim_backup_pin.db");
  ViewCatalog* catalog = fx.catalog();
  for (int i = 0; i < 3; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  auto file_prefix = [&](uint32_t pages) {
    std::vector<char> bytes(Pager::kHeaderSize +
                            static_cast<size_t>(pages) *
                                Pager::kPhysicalPageSize);
    std::FILE* f = std::fopen(fx.path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return bytes;
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  };
  {
    ViewCatalog::BackupSnapshot snap = catalog->SnapshotForBackup();
    const std::vector<char> prefix = file_prefix(snap.page_count);
    for (int i = 3; i < 6; ++i) {
      fx.ApplyBatch(i);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(catalog->pager()->page_count(), snap.page_count);
    EXPECT_EQ(file_prefix(snap.page_count), prefix)
        << "a page the backup copies was rewritten under its pin";
  }
  // Pin released: reuse resumes.
  const uint32_t pages = catalog->pager()->page_count();
  fx.ApplyBatch(6);
  EXPECT_EQ(catalog->pager()->page_count(), pages);
}

TEST(ReclaimBackupTest, BackupDuringReusingBatchesVerifiesAndRestores) {
  ReclaimFixture fx("reclaim_backup.db", /*drop_old=*/false);
  const std::string img = TempPath("reclaim_backup_img");
  const std::string restored = TempPath("reclaim_backup_restored.db");
  RemoveTree(img);
  RemoveStore(restored);
  constexpr int kBatches = 30;
  const std::vector<uint64_t> hashes = fx.MirrorHashes(kBatches);
  for (int i = 0; i < 5; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  std::atomic<bool> done{false};
  std::thread updates([&] {
    for (int i = 5; i < kBatches && !done.load(); ++i) fx.ApplyBatch(i);
  });
  // Throttled so the copy overlaps the batches.
  auto backup = fx.engine->CreateBackup(img, /*rate_bytes_per_sec=*/4 << 20);
  done.store(true);
  updates.join();
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  auto verified = storage::VerifyBackupImage(img);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  auto restore = storage::RestoreBackup(img, restored);
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  storage::FsckCatalogReport fsck = storage::FsckCatalog(restored);
  EXPECT_TRUE(fsck.clean()) << storage::ToJson(fsck);
  {
    auto opened = ViewCatalog::Open(restored, 256);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::vector<const MaterializedView*> views = {
        (*opened)->FindView(MustParse("//p//a").ToString(), Scheme::kElement),
        (*opened)->FindView(MustParse("//b//c").ToString(), Scheme::kElement)};
    ASSERT_NE(views[0], nullptr);
    ASSERT_NE(views[1], nullptr);
    // Insert-only batches: the document at the image's epoch is one of the
    // mirror's versions, and the final document still holds all its nodes.
    const uint64_t answer =
        CatalogAnswerHash(fx.doc, opened->get(), fx.query, views);
    EXPECT_NE(std::find(hashes.begin(), hashes.end(), answer), hashes.end());
  }
  RemoveTree(img);
  RemoveStore(restored);
}

// ---- Bounds ----------------------------------------------------------------

TEST(ReclaimBoundTest, PagerStaysNearLivePagesAndJournalCompacts) {
  ReclaimFixture fx("reclaim_bound.db");
  ViewCatalog* catalog = fx.catalog();
  uint32_t largest_suffix = 0;
  long largest_journal = 0;
  for (int i = 0; i < 200; ++i) {
    const std::set<PageId> before = LivePages(*catalog);
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
    const std::set<PageId> live = LivePages(*catalog);
    uint32_t suffix = 0;
    for (PageId page : live) suffix += before.count(page) == 0 ? 1 : 0;
    largest_suffix = std::max(largest_suffix, suffix);
    EXPECT_LE(catalog->pager()->page_count(),
              live.size() + 2 * largest_suffix)
        << "batch " << i;
    struct stat st;
    ASSERT_EQ(::stat((fx.path + ".manifest").c_str(), &st), 0);
    largest_journal = std::max<long>(largest_journal, st.st_size);
  }
  // The journal compacted itself: it never held more than the compaction
  // ratio times one checkpoint plus the batch that crossed it.
  {
    const ViewCatalog::BackupSnapshot snap = catalog->SnapshotForBackup();
    const long checkpoint =
        static_cast<long>(storage::ManifestJournal::CheckpointBytes(
            snap.records, snap.quarantined_epochs.size()));
    EXPECT_LT(largest_journal,
              (ViewCatalog::kJournalCompactionRatio + 2) * checkpoint);
  }

  std::vector<uint64_t> epochs;
  for (const MaterializedView* v : catalog->LiveViews()) {
    epochs.push_back(v->epoch());
  }
  fx.engine.reset();
  storage::FsckCatalogReport fsck = storage::FsckCatalog(fx.path);
  EXPECT_TRUE(fsck.clean()) << storage::ToJson(fsck);
  auto reopened = ViewCatalog::Open(fx.path, 256);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<uint64_t> reopened_epochs;
  for (const MaterializedView* v : (*reopened)->LiveViews()) {
    reopened_epochs.push_back(v->epoch());
  }
  EXPECT_EQ(reopened_epochs, epochs);
  EXPECT_LT((*reopened)->ViewsSnapshot().size(), 3u * 200u)
      << "replay still walks every batch ever committed";
  std::vector<const MaterializedView*> views = {
      (*reopened)->FindView(MustParse("//p//a").ToString(), Scheme::kElement),
      (*reopened)->FindView(MustParse("//b//c").ToString(), Scheme::kElement)};
  EXPECT_EQ(CatalogAnswerHash(fx.doc, reopened->get(), fx.query, views),
            OracleHash(fx.doc, fx.query));
}

TEST(ReclaimBoundTest, ScratchCatalogReusesRetiredPages) {
  // No journal: every retirement counts as committed when it is made.
  ReclaimFixture fx("reclaim_scratch.db", /*drop_old=*/true,
                    /*persistent=*/false);
  ViewCatalog* catalog = fx.catalog();
  uint32_t largest_suffix = 0;
  for (int i = 0; i < 50; ++i) {
    const std::set<PageId> before = LivePages(*catalog);
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
    const std::set<PageId> live = LivePages(*catalog);
    uint32_t suffix = 0;
    for (PageId page : live) suffix += before.count(page) == 0 ? 1 : 0;
    largest_suffix = std::max(largest_suffix, suffix);
    EXPECT_LE(catalog->pager()->page_count(),
              live.size() + 2 * largest_suffix)
        << "batch " << i;
  }
  RunOptions run;
  run.algorithm = core::Algorithm::kViewJoin;
  RunResult answer = fx.engine->Execute(fx.query, fx.QueryViews(), run);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_FALSE(answer.degraded);
  EXPECT_EQ(answer.result_hash, OracleHash(fx.doc, fx.query));
}

// ---- Stale frames ----------------------------------------------------------

/// The decode key of `page` within the live or retired version `views`
/// hold it in (false when none of their lists does).
bool KeyOfPage(const std::vector<const MaterializedView*>& views, PageId page,
               storage::DecodeKey* key) {
  for (const MaterializedView* v : views) {
    std::vector<const StoredList*> lists;
    for (const StoredList& list : v->lists()) lists.push_back(&list);
    lists.push_back(&v->tuple_list());
    for (const StoredList* list : lists) {
      for (uint32_t p = 0; p < list->pages.size(); ++p) {
        if (list->pages[p] != page) continue;
        *key = list->DecodeKeyOf(p);
        return true;
      }
    }
  }
  return false;
}

TEST(ReclaimPoolTest, ReusedPageIsNeverServedAStaleDecode) {
  ReclaimFixture fx("reclaim_decode.db");
  ViewCatalog* catalog = fx.catalog();
  BufferPool* pool = catalog->pool();
  fx.ApplyBatch(0);
  if (HasFatalFailure()) return;

  // A reader pinned before batch 1 lands on a page batch 1 retires, so its
  // decoded frame is cached when the page is reclaimed.
  storage::PageReclaimer::Pin pin = catalog->PinReader();
  const std::vector<const MaterializedView*> old_tips = catalog->LiveViews();
  fx.ApplyBatch(1);
  if (HasFatalFailure()) return;
  const std::set<PageId> live = LivePages(*catalog);
  PageId victim = storage::kInvalidPage;
  for (const MaterializedView* v : old_tips) {
    for (PageId page : PagesOf(v)) {
      if (live.count(page) == 0) victim = std::min(victim, page);
    }
  }
  ASSERT_NE(victim, storage::kInvalidPage);
  storage::DecodeKey old_key;
  ASSERT_TRUE(KeyOfPage(old_tips, victim, &old_key));
  std::vector<uint32_t> scratch;
  std::vector<uint32_t> old_values;
  {
    BufferPool::PinnedPage frame = pool->GetDecoded(victim, old_key, &scratch);
    ASSERT_NE(frame.values(), scratch.data()) << "not cached as a frame";
    old_values.assign(frame.values(),
                      frame.values() + storage::DecodedValues(
                                           old_key.layout, old_key.records));
  }
  ASSERT_TRUE(pool->Contains(victim));
  // The old content on disk rots; the cached frame still holds it intact.
  FlipBitOnDisk(catalog, victim);
  if (HasFatalFailure()) return;
  pin.Release();

  // The next batch frees the lowest retired id first and writes over it.
  fx.ApplyBatch(2);
  if (HasFatalFailure()) return;
  const std::vector<const MaterializedView*> new_tips = catalog->LiveViews();
  storage::DecodeKey new_key;
  ASSERT_TRUE(KeyOfPage(new_tips, victim, &new_key))
      << "page " << victim << " was not reused";
  EXPECT_FALSE(pool->Contains(victim)) << "the stale frame survived reuse";

  // A landing under the new key decodes the new bytes into a frame.
  std::vector<uint8_t> disk(Pager::kPageSize);
  ASSERT_TRUE(catalog->pager()->VerifyPage(victim, disk.data()).ok());
  std::vector<uint32_t> expected(
      storage::DecodedValues(new_key.layout, new_key.records));
  ASSERT_TRUE(storage::DecodeDeltaPage(disk.data(), new_key.layout,
                                       new_key.first_entry, new_key.records,
                                       expected.data())
                  .ok());
  {
    BufferPool::PinnedPage frame = pool->GetDecoded(victim, new_key, &scratch);
    ASSERT_NE(frame.values(), scratch.data());
    std::vector<uint32_t> values(frame.values(),
                                 frame.values() + expected.size());
    EXPECT_EQ(values, expected);
    EXPECT_TRUE(new_key != old_key || values != old_values);
  }
  RunOptions run;
  run.algorithm = core::Algorithm::kViewJoin;
  run.cold_cache = false;
  for (int repeat = 0; repeat < 2; ++repeat) {
    RunResult answer = fx.engine->Execute(fx.query, fx.QueryViews(), run);
    ASSERT_TRUE(answer.ok) << answer.error;
    EXPECT_FALSE(answer.degraded);
    EXPECT_EQ(answer.result_hash, OracleHash(fx.doc, fx.query));
    if (repeat == 1) {
      EXPECT_EQ(answer.io.pages_decoded, 0u);
    }
  }
  // Reclamation discarded the frame before reuse; the key check never had
  // to catch a stale decode.
  EXPECT_EQ(pool->decode_mismatches(), 0u);
}

// ---- fsck and the scrubber -------------------------------------------------

/// The pages the last batch retired (pending: nothing reused them yet).
std::vector<PageId> RetiredByLastBatch(
    const std::vector<const MaterializedView*>& old_tips,
    const ViewCatalog& catalog) {
  const std::set<PageId> live = LivePages(catalog);
  std::vector<PageId> retired;
  for (const MaterializedView* v : old_tips) {
    for (PageId page : PagesOf(v)) {
      if (live.count(page) == 0) retired.push_back(page);
    }
  }
  return retired;
}

TEST(ReclaimFsckTest, FreePagesCountAsFreeEvenWhenTheirBytesRot) {
  ReclaimFixture fx("reclaim_fsck_free.db");
  ViewCatalog* catalog = fx.catalog();
  for (int i = 0; i < 4; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  const std::vector<const MaterializedView*> old_tips = catalog->LiveViews();
  fx.ApplyBatch(4);
  if (HasFatalFailure()) return;
  const std::vector<PageId> retired = RetiredByLastBatch(old_tips, *catalog);
  ASSERT_FALSE(retired.empty());
  FlipBitOnDisk(catalog, retired.front());
  if (HasFatalFailure()) return;
  const uint32_t live_pages =
      static_cast<uint32_t>(LivePages(*catalog).size());
  const uint32_t pages = catalog->pager()->page_count();
  fx.engine.reset();

  storage::FsckCatalogReport report = storage::FsckCatalog(fx.path);
  EXPECT_TRUE(report.clean()) << storage::ToJson(report);
  EXPECT_EQ(report.free_pages, pages - live_pages);
  EXPECT_EQ(report.orphan_pages, 0u);
  EXPECT_EQ(report.corrupt_durable_pages, 0u);
  EXPECT_TRUE(report.double_claims.empty());
}

TEST(ReclaimFsckTest, APageTwoLiveListsClaimIsCorruption) {
  ReclaimFixture fx("reclaim_fsck_claim.db");
  for (int i = 0; i < 3; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  fx.engine.reset();
  const std::string journal = storage::ManifestJournal::PathFor(fx.path);
  auto replay = storage::ManifestJournal::Replay(journal);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  std::vector<storage::ManifestViewRecord> live;
  for (const storage::ManifestViewRecord& record : replay->installed) {
    if (replay->replaced.count(record.epoch) == 0) live.push_back(record);
  }
  ASSERT_EQ(live.size(), 3u);
  ASSERT_TRUE(storage::ManifestJournal::WriteCheckpoint(
                  journal, live, {}, replay->last_epoch)
                  .ok());
  EXPECT_TRUE(storage::FsckCatalog(fx.path).clean());

  // Point the second view's first page at the first view's first page.
  live[1].lists[0].pages[0] = live[0].lists[0].pages[0];
  ASSERT_TRUE(storage::ManifestJournal::WriteCheckpoint(
                  journal, live, {}, replay->last_epoch)
                  .ok());
  storage::FsckCatalogReport report = storage::FsckCatalog(fx.path);
  EXPECT_TRUE(report.corrupt()) << storage::ToJson(report);
  ASSERT_EQ(report.double_claims.size(), 1u) << storage::ToJson(report);
  EXPECT_EQ(report.double_claims[0].rfind(
                "page " + std::to_string(live[0].lists[0].pages[0]) + ":", 0),
            0u)
      << report.double_claims[0];
}

TEST(ReclaimScrubTest, RetiredRecordsNamingReusedPagesQuarantineNothing) {
  ReclaimFixture fx("reclaim_scrub.db");
  ViewCatalog* catalog = fx.catalog();
  for (int i = 0; i < 4; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  const std::vector<const MaterializedView*> old_tips = catalog->LiveViews();
  fx.ApplyBatch(4);
  if (HasFatalFailure()) return;
  const std::vector<PageId> retired = RetiredByLastBatch(old_tips, *catalog);
  ASSERT_FALSE(retired.empty());
  // A retired record still names these pages; one of them rots.
  FlipBitOnDisk(catalog, retired.front());
  if (HasFatalFailure()) return;

  storage::Scrubber* scrubber = fx.engine->scrubber();
  auto full_pass = [&](const std::string& where) {
    const storage::ScrubStats before = scrubber->stats();
    const uint64_t live_pages = [&] {
      uint64_t pages = 0;
      for (const MaterializedView* v : catalog->LiveViews()) {
        pages += PagesOf(v).size();
      }
      return pages;
    }();
    EXPECT_EQ(scrubber->Step(UINT32_MAX), live_pages) << where;
    const storage::ScrubStats after = scrubber->stats();
    EXPECT_EQ(after.corrupt_pages, before.corrupt_pages) << where;
    EXPECT_EQ(after.views_quarantined, before.views_quarantined) << where;
    EXPECT_EQ(catalog->quarantined_count(), 0u) << where;
  };
  full_pass("free page rotted");

  // The next batch rewrites the retired pages for a live version, while the
  // retired records still point at them.
  fx.ApplyBatch(5);
  if (HasFatalFailure()) return;
  const std::set<PageId> live = LivePages(*catalog);
  ASSERT_EQ(live.count(retired.front()), 1u);
  full_pass("retired pages reused");
}

}  // namespace
}  // namespace viewjoin
