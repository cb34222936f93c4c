// Version retirement: a view version superseded by a replacement (an update
// batch, a quarantine rebuild, journal replay) leaves the catalog's live set
// and the buffer pool, while every lookup contract stays as it was.
//
// Layers under test, bottom up:
//   - BufferPool::Discard drops unpinned frames of a page range and keeps
//     pinned ones;
//   - ViewCatalog's live tips: FindView, ReplacementFor and LiveViews against
//     an independent model of the registry (the pre-retirement newest-first
//     scan) over a seeded mix of installs, quarantines, rebuilds, re-pointed
//     links and update batches, before and after a journal replay;
//   - Engine::ApplyUpdates over 300 batches on a small document: the live
//     set stays at the standing views, no superseded page stays cached, and
//     queries through the original (stale) view pointers answer like a fresh
//     materialization — also while readers hold pins on retired pages;
//   - the scrubber scans live versions only.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "storage/buffer_pool.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/rng.h"

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

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".spill").c_str());
}

/// Every page id the view's stored lists occupy.
std::vector<PageId> PagesOf(const MaterializedView* view) {
  std::vector<PageId> pages;
  auto add = [&pages](const StoredList& list) {
    for (uint32_t p = 0; p < list.PageSpan(); ++p) {
      pages.push_back(list.first_page + p);
    }
  };
  for (const StoredList& list : view->lists()) add(list);
  add(view->tuple_list());
  return pages;
}

// ---- BufferPool::Discard ----------------------------------------------------

TEST(BufferPoolDiscardTest, DropsUnpinnedFramesAndKeepsPinnedOnes) {
  const std::string path = TempPath("retire_pool.db");
  std::remove(path.c_str());
  Pager pager(path);
  std::vector<uint8_t> page(Pager::kPageSize);
  for (uint8_t i = 0; i < 6; ++i) {
    std::fill(page.begin(), page.end(), i);
    auto id = pager.AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, i);
    ASSERT_TRUE(pager.WritePage(i, page.data()).ok());
  }
  BufferPool pool(&pager, 16);
  for (PageId p = 0; p < 6; ++p) (void)pool.GetPage(p);
  BufferPool::PinnedPage held = pool.GetPage(2);

  pool.Discard(1, 3);  // pages 1, 2, 3
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2)) << "a pinned frame must survive Discard";
  EXPECT_FALSE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
  EXPECT_EQ(held.data()[0], 2);

  // A discarded page re-reads from disk: one miss, the same bytes.
  const uint64_t misses = pool.misses();
  BufferPool::PinnedPage again = pool.GetPage(3);
  EXPECT_EQ(pool.misses(), misses + 1);
  EXPECT_EQ(again.data()[Pager::kPageSize - 1], 3);
  again.Release();

  // Once unpinned, the survivor goes with the next Discard.
  held.Release();
  pool.Discard(2, 1);
  EXPECT_FALSE(pool.Contains(2));
  pool.Discard(0, 0);  // empty range: no-op
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_EQ(pool.pinned_frames(), 0u);
  std::remove(path.c_str());
}

// ---- Registry model ---------------------------------------------------------

/// An independent model of the catalog registry: every registration in
/// order, the replacement links as set, and the quarantined set. Its
/// FindView is the scan the catalog used before it kept live tips.
struct RegistryModel {
  const MaterializedView* Tip(const MaterializedView* v) const {
    for (auto it = links.find(v); it != links.end(); it = links.find(v)) {
      v = it->second;
    }
    return v;
  }

  const MaterializedView* FindView(const std::string& pattern,
                                   Scheme scheme) const {
    for (auto it = registered.rbegin(); it != registered.rend(); ++it) {
      const MaterializedView* v = *it;
      if (v->scheme() != scheme || v->pattern().ToString() != pattern) {
        continue;
      }
      const MaterializedView* tip = Tip(v);
      if (quarantined.count(tip) == 0) return tip;
    }
    return nullptr;
  }

  std::vector<const MaterializedView*> Live() const {
    std::vector<const MaterializedView*> live;
    for (const MaterializedView* v : registered) {
      if (links.count(v) == 0) live.push_back(v);
    }
    return live;
  }

  /// Linking from -> to closes a cycle when `from` is on `to`'s chain.
  bool WouldCycle(const MaterializedView* from,
                  const MaterializedView* to) const {
    for (const MaterializedView* v = to;;) {
      if (v == from) return true;
      auto it = links.find(v);
      if (it == links.end()) return false;
      v = it->second;
    }
  }

  std::vector<const MaterializedView*> registered;
  std::unordered_map<const MaterializedView*, const MaterializedView*> links;
  std::unordered_set<const MaterializedView*> quarantined;
};

const std::vector<std::string>& ModelPatterns() {
  static const std::vector<std::string> patterns = {
      MustParse("//a//b").ToString(), MustParse("//c").ToString(),
      MustParse("//b").ToString()};
  return patterns;
}

constexpr Scheme kModelSchemes[] = {Scheme::kElement, Scheme::kLinkedElement,
                                    Scheme::kTuple};

/// `catalog` agrees with `model` on FindView (every pattern x scheme),
/// ReplacementFor (every registered version) and LiveViews. `same` maps a
/// model view to the catalog's (identity, or by epoch after a reopen).
template <typename Same>
void ExpectAgrees(ViewCatalog& catalog, const RegistryModel& model, Same same,
                  const std::string& where) {
  for (const std::string& pattern : ModelPatterns()) {
    for (Scheme scheme : kModelSchemes) {
      const MaterializedView* expected = model.FindView(pattern, scheme);
      EXPECT_EQ(catalog.FindView(pattern, scheme), same(expected))
          << where << ": FindView(" << pattern << ", "
          << storage::SchemeName(scheme) << ")";
    }
  }
  for (const MaterializedView* v : model.registered) {
    const MaterializedView* tip = model.Tip(v);
    EXPECT_EQ(catalog.ReplacementFor(same(v)), tip == v ? nullptr : same(tip))
        << where << ": ReplacementFor(epoch " << v->epoch() << ")";
  }
  std::vector<const MaterializedView*> live;
  for (const MaterializedView* v : model.Live()) live.push_back(same(v));
  EXPECT_EQ(catalog.LiveViews(), live) << where << ": LiveViews";
}

TEST(ViewCatalogRetirementTest, LookupsMatchNewestFirstScanOverSeededMix) {
  xml::Document doc = MakeDoc("r(a(b(c) b) a(x(b(c))) b(c))");
  ASSERT_TRUE(doc.RelabelWithGap(8).ok());
  const std::string path = TempPath("retire_model.db");
  RemoveStore(path);
  util::Rng rng(20261017);
  RegistryModel model;
  size_t repointed = 0, cross_links = 0, batches = 0;
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  auto install = [&](const std::string& pattern, Scheme scheme) {
    auto made = catalog.TryMaterialize(doc, MustParse(pattern), scheme);
    VJ_CHECK(made.ok()) << made.status().ToString();
    model.registered.push_back(*made);
    return *made;
  };
  auto pick = [&](const std::vector<const MaterializedView*>& from) {
    return from[rng.Uniform(from.size())];
  };
  for (int step = 0; step < 240; ++step) {
    const uint64_t op = model.registered.empty() ? 0 : rng.Uniform(10);
    if (op < 3) {  // install
      install(ModelPatterns()[rng.Uniform(ModelPatterns().size())],
              kModelSchemes[rng.Uniform(3)]);
    } else if (op < 4) {  // quarantine
      const MaterializedView* v = pick(model.registered);
      catalog.Quarantine(v);
      model.quarantined.insert(v);
    } else if (op < 6) {  // rebuild, possibly re-pointing a retired view
      const MaterializedView* v = pick(model.registered);
      if (model.links.count(v) != 0) ++repointed;
      const MaterializedView* r =
          install(v->pattern().ToString(), v->scheme());
      catalog.SetReplacement(v, r);
      model.links[v] = r;
    } else if (op < 7) {  // arbitrary link: other pattern, or older target
      const MaterializedView* from = pick(model.registered);
      const MaterializedView* to = pick(model.registered);
      if (model.WouldCycle(from, to)) continue;
      if (model.links.count(from) != 0) ++repointed;
      ++cross_links;
      catalog.SetReplacement(from, to);
      model.links[from] = to;
    } else {  // update batch over distinct live versions
      std::vector<const MaterializedView*> live = model.Live();
      if (live.empty()) continue;
      std::vector<ViewCatalog::ViewUpdateSpec> specs;
      std::set<const MaterializedView*> chosen;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        const MaterializedView* v = pick(live);
        if (!chosen.insert(v).second) continue;
        ViewCatalog::ViewUpdateSpec spec;
        spec.view = v;
        if (v->scheme() == Scheme::kTuple) {
          spec.full_rebuild = true;
        } else {
          spec.deltas.added.resize(v->pattern().size());
          spec.deltas.removed.resize(v->pattern().size());
        }
        specs.push_back(std::move(spec));
      }
      auto applied = catalog.ApplyUpdateBatch(doc, specs);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ASSERT_EQ(applied->new_views.size(), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        model.registered.push_back(applied->new_views[i]);
        model.links[specs[i].view] = applied->new_views[i];
      }
      ++batches;
    }
    ExpectAgrees(catalog, model, [](const MaterializedView* v) { return v; },
                 "step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
  // The model's views belong to the first catalog, which stays alive (closed)
  // until the replayed registry has been compared against them.
  ASSERT_TRUE(catalog.Close().ok());
  // The mix must have reached the slow paths, not just the common one.
  EXPECT_GT(repointed, 0u);
  EXPECT_GT(cross_links, 0u);
  EXPECT_GT(batches, 0u);

  // Journal replay registers the same versions, links and quarantines.
  auto reopened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::map<uint64_t, const MaterializedView*> by_epoch;
  for (const MaterializedView* v : (*reopened)->ViewsSnapshot()) {
    by_epoch[v->epoch()] = v;
  }
  ASSERT_EQ(by_epoch.size(), model.registered.size());
  ExpectAgrees(
      **reopened, model,
      [&by_epoch](const MaterializedView* v) -> const MaterializedView* {
        return v == nullptr ? nullptr : by_epoch.at(v->epoch());
      },
      "after reopen");
  reopened->reset();
  RemoveStore(path);
}

// ---- Engine: 300 update batches ---------------------------------------------

constexpr int kParents = 100;

/// A small document with kParents `p` anchors, each holding one a(b(c)).
/// Batch i grafts a fresh a(b(c)) in front of the one under p[i % kParents]
/// and drops the old one, so every standing view changes in every batch and
/// no label gap runs out within 300 batches (each anchor takes three nested
/// inserts).
struct RetirementFixture {
  explicit RetirementFixture(const std::string& path_name,
                             bool drop_old = true)
      : doc(MakeDocument()),
        mirror(MakeDocument()),
        path(TempPath(path_name)),
        drop_old(drop_old) {
    RemoveStore(path);
    engine = std::make_unique<Engine>(&doc, path);
    standing.push_back(engine->AddView("//a//b", Scheme::kElement));
    standing.push_back(engine->AddView("//c", Scheme::kElement));
    standing.push_back(engine->AddView("//p//a", Scheme::kLinkedElement));
    standing.push_back(engine->AddView("//a//b", Scheme::kTuple));
  }
  ~RetirementFixture() {
    engine.reset();
    RemoveStore(path);
  }

  static xml::Document MakeDocument() {
    std::string spec = "r(";
    for (int i = 0; i < kParents; ++i) spec += " p(a(b(c)))";
    xml::Document made = MakeDoc(spec + ")");
    VJ_CHECK(made.RelabelWithGap(1u << 16).ok());
    return made;
  }

  /// The ops of batch `i` over `d`'s current labels: graft a fresh a(b(c))
  /// as the anchor's first child, then (with drop_old) drop the anchor's old
  /// `a` subtree. Dropping first would free the whole anchor, and the graft
  /// would reuse the dropped labels exactly — a batch with no net change.
  std::vector<UpdateOp> BatchOps(const xml::Document& d, int i) const {
    const xml::NodeId anchor =
        d.NodesOfTag(d.FindTag("p"))[static_cast<size_t>(i % kParents)];
    UpdateOp ins;
    ins.kind = UpdateOp::Kind::kInsertSubtree;
    ins.target_tag = "p";
    ins.target_start = d.NodeLabel(anchor).start;
    ins.subtree = xml::SpecFromDocument(MakeDoc("a(b(c))"));
    if (!drop_old) return {ins};
    xml::NodeId first_a = xml::kInvalidNode;
    for (xml::NodeId n : d.NodesOfTag(d.FindTag("a"))) {
      if (d.Parent(n) == anchor) {
        first_a = n;
        break;
      }
    }
    VJ_CHECK(first_a != xml::kInvalidNode);
    UpdateOp del;
    del.kind = UpdateOp::Kind::kDeleteSubtree;
    del.target_tag = "a";
    del.target_start = d.NodeLabel(first_a).start;
    return {ins, del};
  }

  /// Applies batch `i` to the engine's document and asserts it took the
  /// delta path for every list view.
  void ApplyBatch(int i) {
    const std::vector<UpdateOp> ops = BatchOps(doc, i);
    auto result = engine->ApplyUpdates(ops);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->failed.empty()) << result->failed.front();
    ASSERT_EQ(result->applied, ops.size());
    ASSERT_FALSE(result->relabeled) << "batch " << i << " ran out of gap";
    ASSERT_EQ(result->delta_maintained, 3u);
    ASSERT_EQ(result->fully_rebuilt, 1u);
  }

  /// Replays batch `i` on the mirror document (same labels, no engine).
  void ApplyToMirror(int i) {
    for (const UpdateOp& op : BatchOps(mirror, i)) {
      const xml::NodeId target = mirror.FindByStart(
          mirror.FindTag(op.target_tag), op.target_start);
      if (op.kind == UpdateOp::Kind::kDeleteSubtree) {
        VJ_CHECK(mirror.DeleteSubtree(target).ok());
      } else {
        VJ_CHECK(mirror.InsertSubtree(op.subtree, target).ok());
      }
    }
  }

  std::vector<const MaterializedView*> QueryViews() const {
    return {standing[0], standing[1]};
  }

  xml::Document doc;
  xml::Document mirror;
  std::string path;
  bool drop_old;
  std::unique_ptr<Engine> engine;
  /// The originally installed versions — stale pointers after batch 1.
  std::vector<const MaterializedView*> standing;
  const TreePattern query = MustParse("//a//b//c");
};

/// Runs `query` through the stale original pointers and through views
/// materialized fresh over the same document; both must match the oracle.
void ExpectStaleEqualsFresh(RetirementFixture& fx, const std::string& where) {
  Engine fresh(static_cast<const xml::Document*>(&fx.doc),
               TempPath("retire_fresh.db"));
  std::vector<const MaterializedView*> fresh_views = {
      fresh.AddView("//a//b", Scheme::kElement),
      fresh.AddView("//c", Scheme::kElement)};
  tpq::HashingSink oracle;
  NaiveEvaluator(fx.doc, fx.query).Evaluate(&oracle);
  for (core::Algorithm algorithm :
       {core::Algorithm::kTwigStack, core::Algorithm::kViewJoin}) {
    RunOptions run;
    run.algorithm = algorithm;
    RunResult stale = fx.engine->Execute(fx.query, fx.QueryViews(), run);
    RunResult rebuilt = fresh.Execute(fx.query, fresh_views, run);
    ASSERT_TRUE(stale.ok) << where << ": " << stale.error;
    ASSERT_TRUE(rebuilt.ok) << where << ": " << rebuilt.error;
    EXPECT_EQ(stale.match_count, rebuilt.match_count) << where;
    EXPECT_EQ(stale.result_hash, rebuilt.result_hash) << where;
    EXPECT_EQ(stale.result_hash, oracle.hash()) << where;
  }
  // The tuple view, through its stale pointer, under InterJoin.
  const TreePattern path_query = MustParse("//a//b");
  RunOptions ij;
  ij.algorithm = core::Algorithm::kInterJoin;
  RunResult stale_ij = fx.engine->Execute(path_query, {fx.standing[3]}, ij);
  ASSERT_TRUE(stale_ij.ok) << where << ": " << stale_ij.error;
  EXPECT_EQ(stale_ij.match_count, NaiveEvaluator(fx.doc, path_query).Count())
      << where;
}

TEST(EngineRetirementTest, ThreeHundredBatchesKeepOnlyLiveTipsCached) {
  RetirementFixture fx("retire_engine.db");
  ViewCatalog* catalog = fx.engine->catalog();
  BufferPool* pool = catalog->pool();
  const size_t standing = fx.standing.size();
  ASSERT_EQ(catalog->LiveViews().size(), standing);
  RunOptions warm;
  warm.cold_cache = false;
  warm.algorithm = core::Algorithm::kViewJoin;

  for (int i = 0; i < 300; ++i) {
    // Cache every page of every live tip, so retirement has work to do.
    std::vector<const MaterializedView*> tips = catalog->LiveViews();
    ASSERT_TRUE(fx.engine->Execute(fx.query, fx.QueryViews(), warm).ok);
    for (const MaterializedView* tip : tips) {
      for (PageId page : PagesOf(tip)) (void)pool->GetPage(page);
    }

    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;

    std::vector<const MaterializedView*> live = catalog->LiveViews();
    ASSERT_EQ(live.size(), standing) << "batch " << i;
    for (size_t s = 0; s < standing; ++s) {
      const MaterializedView* original = fx.standing[s];
      const MaterializedView* tip = catalog->ReplacementFor(original);
      ASSERT_NE(tip, nullptr);
      EXPECT_NE(std::find(live.begin(), live.end(), tip), live.end())
          << "ReplacementFor(original) is not a live tip, batch " << i;
      EXPECT_EQ(catalog->FindView(original->pattern().ToString(),
                                  original->scheme()),
                tip);
    }
    // This batch retired every previous tip: none of their pages stays.
    for (const MaterializedView* retired : tips) {
      EXPECT_NE(catalog->ReplacementFor(retired), nullptr);
      for (PageId page : PagesOf(retired)) {
        EXPECT_FALSE(pool->Contains(page))
            << "page " << page << " of a superseded version, batch " << i;
      }
    }
    if (HasFailure()) return;
    if ((i + 1) % 50 == 0) {
      ExpectStaleEqualsFresh(fx, "batch " + std::to_string(i));
    }
  }

  // The whole history, not just the last batch: only live pages cached.
  std::vector<const MaterializedView*> all = catalog->ViewsSnapshot();
  EXPECT_EQ(all.size(), standing + 300 * standing);
  std::vector<const MaterializedView*> live = catalog->LiveViews();
  std::set<const MaterializedView*> live_set(live.begin(), live.end());
  size_t retired = 0;
  for (const MaterializedView* v : all) {
    if (live_set.count(v) != 0) continue;
    ++retired;
    for (PageId page : PagesOf(v)) EXPECT_FALSE(pool->Contains(page));
  }
  EXPECT_EQ(retired, 300 * standing);
  EXPECT_EQ(pool->pinned_frames(), 0u);
}

TEST(EngineRetirementTest, PinnedStaleReadersStayCorrectWhileBatchesRetire) {
  // Insert-only batches: a query that overlaps a batch's maintenance phase
  // answers from the pre-batch views over the post-batch document, which is
  // a consistent snapshot only while no label it returns was deleted.
  RetirementFixture fx("retire_pinned.db", /*drop_old=*/false);
  BufferPool* pool = fx.engine->catalog()->pool();
  constexpr int kBatches = 40;

  // Every answer a reader may legally see: one per document version.
  std::set<uint64_t> allowed;
  auto oracle_hash = [&fx](const xml::Document& d) {
    tpq::HashingSink sink;
    NaiveEvaluator(d, fx.query).Evaluate(&sink);
    return sink.hash();
  };
  allowed.insert(oracle_hash(fx.mirror));
  for (int i = 0; i < kBatches; ++i) {
    fx.ApplyToMirror(i);
    allowed.insert(oracle_hash(fx.mirror));
  }

  // The original version's bytes, which its pages keep on disk for good.
  std::vector<PageId> pages;
  for (const MaterializedView* v : fx.QueryViews()) {
    for (PageId page : PagesOf(v)) pages.push_back(page);
  }
  std::vector<std::vector<uint8_t>> bytes;
  for (PageId page : pages) {
    BufferPool::PinnedPage pin = pool->GetPage(page);
    bytes.emplace_back(pin.data(), pin.data() + Pager::kPageSize);
  }

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(message);
  };
  std::atomic<bool> stop{false};
  auto reader = [&](size_t id) {
    Engine::Session session(fx.engine.get(), id);
    RunOptions run;
    run.algorithm = core::Algorithm::kViewJoin;
    run.cold_cache = false;
    for (int iteration = 0;
         !stop.load(std::memory_order_acquire) || iteration < 10;
         ++iteration) {
      // Pin the stale version's pages across a query and a retirement.
      std::vector<BufferPool::PinnedPage> held;
      for (size_t k = 0; k < pages.size(); ++k) {
        held.push_back(pool->GetPage(pages[k]));
        if (std::memcmp(held.back().data(), bytes[k].data(),
                        Pager::kPageSize) != 0) {
          fail("stale page " + std::to_string(pages[k]) + " changed");
          return;
        }
      }
      RunResult r = session.Run(fx.query, fx.QueryViews(), run);
      if (!r.ok) {
        fail("query failed: " + r.error);
        return;
      }
      if (allowed.count(r.result_hash) == 0) {
        fail("answer matches no document version");
        return;
      }
      for (size_t k = 0; k < held.size(); ++k) {
        if (std::memcmp(held[k].data(), bytes[k].data(), Pager::kPageSize) !=
            0) {
          fail("pinned page " + std::to_string(pages[k]) +
               " changed under its pin");
          return;
        }
      }
      if (iteration > 2000) return;
    }
  };
  std::thread t1(reader, 1), t2(reader, 2);
  for (int i = 0; i < kBatches; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) break;
  }
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(pool->pinned_frames(), 0u);
  EXPECT_EQ(fx.engine->catalog()->LiveViews().size(), fx.standing.size());
  ExpectStaleEqualsFresh(fx, "after concurrent batches");
}

// ---- Scrubber ----------------------------------------------------------------

TEST(ScrubberRetirementTest, FullPassScansOnlyLiveVersions) {
  RetirementFixture fx("retire_scrub.db");
  for (int i = 0; i < 100; ++i) {
    fx.ApplyBatch(i);
    if (HasFatalFailure()) return;
  }
  ViewCatalog* catalog = fx.engine->catalog();
  uint64_t live_pages = 0;
  for (const MaterializedView* v : catalog->LiveViews()) {
    live_pages += PagesOf(v).size();
  }
  uint64_t all_pages = 0;
  for (const MaterializedView* v : catalog->ViewsSnapshot()) {
    all_pages += PagesOf(v).size();
  }
  ASSERT_GT(all_pages, live_pages);

  storage::Scrubber* scrubber = fx.engine->scrubber();
  const storage::ScrubStats before = scrubber->stats();
  EXPECT_EQ(scrubber->Step(UINT32_MAX), live_pages);
  const storage::ScrubStats after = scrubber->stats();
  EXPECT_EQ(after.pages_scanned - before.pages_scanned, live_pages);
  EXPECT_EQ(after.full_passes - before.full_passes, 1u);
  EXPECT_EQ(after.corrupt_pages, 0u);
}

}  // namespace
}  // namespace viewjoin
