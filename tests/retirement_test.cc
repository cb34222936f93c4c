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
//   - the scrubber scans live versions only;
//   - copy-on-write versions: an E-scheme delta merge shares the replaced
//     version's unchanged pages instead of copying them, retirement keeps
//     the shared frames cached, a corrupt shared page is charged to the live
//     version, and multi-run page tables survive checkpoint, reopen, backup
//     restore and fsck. A checkpoint or a backup registers only the live
//     versions on reopen.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
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
#include "plan/operator.h"
#include "storage/backup.h"
#include "storage/buffer_pool.h"
#include "storage/fsck.h"
#include "storage/manifest.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/rng.h"
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

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".spill").c_str());
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Every page id the view's stored lists occupy.
std::vector<PageId> PagesOf(const MaterializedView* view) {
  std::vector<PageId> pages;
  auto add = [&pages](const StoredList& list) {
    pages.insert(pages.end(), list.pages.begin(), list.pages.end());
  };
  for (const StoredList& list : view->lists()) add(list);
  add(view->tuple_list());
  return pages;
}

/// Every page of the view's stored lists with the key it decodes under.
std::vector<std::pair<PageId, storage::DecodeKey>> KeyedPagesOf(
    const MaterializedView* view) {
  std::vector<std::pair<PageId, storage::DecodeKey>> pages;
  auto add = [&pages](const StoredList& list) {
    for (uint32_t p = 0; p < list.pages.size(); ++p) {
      pages.emplace_back(list.pages[p], list.DecodeKeyOf(p));
    }
  };
  for (const StoredList& list : view->lists()) add(list);
  add(view->tuple_list());
  return pages;
}

/// Reads every page of the view into `pool`.
void CacheEveryPage(BufferPool* pool, const MaterializedView* view) {
  std::vector<uint32_t> scratch;
  for (const auto& [page, key] : KeyedPagesOf(view)) {
    (void)pool->GetDecoded(page, key, &scratch);
  }
}

// ---- BufferPool::Discard ----------------------------------------------------

TEST(BufferPoolDiscardTest, DropsUnpinnedFramesAndKeepsPinnedOnes) {
  const std::string path = TempPath("retire_pool.db");
  std::remove(path.c_str());
  Pager pager(path);
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, 6);
  BufferPool pool(&pager, 16);
  for (PageId p = 0; p < 6; ++p) testing::PageTag(&pool, p, key);
  std::vector<uint32_t> scratch;
  BufferPool::PinnedPage held = pool.GetDecoded(2, key, &scratch);

  pool.Discard({1, 2, 3});
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2)) << "a pinned frame must survive Discard";
  EXPECT_FALSE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
  EXPECT_EQ(held.values()[0], 2u);

  // A discarded page re-reads from disk: one miss, the same record.
  const uint64_t misses = pool.misses();
  EXPECT_EQ(testing::PageTag(&pool, 3, key), 3u);
  EXPECT_EQ(pool.misses(), misses + 1);

  // Once unpinned, the survivor goes with the next Discard.
  held.Release();
  pool.Discard({2});
  EXPECT_FALSE(pool.Contains(2));
  pool.Discard({});  // nothing to drop: no-op
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

/// A document with `parents` `p` anchors, each holding one a(b(c)),
/// relabelled with a gap wide enough for hundreds of nested inserts.
xml::Document MakeAnchorDocument(int parents) {
  std::string spec = "r(";
  for (int i = 0; i < parents; ++i) spec += " p(a(b(c)))";
  xml::Document made = MakeDoc(spec + ")");
  VJ_CHECK(made.RelabelWithGap(1u << 16).ok());
  return made;
}

/// The ops that replace the a(b(c)) under `d`'s `anchor`-th `p`: graft a
/// fresh a(b(c)) as the anchor's first child, then (with `drop_old`) drop
/// the anchor's old `a` subtree. Dropping first would free the whole
/// anchor, and the graft would reuse the dropped labels exactly — a batch
/// with no net change.
std::vector<UpdateOp> GraftOps(const xml::Document& d, size_t anchor_index,
                               bool drop_old) {
  const xml::NodeId anchor = d.NodesOfTag(d.FindTag("p"))[anchor_index];
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

  static xml::Document MakeDocument() { return MakeAnchorDocument(kParents); }

  /// The ops of batch `i` over `d`'s current labels (GraftOps at anchor
  /// i mod kParents).
  std::vector<UpdateOp> BatchOps(const xml::Document& d, int i) const {
    return GraftOps(d, static_cast<size_t>(i % kParents), drop_old);
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
    for (const MaterializedView* tip : tips) CacheEveryPage(pool, tip);

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

  // The whole history, not just the last batch: only live pages cached. A
  // page id a retired version names may since have been reused by a live
  // version; that id is a live page now.
  std::vector<const MaterializedView*> all = catalog->ViewsSnapshot();
  EXPECT_EQ(all.size(), standing + 300 * standing);
  std::vector<const MaterializedView*> live = catalog->LiveViews();
  std::set<const MaterializedView*> live_set(live.begin(), live.end());
  std::set<PageId> live_pages;
  for (const MaterializedView* v : live) {
    for (PageId page : PagesOf(v)) live_pages.insert(page);
  }
  size_t retired = 0;
  for (const MaterializedView* v : all) {
    if (live_set.count(v) != 0) continue;
    ++retired;
    for (PageId page : PagesOf(v)) {
      if (live_pages.count(page) == 0) {
        EXPECT_FALSE(pool->Contains(page));
      }
    }
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

  // The original version's records, which its pages keep on disk while a
  // reader pinned before its retirement lives: the readers below reach the
  // pages through pool pins, so this pin covers them for the whole run.
  const storage::PageReclaimer::Pin reader_pin =
      fx.engine->catalog()->PinReader();
  std::vector<std::pair<PageId, storage::DecodeKey>> pages;
  for (const MaterializedView* v : fx.QueryViews()) {
    for (const auto& keyed : KeyedPagesOf(v)) pages.push_back(keyed);
  }
  auto values_of = [&pages](size_t k, const BufferPool::PinnedPage& pin) {
    const storage::DecodeKey& key = pages[k].second;
    return std::vector<uint32_t>(
        pin.values(),
        pin.values() + storage::DecodedValues(key.layout, key.records));
  };
  std::vector<std::vector<uint32_t>> values;
  for (size_t k = 0; k < pages.size(); ++k) {
    std::vector<uint32_t> scratch;
    values.push_back(values_of(
        k, pool->GetDecoded(pages[k].first, pages[k].second, &scratch)));
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
      std::vector<std::vector<uint32_t>> scratch(pages.size());
      for (size_t k = 0; k < pages.size(); ++k) {
        held.push_back(
            pool->GetDecoded(pages[k].first, pages[k].second, &scratch[k]));
        if (values_of(k, held.back()) != values[k]) {
          fail("stale page " + std::to_string(pages[k].first) + " changed");
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
        if (values_of(k, held[k]) != values[k]) {
          fail("pinned page " + std::to_string(pages[k].first) +
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

// ---- Copy-on-write versions ---------------------------------------------------

/// Anchors of the sharing fixture: enough that every delta-format list spans
/// several pages.
constexpr int kSharingParents = 3000;

/// A persistent engine over kSharingParents anchors with the E-scheme views
/// //p//a and //b//c. A batch replaces the a(b(c)) of one anchor, so the a,
/// b and c lists change at that anchor's position and the delta merge shares
/// the pages before it; //p//a's p list never changes and is shared whole.
struct SharingFixture {
  explicit SharingFixture(const std::string& path_name)
      : doc(MakeAnchorDocument(kSharingParents)), path(TempPath(path_name)) {
    RemoveStore(path);
    core::EngineOptions options;
    options.persistent = true;
    engine = std::make_unique<Engine>(&doc, path, options);
    for (const std::string& pattern : Patterns()) {
      engine->AddView(pattern, Scheme::kElement);
    }
  }
  ~SharingFixture() {
    engine.reset();
    RemoveStore(path);
  }

  static std::vector<std::string> Patterns() {
    return {MustParse("//p//a").ToString(), MustParse("//b//c").ToString()};
  }

  /// The live version of each pattern, in Patterns() order.
  static std::vector<const MaterializedView*> Tips(const ViewCatalog& catalog) {
    std::vector<const MaterializedView*> tips;
    for (const std::string& pattern : Patterns()) {
      tips.push_back(catalog.FindView(pattern, Scheme::kElement));
    }
    return tips;
  }

  /// Replaces the a(b(c)) under anchor `anchor` through the engine.
  void ApplyBatch(size_t anchor) {
    const std::vector<UpdateOp> ops = GraftOps(doc, anchor, /*drop_old=*/true);
    auto result = engine->ApplyUpdates(ops);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->failed.empty()) << result->failed.front();
    ASSERT_FALSE(result->relabeled);
    ASSERT_EQ(result->delta_maintained, Patterns().size());
  }

  uint64_t OracleHash() const {
    tpq::HashingSink sink;
    NaiveEvaluator(doc, query).Evaluate(&sink);
    return sink.hash();
  }

  xml::Document doc;
  std::string path;
  std::unique_ptr<Engine> engine;
  const TreePattern query = MustParse("//p//a//b//c");
};

/// Batches at anchors moving toward the back of the document: each merge
/// shares pages of the previous merge's fresh suffix, so the page tables
/// end up with several runs.
constexpr size_t kMultiRunAnchors[] = {kSharingParents / 3,
                                       kSharingParents / 2,
                                       kSharingParents - 2};

/// Answer hash of `query` over `views`, read from `catalog`'s pages by the
/// plan layer's ViewJoin operator (no Engine needed on a reopened store).
uint64_t CatalogAnswerHash(const xml::Document& doc, ViewCatalog* catalog,
                           const TreePattern& query,
                           const std::vector<const MaterializedView*>& views) {
  plan::Operator::Config config;
  config.doc = &doc;
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

/// Applies GraftOps(anchor) to `doc` and maintains `catalog`'s live views the
/// way Engine::ApplyUpdates does: deltas collected around each mutation,
/// views with empty deltas skipped, one ApplyUpdateBatch.
util::StatusOr<ViewCatalog::UpdateBatchResult> ApplyGraftToCatalog(
    ViewCatalog* catalog, xml::Document* doc, size_t anchor) {
  const std::vector<const MaterializedView*> live = catalog->LiveViews();
  std::vector<TreePattern> patterns;
  for (const MaterializedView* v : live) patterns.push_back(v->pattern());
  view::DeltaCollector collector(doc, patterns);
  for (const UpdateOp& op : GraftOps(*doc, anchor, /*drop_old=*/true)) {
    const xml::NodeId target =
        doc->FindByStart(doc->FindTag(op.target_tag), op.target_start);
    if (op.kind == UpdateOp::Kind::kDeleteSubtree) {
      collector.WillDelete(target);
      VJ_CHECK(doc->DeleteSubtree(target).ok());
      collector.DidDelete();
    } else {
      collector.WillInsert(target);
      util::StatusOr<xml::NodeId> inserted =
          doc->InsertSubtree(op.subtree, target);
      VJ_CHECK(inserted.ok()) << inserted.status().ToString();
      collector.DidInsert(*inserted);
    }
  }
  std::vector<view::PatternDeltas> deltas = collector.TakeDeltas();
  std::vector<ViewCatalog::ViewUpdateSpec> specs;
  for (size_t i = 0; i < live.size(); ++i) {
    if (deltas[i].empty()) continue;
    ViewCatalog::ViewUpdateSpec spec;
    spec.view = live[i];
    spec.deltas.added = std::move(deltas[i].added);
    spec.deltas.removed = std::move(deltas[i].removed);
    specs.push_back(std::move(spec));
  }
  return catalog->ApplyUpdateBatch(*doc, specs);
}

TEST(CopyOnWriteTest, BatchSharesUnchangedPagesAndAppendsOnlyTheSuffix) {
  SharingFixture fx("cow_share.db");
  ViewCatalog* catalog = fx.engine->catalog();
  BufferPool* pool = catalog->pool();
  const std::vector<const MaterializedView*> before =
      SharingFixture::Tips(*catalog);
  for (const MaterializedView* v : before) {
    for (const StoredList& list : v->lists()) {
      ASSERT_GE(list.PageSpan(), 3u) << v->pattern().ToString();
    }
  }
  // Cache every page of the live versions, so retirement has work to do.
  for (const MaterializedView* v : before) CacheEveryPage(pool, v);
  const uint32_t pages_before = catalog->pager()->page_count();

  fx.ApplyBatch(kSharingParents - 2);
  if (HasFatalFailure()) return;

  const std::vector<const MaterializedView*> after =
      SharingFixture::Tips(*catalog);
  uint32_t fresh_pages = 0;
  for (size_t v = 0; v < before.size(); ++v) {
    ASSERT_NE(after[v], before[v]);
    const std::vector<PageId> after_pages = PagesOf(after[v]);
    const std::set<PageId> kept(after_pages.begin(), after_pages.end());
    for (size_t q = 0; q < before[v]->lists().size(); ++q) {
      const std::string where = before[v]->pattern().ToString() + " list " +
                                std::to_string(q);
      const StoredList& old_list = before[v]->list(static_cast<int>(q));
      const StoredList& new_list = after[v]->list(static_cast<int>(q));
      size_t shared = 0;
      while (shared < old_list.pages.size() &&
             shared < new_list.pages.size() &&
             old_list.pages[shared] == new_list.pages[shared]) {
        ++shared;
      }
      if (v == 0 && q == 0) {
        // //p//a's p list has no delta: the new version shares all of it.
        EXPECT_EQ(new_list.pages, old_list.pages) << where;
      } else {
        // The change sits on the last page: every page before it is shared,
        // and the page holding it is re-encoded.
        EXPECT_EQ(shared + 1, old_list.pages.size()) << where;
      }
      // Every page past the shared prefix is fresh, at the pager's old tail.
      for (size_t p = shared; p < new_list.pages.size(); ++p) {
        EXPECT_GE(new_list.pages[p], pages_before) << where;
        ++fresh_pages;
      }
    }
    // Retirement keeps the shared frames and drops only the retired ones.
    for (PageId page : PagesOf(before[v])) {
      EXPECT_EQ(pool->Contains(page), kept.count(page) != 0)
          << before[v]->pattern().ToString() << " page " << page;
    }
  }
  EXPECT_GT(fresh_pages, 0u);
  EXPECT_EQ(catalog->pager()->page_count() - pages_before, fresh_pages)
      << "the pager grows by the re-encoded suffix pages only";

  RunOptions run;
  run.algorithm = core::Algorithm::kViewJoin;
  RunResult answer = fx.engine->Execute(fx.query, after, run);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.result_hash, fx.OracleHash());
}

TEST(CopyOnWriteTest, CorruptSharedPageQuarantinesTheLiveVersion) {
  SharingFixture fx("cow_rot.db");
  ViewCatalog* catalog = fx.engine->catalog();
  const MaterializedView* original = SharingFixture::Tips(*catalog)[1];
  fx.ApplyBatch(kSharingParents - 2);
  if (HasFatalFailure()) return;
  const std::vector<const MaterializedView*> tips =
      SharingFixture::Tips(*catalog);
  const MaterializedView* tip = tips[1];  // //b//c
  ASSERT_NE(tip, original);
  const PageId shared = tip->list(0).pages.front();
  ASSERT_EQ(shared, original->list(0).pages.front());
  EXPECT_EQ(catalog->ViewOfPage(shared), tip)
      << "a shared page is charged to the newest version holding it";

  // Rot the shared page behind the pool's back: rewrite its own bytes with
  // one bit flipped after the checksum was computed.
  {
    std::vector<uint8_t> bytes(Pager::kPageSize);
    ASSERT_TRUE(catalog->pager()->ReadPage(shared, bytes.data()).ok());
    util::ScopedFaultInjection fi;
    fi->ArmWriteFault(util::WriteFault::kBitFlip, 1);
    ASSERT_TRUE(catalog->pager()->WritePage(shared, bytes.data()).ok());
  }
  catalog->DropCaches();

  RunOptions run;
  run.algorithm = core::Algorithm::kViewJoin;
  RunResult answer = fx.engine->Execute(fx.query, tips, run);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.result_hash, fx.OracleHash());
  EXPECT_EQ(answer.quarantined_views,
            std::vector<std::string>{tip->pattern().ToString()});
  EXPECT_TRUE(catalog->IsQuarantined(tip));
  const MaterializedView* rebuilt = catalog->ReplacementFor(tip);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(catalog->FindView(tip->pattern().ToString(), Scheme::kElement),
            rebuilt);
}

/// What a reopened store must reproduce of one live version.
struct VersionImage {
  uint64_t epoch = 0;
  std::vector<std::vector<PageId>> tables;  // one page table per list
};

std::vector<VersionImage> ImagesOf(
    const std::vector<const MaterializedView*>& versions) {
  std::vector<VersionImage> images;
  for (const MaterializedView* v : versions) {
    VersionImage image;
    image.epoch = v->epoch();
    for (const StoredList& list : v->lists()) image.tables.push_back(list.pages);
    images.push_back(std::move(image));
  }
  return images;
}

/// The store at `reopened` holds `registered` versions of which exactly
/// `tips` are live (same epochs, same page tables), answers like the oracle,
/// and its next batch maintains those versions and nothing else.
void ExpectReopensLiveVersions(ViewCatalog* reopened, SharingFixture& fx,
                               const std::vector<VersionImage>& tips,
                               size_t registered, const std::string& where) {
  EXPECT_EQ(reopened->ViewsSnapshot().size(), registered) << where;
  ASSERT_EQ(reopened->LiveViews().size(), tips.size()) << where;
  const std::vector<const MaterializedView*> live =
      SharingFixture::Tips(*reopened);
  ASSERT_EQ(live.size(), tips.size());
  for (size_t v = 0; v < tips.size(); ++v) {
    ASSERT_NE(live[v], nullptr) << where;
    EXPECT_EQ(live[v]->epoch(), tips[v].epoch) << where;
    EXPECT_EQ(ImagesOf({live[v]})[0].tables, tips[v].tables)
        << where << ": " << live[v]->pattern().ToString();
  }
  EXPECT_EQ(CatalogAnswerHash(fx.doc, reopened, fx.query, live),
            fx.OracleHash())
      << where;

  auto applied = ApplyGraftToCatalog(reopened, &fx.doc, kSharingParents - 1);
  ASSERT_TRUE(applied.ok()) << where << ": " << applied.status().ToString();
  EXPECT_EQ(applied->delta_maintained, tips.size()) << where;
  EXPECT_EQ(applied->new_views.size(), tips.size()) << where;
  EXPECT_EQ(reopened->LiveViews().size(), tips.size()) << where;
  EXPECT_EQ(CatalogAnswerHash(fx.doc, reopened, fx.query,
                              SharingFixture::Tips(*reopened)),
            fx.OracleHash())
      << where << ", after the next batch";
}

/// Runs the multi-run batches and returns the live versions, asserting that
/// some page table really has several runs.
std::vector<VersionImage> BuildMultiRunTables(SharingFixture& fx) {
  for (size_t anchor : kMultiRunAnchors) {
    fx.ApplyBatch(anchor);
    if (::testing::Test::HasFatalFailure()) return {};
  }
  const std::vector<const MaterializedView*> tips =
      SharingFixture::Tips(*fx.engine->catalog());
  size_t max_runs = 0;
  for (const MaterializedView* v : tips) {
    for (const StoredList& list : v->lists()) {
      max_runs = std::max(max_runs, list.Runs().size());
    }
  }
  EXPECT_GE(max_runs, 3u);
  return ImagesOf(tips);
}

TEST(CopyOnWriteTest, JournalReplayKeepsMultiRunTables) {
  SharingFixture fx("cow_replay.db");
  const std::vector<VersionImage> tips = BuildMultiRunTables(fx);
  if (HasFatalFailure()) return;
  const size_t registered = fx.engine->catalog()->ViewsSnapshot().size();
  fx.engine.reset();

  auto reopened = ViewCatalog::Open(fx.path, 4096);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectReopensLiveVersions(reopened->get(), fx, tips, registered,
                            "journal replay");
}

TEST(CopyOnWriteTest, CheckpointReopenRegistersOnlyLiveVersions) {
  SharingFixture fx("cow_checkpoint.db");
  const std::vector<VersionImage> tips = BuildMultiRunTables(fx);
  if (HasFatalFailure()) return;
  ViewCatalog* catalog = fx.engine->catalog();
  ASSERT_EQ(catalog->ViewsSnapshot().size(),
            tips.size() * (1 + std::size(kMultiRunAnchors)));
  ASSERT_TRUE(catalog->Checkpoint().ok());
  fx.engine.reset();

  auto reopened = ViewCatalog::Open(fx.path, 4096);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectReopensLiveVersions(reopened->get(), fx, tips, tips.size(),
                            "checkpoint reopen");
}

TEST(CopyOnWriteTest, BackupRestoreRegistersOnlyLiveVersions) {
  SharingFixture fx("cow_backup.db");
  const std::string img = TempPath("cow_backup_img");
  const std::string restored = TempPath("cow_backup_restored.db");
  RemoveTree(img);
  RemoveStore(restored);
  const std::vector<VersionImage> tips = BuildMultiRunTables(fx);
  if (HasFatalFailure()) return;
  auto backup = fx.engine->CreateBackup(img);
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  auto restore = storage::RestoreBackup(img, restored);
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  {
    auto opened = ViewCatalog::Open(restored, 4096);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ExpectReopensLiveVersions(opened->get(), fx, tips, tips.size(),
                              "backup restore");
  }
  RemoveTree(img);
  RemoveStore(restored);
}

TEST(CopyOnWriteTest, FsckIsCleanOnSharedPagesAndFlagsARunPastThePrefix) {
  SharingFixture fx("cow_fsck.db");
  BuildMultiRunTables(fx);
  if (HasFatalFailure()) return;
  fx.engine.reset();
  storage::FsckCatalogReport clean = storage::FsckCatalog(fx.path);
  EXPECT_TRUE(clean.clean()) << storage::ToJson(clean);

  // Rewrite the journal with one multi-run list whose second run is moved
  // past the durable prefix; its first run still lies inside.
  const std::string journal = storage::ManifestJournal::PathFor(fx.path);
  auto replay = storage::ManifestJournal::Replay(journal);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const uint32_t durable = replay->durable_page_count;
  std::vector<storage::ManifestViewRecord> records = replay->installed;
  bool moved = false;
  for (storage::ManifestViewRecord& record : records) {
    for (StoredList& list : record.lists) {
      const std::vector<storage::PageRun> runs = list.Runs();
      if (moved || runs.size() < 2) continue;
      for (uint32_t p = 0; p < runs[1].count; ++p) {
        list.pages[runs[0].count + p] = durable + p;
      }
      moved = true;
    }
  }
  ASSERT_TRUE(moved);
  ASSERT_TRUE(storage::ManifestJournal::WriteCheckpoint(
                  journal, records, {}, replay->last_epoch)
                  .ok());
  storage::FsckCatalogReport report = storage::FsckCatalog(fx.path);
  EXPECT_TRUE(report.corrupt()) << storage::ToJson(report);
  ASSERT_EQ(report.bad_views.size(), 1u) << storage::ToJson(report);
  EXPECT_NE(report.bad_views[0].find("spans pages [" + std::to_string(durable) +
                                     ", "),
            std::string::npos)
      << report.bad_views[0];
  EXPECT_NE(report.bad_views[0].find("past durable prefix " +
                                     std::to_string(durable)),
            std::string::npos)
      << report.bad_views[0];
}

}  // namespace
}  // namespace viewjoin
