// Live-document updates and crash-safe incremental view maintenance.
//
// Layers under test, bottom up:
//   - xml::Document gap-based subtree insert/delete (labels of untouched
//     nodes never move; tombstones keep their labels readable);
//   - view::DeltaCollector, differentially against the NaiveEvaluator oracle
//     on random documents (post == pre + added - removed, per pattern node);
//   - core::Engine::ApplyUpdates (delta maintenance vs. rebuild, the relabel
//     fallback, per-op skip semantics, plan-cache invalidation, concurrent
//     queries during a batch);
//   - the update crash matrix: kill -9 simulated inside ApplyUpdateBatch at
//     every transaction instant x every storage scheme — reopen must land
//     exactly on the pre-batch or the post-batch catalog, with answers
//     matching a clean run and no epoch reuse; a batch whose deltas run to
//     megabytes leaves no file besides the pager and its manifest;
//   - manifest checkpoint compaction torn mid-write (the original journal
//     must win) and vj_fsck's epoch-monotonicity reporting.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "core/engine.h"
#include "storage/fsck.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"
#include "view/delta.h"

namespace viewjoin {
namespace {

using core::Engine;
using core::EngineOptions;
using core::RunOptions;
using core::RunResult;
using core::UpdateOp;
using core::UpdateResult;
using storage::FsckCatalog;
using storage::FsckCatalogReport;
using storage::MaterializedView;
using storage::Scheme;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::NaiveEvaluator;
using tpq::TreePattern;
using util::CrashPoint;
using util::CrashPointName;
using util::ScopedFaultInjection;
using util::StatusCode;
using view::DeltaCollector;
using view::PatternDeltas;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Removes the store plus every staging artifact a previous (failed) run may
/// have left: manifest, checkpoint tmp, spill file.
void CleanupStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".manifest.tmp").c_str());
  std::remove((path + ".spill").c_str());
}

/// Fingerprints the answer of `query` over `views` (list schemes).
uint64_t QueryHash(const xml::Document& doc, ViewCatalog* catalog,
                   const TreePattern& query,
                   const std::vector<const MaterializedView*>& views) {
  auto binding = algo::QueryBinding::Bind(doc, query, views);
  VJ_CHECK(binding.has_value());
  algo::TwigStack ts(&*binding, catalog->pool());
  tpq::HashingSink sink;
  ts.Evaluate(&sink);
  return sink.hash();
}

/// The first live node of `tag`, or kInvalidNode.
xml::NodeId FirstOfTag(const xml::Document& doc, const std::string& tag) {
  xml::TagId id = doc.FindTag(tag);
  if (id == xml::kInvalidTag) return xml::kInvalidNode;
  const auto& nodes = doc.NodesOfTag(id);
  return nodes.empty() ? xml::kInvalidNode : nodes.front();
}

// ---- Document mutation ------------------------------------------------------

TEST(DocumentUpdateTest, InsertIntoGapLeavesExistingLabelsUntouched) {
  xml::Document doc = MakeDoc("r(a(b) c)");
  ASSERT_TRUE(doc.RelabelWithGap(8).ok());
  std::vector<xml::Label> before;
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    before.push_back(doc.NodeLabel(n));
  }
  const uint64_t rev = doc.revision();

  xml::Document fragment = MakeDoc("x(y)");
  xml::SubtreeSpec spec = xml::SpecFromDocument(fragment);
  const xml::NodeId parent = FirstOfTag(doc, "a");
  ASSERT_NE(parent, xml::kInvalidNode);

  auto inserted = doc.InsertSubtree(spec, parent);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  // Every pre-existing label is bit-identical; only new ids were appended.
  for (size_t n = 0; n < before.size(); ++n) {
    EXPECT_EQ(doc.NodeLabel(static_cast<xml::NodeId>(n)), before[n]);
  }
  // The new subtree landed strictly inside the parent's region, with parent
  // links and levels consistent.
  const xml::NodeId x = *inserted;
  ASSERT_TRUE(doc.IsLive(x));
  EXPECT_TRUE(doc.IsParent(parent, x));
  EXPECT_EQ(doc.Parent(x), parent);
  const xml::NodeId y = FirstOfTag(doc, "y");
  ASSERT_NE(y, xml::kInvalidNode);
  EXPECT_TRUE(doc.IsParent(x, y));
  // Per-tag streams stay sorted by start (the invariant every join relies
  // on) even though the new ids sort after all old ones numerically.
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    const auto& stream = doc.NodesOfTag(t);
    for (size_t i = 1; i < stream.size(); ++i) {
      EXPECT_LT(doc.NodeLabel(stream[i - 1]).start,
                doc.NodeLabel(stream[i]).start);
    }
  }
  EXPECT_GT(doc.revision(), rev);
}

TEST(DocumentUpdateTest, InsertWithoutGapIsResourceExhausted) {
  // No relabel: consecutive positions leave zero spare room anywhere.
  xml::Document doc = MakeDoc("r(a(b) c)");
  xml::Document fragment = MakeDoc("x(y)");
  const xml::NodeId parent = FirstOfTag(doc, "a");
  auto inserted = doc.InsertSubtree(xml::SpecFromDocument(fragment), parent);
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kResourceExhausted);
}

TEST(DocumentUpdateTest, DeleteTombstonesButKeepsLabelsReadable) {
  xml::Document doc = MakeDoc("r(a(b(c)) d)");
  const xml::NodeId b = FirstOfTag(doc, "b");
  const xml::NodeId c = FirstOfTag(doc, "c");
  const xml::Label b_label = doc.NodeLabel(b);
  const size_t live_before = doc.LiveNodeCount();
  const uint64_t rev = doc.revision();

  std::vector<xml::NodeId> removed;
  ASSERT_TRUE(doc.DeleteSubtree(b, &removed).ok());

  // The whole subtree went, in preorder.
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0], b);
  EXPECT_EQ(removed[1], c);
  EXPECT_FALSE(doc.IsLive(b));
  EXPECT_FALSE(doc.IsLive(c));
  EXPECT_EQ(doc.LiveNodeCount(), live_before - 2);
  // Tombstoned nodes leave the streams but their labels stay readable, so
  // delta computation can still resolve them.
  EXPECT_TRUE(doc.NodesOfTag(doc.FindTag("b")).empty());
  EXPECT_EQ(doc.NodeLabel(b), b_label);
  EXPECT_GT(doc.revision(), rev);

  // The document root cannot be deleted, nor a tombstone twice.
  EXPECT_EQ(doc.DeleteSubtree(doc.Root()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(doc.DeleteSubtree(b).code(), StatusCode::kInvalidArgument);
}

TEST(DocumentUpdateTest, SpecRoundTripsThroughInsert) {
  xml::Document source = MakeDoc("a(b(c) d)");
  xml::SubtreeSpec spec = xml::SpecFromDocument(source);
  ASSERT_EQ(spec.nodes.size(), 4u);
  EXPECT_EQ(spec.nodes[0].tag, "a");
  EXPECT_EQ(spec.nodes[0].parent, xml::SubtreeSpec::kNoParent);
  for (size_t i = 1; i < spec.nodes.size(); ++i) {
    EXPECT_LT(spec.nodes[i].parent, i);  // valid preorder
  }

  xml::Document doc = MakeDoc("r(x)");
  ASSERT_TRUE(doc.RelabelWithGap(16).ok());
  const size_t nodes_before = doc.NodeCount();
  auto inserted = doc.InsertSubtree(spec, doc.Root());
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(doc.NodeCount(), nodes_before + 4);
  EXPECT_EQ(doc.NodesOfTag(doc.FindTag("b")).size(), 1u);
  EXPECT_EQ(doc.NodesOfTag(doc.FindTag("c")).size(), 1u);
}

// ---- DeltaCollector vs. the oracle ------------------------------------------

/// Start labels of `nodes`, as a set.
std::set<uint32_t> StartSet(const xml::Document& doc,
                            const std::vector<xml::NodeId>& nodes) {
  std::set<uint32_t> out;
  for (xml::NodeId n : nodes) out.insert(doc.NodeLabel(n).start);
  return out;
}

// post == pre + added - removed, per pattern and per pattern node, on random
// documents under a random insert followed by a random delete. This is the
// scope-containment theorem's end-to-end check: whatever region the
// collector restricted itself to, the net delta must equal the global
// solution-set difference the oracle sees.
TEST(DeltaCollectorTest, MatchesOracleDifferentially) {
  const std::vector<std::string> tags = {"a", "b", "c", "d"};
  const std::vector<std::string> xpaths = {"//a//b", "//a//b//c", "//b/c"};
  std::vector<TreePattern> patterns;
  for (const std::string& x : xpaths) patterns.push_back(MustParse(x));

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    xml::Document doc = testing::RandomDoc(&rng, 60, tags);
    ASSERT_TRUE(doc.RelabelWithGap(16).ok());

    std::vector<std::vector<std::set<uint32_t>>> pre;
    for (const TreePattern& p : patterns) {
      std::vector<std::set<uint32_t>> per_node;
      for (const auto& list : NaiveEvaluator(doc, p).SolutionNodes()) {
        per_node.push_back(StartSet(doc, list));
      }
      pre.push_back(std::move(per_node));
    }

    DeltaCollector collector(&doc, patterns);

    // One random insert (sandwiched; skipped if the gap cannot take it).
    xml::Document fragment = testing::RandomDoc(&rng, 5, tags);
    const xml::NodeId parent =
        static_cast<xml::NodeId>(rng.Uniform(doc.NodeCount()));
    collector.WillInsert(parent);
    auto inserted =
        doc.InsertSubtree(xml::SpecFromDocument(fragment), parent);
    if (inserted.ok()) collector.DidInsert(*inserted);

    // One random delete of a live non-root node.
    xml::NodeId victim = xml::kInvalidNode;
    for (int tries = 0; tries < 32; ++tries) {
      xml::NodeId n =
          1 + static_cast<xml::NodeId>(rng.Uniform(doc.NodeCount() - 1));
      if (doc.IsLive(n)) {
        victim = n;
        break;
      }
    }
    if (victim != xml::kInvalidNode) {
      collector.WillDelete(victim);
      ASSERT_TRUE(doc.DeleteSubtree(victim).ok());
      collector.DidDelete();
    }

    std::vector<PatternDeltas> deltas = collector.TakeDeltas();
    ASSERT_EQ(deltas.size(), patterns.size());
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      const auto post_lists = NaiveEvaluator(doc, patterns[pi]).SolutionNodes();
      ASSERT_EQ(post_lists.size(), pre[pi].size());
      for (size_t q = 0; q < post_lists.size(); ++q) {
        const std::set<uint32_t> post = StartSet(doc, post_lists[q]);
        std::set<uint32_t> expect_added, expect_removed;
        for (uint32_t s : post) {
          if (pre[pi][q].count(s) == 0) expect_added.insert(s);
        }
        for (uint32_t s : pre[pi][q]) {
          if (post.count(s) == 0) expect_removed.insert(s);
        }
        std::set<uint32_t> got_added, got_removed;
        uint32_t last = 0;
        for (const xml::Label& l : deltas[pi].added[q]) {
          EXPECT_GE(l.start, last);  // start-sorted, as ApplyUpdateBatch needs
          last = l.start;
          got_added.insert(l.start);
        }
        last = 0;
        for (const xml::Label& l : deltas[pi].removed[q]) {
          EXPECT_GE(l.start, last);
          last = l.start;
          got_removed.insert(l.start);
        }
        EXPECT_EQ(got_added, expect_added)
            << "seed " << seed << " pattern " << xpaths[pi] << " node " << q;
        EXPECT_EQ(got_removed, expect_removed)
            << "seed " << seed << " pattern " << xpaths[pi] << " node " << q;
      }
    }
  }
}

// ---- Engine::ApplyUpdates ---------------------------------------------------

/// The standard mutable-engine fixture: a document with enough structure for
/// //a//b//c to have matches on both sides of the canonical batch.
struct EngineFixture {
  explicit EngineFixture(Scheme scheme, const EngineOptions& options = {},
                         uint32_t gap = 8)
      : doc(MakeDoc("r(a(b(c) b) a(x(b(c))) b(c))")),
        path(TempPath("update_engine_" + std::to_string(++counter) + ".db")) {
    VJ_CHECK(doc.RelabelWithGap(gap).ok());
    CleanupStore(path);
    engine = std::make_unique<Engine>(&doc, path, options);
    v1 = engine->AddView("//a//b", scheme);
    v2 = engine->AddView("//c", scheme);
    query = MustParse("//a//b//c");
  }

  /// The canonical batch: graft a(b(c)) under the root, then drop the x
  /// subtree (which carries a b(c)). Both views see adds and removals.
  std::vector<UpdateOp> CanonicalOps() const {
    std::vector<UpdateOp> ops;
    UpdateOp insert;
    insert.kind = UpdateOp::Kind::kInsertSubtree;
    insert.target_tag = "r";
    insert.target_start = doc.NodeLabel(doc.Root()).start;
    xml::Document fragment = MakeDoc("a(b(c))");
    insert.subtree = xml::SpecFromDocument(fragment);
    ops.push_back(std::move(insert));
    UpdateOp del;
    del.kind = UpdateOp::Kind::kDeleteSubtree;
    del.target_tag = "x";
    del.target_start = doc.NodeLabel(FirstOfTag(doc, "x")).start;
    ops.push_back(std::move(del));
    return ops;
  }

  uint64_t OracleCount() const { return NaiveEvaluator(doc, query).Count(); }

  /// Order-independent fingerprint of the oracle's match set (same hashing
  /// as RunResult::result_hash).
  uint64_t OracleHash() const {
    tpq::HashingSink sink;
    NaiveEvaluator(doc, query).Evaluate(&sink);
    return sink.hash();
  }

  static int counter;
  xml::Document doc;
  std::string path;
  std::unique_ptr<Engine> engine;
  const MaterializedView* v1;
  const MaterializedView* v2;
  TreePattern query = MustParse("//c");
};
int EngineFixture::counter = 0;

class EngineUpdateSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(EngineUpdateSchemeTest, MaintainedViewsMatchOracle) {
  EngineFixture fx(GetParam());
  ASSERT_GT(fx.OracleCount(), 0u);
  const uint64_t before = fx.OracleHash();

  auto result = fx.engine->ApplyUpdates(fx.CanonicalOps());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->applied, 2u);
  EXPECT_TRUE(result->failed.empty());
  EXPECT_FALSE(result->relabeled);
  EXPECT_GT(result->txn_epoch, 0u);
  EXPECT_EQ(result->quarantined, 0u);
  if (GetParam() == Scheme::kTuple) {
    // Tuples have no per-node delta form: both affected views rebuild.
    EXPECT_EQ(result->delta_maintained, 0u);
    EXPECT_EQ(result->fully_rebuilt, 2u);
  } else {
    EXPECT_EQ(result->delta_maintained, 2u);
    EXPECT_EQ(result->fully_rebuilt, 0u);
  }

  const uint64_t after = fx.OracleHash();
  EXPECT_NE(after, before);  // the batch genuinely moved the match set
  if (GetParam() != Scheme::kTuple) {
    // Execute through the (stale) view pointers: the planner follows the
    // replacement links to the freshly maintained epoch. The fingerprint
    // check catches a stale view the count cannot (the batch adds one match
    // and removes another, so the count alone stays put).
    RunResult r = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.match_count, fx.OracleCount());
    EXPECT_EQ(r.result_hash, after);
  } else {
    // T-scheme: compare the rebuilt view's stored content to the oracle.
    const MaterializedView* tip =
        fx.engine->catalog()->FindView("//a//b", Scheme::kTuple);
    ASSERT_NE(tip, nullptr);
    EXPECT_EQ(tip->MatchCount(),
              NaiveEvaluator(fx.doc, MustParse("//a//b")).Count());
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EngineUpdateSchemeTest,
                         ::testing::Values(Scheme::kElement,
                                           Scheme::kLinkedElement,
                                           Scheme::kLinkedElementPartial,
                                           Scheme::kTuple),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return storage::SchemeName(info.param);
                         });

TEST(EngineUpdateTest, BadOpsAreSkippedNotFatal) {
  EngineFixture fx(Scheme::kLinkedElement);
  std::vector<UpdateOp> ops = fx.CanonicalOps();
  UpdateOp bogus;
  bogus.kind = UpdateOp::Kind::kDeleteSubtree;
  bogus.target_tag = "zz";  // no such element type
  bogus.target_start = 12345;
  ops.insert(ops.begin(), std::move(bogus));

  auto result = fx.engine->ApplyUpdates(ops);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->applied, 2u);
  ASSERT_EQ(result->failed.size(), 1u);
  EXPECT_NE(result->failed[0].find("op 0"), std::string::npos)
      << result->failed[0];
  // The surviving ops still maintained the views correctly.
  RunResult r = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, fx.OracleCount());
}

TEST(EngineUpdateTest, GapExhaustionTriggersRelabelAndRebuild) {
  // gap = 1: the very first insert cannot fit and forces RelabelWithGap.
  EngineFixture fx(Scheme::kLinkedElement, {}, /*gap=*/1);
  auto result = fx.engine->ApplyUpdates(fx.CanonicalOps());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->relabeled);
  EXPECT_EQ(result->applied, 2u);
  EXPECT_EQ(result->delta_maintained, 0u);
  EXPECT_EQ(result->fully_rebuilt, 2u);  // a relabel rebuilds every view
  RunResult r = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.match_count, fx.OracleCount());
}

TEST(EngineUpdateTest, ConstDocumentEngineRejectsUpdates) {
  xml::Document doc = MakeDoc("r(a(b(c)))");
  const std::string path = TempPath("update_const_engine.db");
  CleanupStore(path);
  const xml::Document* const_doc = &doc;
  Engine engine(const_doc, path);
  auto result = engine.ApplyUpdates({});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineUpdateTest, PlanCacheInvalidatesOnEpochBump) {
  EngineFixture fx(Scheme::kLinkedElement);
  RunResult first = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.plan.from_cache);
  RunResult second = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.plan.from_cache);
  EXPECT_GE(fx.engine->plan_cache()->hits(), 1u);

  const uint64_t misses_before = fx.engine->plan_cache()->misses();
  auto updated = fx.engine->ApplyUpdates(fx.CanonicalOps());
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_GT(updated->txn_epoch, 0u);

  // The epoch moved, so the memoized plan is dead: the next run re-plans
  // (and re-plans against the replacement views, not the stale pointers).
  RunResult third = fx.engine->Execute(fx.query, {fx.v1, fx.v2});
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.plan.from_cache);
  EXPECT_GT(fx.engine->plan_cache()->misses(), misses_before);
  EXPECT_EQ(third.match_count, fx.OracleCount());
}

// ---- Concurrent queries during update batches -------------------------------

// Sessions hammer the query while the main thread applies batches: every
// answer must be one of the documented snapshot states (pre-batch or
// post-batch counts), never a torn in-between, and never an error. Under
// kAuto the readers plan from the document statistics the batches maintain.
void CheckConcurrentSnapshots(core::Algorithm algorithm) {
  const std::string spec = "r(a(b(c) b) a(x(b(c))) a(b(c)) b(c))";
  xml::Document doc = MakeDoc(spec);
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  // Mirror document: same spec, mutated the same way up front, to precompute
  // the full set of match counts a query may legally observe.
  xml::Document mirror = MakeDoc(spec);
  ASSERT_TRUE(mirror.RelabelWithGap(64).ok());

  const TreePattern query = MustParse("//a//b//c");
  xml::Document fragment = MakeDoc("a(b(c))");
  const xml::SubtreeSpec frag_spec = xml::SpecFromDocument(fragment);

  // Three batches, each grafting the fragment under a distinct parent.
  const xml::TagId a_tag = mirror.FindTag("a");
  std::vector<uint32_t> parent_starts;
  parent_starts.push_back(mirror.NodeLabel(mirror.Root()).start);
  for (size_t i = 0; i < 2 && i < mirror.NodesOfTag(a_tag).size(); ++i) {
    parent_starts.push_back(mirror.NodeLabel(mirror.NodesOfTag(a_tag)[i]).start);
  }

  std::set<uint64_t> allowed;
  allowed.insert(NaiveEvaluator(mirror, query).Count());
  for (uint32_t start : parent_starts) {
    xml::NodeId parent = mirror.FindByStart(
        start == mirror.NodeLabel(mirror.Root()).start ? mirror.FindTag("r")
                                                       : a_tag,
        start);
    ASSERT_NE(parent, xml::kInvalidNode);
    auto ins = mirror.InsertSubtree(frag_spec, parent);
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    allowed.insert(NaiveEvaluator(mirror, query).Count());
  }

  const std::string path = TempPath("update_concurrent.db");
  CleanupStore(path);
  Engine engine(&doc, path);
  const MaterializedView* v1 =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* v2 = engine.AddView("//c", Scheme::kLinkedElement);
  RunOptions cold;
  cold.algorithm = algorithm;
  if (algorithm == core::Algorithm::kAuto) {
    // Collect the statistics up front, so every batch finds them current.
    ASSERT_TRUE(engine.Execute(query, {v1, v2}, cold).ok);
  }
  const uint64_t collections = engine.statistics_collections();
  EXPECT_EQ(collections, algorithm == core::Algorithm::kAuto ? 1u : 0u);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};
  auto reader = [&](size_t id) {
    Engine::Session session(&engine, id);
    RunOptions run;
    run.algorithm = algorithm;
    run.cold_cache = false;
    int iterations = 0;
    while (!stop.load(std::memory_order_acquire) || iterations < 20) {
      RunResult r = session.Run(query, {v1, v2}, run);
      ++iterations;
      if (!r.ok) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("query failed: " + r.error);
        break;
      }
      if (allowed.count(r.match_count) == 0) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("torn answer: match_count " +
                           std::to_string(r.match_count));
        break;
      }
      if (iterations > 500) break;
    }
  };
  std::thread t1(reader, 1), t2(reader, 2);

  for (size_t b = 0; b < parent_starts.size(); ++b) {
    UpdateOp op;
    op.kind = UpdateOp::Kind::kInsertSubtree;
    op.target_tag = b == 0 ? "r" : "a";
    op.target_start = parent_starts[b];
    op.subtree = frag_spec;
    auto result = engine.ApplyUpdates({op});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->applied, 1u);
    EXPECT_FALSE(result->relabeled);
  }
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  // Quiesced: the final answer is the final mirror state exactly, read back
  // cold from the installed views.
  RunResult final_run = engine.Execute(query, {v1, v2}, cold);
  ASSERT_TRUE(final_run.ok) << final_run.error;
  EXPECT_EQ(final_run.match_count, NaiveEvaluator(doc, query).Count());
  EXPECT_EQ(final_run.match_count, NaiveEvaluator(mirror, query).Count());
  // The batches kept the statistics current: no query walked the document
  // again.
  EXPECT_EQ(engine.statistics_collections(), collections);
}

TEST(EngineUpdateTest, ConcurrentQueriesSeeConsistentSnapshots) {
  CheckConcurrentSnapshots(core::Algorithm::kViewJoin);
}

TEST(EngineUpdateTest, ConcurrentAutoQueriesReadMaintainedStatistics) {
  CheckConcurrentSnapshots(core::Algorithm::kAuto);
}

// ---- Update crash matrix ----------------------------------------------------

struct UpdateCrashCase {
  CrashPoint point;
  Scheme scheme;
};

std::string UpdateCrashCaseName(
    const ::testing::TestParamInfo<UpdateCrashCase>& info) {
  std::string point = CrashPointName(info.param.point);
  for (char& c : point) {
    if (c == '-') c = '_';
  }
  return point + "_" + storage::SchemeName(info.param.scheme);
}

constexpr const char* kMatrixDocSpec = "r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))";

/// Applies the canonical matrix batch to `doc`: graft a(b(c)) under the
/// root, delete the x subtree. Sandwiches through `collector` when given.
void MutateMatrixDoc(xml::Document* doc, DeltaCollector* collector) {
  xml::Document fragment = MakeDoc("a(b(c))");
  xml::SubtreeSpec spec = xml::SpecFromDocument(fragment);
  if (collector != nullptr) collector->WillInsert(doc->Root());
  auto inserted = doc->InsertSubtree(spec, doc->Root());
  VJ_CHECK(inserted.ok()) << inserted.status().ToString();
  if (collector != nullptr) collector->DidInsert(*inserted);
  xml::NodeId x = FirstOfTag(*doc, "x");
  VJ_CHECK(x != xml::kInvalidNode);
  if (collector != nullptr) collector->WillDelete(x);
  VJ_CHECK(doc->DeleteSubtree(x).ok());
  if (collector != nullptr) collector->DidDelete();
}

class UpdateCrashMatrixTest : public ::testing::TestWithParam<UpdateCrashCase> {
};

TEST_P(UpdateCrashMatrixTest, ReopenLandsOnExactlyOneEpoch) {
  const UpdateCrashCase param = GetParam();
  const bool committed = param.point == CrashPoint::kCrashAfterEpochBump;
  const TreePattern p1 = MustParse("//a//b");
  const TreePattern p2 = MustParse("//c");
  const TreePattern query = MustParse("//a//b//c");
  const bool list_scheme = param.scheme != Scheme::kTuple;

  // Pre- and post-batch reference documents (the victim's own document is
  // mutated mid-protocol and serves neither comparison cleanly).
  xml::Document pre = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(pre.RelabelWithGap(32).ok());
  xml::Document post = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(post.RelabelWithGap(32).ok());
  MutateMatrixDoc(&post, nullptr);

  // Clean reference run: the same batch, committed without faults.
  uint64_t post_hash = 0, post_match_1 = 0;
  std::vector<uint32_t> post_lengths_1;
  {
    const std::string clean_path =
        TempPath("update_crash_clean_" +
                 UpdateCrashCaseName({param, 0}) + ".db");
    CleanupStore(clean_path);
    ViewCatalog clean(clean_path, 128, /*persistent=*/true);
    const MaterializedView* c1 = clean.Materialize(post, p1, param.scheme);
    const MaterializedView* c2 = clean.Materialize(post, p2, param.scheme);
    if (list_scheme) {
      post_hash = QueryHash(post, &clean, query, {c1, c2});
    } else {
      post_match_1 = c1->MatchCount();
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      post_lengths_1.push_back(c1->ListLength(static_cast<int>(q)));
    }
    (void)c2;
    EXPECT_TRUE(clean.Close().ok());
  }

  const std::string path =
      TempPath("update_crash_" + UpdateCrashCaseName({param, 0}) + ".db");
  CleanupStore(path);

  uint64_t pre_hash = 0, pre_match_1 = 0, pre_epoch = 0;
  std::vector<uint32_t> pre_lengths_1;

  // The victim: two installed views, one update batch, a crash mid-protocol.
  {
    ViewCatalog victim(path, 128, /*persistent=*/true);
    xml::Document vic = MakeDoc(kMatrixDocSpec);
    ASSERT_TRUE(vic.RelabelWithGap(32).ok());
    const MaterializedView* v1 = victim.Materialize(vic, p1, param.scheme);
    const MaterializedView* v2 = victim.Materialize(vic, p2, param.scheme);
    pre_epoch = victim.epoch();
    if (list_scheme) {
      pre_hash = QueryHash(vic, &victim, query, {v1, v2});
    } else {
      pre_match_1 = v1->MatchCount();
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      pre_lengths_1.push_back(v1->ListLength(static_cast<int>(q)));
    }

    std::vector<ViewCatalog::ViewUpdateSpec> specs(2);
    specs[0].view = v1;
    specs[1].view = v2;
    if (list_scheme) {
      DeltaCollector collector(&vic, {p1, p2});
      MutateMatrixDoc(&vic, &collector);
      std::vector<PatternDeltas> deltas = collector.TakeDeltas();
      specs[0].deltas.added = std::move(deltas[0].added);
      specs[0].deltas.removed = std::move(deltas[0].removed);
      specs[1].deltas.added = std::move(deltas[1].added);
      specs[1].deltas.removed = std::move(deltas[1].removed);
    } else {
      MutateMatrixDoc(&vic, nullptr);
      specs[0].full_rebuild = true;
      specs[1].full_rebuild = true;
    }

    ScopedFaultInjection fi;
    // Mid-delta-merge fires at the top of the nth per-view install: nth=2
    // leaves view 0 installed and view 1 missing — the half-merged state.
    fi->ArmCrashPoint(param.point,
                      param.point == CrashPoint::kCrashMidDeltaMerge ? 2 : 1);
    auto failed = victim.ApplyUpdateBatch(vic, specs);
    ASSERT_FALSE(failed.ok()) << CrashPointName(param.point);
    EXPECT_NE(failed.status().message().find("injected crash"),
              std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(fi->injected_crashes(), 1u);
    // Scope exit abandons the catalog with the mid-flight on-disk state.
  }

  // Offline fsck before recovery: a crash before the commit record leaves
  // a batch to roll back; after it, the store is already whole.
  FsckCatalogReport before = FsckCatalog(path);
  EXPECT_FALSE(before.corrupt()) << storage::ToJson(before);
  EXPECT_EQ(before.epoch_regressions, 0u);
  EXPECT_GE(before.max_epoch, pre_epoch);
  if (!committed) {
    EXPECT_EQ(before.rolled_back_update_batches, 1u)
        << storage::ToJson(before);
  } else {
    EXPECT_TRUE(before.clean()) << storage::ToJson(before);
    EXPECT_GT(before.max_epoch, pre_epoch);
  }
  const uint64_t high_water = before.max_epoch;

  // Reopen: recovery must land exactly on one epoch — the pre-batch catalog
  // (crash before the commit record) or the post-batch one (after it).
  auto reopened = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;

  if (!committed) {
    EXPECT_EQ(catalog.recovery_report().rolled_back_update_batches, 1u);
  } else {
    EXPECT_EQ(catalog.recovery_report().rolled_back_update_batches, 0u);
  }

  const MaterializedView* r1 = catalog.FindView(p1.ToString(), param.scheme);
  const MaterializedView* r2 = catalog.FindView(p2.ToString(), param.scheme);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_TRUE(catalog.VerifyView(r1).ok());
  EXPECT_TRUE(catalog.VerifyView(r2).ok());

  if (committed) {
    // Post-batch epoch: answers equal the clean run over the post document.
    if (list_scheme) {
      EXPECT_EQ(QueryHash(post, &catalog, query, {r1, r2}), post_hash);
    } else {
      EXPECT_EQ(r1->MatchCount(), post_match_1);
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      EXPECT_EQ(r1->ListLength(static_cast<int>(q)), post_lengths_1[q]);
    }
  } else {
    // Pre-batch epoch: the batch rolled back wholesale — not one view of it
    // survives, even when some install records landed before the crash.
    if (list_scheme) {
      EXPECT_EQ(QueryHash(pre, &catalog, query, {r1, r2}), pre_hash);
    } else {
      EXPECT_EQ(r1->MatchCount(), pre_match_1);
    }
    for (size_t q = 0; q < p1.size(); ++q) {
      EXPECT_EQ(r1->ListLength(static_cast<int>(q)), pre_lengths_1[q]);
    }
  }

  // Epochs never run backwards and are never reused: the next install mints
  // strictly above the pre-crash high-water mark, rolled-back records
  // included.
  const xml::Document& current = committed ? post : pre;
  const MaterializedView* fresh =
      catalog.Materialize(current, MustParse("//b"), param.scheme);
  EXPECT_GT(fresh->epoch(), high_water);
  EXPECT_TRUE(catalog.Close().ok());

  // A final reopen and fsck see a fully healed store.
  auto again = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->recovery_report().rolled_back_update_batches, 0u);
  EXPECT_NE((*again)->FindView("//b", param.scheme), nullptr);
  EXPECT_TRUE((*again)->Close().ok());
  FsckCatalogReport healed = FsckCatalog(path);
  EXPECT_TRUE(healed.clean()) << storage::ToJson(healed);
  EXPECT_EQ(healed.epoch_regressions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPointsAllSchemes, UpdateCrashMatrixTest,
    ::testing::Values(
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge, Scheme::kElement},
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge,
                        Scheme::kLinkedElement},
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge,
                        Scheme::kLinkedElementPartial},
        UpdateCrashCase{CrashPoint::kCrashMidDeltaMerge, Scheme::kTuple},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump, Scheme::kElement},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump,
                        Scheme::kLinkedElement},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump,
                        Scheme::kLinkedElementPartial},
        UpdateCrashCase{CrashPoint::kCrashBeforeEpochBump, Scheme::kTuple},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump, Scheme::kElement},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump,
                        Scheme::kLinkedElement},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump,
                        Scheme::kLinkedElementPartial},
        UpdateCrashCase{CrashPoint::kCrashAfterEpochBump, Scheme::kTuple}),
    UpdateCrashCaseName);

// A batch whose deltas run past a megabyte merges from memory like any
// other: crashed right after its commit record, it leaves nothing to repair
// and no file besides the pager and its manifest.
TEST(UpdateCrashTest, LargeBatchLeavesOnlyThePagerAndItsManifest) {
  constexpr uint32_t kLeaves = 90000;  // 12-byte labels: 1.08 MB of deltas
  const std::string dir = TempPath("update_large_batch");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string path = dir + "/store.db";

  std::string spec = "r(a(";
  for (uint32_t i = 0; i < kLeaves; ++i) spec += "b ";
  spec += ") c(b b) b)";
  xml::Document doc = MakeDoc(spec);
  const TreePattern pb = MustParse("//b");
  const TreePattern pc = MustParse("//c");
  uint64_t pre_epoch = 0, post_epoch = 0;
  {
    ViewCatalog victim(path, 128, /*persistent=*/true);
    const MaterializedView* vb = victim.Materialize(doc, pb, Scheme::kElement);
    victim.Materialize(doc, pc, Scheme::kElement);
    ASSERT_EQ(vb->ListLength(0), kLeaves + 3);
    pre_epoch = victim.epoch();

    // Delete every leaf under a in one op.
    DeltaCollector collector(&doc, {pb});
    const xml::NodeId a = FirstOfTag(doc, "a");
    collector.WillDelete(a);
    ASSERT_TRUE(doc.DeleteSubtree(a).ok());
    collector.DidDelete();
    std::vector<PatternDeltas> deltas = collector.TakeDeltas();
    ASSERT_EQ(deltas[0].removed[0].size(), kLeaves);
    std::vector<ViewCatalog::ViewUpdateSpec> specs(1);
    specs[0].view = vb;
    specs[0].deltas.added = std::move(deltas[0].added);
    specs[0].deltas.removed = std::move(deltas[0].removed);

    ScopedFaultInjection fi;
    fi->ArmCrashPoint(CrashPoint::kCrashAfterEpochBump);
    auto failed = victim.ApplyUpdateBatch(doc, specs);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(fi->injected_crashes(), 1u);
    post_epoch = victim.epoch();
  }
  EXPECT_GT(post_epoch, pre_epoch);

  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"store.db", "store.db.manifest"}));
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.clean()) << storage::ToJson(report);

  auto reopened = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;
  EXPECT_EQ(catalog.epoch(), post_epoch);
  const MaterializedView* rb = catalog.FindView(pb.ToString(), Scheme::kElement);
  const MaterializedView* rc = catalog.FindView(pc.ToString(), Scheme::kElement);
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(rc, nullptr);
  EXPECT_EQ(rb->ListLength(0), NaiveEvaluator(doc, pb).Count());
  const TreePattern query = MustParse("//c//b");
  tpq::HashingSink oracle;
  NaiveEvaluator(doc, query).Evaluate(&oracle);
  EXPECT_EQ(oracle.count(), 2u);
  EXPECT_EQ(QueryHash(doc, &catalog, query, {rc, rb}), oracle.hash());
  EXPECT_TRUE(catalog.Close().ok());
  std::filesystem::remove_all(dir);
}

// ---- Checkpoint compaction torn mid-write (satellite: compaction fix) ------

TEST(CheckpointCrashTest, TornCompactionPreservesOriginalJournal) {
  const std::string path = TempPath("update_compaction_crash.db");
  CleanupStore(path);
  xml::Document doc = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(doc.RelabelWithGap(32).ok());
  const TreePattern query = MustParse("//a//b//c");
  uint64_t ref_hash = 0, epoch_before = 0;
  {
    ViewCatalog victim(path, 128, /*persistent=*/true);
    const MaterializedView* v1 =
        victim.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    const MaterializedView* v2 =
        victim.Materialize(doc, MustParse("//c"), Scheme::kLinkedElement);
    ref_hash = QueryHash(doc, &victim, query, {v1, v2});
    epoch_before = victim.epoch();

    ScopedFaultInjection fi;
    fi->ArmCrashPoint(CrashPoint::kCrashMidCompaction);
    util::Status compacted = victim.Checkpoint();
    ASSERT_FALSE(compacted.ok());
    EXPECT_NE(compacted.ToString().find("injected crash"), std::string::npos)
        << compacted.ToString();
    // The torn tmp stays; the original journal was never replaced.
    EXPECT_TRUE(FileExists(path + ".manifest.tmp"));
    EXPECT_TRUE(FileExists(path + ".manifest"));
  }

  // fsck: the journal replays fine (the tmp never became the journal).
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_FALSE(report.corrupt()) << storage::ToJson(report);
  EXPECT_EQ(report.last_epoch, epoch_before);
  EXPECT_EQ(report.view_count, 2u);
  EXPECT_EQ(report.epoch_regressions, 0u);

  // Reopen: both views, identical answers, epoch preserved.
  auto reopened = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;
  EXPECT_EQ(catalog.epoch(), epoch_before);
  const MaterializedView* r1 =
      catalog.FindView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* r2 = catalog.FindView("//c", Scheme::kLinkedElement);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(QueryHash(doc, &catalog, query, {r1, r2}), ref_hash);

  // The post-recovery compaction succeeds, and epochs minted after it stay
  // strictly above the pre-compaction high-water mark (the kEpochMark
  // regression this test guards against).
  ASSERT_TRUE(catalog.Checkpoint().ok());
  const MaterializedView* fresh =
      catalog.Materialize(doc, MustParse("//b"), Scheme::kElement);
  EXPECT_GT(fresh->epoch(), epoch_before);
  EXPECT_TRUE(catalog.Close().ok());

  auto again = ViewCatalog::Open(path, 128);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GE((*again)->epoch(), fresh->epoch());
  EXPECT_TRUE((*again)->Close().ok());
  FsckCatalogReport healed = FsckCatalog(path);
  EXPECT_EQ(healed.epoch_regressions, 0u);
  EXPECT_FALSE(healed.corrupt()) << storage::ToJson(healed);
}

// ---- fsck epoch reporting over applied update batches (satellite: fsck) ----

TEST(FsckUpdateTest, MaxEpochIsMonotoneAcrossUpdateBatches) {
  const std::string path = TempPath("update_fsck_epochs.db");
  CleanupStore(path);
  xml::Document doc = MakeDoc(kMatrixDocSpec);
  ASSERT_TRUE(doc.RelabelWithGap(32).ok());
  const TreePattern p1 = MustParse("//a//b");
  const TreePattern p2 = MustParse("//c");
  uint64_t txn_epoch = 0;
  {
    ViewCatalog catalog(path, 128, /*persistent=*/true);
    const MaterializedView* v1 = catalog.Materialize(doc, p1, Scheme::kElement);
    const MaterializedView* v2 = catalog.Materialize(doc, p2, Scheme::kElement);
    DeltaCollector collector(&doc, {p1, p2});
    MutateMatrixDoc(&doc, &collector);
    std::vector<PatternDeltas> deltas = collector.TakeDeltas();
    std::vector<ViewCatalog::ViewUpdateSpec> specs(2);
    specs[0].view = v1;
    specs[0].deltas.added = std::move(deltas[0].added);
    specs[0].deltas.removed = std::move(deltas[0].removed);
    specs[1].view = v2;
    specs[1].deltas.added = std::move(deltas[1].added);
    specs[1].deltas.removed = std::move(deltas[1].removed);
    auto applied = catalog.ApplyUpdateBatch(doc, specs);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    txn_epoch = applied->txn_epoch;
    ASSERT_GT(txn_epoch, 0u);
    EXPECT_TRUE(catalog.Close().ok());
  }
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.clean()) << storage::ToJson(report);
  EXPECT_EQ(report.max_epoch, report.last_epoch);
  EXPECT_GT(report.max_epoch, txn_epoch);  // installs + commit minted above it
  EXPECT_EQ(report.epoch_regressions, 0u);
  // --json carries the monotonicity fields for CI gates.
  const std::string json = storage::ToJson(report);
  EXPECT_NE(json.find("\"max_epoch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch_regressions\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rolled_back_update_batches\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace viewjoin
