#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/engine.h"
#include "core/segmented_query.h"
#include "core/view_join.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"

namespace viewjoin {
namespace {

using algo::OutputMode;
using algo::QueryBinding;
using core::Algorithm;
using core::BuildSegmentedQuery;
using core::Engine;
using core::SegmentedQuery;
using storage::MaterializedView;
using storage::Scheme;
using testing::MakeDoc;
using testing::MustParse;
using tpq::Match;
using tpq::TreePattern;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<Match> SortedOracle(const xml::Document& doc,
                                const TreePattern& query) {
  std::vector<Match> matches = tpq::NaiveEvaluator(doc, query).Collect();
  tpq::SortMatches(&matches);
  return matches;
}

class SegmentedQueryTest : public ::testing::Test {
 protected:
  SegmentedQueryTest() : catalog_(TempPath("segq.db"), 64) {}

  SegmentedQuery Build(const xml::Document& doc, const TreePattern& query,
                       const std::vector<std::string>& view_paths) {
    views_.clear();
    for (const std::string& path : view_paths) {
      views_.push_back(
          catalog_.Materialize(doc, MustParse(path), Scheme::kLinkedElement));
    }
    std::string error;
    binding_ = QueryBinding::Bind(doc, query, views_, &error);
    VJ_CHECK(binding_.has_value()) << error;
    return BuildSegmentedQuery(*binding_);
  }

  storage::ViewCatalog catalog_;
  std::vector<const MaterializedView*> views_;
  std::optional<QueryBinding> binding_;
};

TEST_F(SegmentedQueryTest, PaperExample41) {
  // Paper Fig. 3: Q = //a[//f]//b[//c]//d//e with views v1 = //a//e[...] —
  // we reproduce the *structure*: views v1 = {a, e, f} (as //a[//e]//f is
  // not a tree over those exact edges, we use the paper's covering:
  // v1 = //a[//f]//e, v2 = //b[//c]//d, v3 covers nothing extra).
  // Inter-view edges: (a,f) intra? f in v1 with a → intra. Use the paper's
  // exact views instead: v1 = //a[//e]//f? The paper gives v1 with nodes
  // {a, e, f}: a--e (ad, not a Q edge) and a--f. Its Q has edges (a,f),
  // (a,b), (b,c), (b,d), (d,e).
  xml::Document doc =
      MakeDoc("r(a(f b(c d(e)) ) a(b(d(e c)) f) )");
  TreePattern query = MustParse("//a[//f]//b[//c]//d//e");
  SegmentedQuery sq =
      Build(doc, query, {"//a[//e]//f", "//b[//c]//d"});
  // Covered: v1 = {a, e, f}, v2 = {b, c, d}.
  // Inter-view edges: (a,b) and (d,e). (a,f) intra, (b,c) intra, (b,d) intra.
  EXPECT_EQ(sq.inter_view_edges, 2);
  int f = query.FindByTag("f");
  int c = query.FindByTag("c");
  int b = query.FindByTag("b");
  int d = query.FindByTag("d");
  int e = query.FindByTag("e");
  // f has no inter-view edge → removed; c likewise.
  EXPECT_FALSE(sq.kept[static_cast<size_t>(f)]);
  EXPECT_FALSE(sq.kept[static_cast<size_t>(c)]);
  EXPECT_TRUE(sq.kept[0]);
  EXPECT_TRUE(sq.kept[static_cast<size_t>(b)]);
  EXPECT_TRUE(sq.kept[static_cast<size_t>(d)]);
  EXPECT_TRUE(sq.kept[static_cast<size_t>(e)]);
  // Segments: {a}, {b d}, {e} — b,d connected by the intra-view edge (b,d).
  ASSERT_EQ(sq.segments.size(), 3u);
  EXPECT_EQ(sq.segment_of[0], sq.root_segment);
  EXPECT_EQ(sq.segment_of[static_cast<size_t>(b)],
            sq.segment_of[static_cast<size_t>(d)]);
  EXPECT_NE(sq.segment_of[static_cast<size_t>(e)],
            sq.segment_of[static_cast<size_t>(d)]);
  // Removed nodes anchored at their view parents: f at a, c at b.
  ASSERT_EQ(sq.removed.size(), 2u);
  EXPECT_EQ(sq.ToString(query), "{a} {b d} {e}");
}

TEST_F(SegmentedQueryTest, SingleViewCollapsesToRootOnly) {
  xml::Document doc = MakeDoc("a(b(c))");
  TreePattern query = MustParse("//a//b//c");
  SegmentedQuery sq = Build(doc, query, {"//a//b//c"});
  EXPECT_EQ(sq.inter_view_edges, 0);
  ASSERT_EQ(sq.segments.size(), 1u);
  EXPECT_EQ(sq.segments[0].nodes.size(), 1u);  // only the root survives
  EXPECT_EQ(sq.removed.size(), 2u);
  // b anchored at a, c anchored at b.
  EXPECT_EQ(sq.removed_anchor[0], 0);
  EXPECT_EQ(sq.removed_anchor[1], query.FindByTag("b"));
}

TEST_F(SegmentedQueryTest, SingleElementViewsKeepEverything) {
  xml::Document doc = MakeDoc("a(b(c))");
  TreePattern query = MustParse("//a//b//c");
  SegmentedQuery sq = Build(doc, query, {"//a", "//b", "//c"});
  EXPECT_EQ(sq.inter_view_edges, 2);
  EXPECT_EQ(sq.segments.size(), 3u);
  EXPECT_TRUE(sq.removed.empty());
}

class ViewJoinTest : public ::testing::Test {
 protected:
  ViewJoinTest() : catalog_(TempPath("vj.db"), 64) {}

  std::vector<Match> Run(const xml::Document& doc, const TreePattern& query,
                         const std::vector<std::string>& view_paths,
                         Scheme scheme, OutputMode mode = OutputMode::kMemory) {
    std::vector<const MaterializedView*> views;
    for (const std::string& path : view_paths) {
      views.push_back(catalog_.Materialize(doc, MustParse(path), scheme));
    }
    std::string error;
    std::optional<QueryBinding> binding =
        QueryBinding::Bind(doc, query, views, &error);
    VJ_CHECK(binding.has_value()) << error;
    SegmentedQuery sq = BuildSegmentedQuery(*binding);
    core::ViewJoin join(&*binding, &sq, catalog_.pool());
    tpq::CollectingSink sink;
    storage::Pager spill(TempPath("vj_spill.db"));
    join.Evaluate(&sink, mode, &spill);
    last_stats_ = join.stats();
    std::vector<Match> matches = sink.matches();
    tpq::SortMatches(&matches);
    return matches;
  }

  storage::ViewCatalog catalog_;
  algo::HolisticStats last_stats_;
};

TEST_F(ViewJoinTest, PathQueryAllSchemes) {
  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  ASSERT_FALSE(expected.empty());
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                        Scheme::kLinkedElementPartial}) {
    EXPECT_EQ(Run(doc, query, {"//a", "//b", "//c"}, scheme), expected);
    EXPECT_EQ(Run(doc, query, {"//a//b", "//c"}, scheme), expected);
    EXPECT_EQ(Run(doc, query, {"//a//b//c"}, scheme), expected);
    EXPECT_EQ(Run(doc, query, {"//a//c", "//b"}, scheme), expected);
  }
}

TEST_F(ViewJoinTest, TwigQueryWithExtension) {
  xml::Document doc =
      MakeDoc("r(a(f b(c d(e))) a(b(d(e c)) f) a(b(c)) f(a(b(c d(e)))))");
  TreePattern query = MustParse("//a[//f]//b[//c]//d//e");
  std::vector<Match> expected = SortedOracle(doc, query);
  ASSERT_FALSE(expected.empty());
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                        Scheme::kLinkedElementPartial}) {
    EXPECT_EQ(Run(doc, query, {"//a[//e]//f", "//b[//c]//d"}, scheme),
              expected)
        << SchemeName(scheme);
  }
}

TEST_F(ViewJoinTest, SingleCoveringViewUsesExtensionOnly) {
  xml::Document doc = MakeDoc("r(a(b(c) b) a(a(b(c))))");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  EXPECT_EQ(Run(doc, query, {"//a//b//c"}, Scheme::kLinkedElement), expected);
  // With a single view only the root list is streamed; b and c arrive via
  // child-pointer extension.
  EXPECT_GT(last_stats_.flushes, 0u);
}

TEST_F(ViewJoinTest, PcEdgesVerifiedAtOutput) {
  xml::Document doc = MakeDoc("r(a(b(c) x(b(x(c)))) a(b(x(c))))");
  TreePattern query = MustParse("//a//b/c");
  std::vector<Match> expected = SortedOracle(doc, query);
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement}) {
    EXPECT_EQ(Run(doc, query, {"//a", "//b/c"}, scheme), expected);
    EXPECT_EQ(Run(doc, query, {"//a//b", "//c"}, scheme), expected);
  }
}

TEST_F(ViewJoinTest, DiskModeMatchesMemoryMode) {
  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  EXPECT_EQ(Run(doc, query, {"//a//b", "//c"}, Scheme::kLinkedElement,
                OutputMode::kDisk),
            expected);
}

TEST_F(ViewJoinTest, RecursiveNestingWithSkips) {
  // Deep same-tag nesting exercises following-pointer jumps.
  xml::Document doc = MakeDoc(
      "r(a(a(a(b(c)) b) b(c)) d a(b) a(a(b(c))) )");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  EXPECT_EQ(Run(doc, query, {"//a//b", "//c"}, Scheme::kLinkedElement),
            expected);
}

TEST_F(ViewJoinTest, EmptyResult) {
  xml::Document doc = MakeDoc("r(a(b) b(c))");
  TreePattern query = MustParse("//a//b//c");
  EXPECT_TRUE(
      Run(doc, query, {"//a//b", "//c"}, Scheme::kLinkedElement).empty());
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : doc_(MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))")),
        engine_(&doc_, TempPath("engine.db")) {}

  xml::Document doc_;
  Engine engine_;
};

TEST_F(EngineTest, ExecuteAllAlgorithmsAgree) {
  TreePattern query = MustParse("//a//b//c");
  uint64_t expected = tpq::NaiveEvaluator(doc_, query).Count();
  auto* le_ab = engine_.AddView("//a//b", Scheme::kLinkedElement);
  auto* le_c = engine_.AddView("//c", Scheme::kLinkedElement);
  auto* t_ab = engine_.AddView("//a//b", Scheme::kTuple);
  auto* t_c = engine_.AddView("//c", Scheme::kTuple);

  core::RunOptions vj{.algorithm = Algorithm::kViewJoin};
  core::RunOptions ts{.algorithm = Algorithm::kTwigStack};
  core::RunOptions ij{.algorithm = Algorithm::kInterJoin};
  core::RunResult r1 = engine_.Execute(query, {le_ab, le_c}, vj);
  core::RunResult r2 = engine_.Execute(query, {le_ab, le_c}, ts);
  core::RunResult r3 = engine_.Execute(query, {t_ab, t_c}, ij);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r1.match_count, expected);
  EXPECT_EQ(r2.match_count, expected);
  EXPECT_EQ(r3.match_count, expected);
  EXPECT_EQ(r1.result_hash, r2.result_hash);
  EXPECT_EQ(r1.result_hash, r3.result_hash);
  EXPECT_GT(r1.io.pages_read, 0u);
}

TEST_F(EngineTest, ExecuteReportsBindErrors) {
  TreePattern query = MustParse("//a//b//c");
  auto* le_ab = engine_.AddView("//a//b", Scheme::kLinkedElement);
  core::RunResult r = engine_.Execute(query, {le_ab});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST_F(EngineTest, SessionsMatchSequentialExecute) {
  TreePattern q1 = MustParse("//a//b//c");
  TreePattern q2 = MustParse("//a//b");
  TreePattern q3 = MustParse("//b//c");
  auto* ab = engine_.AddView("//a//b", Scheme::kLinkedElement);
  auto* b = engine_.AddView("//b", Scheme::kLinkedElement);
  auto* c = engine_.AddView("//c", Scheme::kLinkedElement);
  std::vector<const TreePattern*> queries = {&q1, &q2, &q3};
  std::vector<std::vector<const MaterializedView*>> views = {
      {ab, c}, {ab}, {b, c}};

  std::vector<core::RunResult> sequential;
  for (size_t i = 0; i < queries.size(); ++i) {
    sequential.push_back(engine_.Execute(*queries[i], views[i]));
    ASSERT_TRUE(sequential.back().ok) << sequential.back().error;
  }

  std::vector<bench::SessionQuery> batch;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < queries.size(); ++i) {
      batch.push_back({queries[i], views[i]});
    }
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    // Each batch starts cold, so its sessions miss the shared pool together.
    engine_.catalog()->DropCaches();
    std::vector<core::RunResult> results =
        bench::RunOnSessions(&engine_, batch, threads);
    ASSERT_EQ(results.size(), batch.size());
    uint64_t pages_read = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const core::RunResult& ref = sequential[i % queries.size()];
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].match_count, ref.match_count)
          << threads << " threads, query " << i;
      EXPECT_EQ(results[i].result_hash, ref.result_hash)
          << threads << " threads, query " << i;
      EXPECT_FALSE(results[i].degraded);
      pages_read += results[i].io.pages_read;
    }
    EXPECT_GT(pages_read, 0u) << threads << " threads never read the pager";
  }
}

TEST_F(EngineTest, SessionsIsolateBindErrors) {
  TreePattern query = MustParse("//a//b//c");
  auto* ab = engine_.AddView("//a//b", Scheme::kLinkedElement);
  auto* c = engine_.AddView("//c", Scheme::kLinkedElement);
  core::RunResult ref = engine_.Execute(query, {ab, c});
  ASSERT_TRUE(ref.ok) << ref.error;
  std::vector<bench::SessionQuery> batch = {
      {&query, {ab, c}},
      {&query, {ab}},  // uncovered query node: bind error
      {&query, {ab, c}},
  };
  engine_.catalog()->DropCaches();
  std::vector<core::RunResult> results =
      bench::RunOnSessions(&engine_, batch, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_TRUE(results[2].ok) << results[2].error;
  EXPECT_EQ(results[0].result_hash, ref.result_hash);
  EXPECT_EQ(results[2].result_hash, ref.result_hash);
}

}  // namespace
}  // namespace viewjoin
