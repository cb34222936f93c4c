#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/candidate_enumerator.h"
#include "algo/inter_join.h"
#include "algo/output_pass.h"
#include "algo/path_stack.h"
#include "algo/query_binding.h"
#include "algo/spill_buffer.h"
#include "algo/structural_join.h"
#include "algo/twig_stack.h"
#include "core/engine.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"

namespace viewjoin {
namespace {

using algo::OutputMode;
using algo::QueryBinding;
using storage::MaterializedView;
using storage::Scheme;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::Axis;
using tpq::Match;
using tpq::TreePattern;
using xml::Label;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<Match> SortedOracle(const xml::Document& doc,
                                const TreePattern& query) {
  std::vector<Match> matches = tpq::NaiveEvaluator(doc, query).Collect();
  tpq::SortMatches(&matches);
  return matches;
}

TEST(StructuralJoinTest, AncestorDescendantPairs) {
  std::vector<Label> anc = {{1, 20, 1}, {2, 9, 2}, {3, 4, 3}, {21, 30, 1}};
  std::vector<Label> desc = {{5, 6, 3}, {10, 11, 2}, {22, 23, 2}, {40, 41, 1}};
  std::vector<std::pair<size_t, size_t>> pairs;
  algo::StackTreeDesc(anc, desc, Axis::kDescendant,
                      [&](size_t i, size_t j) { pairs.emplace_back(i, j); });
  // (1,20)⊃(5,6),(10,11); (2,9)⊃(5,6); (21,30)⊃(22,23).
  std::vector<std::pair<size_t, size_t>> expected = {
      {0, 0}, {1, 0}, {0, 1}, {3, 2}};
  EXPECT_EQ(pairs, expected);
}

TEST(StructuralJoinTest, ParentAxisFiltersLevels) {
  std::vector<Label> anc = {{1, 10, 1}};
  std::vector<Label> desc = {{2, 3, 2}, {4, 5, 3}};
  std::vector<std::pair<size_t, size_t>> pairs;
  algo::StackTreeDesc(anc, desc, Axis::kChild,
                      [&](size_t i, size_t j) { pairs.emplace_back(i, j); });
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<size_t, size_t>{0, 0}));
}

TEST(SpillBufferTest, RoundTripsManyLabels) {
  storage::Pager pager(TempPath("spill_rt.db"));
  algo::SpillBuffer spill(&pager, 2);
  std::vector<Label> expected;
  for (uint32_t i = 0; i < 1000; ++i) {
    Label label{i * 2 + 1, i * 2 + 2, i % 7};
    spill.Append(0, label);
    expected.push_back(label);
  }
  spill.Append(1, Label{99, 100, 1});
  EXPECT_EQ(spill.Count(0), 1000u);
  std::vector<Label> got = spill.Drain(0);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(spill.Count(0), 0u);
  // Stream 1 unaffected; pages are recycled across drains.
  EXPECT_EQ(spill.Drain(1).size(), 1u);
  uint64_t pages_before = pager.page_count();
  for (uint32_t i = 0; i < 1000; ++i) spill.Append(0, Label{i, i + 1, 0});
  spill.Drain(0);
  EXPECT_EQ(pager.page_count(), pages_before);  // recycled, no growth
}

class BoundAlgosTest : public ::testing::Test {
 protected:
  BoundAlgosTest() : catalog_(TempPath("algos.db"), 64) {}

  /// Materializes views and runs an algorithm, returning sorted matches.
  std::vector<Match> RunTwigStack(const xml::Document& doc,
                                  const TreePattern& query,
                                  const std::vector<std::string>& view_paths,
                                  Scheme scheme,
                                  OutputMode mode = OutputMode::kMemory) {
    std::vector<const MaterializedView*> views;
    for (const std::string& path : view_paths) {
      views.push_back(catalog_.Materialize(doc, MustParse(path), scheme));
    }
    std::string error;
    std::optional<QueryBinding> binding =
        QueryBinding::Bind(doc, query, views, &error);
    VJ_CHECK(binding.has_value()) << error;
    algo::TwigStack ts(&*binding, catalog_.pool());
    tpq::CollectingSink sink;
    storage::Pager spill(TempPath("algos_spill.db"));
    ts.Evaluate(&sink, mode, &spill);
    std::vector<Match> matches = sink.matches();
    tpq::SortMatches(&matches);
    return matches;
  }

  std::vector<Match> RunInterJoin(const xml::Document& doc,
                                  const TreePattern& query,
                                  const std::vector<std::string>& view_paths) {
    std::vector<const MaterializedView*> views;
    for (const std::string& path : view_paths) {
      views.push_back(catalog_.Materialize(doc, MustParse(path), Scheme::kTuple));
    }
    std::string error;
    std::optional<algo::InterJoin> join =
        algo::InterJoin::Bind(doc, query, views, catalog_.pool(), &error);
    VJ_CHECK(join.has_value()) << error;
    tpq::CollectingSink sink;
    join->Evaluate(&sink);
    std::vector<Match> matches = sink.matches();
    tpq::SortMatches(&matches);
    return matches;
  }

  ViewCatalog catalog_;
};

TEST_F(BoundAlgosTest, TwigStackAdPathAllSchemes) {
  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  ASSERT_FALSE(expected.empty());
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                        Scheme::kLinkedElementPartial}) {
    EXPECT_EQ(RunTwigStack(doc, query, {"//a", "//b", "//c"}, scheme),
              expected);
    EXPECT_EQ(RunTwigStack(doc, query, {"//a//b", "//c"}, scheme), expected);
    EXPECT_EQ(RunTwigStack(doc, query, {"//a//b//c"}, scheme), expected);
  }
}

TEST_F(BoundAlgosTest, TwigStackTwigWithPcEdges) {
  xml::Document doc =
      MakeDoc("r(a(b(c d(e)) b(d) f) a(f(b(c)) b(d(e)) ) a(b(c)))");
  TreePattern query = MustParse("//a[//b/c]//d");
  std::vector<Match> expected = SortedOracle(doc, query);
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement}) {
    EXPECT_EQ(RunTwigStack(doc, query, {"//a", "//b/c", "//d"}, scheme),
              expected);
  }
}

TEST_F(BoundAlgosTest, TwigStackDiskModeMatchesMemoryMode) {
  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  EXPECT_EQ(RunTwigStack(doc, query, {"//a//b", "//c"}, Scheme::kElement,
                         OutputMode::kDisk),
            expected);
}

TEST_F(BoundAlgosTest, TwigStackEmptyResult) {
  xml::Document doc = MakeDoc("r(a(b) b(a))");
  TreePattern query = MustParse("//a//b//c");
  EXPECT_TRUE(
      RunTwigStack(doc, query, {"//a", "//b", "//c"}, Scheme::kElement)
          .empty());
}

TEST_F(BoundAlgosTest, PathStackRejectsTwigs) {
  xml::Document doc = MakeDoc("a(b c)");
  TreePattern twig = MustParse("//a[//b]//c");
  auto* v1 = catalog_.Materialize(doc, MustParse("//a"), Scheme::kElement);
  auto* v2 = catalog_.Materialize(doc, MustParse("//b"), Scheme::kElement);
  auto* v3 = catalog_.Materialize(doc, MustParse("//c"), Scheme::kElement);
  std::optional<QueryBinding> binding =
      QueryBinding::Bind(doc, twig, {v1, v2, v3});
  ASSERT_TRUE(binding.has_value());
  EXPECT_DEATH(algo::PathStack(&*binding, catalog_.pool()), "path queries");
}

TEST_F(BoundAlgosTest, BindingRejectsBadViewSets) {
  xml::Document doc = MakeDoc("a(b(c))");
  TreePattern query = MustParse("//a//b");
  auto* va = catalog_.Materialize(doc, MustParse("//a"), Scheme::kElement);
  auto* vc = catalog_.Materialize(doc, MustParse("//c"), Scheme::kElement);
  auto* vab = catalog_.Materialize(doc, MustParse("//a//b"), Scheme::kElement);
  std::string error;
  // Not covering.
  EXPECT_FALSE(QueryBinding::Bind(doc, query, {va, vc}, &error).has_value());
  // Overlapping element types.
  EXPECT_FALSE(QueryBinding::Bind(doc, query, {va, vab}, &error).has_value());
  EXPECT_NE(error.find("overlap"), std::string::npos);
  // Tuple views bind only via InterJoin.
  auto* tup = catalog_.Materialize(doc, MustParse("//b"), Scheme::kTuple);
  EXPECT_FALSE(QueryBinding::Bind(doc, query, {va, tup}, &error).has_value());
}

TEST_F(BoundAlgosTest, InterJoinPaperExample) {
  // Paper Section VII: Q = //a//b//c over views //a//c and //b.
  xml::Document doc = MakeDoc("r(a(b(c) c) a(c(b)) b(a(b(c))))");
  TreePattern query = MustParse("//a//b//c");
  std::vector<Match> expected = SortedOracle(doc, query);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(RunInterJoin(doc, query, {"//a//c", "//b"}), expected);
  EXPECT_EQ(RunInterJoin(doc, query, {"//a", "//b", "//c"}), expected);
  EXPECT_EQ(RunInterJoin(doc, query, {"//a//b", "//c"}), expected);
  EXPECT_EQ(RunInterJoin(doc, query, {"//a//b//c"}), expected);
}

TEST_F(BoundAlgosTest, InterJoinPcEdges) {
  xml::Document doc = MakeDoc("r(a(b(c) x(b(c))) a(b(x(c))))");
  TreePattern query = MustParse("//a//b/c");
  std::vector<Match> expected = SortedOracle(doc, query);
  EXPECT_EQ(RunInterJoin(doc, query, {"//a//c", "//b"}), expected);
  // A single covering view stored with the weaker ad-edge must still verify
  // the query's pc-edge at emission.
  EXPECT_EQ(RunInterJoin(doc, query, {"//a//b//c"}), expected);
}

TEST_F(BoundAlgosTest, InterJoinRejectsNonPathInputs) {
  xml::Document doc = MakeDoc("a(b c)");
  auto* tup = catalog_.Materialize(doc, MustParse("//a"), Scheme::kTuple);
  auto* etup = catalog_.Materialize(doc, MustParse("//b"), Scheme::kElement);
  std::string error;
  EXPECT_FALSE(algo::InterJoin::Bind(doc, MustParse("//a[//b]//c"), {tup},
                                     catalog_.pool(), &error)
                   .has_value());
  EXPECT_FALSE(algo::InterJoin::Bind(doc, MustParse("//a//b"), {tup, etup},
                                     catalog_.pool(), &error)
                   .has_value());
  EXPECT_NE(error.find("tuple"), std::string::npos);
}

TEST(CandidateEnumeratorTest, FiltersNonJoiningCandidates) {
  xml::Document doc = MakeDoc("r(a(b) a b)");
  TreePattern query = MustParse("//a//b");
  algo::CandidateEnumerator enumerator(doc, query);
  // Overapproximated candidates: all a's and all b's.
  xml::TagId a = doc.FindTag("a");
  xml::TagId b = doc.FindTag("b");
  std::vector<std::vector<xml::NodeId>> candidates = {doc.NodesOfTag(a),
                                                      doc.NodesOfTag(b)};
  algo::CandidateLists lists = testing::WithLabels(doc, candidates);
  tpq::CollectingSink sink;
  enumerator.Enumerate(&lists, &sink);
  std::vector<Match> matches = sink.matches();
  tpq::SortMatches(&matches);
  EXPECT_EQ(matches, SortedOracle(doc, query));
}

TEST(CandidateEnumeratorTest, EmptyCandidateListShortCircuits) {
  xml::Document doc = MakeDoc("r(a(b))");
  TreePattern query = MustParse("//a//b");
  algo::CandidateEnumerator enumerator(doc, query);
  tpq::CollectingSink sink;
  algo::CandidateLists lists = testing::WithLabels(doc, {{0}, {}});
  enumerator.Enumerate(&lists, &sink);
  EXPECT_TRUE(sink.matches().empty());
}

/// Enumerates `query` over `candidates` and compares the sorted matches with
/// the naive evaluator's.
void ExpectEnumerationMatchesOracle(
    const xml::Document& doc, const TreePattern& query,
    const std::vector<std::vector<xml::NodeId>>& candidates) {
  algo::CandidateEnumerator enumerator(doc, query);
  algo::CandidateLists lists = testing::WithLabels(doc, candidates);
  tpq::CollectingSink sink;
  enumerator.Enumerate(&lists, &sink);
  std::vector<Match> matches = sink.matches();
  tpq::SortMatches(&matches);
  EXPECT_EQ(matches, SortedOracle(doc, query)) << query.ToString();
}

/// Every node carrying each pattern node's tag: the loosest candidate lists,
/// so the semi-join filter and the merged start indices do all the work.
std::vector<std::vector<xml::NodeId>> TagCandidates(const xml::Document& doc,
                                                    const TreePattern& query) {
  std::vector<std::vector<xml::NodeId>> candidates;
  for (size_t q = 0; q < query.size(); ++q) {
    xml::TagId tag = doc.FindTag(query.node(static_cast<int>(q)).tag);
    candidates.push_back(tag == xml::kInvalidTag ? std::vector<xml::NodeId>{}
                                                 : doc.NodesOfTag(tag));
  }
  return candidates;
}

// NASA-style recursion (field/footnote/para nesting into themselves, at
// least three deep): a parent candidate's children interleave with those of
// the candidates nested inside it, which is where each parent's first child
// index, computed once by a merge, must stay exact.
TEST(CandidateEnumeratorTest, NestedSameTagsMatchOracle) {
  xml::Document doc = MakeDoc(
      "r(field(footnote(para(para(para)) field(para footnote(para(para))"
      " field(footnote(para) para(field(para))))) para)"
      " field(para(footnote(para)) field(field(footnote))) para)");
  const char* queries[] = {
      "//field//para",           "//footnote//para",
      "//field//footnote//para", "//field/para",
      "//field/footnote/para",   "/r/field//para",
      "/r//field/footnote",      "//field[//footnote]//para",
      "//field[/para]//footnote", "/r[//footnote/para]//field/para",
  };
  for (const char* xpath : queries) {
    TreePattern query = MustParse(xpath);
    ExpectEnumerationMatchesOracle(doc, query, TagCandidates(doc, query));
    // Exact solution lists take the same path with nothing to filter.
    ExpectEnumerationMatchesOracle(
        doc, query, tpq::NaiveEvaluator(doc, query).SolutionNodes());
  }
}

TEST(CandidateEnumeratorTest, RandomRecursiveDocsMatchOracle) {
  const std::vector<std::string> tags = {"field", "footnote", "para"};
  const char* queries[] = {"//field//para", "//field//footnote//para",
                           "//field/footnote//para",
                           "//field[//footnote]/para",
                           "/root0//para[/footnote]//field"};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    xml::Document doc = testing::RandomDoc(&rng, 120, tags);
    for (const char* xpath : queries) {
      TreePattern query = MustParse(xpath);
      ExpectEnumerationMatchesOracle(doc, query, TagCandidates(doc, query));
    }
  }
}

// ---- The shared output pass (the flush of TwigStack and ViewJoin) --------

std::vector<Label> LabelsOf(const xml::Document& doc,
                            const std::vector<xml::NodeId>& nodes) {
  std::vector<Label> labels;
  for (xml::NodeId n : nodes) labels.push_back(doc.NodeLabel(n));
  return labels;
}

// r(a(c) a(b)): only the second a has a b below it. A b candidate whose
// label starts at the c inside the first a resolves to no b node — what a
// corrupt or poisoned page would surface. It is dropped at resolution, before
// the semi-join, so it cannot keep the first a alive.
TEST(OutputPassTest, PhantomLabelIsDroppedBeforeTheSemiJoin) {
  xml::Document doc = MakeDoc("r(a(c) a(b))");
  TreePattern query = MustParse("//a//b");
  std::optional<QueryBinding> binding = QueryBinding::BindBase(doc, query);
  ASSERT_TRUE(binding.has_value());
  const std::vector<xml::NodeId>& as = doc.NodesOfTag(doc.FindTag("a"));
  const xml::NodeId c = doc.NodesOfTag(doc.FindTag("c")).front();
  const xml::NodeId b = doc.NodesOfTag(doc.FindTag("b")).front();
  Label phantom = doc.NodeLabel(c);
  ASSERT_TRUE(IsAncestor(doc.NodeLabel(as[0]), phantom));

  algo::OutputPass pass(*binding);
  algo::QueryContext ctx;
  ASSERT_TRUE(pass.Resolve(0, LabelsOf(doc, as), &ctx));
  ASSERT_TRUE(pass.Resolve(1, {phantom, doc.NodeLabel(b)}, &ctx));
  tpq::CollectingSink sink;
  EXPECT_TRUE(pass.Enumerate(&sink, &ctx));
  ASSERT_EQ(sink.matches(), (std::vector<Match>{{as[1], b}}));

  // A flush whose every label is a phantom resolves nothing and enumerates
  // nothing.
  ASSERT_TRUE(pass.Resolve(1, {phantom}, &ctx));
  tpq::CollectingSink empty;
  EXPECT_FALSE(pass.Enumerate(&empty, &ctx));
  EXPECT_TRUE(empty.matches().empty());
}

// The resolver's forward pointers persist across the flushes of one
// evaluation (disk mode flushes every closed root group): each flush resolves
// labels that start after the previous flush's. On a document whose inserted
// nodes take ids out of document order, every group flushed one at a time
// must yield exactly its own matches.
TEST(OutputPassTest, ResolutionStaysMonotoneAcrossFlushes) {
  xml::Document doc = MakeDoc("r(a(b b) a(c) a(b(b)) a(b))");
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  const xml::NodeId root = doc.Root();
  xml::SubtreeSpec spec = {{{"a", xml::SubtreeSpec::kNoParent}, {"b", 0}}};
  ASSERT_TRUE(doc.InsertSubtree(spec, root).ok());  // new first group
  const xml::NodeId second = doc.NodesOfTag(doc.FindTag("a"))[2];
  ASSERT_TRUE(doc.InsertSubtree(spec, root, second).ok());  // middle group
  TreePattern query = MustParse("//a//b");
  std::optional<QueryBinding> binding = QueryBinding::BindBase(doc, query);
  ASSERT_TRUE(binding.has_value());

  algo::OutputPass pass(*binding);
  algo::QueryContext ctx;
  std::vector<Match> all;
  const xml::TagId b = doc.FindTag("b");
  size_t flushes = 0;
  for (xml::NodeId a : doc.NodesOfTag(doc.FindTag("a"))) {
    std::vector<xml::NodeId> bs;
    for (xml::NodeId n : doc.NodesOfTag(b)) {
      if (doc.IsAncestor(a, n)) bs.push_back(n);
    }
    ASSERT_TRUE(pass.Resolve(0, LabelsOf(doc, {a}), &ctx));
    ASSERT_TRUE(pass.Resolve(1, LabelsOf(doc, bs), &ctx));
    tpq::CollectingSink sink;
    flushes += pass.Enumerate(&sink, &ctx);
    for (const Match& m : sink.matches()) {
      EXPECT_EQ(m[0], a);
      all.push_back(m);
    }
  }
  EXPECT_EQ(flushes, 6u);
  tpq::SortMatches(&all);
  EXPECT_EQ(all, SortedOracle(doc, query));
}

// End to end: TwigStack and ViewJoin in disk output mode flush every few
// thousand candidates, on a document whose inserted groups have ids out of
// document order; both must agree with memory mode and the naive evaluator.
TEST(OutputPassTest, DiskModeFlushesAgreeAfterInserts) {
  xml::Document doc;
  doc.StartElement("r");
  for (int i = 0; i < 3000; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.StartElement("c");
    doc.EndElement();
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  ASSERT_TRUE(doc.RelabelWithGap(16).ok());
  xml::SubtreeSpec group = {{{"a", xml::SubtreeSpec::kNoParent},
                             {"b", 0},
                             {"c", 1},
                             {"c", 1}}};
  const std::vector<xml::NodeId> anchors = doc.NodesOfTag(doc.FindTag("a"));
  for (size_t i = 0; i < anchors.size(); i += 7) {
    ASSERT_TRUE(doc.InsertSubtree(group, doc.Root(), anchors[i]).ok());
  }
  TreePattern query = MustParse("//a//b//c");
  const uint64_t expected = tpq::NaiveEvaluator(doc, query).Collect().size();

  core::Engine engine(&doc, TempPath("output_pass_disk.db"));
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kLinkedElement),
  };
  for (core::Algorithm algorithm :
       {core::Algorithm::kTwigStack, core::Algorithm::kViewJoin}) {
    core::RunOptions mem;
    mem.algorithm = algorithm;
    core::RunOptions disk = mem;
    disk.output_mode = OutputMode::kDisk;
    core::RunResult m = engine.Execute(query, views, mem);
    core::RunResult d = engine.Execute(query, views, disk);
    ASSERT_TRUE(m.ok && d.ok) << m.error << d.error;
    EXPECT_EQ(m.match_count, expected) << core::AlgorithmName(algorithm);
    EXPECT_EQ(d.result_hash, m.result_hash) << core::AlgorithmName(algorithm);
    EXPECT_GT(d.stats.flushes, 1u) << core::AlgorithmName(algorithm);
  }
}

// A query that repeats a tag pairs each node with its strict descendants of
// that tag, never with itself: on r(p(p(p))), //p//p has 3 matches, not 4.
// The engine's binders refuse repeated tags (the paper's views need unique
// element types), so the scans that would meet such a query are checked
// directly: the naive evaluator (the oracle, and the source of the T-scheme
// tuples IJ joins) and the candidate enumerator (TS's and VJ's output stage).
TEST(RepeatedTagTest, DescendantStepExcludesTheNodeItself) {
  xml::Document doc = MakeDoc("r(p(p(p)))");
  const std::pair<const char*, size_t> cases[] = {
      {"//p//p", 3}, {"//p/p", 2}, {"//p//p//p", 1}, {"/r//p//p", 3}};
  for (const auto& [xpath, count] : cases) {
    TreePattern query = MustParse(xpath);
    std::vector<Match> expected = testing::BruteForceMatches(doc, query);
    tpq::SortMatches(&expected);
    ASSERT_EQ(expected.size(), count) << xpath;
    EXPECT_EQ(SortedOracle(doc, query), expected) << xpath;
    ExpectEnumerationMatchesOracle(doc, query, TagCandidates(doc, query));
    ExpectEnumerationMatchesOracle(
        doc, query, tpq::NaiveEvaluator(doc, query).SolutionNodes());
  }

  // TS, VJ and IJ refuse the query rather than answer it.
  core::Engine engine(&doc, TempPath("repeated_tag.db"));
  const MaterializedView* list_view = engine.AddView("//p", Scheme::kElement);
  const MaterializedView* tuple_view = engine.AddView("//p", Scheme::kTuple);
  const TreePattern query = MustParse("//p//p");
  for (core::Algorithm algorithm :
       {core::Algorithm::kTwigStack, core::Algorithm::kViewJoin,
        core::Algorithm::kInterJoin}) {
    core::RunOptions run;
    run.algorithm = algorithm;
    const MaterializedView* view =
        algorithm == core::Algorithm::kInterJoin ? tuple_view : list_view;
    EXPECT_FALSE(engine.Execute(query, {view}, run).ok)
        << core::AlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace viewjoin
