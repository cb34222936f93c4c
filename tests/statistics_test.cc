// Document statistics and cardinality estimation tests: exactness where the
// estimator is exact, calibration bounds elsewhere, and the
// estimate-driven view selection path.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/rng.h"
#include "view/cardinality.h"
#include "view/selection.h"
#include "xml/statistics.h"

namespace viewjoin {
namespace {

using testing::MakeDoc;
using testing::MustParse;
using tpq::TreePattern;
using view::EstimateListLengths;
using view::EstimateMatchCount;
using xml::DocumentStatistics;

TEST(StatisticsTest, CountsAndDepths) {
  xml::Document doc = MakeDoc("a(b(c) b d(b(c)))");
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  EXPECT_EQ(stats.node_count(), 7u);
  EXPECT_EQ(stats.TagCount(doc.FindTag("a")), 1u);
  EXPECT_EQ(stats.TagCount(doc.FindTag("b")), 3u);
  EXPECT_EQ(stats.TagCount(doc.FindTag("c")), 2u);
  EXPECT_EQ(stats.max_depth(), 4u);  // a=1, d=2, b=3, c=4
  EXPECT_EQ(stats.TagCount(xml::kInvalidTag), 0u);
}

TEST(StatisticsTest, PairCountsMatchOracle) {
  xml::Document doc = MakeDoc("a(b(c b(c)) b a(b))");
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  xml::TagId a = doc.FindTag("a");
  xml::TagId b = doc.FindTag("b");
  xml::TagId c = doc.FindTag("c");
  // ad pair count == matches of //x//y.
  EXPECT_EQ(stats.AdPairCount(a, b),
            tpq::NaiveEvaluator(doc, MustParse("//a//b")).Count());
  EXPECT_EQ(stats.AdPairCount(b, c),
            tpq::NaiveEvaluator(doc, MustParse("//b//c")).Count());
  EXPECT_EQ(stats.AdPairCount(b, b),
            tpq::NaiveEvaluator(doc, MustParse("//b//b")).Count());
  // pc pair count == matches of //x/y.
  EXPECT_EQ(stats.PcPairCount(a, b),
            tpq::NaiveEvaluator(doc, MustParse("//a/b")).Count());
  EXPECT_EQ(stats.PcPairCount(b, c),
            tpq::NaiveEvaluator(doc, MustParse("//b/c")).Count());
  EXPECT_EQ(stats.PcPairCount(c, a), 0u);
}

TEST(StatisticsTest, PairCountsMatchOracleOnRandomDocs) {
  util::Rng rng(321);
  std::vector<std::string> tags = {"a", "b", "c"};
  for (int trial = 0; trial < 20; ++trial) {
    xml::Document doc = testing::RandomDoc(&rng, 80, tags);
    DocumentStatistics stats = DocumentStatistics::Collect(doc);
    for (const std::string& s : tags) {
      for (const std::string& t : tags) {
        if (s == t) continue;  // queries need distinct tags
        TreePattern ad = MustParse("//" + s + "//" + t);
        TreePattern pc = MustParse("//" + s + "/" + t);
        EXPECT_EQ(stats.AdPairCount(doc.FindTag(s), doc.FindTag(t)),
                  tpq::NaiveEvaluator(doc, ad).Count())
            << ad.ToString();
        EXPECT_EQ(stats.PcPairCount(doc.FindTag(s), doc.FindTag(t)),
                  tpq::NaiveEvaluator(doc, pc).Count())
            << pc.ToString();
      }
    }
  }
}

TEST(StatisticsTest, CountsOnlyLiveNodesAfterDelete) {
  xml::Document doc = MakeDoc("a(b(c) b d(b(c)))");
  // Levels a=1, b=2, c=3, b=2, d=2, b=3, c=4; d's subtree goes.
  ASSERT_TRUE(doc.DeleteSubtree(doc.NodesOfTag(doc.FindTag("d"))[0]).ok());
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  EXPECT_EQ(stats.node_count(), 4u);
  EXPECT_EQ(stats.node_count(), doc.LiveNodeCount());
  EXPECT_DOUBLE_EQ(stats.average_depth(), 8.0 / 4.0);
  EXPECT_EQ(stats.max_depth(), 3u);
}

// Every accessor of `maintained` agrees with a fresh Collect over `doc`.
::testing::AssertionResult SameAsCollect(const xml::Document& doc,
                                         const DocumentStatistics& maintained) {
  DocumentStatistics fresh = DocumentStatistics::Collect(doc);
  if (fresh.node_count() != doc.LiveNodeCount()) {
    return ::testing::AssertionFailure()
           << "Collect counted " << fresh.node_count() << " nodes, "
           << doc.LiveNodeCount() << " are live";
  }
  if (maintained.node_count() != fresh.node_count() ||
      maintained.max_depth() != fresh.max_depth() ||
      maintained.average_depth() != fresh.average_depth()) {
    return ::testing::AssertionFailure()
           << "node_count/max_depth/average_depth " << maintained.node_count()
           << "/" << maintained.max_depth() << "/"
           << maintained.average_depth() << " vs fresh "
           << fresh.node_count() << "/" << fresh.max_depth() << "/"
           << fresh.average_depth();
  }
  const auto tags = static_cast<xml::TagId>(doc.TagCount());
  for (xml::TagId a = 0; a < tags; ++a) {
    if (maintained.TagCount(a) != fresh.TagCount(a)) {
      return ::testing::AssertionFailure() << "TagCount(" << doc.TagName(a)
                                           << ") " << maintained.TagCount(a)
                                           << " vs " << fresh.TagCount(a);
    }
    for (xml::TagId b = 0; b < tags; ++b) {
      if (maintained.PcPairCount(a, b) != fresh.PcPairCount(a, b) ||
          maintained.AdPairCount(a, b) != fresh.AdPairCount(a, b) ||
          maintained.DistinctPcChildren(a, b) !=
              fresh.DistinctPcChildren(a, b) ||
          maintained.DistinctAdDescendants(a, b) !=
              fresh.DistinctAdDescendants(a, b)) {
        return ::testing::AssertionFailure()
               << "pair (" << doc.TagName(a) << ", " << doc.TagName(b)
               << ") pc/ad/distinct-pc/distinct-ad "
               << maintained.PcPairCount(a, b) << "/"
               << maintained.AdPairCount(a, b) << "/"
               << maintained.DistinctPcChildren(a, b) << "/"
               << maintained.DistinctAdDescendants(a, b) << " vs fresh "
               << fresh.PcPairCount(a, b) << "/" << fresh.AdPairCount(a, b)
               << "/" << fresh.DistinctPcChildren(a, b) << "/"
               << fresh.DistinctAdDescendants(a, b);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

size_t SubtreeSize(const xml::Document& doc, xml::NodeId root) {
  size_t size = 0;
  std::vector<xml::NodeId> stack = {root};
  while (!stack.empty()) {
    xml::NodeId n = stack.back();
    stack.pop_back();
    ++size;
    for (xml::NodeId c = doc.FirstChild(n); c != xml::kInvalidNode;
         c = doc.NextSibling(c)) {
      stack.push_back(c);
    }
  }
  return size;
}

xml::NodeId RandomLiveNode(util::Rng* rng, const xml::Document& doc) {
  while (true) {
    auto n = static_cast<xml::NodeId>(rng->Uniform(doc.NodeCount()));
    if (doc.IsLive(n)) return n;
  }
}

// Drives the document through inserts and deletes, maintaining statistics
// per subtree the way Engine::ApplyUpdates does, and compares them with a
// fresh Collect after every op. The scripted prefix covers a tag the
// document has never seen, raising and lowering max_depth, and deleting
// every subtree that holds the document's own max_depth; the random tail
// mixes inserts (fragments and copies of live subtrees), deletes and
// relabels.
void CheckMaintainedAgainstCollect(xml::Document doc, uint64_t seed,
                                   const std::vector<std::string>& fragments,
                                   int random_ops) {
  util::Rng rng(seed);
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  ASSERT_TRUE(SameAsCollect(doc, stats));

  auto insert = [&](const xml::SubtreeSpec& spec, xml::NodeId parent,
                    xml::NodeId after) -> xml::NodeId {
    util::StatusOr<xml::NodeId> id = doc.InsertSubtree(spec, parent, after);
    if (!id.ok() &&
        id.status().code() == util::StatusCode::kResourceExhausted &&
        doc.RelabelWithGap(4).ok()) {
      id = doc.InsertSubtree(spec, parent, after);
    }
    if (!id.ok()) return xml::kInvalidNode;
    stats.ApplySubtree(doc, *id, +1);
    return *id;
  };
  auto erase = [&](xml::NodeId root) {
    ASSERT_TRUE(doc.DeleteSubtree(root).ok());
    stats.ApplySubtree(doc, root, -1);
  };

  // A chain of a never-seen tag, deeper than anything in the document,
  // hung under one of the deepest nodes, then deleted again.
  const uint32_t original_depth = stats.max_depth();
  ASSERT_EQ(doc.FindTag("fresh"), xml::kInvalidTag);
  xml::NodeId deepest = xml::kInvalidNode;
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (doc.NodeLabel(n).level == original_depth) deepest = n;
  }
  ASSERT_NE(deepest, xml::kInvalidNode);
  xml::SubtreeSpec chain;
  for (uint32_t i = 0; i < 5; ++i) {
    chain.nodes.push_back({"fresh", i == 0 ? xml::SubtreeSpec::kNoParent
                                           : i - 1});
  }
  xml::NodeId chain_root = insert(chain, deepest, xml::kInvalidNode);
  ASSERT_NE(chain_root, xml::kInvalidNode);
  ASSERT_TRUE(SameAsCollect(doc, stats));
  EXPECT_EQ(stats.max_depth(), original_depth + 5);
  EXPECT_EQ(stats.TagCount(doc.FindTag("fresh")), 5u);
  erase(chain_root);
  ASSERT_TRUE(SameAsCollect(doc, stats));
  EXPECT_EQ(stats.max_depth(), original_depth);
  EXPECT_EQ(stats.TagCount(doc.FindTag("fresh")), 0u);

  // Delete every subtree holding the document's own max_depth.
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (!doc.IsLive(n) || doc.NodeLabel(n).level != original_depth) continue;
    erase(doc.Parent(n));
    ASSERT_TRUE(SameAsCollect(doc, stats));
  }
  EXPECT_LT(stats.max_depth(), original_depth);

  std::vector<xml::SubtreeSpec> specs;
  for (const std::string& f : fragments) {
    specs.push_back(xml::SpecFromDocument(MakeDoc(f)));
  }
  int relabels = 0;
  for (int op = 0; op < random_ops; ++op) {
    const uint64_t kind = rng.Uniform(10);
    if (kind < 4) {
      xml::NodeId victim = RandomLiveNode(&rng, doc);
      if (doc.NodeLabel(victim).level < 3) continue;
      erase(victim);
    } else if (kind < 9) {
      xml::NodeId parent = RandomLiveNode(&rng, doc);
      xml::NodeId after = xml::kInvalidNode;
      for (xml::NodeId c = doc.FirstChild(parent); c != xml::kInvalidNode;
           c = doc.NextSibling(c)) {
        if (rng.Uniform(3) == 0) after = c;
      }
      xml::NodeId source = RandomLiveNode(&rng, doc);
      const xml::SubtreeSpec spec =
          kind < 7 || SubtreeSize(doc, source) > 20
              ? specs[rng.Uniform(specs.size())]
              : xml::SpecFromDocument(doc, source);
      insert(spec, parent, after);
    } else {
      if (doc.RelabelWithGap(2).ok()) ++relabels;
    }
    ASSERT_TRUE(SameAsCollect(doc, stats)) << "after random op " << op;
  }
  EXPECT_GT(relabels, 0);
}

TEST(StatisticsTest, MaintainedMatchesCollect) {
  {
    SCOPED_TRACE("xmark 0.2");
    CheckMaintainedAgainstCollect(
        data::GenerateXmark({.scale = 0.2, .seed = 42}), 14,
        {"bidder(date time personref increase)", "fresh(bidder(fresh))",
         "open_auction(bidder(increase) bidder(increase) fresh)"},
        200);
  }
  {
    SCOPED_TRACE("recursive same-tag");
    util::Rng doc_rng(15);
    CheckMaintainedAgainstCollect(
        testing::RandomDoc(&doc_rng, 400, {"a", "b"}), 16,
        {"a(a(b a(b)))", "b(b(b))", "fresh(a(fresh(b)))"}, 300);
  }
}

TEST(CardinalityTest, ExactForSingleNodePatterns) {
  xml::Document doc = MakeDoc("a(b(c) b d(b))");
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  std::vector<double> est =
      EstimateListLengths(stats, doc, MustParse("//b"));
  ASSERT_EQ(est.size(), 1u);
  EXPECT_DOUBLE_EQ(est[0], 3.0);
}

TEST(CardinalityTest, ExactDescendantSideOfTwoNodePatterns) {
  xml::Document doc = MakeDoc("r(a(b(c) b a(b(c))) c)");
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  TreePattern q = MustParse("//b//c");
  std::vector<double> est = EstimateListLengths(stats, doc, q);
  // The descendant node's estimate uses the exact distinct-pair count.
  tpq::NaiveEvaluator oracle(doc, q);
  std::vector<std::vector<xml::NodeId>> lists = oracle.SolutionNodes();
  EXPECT_DOUBLE_EQ(est[1], static_cast<double>(lists[1].size()));
}

TEST(CardinalityTest, EstimatesWithinFactorOnGenerators) {
  xml::Document doc = data::GenerateNasa({.datasets = 60, .seed = 9});
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  // Path patterns on the generator: estimates should land within ~4x of the
  // truth (independence assumption; generator correlations are mild).
  for (const char* xpath :
       {"//dataset//definition", "//field//para", "//tableLink//title",
        "//reference//journal//date"}) {
    TreePattern q = MustParse(xpath);
    std::vector<double> est = EstimateListLengths(stats, doc, q);
    tpq::NaiveEvaluator oracle(doc, q);
    std::vector<std::vector<xml::NodeId>> lists = oracle.SolutionNodes();
    for (size_t i = 0; i < q.size(); ++i) {
      double truth = static_cast<double>(lists[i].size());
      if (truth < 8) continue;  // tiny lists: absolute error dominates
      EXPECT_GT(est[i], truth / 4.0) << xpath << " node " << i;
      EXPECT_LT(est[i], truth * 4.0) << xpath << " node " << i;
    }
  }
}

TEST(CardinalityTest, MatchCountExactForAdPairs) {
  xml::Document doc = MakeDoc("a(b b(b) c(b))");
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  TreePattern q = MustParse("//a//b");
  EXPECT_DOUBLE_EQ(EstimateMatchCount(stats, doc, q),
                   static_cast<double>(tpq::NaiveEvaluator(doc, q).Count()));
}

TEST(SelectionWithEstimatesTest, PicksTheSameSetOnTable2Workload) {
  xml::Document doc = data::GenerateNasa({.datasets = 200, .seed = 7});
  DocumentStatistics stats = DocumentStatistics::Collect(doc);
  TreePattern query = MustParse(
      "//dataset//tableHead[//tableLink//title]//field//definition//para");
  std::vector<TreePattern> candidates;
  for (const char* v :
       {"//dataset//definition", "//dataset//tableHead", "//field//para",
        "//definition", "//tableLink//title", "//field//definition//para"}) {
    candidates.push_back(MustParse(v));
  }
  view::SelectionOptions exact;
  view::SelectionResult exact_pick =
      view::SelectViews(doc, query, candidates, exact);
  view::SelectionOptions estimated;
  estimated.statistics = &stats;
  view::SelectionResult est_pick =
      view::SelectViews(doc, query, candidates, estimated);
  ASSERT_TRUE(exact_pick.covers);
  ASSERT_TRUE(est_pick.covers);
  // The estimator must preserve the decision, not the exact numbers.
  EXPECT_EQ(est_pick.selected, exact_pick.selected);
}

}  // namespace
}  // namespace viewjoin
