#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "tpq/subpattern.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using algo::OutputMode;
using core::Algorithm;
using core::Engine;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using testing::RandomDoc;
using testing::RandomQuery;
using testing::RandomViewPartition;
using tpq::TreePattern;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

struct Expected {
  uint64_t count;
  uint64_t hash;
};

Expected OracleFingerprint(const xml::Document& doc, const TreePattern& query) {
  tpq::HashingSink sink;
  tpq::NaiveEvaluator(doc, query).Evaluate(&sink);
  return {sink.count(), sink.hash()};
}

/// One randomized scenario: a recursive document, a random query, a random
/// covering view partition — every algorithm × scheme × output mode must
/// produce the oracle's exact match set.
class DifferentialCase {
 public:
  DifferentialCase(uint64_t seed, int doc_nodes, int query_nodes)
      : rng_(seed),
        tags_({"a", "b", "c", "d", "e", "f", "g"}),
        doc_(RandomDoc(&rng_, doc_nodes, tags_)),
        query_(RandomQuery(&rng_, query_nodes, tags_)),
        views_(RandomViewPartition(&rng_, query_, 3)),
        engine_(&doc_, TempPath("prop_" + std::to_string(seed) + ".db")) {
    expected_ = OracleFingerprint(doc_, query_);
  }

  std::string Describe() const {
    std::string views = "";
    for (const TreePattern& v : views_) views += " " + v.ToString();
    return "query=" + query_.ToString() + " views=[" + views + " ] expected=" +
           std::to_string(expected_.count);
  }

  void CheckListSchemes() {
    for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                          Scheme::kLinkedElementPartial}) {
      std::vector<const MaterializedView*> views;
      for (const TreePattern& v : views_) {
        views.push_back(engine_.AddView(v, scheme));
      }
      for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
        for (OutputMode mode : {OutputMode::kMemory, OutputMode::kDisk}) {
          RunOptions run;
          run.algorithm = algorithm;
          run.output_mode = mode;
          RunResult result = engine_.Execute(query_, views, run);
          ASSERT_TRUE(result.ok) << result.error << " " << Describe();
          EXPECT_EQ(result.match_count, expected_.count)
              << core::AlgorithmName(algorithm) << "+"
              << storage::SchemeName(scheme)
              << (mode == OutputMode::kDisk ? " (disk) " : " (mem) ")
              << Describe();
          EXPECT_EQ(result.result_hash, expected_.hash)
              << core::AlgorithmName(algorithm) << "+"
              << storage::SchemeName(scheme) << " " << Describe();
        }
      }
    }
  }

  void CheckInterJoinIfApplicable() {
    if (!query_.IsPath()) return;
    for (const TreePattern& v : views_) {
      if (!v.IsPath()) return;
    }
    std::vector<const MaterializedView*> views;
    for (const TreePattern& v : views_) {
      views.push_back(engine_.AddView(v, Scheme::kTuple));
    }
    RunOptions run;
    run.algorithm = Algorithm::kInterJoin;
    RunResult result = engine_.Execute(query_, views, run);
    ASSERT_TRUE(result.ok) << result.error << " " << Describe();
    EXPECT_EQ(result.match_count, expected_.count) << "IJ+T " << Describe();
    EXPECT_EQ(result.result_hash, expected_.hash) << "IJ+T " << Describe();
  }

 private:
  util::Rng rng_;
  std::vector<std::string> tags_;
  xml::Document doc_;
  TreePattern query_;
  std::vector<TreePattern> views_;
  Engine engine_;
  Expected expected_;
};

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllCombosMatchOracle) {
  uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  util::Rng shape_rng(seed * 77);
  int doc_nodes = 30 + static_cast<int>(shape_rng.Uniform(270));
  int query_nodes = 1 + static_cast<int>(shape_rng.Uniform(6));
  DifferentialCase scenario(seed, doc_nodes, query_nodes);
  scenario.CheckListSchemes();
  scenario.CheckInterJoinIfApplicable();
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, DifferentialTest,
                         ::testing::Range(0, 150));

/// Path-only scenarios so InterJoin participates frequently.
class PathDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PathDifferentialTest, PathCombosMatchOracle) {
  uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
  util::Rng rng(seed);
  std::vector<std::string> tags = {"a", "b", "c", "d", "e"};
  xml::Document doc = RandomDoc(&rng, 150, tags);
  // Build a random path query.
  int len = 2 + static_cast<int>(rng.Uniform(3));
  TreePattern query;
  std::vector<std::string> pool = tags;
  for (size_t i = 0; i < pool.size(); ++i) {
    std::swap(pool[i], pool[i + rng.Uniform(pool.size() - i)]);
  }
  int prev = query.AddNode(pool[0], -1, tpq::Axis::kDescendant);
  for (int i = 1; i < len; ++i) {
    tpq::Axis axis = rng.Bernoulli(0.3) ? tpq::Axis::kChild
                                        : tpq::Axis::kDescendant;
    prev = query.AddNode(pool[static_cast<size_t>(i)], prev, axis);
  }
  // Random path-view partition: contiguous or interleaved groups.
  std::vector<TreePattern> views = RandomViewPartition(&rng, query, 3);
  for (const TreePattern& v : views) {
    ASSERT_TRUE(v.IsPath());  // partitions of a path are paths
  }
  Expected expected = OracleFingerprint(doc, query);
  Engine engine(&doc, TempPath("pathprop_" + std::to_string(seed) + ".db"));
  std::vector<const MaterializedView*> tuple_views;
  for (const TreePattern& v : views) {
    tuple_views.push_back(engine.AddView(v, Scheme::kTuple));
  }
  RunOptions run;
  run.algorithm = Algorithm::kInterJoin;
  RunResult result = engine.Execute(query, tuple_views, run);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.match_count, expected.count) << query.ToString();
  EXPECT_EQ(result.result_hash, expected.hash) << query.ToString();
}

INSTANTIATE_TEST_SUITE_P(RandomPathScenarios, PathDifferentialTest,
                         ::testing::Range(0, 80));

/// `query` with every edge, the root's included, turned into `//`.
TreePattern AllDescendant(const TreePattern& query) {
  TreePattern ad;
  for (size_t q = 0; q < query.size(); ++q) {
    const tpq::PatternNode& node = query.node(static_cast<int>(q));
    ad.AddNode(node.tag, node.parent, tpq::Axis::kDescendant);
  }
  return ad;
}

bool HasChildEdge(const TreePattern& query) {
  for (size_t q = 0; q < query.size(); ++q) {
    if (query.node(static_cast<int>(q)).incoming == tpq::Axis::kChild) {
      return true;
    }
  }
  return false;
}

uint64_t SolutionNodeCount(const xml::Document& doc, const TreePattern& query) {
  uint64_t n = 0;
  for (const auto& list : tpq::NaiveEvaluator(doc, query).SolutionNodes()) {
    n += list.size();
  }
  return n;
}

/// Runs `algorithm` over `views` stored in `scheme`, in both output modes,
/// and checks the answer against the oracle. Returns the two runs' results.
std::vector<RunResult> RunBothModes(Engine* engine, Algorithm algorithm,
                                    Scheme scheme, const TreePattern& query,
                                    const std::vector<TreePattern>& views,
                                    const Expected& expected) {
  std::vector<const MaterializedView*> stored;
  for (const TreePattern& v : views) {
    stored.push_back(engine->AddView(v, scheme));
  }
  std::vector<RunResult> results;
  for (OutputMode mode : {OutputMode::kMemory, OutputMode::kDisk}) {
    SCOPED_TRACE(std::string(core::AlgorithmName(algorithm)) + "+" +
                 storage::SchemeName(scheme) +
                 (mode == OutputMode::kDisk ? " disk" : " mem"));
    RunOptions run;
    run.algorithm = algorithm;
    run.output_mode = mode;
    RunResult result = engine->Execute(query, stored, run);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.match_count, expected.count);
    EXPECT_EQ(result.result_hash, expected.hash);
    results.push_back(result);
  }
  return results;
}

/// Runs TwigStack over `views` in both output modes and checks the answer
/// against the oracle. Returns the two runs' results.
std::vector<RunResult> RunTwigStackBothModes(
    Engine* engine, const TreePattern& query,
    const std::vector<TreePattern>& views, const Expected& expected) {
  return RunBothModes(engine, Algorithm::kTwigStack, Scheme::kElement, query,
                      views, expected);
}

// TwigStack certifies a flush exact, and skips the output pass's semi-join
// filter, only for //-only queries whose termination drain buffered nothing.
// A certified run's candidates must then be exactly the solution nodes: the
// filter it skipped would have removed nothing.
TEST(CertifiedFlushTest, CertifiedCandidatesAreExactlyTheSolutionNodes) {
  const std::vector<std::string> tags = {"a", "b", "c", "d", "e", "f", "g"};
  int certified_runs = 0;
  int flushed_runs = 0;
  for (uint64_t seed = 5000; seed < 5080; ++seed) {
    util::Rng rng(seed);
    xml::Document doc =
        RandomDoc(&rng, 30 + static_cast<int>(rng.Uniform(270)), tags);
    const TreePattern mixed =
        RandomQuery(&rng, 2 + static_cast<int>(rng.Uniform(5)), tags);
    const TreePattern ad = AllDescendant(mixed);
    SCOPED_TRACE("seed " + std::to_string(seed) + " query " + ad.ToString());
    Engine engine(&doc, TempPath("certified_" + std::to_string(seed) + ".db"));
    const uint64_t solutions = SolutionNodeCount(doc, ad);
    for (const RunResult& r :
         RunTwigStackBothModes(&engine, ad, RandomViewPartition(&rng, ad, 3),
                               OracleFingerprint(doc, ad))) {
      flushed_runs += r.stats.flushes > 0;
      EXPECT_LE(r.stats.certified_flushes, r.stats.flushes);
      if (r.stats.certified_flushes == r.stats.flushes) {
        EXPECT_EQ(r.stats.candidates, solutions);
        if (r.stats.certified_flushes > 0) ++certified_runs;
      }
    }
    if (!HasChildEdge(mixed)) continue;
    SCOPED_TRACE("with / edges: " + mixed.ToString());
    for (const RunResult& r : RunTwigStackBothModes(
             &engine, mixed, RandomViewPartition(&rng, mixed, 3),
             OracleFingerprint(doc, mixed))) {
      EXPECT_EQ(r.stats.certified_flushes, 0u);
    }
  }
  // Most runs that flush anything drain nothing: the exact path must be
  // exercised.
  EXPECT_GT(certified_runs, flushed_runs / 2)
      << certified_runs << " of " << flushed_runs;
}

// ViewJoin certifies a flush when the query is //-only, the drain buffered
// nothing and no removed node lies between a kept node and its Q' parent.
// Its kept candidates plus the entries extended for removed nodes must then
// be exactly the solution nodes, under every list scheme.
TEST(CertifiedFlushTest, CertifiedViewJoinFlushesHoldExactlyTheSolutionNodes) {
  const std::vector<std::string> tags = {"a", "b", "c", "d", "e", "f", "g"};
  int certified_runs = 0;
  int extended_certified_runs = 0;
  int flushed_runs = 0;
  for (uint64_t seed = 5000; seed < 5080; ++seed) {
    util::Rng rng(seed);
    xml::Document doc =
        RandomDoc(&rng, 30 + static_cast<int>(rng.Uniform(270)), tags);
    const TreePattern ad = AllDescendant(
        RandomQuery(&rng, 2 + static_cast<int>(rng.Uniform(5)), tags));
    const std::vector<TreePattern> views = RandomViewPartition(&rng, ad, 3);
    SCOPED_TRACE("seed " + std::to_string(seed) + " query " + ad.ToString());
    Engine engine(&doc, TempPath("certified_vj_" + std::to_string(seed) +
                                 ".db"));
    const uint64_t solutions = SolutionNodeCount(doc, ad);
    const Expected expected = OracleFingerprint(doc, ad);
    for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                          Scheme::kLinkedElementPartial}) {
      for (const RunResult& r : RunBothModes(&engine, Algorithm::kViewJoin,
                                             scheme, ad, views, expected)) {
        flushed_runs += r.stats.flushes > 0;
        EXPECT_LE(r.stats.certified_flushes, r.stats.flushes);
        if (r.stats.flushes > 0 &&
            r.stats.certified_flushes == r.stats.flushes) {
          EXPECT_EQ(r.stats.candidates + r.stats.extended, solutions)
              << storage::SchemeName(scheme);
          EXPECT_EQ(r.stats.filtered_lists, 0u);
          ++certified_runs;
          extended_certified_runs += r.stats.extended > 0;
        }
      }
    }
  }
  // Most runs that flush neither drain nor collapse a Q' edge: the certified
  // path, and its extension walk, must be exercised (288 of 336, 228 of
  // them with extended entries, when this was written).
  EXPECT_GT(certified_runs, flushed_runs / 2)
      << certified_runs << " of " << flushed_runs;
  EXPECT_GT(extended_certified_runs, 0);
}

// A removed node between a kept node and its Q' parent: over the document
// a0(r0(a1(r1(q2) q1(x1)))) with views //a//r//q and //x, Q' is
// {a} -> {q} -> {x}, and a1 contains q1 and x1, so ViewJoin pushes a1. But
// a1's only r descendant, r1, holds no q with an x below it: a1 is in no
// match. Such a flush must not be certified, and the filter it keeps must
// give the oracle's answer.
TEST(CertifiedFlushTest, CollapsedQPrimeEdgeIsNotCertified) {
  xml::Document doc = testing::MakeDoc("a(r(a(r(q) q(x))))");
  const TreePattern query = testing::MustParse("//a//r//q//x");
  const std::vector<TreePattern> views = {testing::MustParse("//a//r//q"),
                                          testing::MustParse("//x")};
  Engine engine(&doc, TempPath("certified_collapsed.db"));
  const uint64_t solutions = SolutionNodeCount(doc, query);
  const Expected expected = OracleFingerprint(doc, query);
  EXPECT_EQ(expected.count, 1u);
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                        Scheme::kLinkedElementPartial}) {
    for (const RunResult& r : RunBothModes(&engine, Algorithm::kViewJoin,
                                           scheme, query, views, expected)) {
      EXPECT_EQ(r.stats.flushes, 1u);
      EXPECT_EQ(r.stats.certified_flushes, 0u);
      EXPECT_EQ(r.stats.filtered_lists, query.size());
      EXPECT_GT(r.stats.candidates + r.stats.extended, solutions)
          << "a1 is pushed although it is in no match";
    }
  }
}

// XMark Q10's shape again, for both joins: the drain buffers into person and
// gender only, so only their lists are filtered. With gender in person's
// view, ViewJoin removes gender from Q' and extends it under the drained
// person entries: gender is then unproven as an extended node, not as a
// drained one.
TEST(CertifiedFlushTest, OnlyDrainedNodesAreFiltered) {
  xml::Document doc = testing::MakeDoc(
      "site(people(person(profile(education age) gender)"
      " person(gender)))");
  const TreePattern query = testing::MustParse(
      "//people//person[//profile[//education]//age]//gender");
  std::vector<TreePattern> per_tag;
  for (const char* tag :
       {"people", "person", "profile", "education", "age", "gender"}) {
    per_tag.push_back(testing::MustParse(std::string("//") + tag));
  }
  std::vector<TreePattern> gender_removed = {
      testing::MustParse("//people"), testing::MustParse("//person//gender"),
      testing::MustParse("//profile"), testing::MustParse("//education"),
      testing::MustParse("//age")};
  Engine engine(&doc, TempPath("certified_partial.db"));
  const Expected expected = OracleFingerprint(doc, query);
  for (const std::vector<TreePattern>* views :
       {&per_tag, &gender_removed}) {
    SCOPED_TRACE(views == &per_tag ? "one view per tag" : "gender removed");
    for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                          Scheme::kLinkedElementPartial}) {
      for (Algorithm algorithm :
           {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
        for (const RunResult& r : RunBothModes(&engine, algorithm, scheme,
                                               query, *views, expected)) {
          EXPECT_EQ(r.stats.flushes, 1u);
          EXPECT_EQ(r.stats.certified_flushes, 0u);
          EXPECT_EQ(r.stats.filtered_lists, 2u) << "person and gender";
        }
      }
    }
  }
}

// XMark Q10's shape: once the education stream runs out, the termination
// drain buffers every remaining person and gender inside the buffered
// people region, including a person with no profile and its gender, which
// join nothing. That flush must not be certified, and the filter it keeps
// must still give the oracle's answer.
TEST(CertifiedFlushTest, FlushAfterADrainIsNotCertified) {
  xml::Document doc = testing::MakeDoc(
      "site(people(person(profile(education age) gender)"
      " person(gender)))");
  const TreePattern query = testing::MustParse(
      "//people//person[//profile[//education]//age]//gender");
  // One view per tag: its list holds every node of the tag, solution or not.
  std::vector<TreePattern> views;
  for (const char* tag :
       {"people", "person", "profile", "education", "age", "gender"}) {
    views.push_back(testing::MustParse(std::string("//") + tag));
  }
  Engine engine(&doc, TempPath("certified_drain.db"));
  const uint64_t solutions = SolutionNodeCount(doc, query);
  for (const RunResult& r : RunTwigStackBothModes(
           &engine, query, views, OracleFingerprint(doc, query))) {
    EXPECT_EQ(r.stats.flushes, 1u);
    EXPECT_EQ(r.stats.certified_flushes, 0u);
    EXPECT_GT(r.stats.candidates, solutions)
        << "the drain buffered a candidate that joins nothing";
  }
  EXPECT_EQ(OracleFingerprint(doc, query).count, 1u);
}

}  // namespace
}  // namespace viewjoin
