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

/// Runs TwigStack over `views` in both output modes and checks the answer
/// against the oracle. Returns the two runs' results.
std::vector<RunResult> RunTwigStackBothModes(
    Engine* engine, const TreePattern& query,
    const std::vector<TreePattern>& views, const Expected& expected) {
  std::vector<const MaterializedView*> stored;
  for (const TreePattern& v : views) {
    stored.push_back(engine->AddView(v, Scheme::kElement));
  }
  std::vector<RunResult> results;
  for (OutputMode mode : {OutputMode::kMemory, OutputMode::kDisk}) {
    RunOptions run;
    run.algorithm = Algorithm::kTwigStack;
    run.output_mode = mode;
    RunResult result = engine->Execute(query, stored, run);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.match_count, expected.count)
        << (mode == OutputMode::kDisk ? "disk" : "mem");
    EXPECT_EQ(result.result_hash, expected.hash)
        << (mode == OutputMode::kDisk ? "disk" : "mem");
    results.push_back(result);
  }
  return results;
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
