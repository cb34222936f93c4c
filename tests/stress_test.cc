// Heavier randomized differential suites than property_test: deeper
// recursion, pc-heavy queries, tiny buffer pools (constant eviction), disk
// output with a small flush threshold, and generator-based documents with
// the benchmark queries. Everything is validated against the oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/nasa_generator.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "data/xmark_generator.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using algo::OutputMode;
using core::Algorithm;
using core::Engine;
using core::EngineOptions;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using tpq::TreePattern;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

struct Expected {
  uint64_t count;
  uint64_t hash;
};

Expected Oracle(const xml::Document& doc, const TreePattern& query) {
  tpq::HashingSink sink;
  tpq::NaiveEvaluator(doc, query).Evaluate(&sink);
  return {sink.count(), sink.hash()};
}

void ExpectAllCombosAgree(Engine* engine, const TreePattern& query,
                          const std::vector<TreePattern>& view_patterns,
                          const Expected& expected,
                          const std::string& context) {
  for (Scheme scheme : {Scheme::kElement, Scheme::kLinkedElement,
                        Scheme::kLinkedElementPartial}) {
    std::vector<const MaterializedView*> views;
    for (const TreePattern& v : view_patterns) {
      views.push_back(engine->AddView(v, scheme));
    }
    for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
      for (OutputMode mode : {OutputMode::kMemory, OutputMode::kDisk}) {
        RunOptions run;
        run.algorithm = algorithm;
        run.output_mode = mode;
        RunResult result = engine->Execute(query, views, run);
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.match_count, expected.count)
            << context << " " << core::AlgorithmName(algorithm) << "+"
            << storage::SchemeName(scheme)
            << (mode == OutputMode::kDisk ? " disk" : " mem");
        EXPECT_EQ(result.result_hash, expected.hash)
            << context << " " << core::AlgorithmName(algorithm) << "+"
            << storage::SchemeName(scheme);
      }
    }
  }
}

/// Deep-recursion documents: few tags, high nesting — the regime where
/// stacks grow, following pointers jump far, and flush guards matter.
class DeepRecursionTest : public ::testing::TestWithParam<int> {};

TEST_P(DeepRecursionTest, AllCombosMatchOracle) {
  uint64_t seed = 40000 + static_cast<uint64_t>(GetParam());
  util::Rng rng(seed);
  std::vector<std::string> tags = {"a", "b", "c"};
  xml::Document doc = testing::RandomDoc(&rng, 220, tags, /*max_fanout=*/2);
  TreePattern query = testing::RandomQuery(
      &rng, 2 + static_cast<int>(rng.Uniform(2)), tags);
  std::vector<TreePattern> views =
      testing::RandomViewPartition(&rng, query, 2);
  Expected expected = Oracle(doc, query);
  EngineOptions options;
  options.pool_pages = 2;  // constant eviction pressure
  Engine engine(&doc, TempPath("deep_" + std::to_string(seed) + ".db"),
                options);
  ExpectAllCombosAgree(&engine, query, views, expected,
                       "deep " + query.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepRecursionTest, ::testing::Range(0, 60));

/// pc-edge-heavy random queries: the regime where phase-1 candidates
/// over-approximate and the output pass must filter (paper: TwigStack's
/// suboptimality for pc-edges; ViewJoin checks pc at output time).
class PcHeavyTest : public ::testing::TestWithParam<int> {};

TEST_P(PcHeavyTest, AllCombosMatchOracle) {
  uint64_t seed = 50000 + static_cast<uint64_t>(GetParam());
  util::Rng rng(seed);
  std::vector<std::string> tags = {"a", "b", "c", "d", "e", "f"};
  xml::Document doc = testing::RandomDoc(&rng, 150, tags);
  // Build a query whose edges are mostly pc.
  int len = 2 + static_cast<int>(rng.Uniform(4));
  std::vector<std::string> pool = tags;
  for (size_t i = 0; i < pool.size(); ++i) {
    std::swap(pool[i], pool[i + rng.Uniform(pool.size() - i)]);
  }
  TreePattern query;
  query.AddNode(pool[0], -1, tpq::Axis::kDescendant);
  for (int i = 1; i < len; ++i) {
    int parent = static_cast<int>(rng.Uniform(static_cast<uint64_t>(i)));
    tpq::Axis axis =
        rng.Bernoulli(0.8) ? tpq::Axis::kChild : tpq::Axis::kDescendant;
    query.AddNode(pool[static_cast<size_t>(i)], parent, axis);
  }
  std::vector<TreePattern> views =
      testing::RandomViewPartition(&rng, query, 3);
  Expected expected = Oracle(doc, query);
  Engine engine(&doc, TempPath("pc_" + std::to_string(seed) + ".db"));
  ExpectAllCombosAgree(&engine, query, views, expected,
                       "pc " + query.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcHeavyTest, ::testing::Range(0, 60));

/// Benchmark-query differential tests on the real generators: every XMark
/// and NASA benchmark query, evaluated from its depth-split views and from
/// single-element views, must match the oracle.
class GeneratorQueryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeneratorQueryTest, BenchmarkQueriesMatchOracle) {
  auto [dataset, query_index] = GetParam();
  xml::Document doc;
  std::vector<std::string> queries;
  if (dataset == 0) {
    doc = data::GenerateXmark({.scale = 0.15, .seed = 11});
    queries = {
        "//people//person//name",
        "//open_auctions//open_auction//bidder//increase",
        "//open_auctions//open_auction[//bidder//personref]//initial",
        "//people//person[//profile//interest]//name",
        "//person[//watches//watch]//emailaddress",
        "//regions//item[//incategory]//description//parlist//listitem",
        "//item[//mailbox//mail]//description//text//keyword",
        "//regions//item[//location]//mailbox//mail",
    };
  } else {
    doc = data::GenerateNasa({.datasets = 60, .seed = 11});
    queries = {
        "//field//footnote//para",
        "//dataset//definition//footnote",
        "//revision/creator/lastname",
        "//reference//journal//date//year",
        "//dataset[//definition/footnote]//history//revision//para",
        "//journal[//suffix][title]/date/year",
        "//dataset[//field//footnote]//journal[//bibcode]//lastname",
        "//descriptions[//observatory]/description//para",
    };
  }
  const std::string& xpath = queries[static_cast<size_t>(query_index)];
  TreePattern query = testing::MustParse(xpath);
  Expected expected = Oracle(doc, query);
  Engine engine(&doc, TempPath("gen_" + std::to_string(dataset) + "_" +
                               std::to_string(query_index) + ".db"));
  // Single-element views: every query node its own view ("raw streams").
  std::vector<TreePattern> singles;
  for (size_t q = 0; q < query.size(); ++q) {
    TreePattern v;
    v.AddNode(query.node(static_cast<int>(q)).tag, -1, tpq::Axis::kDescendant);
    singles.push_back(std::move(v));
  }
  ExpectAllCombosAgree(&engine, query, singles, expected, "singles " + xpath);
  // A two-way partition: root half and leaf half.
  util::Rng rng(1234);
  std::vector<TreePattern> halves =
      testing::RandomViewPartition(&rng, query, 2);
  ExpectAllCombosAgree(&engine, query, halves, expected, "halves " + xpath);
}

INSTANTIATE_TEST_SUITE_P(Queries, GeneratorQueryTest,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Range(0, 8)));

/// InterJoin on generator-based path queries (tuple views, interleaved and
/// contiguous partitions).
class GeneratorInterJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorInterJoinTest, PathQueriesMatchOracle) {
  xml::Document doc = data::GenerateNasa({.datasets = 60, .seed = 11});
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      {"//field//footnote//para", {"//field//para", "//footnote"}},
      {"//field//footnote//para", {"//field", "//footnote//para"}},
      {"//dataset//definition//footnote",
       {"//dataset//footnote", "//definition"}},
      {"//reference//journal//date//year",
       {"//reference//date", "//journal//year"}},
      {"//revision/creator/lastname", {"//revision", "//creator/lastname"}},
  };
  const auto& [xpath, view_paths] = cases[static_cast<size_t>(GetParam())];
  TreePattern query = testing::MustParse(xpath);
  Expected expected = Oracle(doc, query);
  Engine engine(&doc,
                TempPath("genij_" + std::to_string(GetParam()) + ".db"));
  std::vector<const MaterializedView*> views;
  for (const std::string& v : view_paths) {
    views.push_back(engine.AddView(v, Scheme::kTuple));
  }
  RunOptions run;
  run.algorithm = Algorithm::kInterJoin;
  RunResult result = engine.Execute(query, views, run);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.match_count, expected.count) << xpath;
  EXPECT_EQ(result.result_hash, expected.hash) << xpath;
}

INSTANTIATE_TEST_SUITE_P(Cases, GeneratorInterJoinTest, ::testing::Range(0, 5));

/// Governed runs are a pure control-plane overlay: with generous limits the
/// answer hash must be identical to the ungoverned run, and with punishing
/// budgets the engine must either degrade to the exact answer or fail with a
/// typed RESOURCE_EXHAUSTED — it must never return a wrong match set.
class GovernedStressTest : public ::testing::TestWithParam<int> {};

TEST_P(GovernedStressTest, TinyBudgetsNeverProduceWrongAnswers) {
  uint64_t seed = 60000 + static_cast<uint64_t>(GetParam());
  util::Rng rng(seed);
  std::vector<std::string> tags = {"a", "b", "c", "d"};
  xml::Document doc = testing::RandomDoc(&rng, 300, tags);
  TreePattern query = testing::RandomQuery(
      &rng, 2 + static_cast<int>(rng.Uniform(3)), tags);
  std::vector<TreePattern> view_patterns =
      testing::RandomViewPartition(&rng, query, 2);
  Expected expected = Oracle(doc, query);
  Engine engine(&doc, TempPath("gov_stress_" + std::to_string(seed) + ".db"));
  std::vector<const MaterializedView*> views;
  for (const TreePattern& v : view_patterns) {
    views.push_back(engine.AddView(v, Scheme::kLinkedElement));
  }
  for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kViewJoin}) {
    // Generous governance: nothing may change versus the clean run.
    RunOptions roomy;
    roomy.algorithm = algorithm;
    roomy.deadline_ms = 60000;
    roomy.memory_budget_bytes = 1ull << 30;
    roomy.disk_budget_bytes = 1ull << 30;
    RunResult r = engine.Execute(query, views, roomy);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.match_count, expected.count) << query.ToString();
    EXPECT_EQ(r.result_hash, expected.hash) << query.ToString();

    // Punishing memory budget: the disk-mode downgrade must still be exact.
    RunOptions tight;
    tight.algorithm = algorithm;
    tight.memory_budget_bytes = 256;
    RunResult t = engine.Execute(query, views, tight);
    if (t.ok) {
      EXPECT_EQ(t.match_count, expected.count) << query.ToString();
      EXPECT_EQ(t.result_hash, expected.hash) << query.ToString();
    } else {
      EXPECT_NE(t.error.find("RESOURCE_EXHAUSTED"), std::string::npos)
          << t.error;
    }

    // Punishing both budgets: same contract, exhaustion is typed.
    RunOptions starved = tight;
    starved.disk_budget_bytes = storage::Pager::kPageSize;
    RunResult s = engine.Execute(query, views, starved);
    if (s.ok) {
      EXPECT_EQ(s.result_hash, expected.hash) << query.ToString();
    } else {
      EXPECT_NE(s.error.find("RESOURCE_EXHAUSTED"), std::string::npos)
          << s.error;
    }
    EXPECT_EQ(engine.catalog()->pool()->pinned_frames(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GovernedStressTest, ::testing::Range(0, 30));

/// A watchdog fires an expired deadline as one step with respect to the
/// session re-arming its context: a watchdog that saw query N's deadline
/// expire must never abort query N+1. One session alternates queries whose
/// deadline has already passed with undeadlined ones while a watchdog
/// thread fires in a tight loop; no undeadlined query may time out.
TEST(WatchdogRaceTest, ExpiredDeadlineNeverLeaksIntoTheNextQuery) {
  xml::Document doc;
  doc.StartElement("r");
  for (int i = 0; i < 20; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  TreePattern query = testing::MustParse("//a//b");
  Engine engine(&doc, TempPath("watchdog_race.db"));
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement)};
  Engine::Session session(&engine, 0);

  std::atomic<bool> stop{false};
  std::thread watchdog([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      session.governance()->FireIfExpired();
    }
  });
  RunOptions expired;
  expired.deadline_ms = 1e-6;
  RunOptions undeadlined;
  int leaked = 0;
  for (int i = 0; i < 1000; ++i) {
    RunResult e = session.Run(query, views, expired);
    EXPECT_TRUE(e.ok || e.timed_out) << e.error;
    RunResult u = session.Run(query, views, undeadlined);
    if (u.timed_out) ++leaked;
    EXPECT_TRUE(u.ok || u.timed_out) << u.error;
  }
  stop.store(true, std::memory_order_relaxed);
  watchdog.join();
  EXPECT_EQ(leaked, 0);
}

}  // namespace
}  // namespace viewjoin
