// The paper's Fig. 5 claims about work, checked on counters at smoke scale
// (XMark 0.05, NASA 20 datasets): all 22 queries over their PairViews
// covering sets, in every algorithm × scheme combination the query admits
// (InterJoin answers paths only). Every combination must return the naive
// evaluator's answer, ViewJoin must scan no more entries than TwigStack over
// the same views in the same scheme, and a run of a //-only query that
// drained nothing must certify every flush. No timings are asserted.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "tpq/evaluator.h"

namespace viewjoin {
namespace {

using bench::BenchContext;
using bench::Combo;
using bench::QuerySpec;
using core::Algorithm;
using core::RunResult;
using storage::Scheme;
using tpq::TreePattern;

bool AllEdgesDescendant(const TreePattern& query) {
  for (size_t q = 0; q < query.size(); ++q) {
    if (query.node(static_cast<int>(q)).incoming != tpq::Axis::kDescendant) {
      return false;
    }
  }
  return true;
}

void CheckGrid(BenchContext* context, const std::vector<QuerySpec>& queries) {
  for (const QuerySpec& spec : queries) {
    SCOPED_TRACE(spec.name);
    const TreePattern query = bench::ParseQuery(spec.xpath);
    const std::vector<TreePattern> split = bench::PairViews(query);
    tpq::HashingSink oracle;
    tpq::NaiveEvaluator(context->doc(), query).Evaluate(&oracle);
    std::map<Scheme, uint64_t> ts_scanned;
    for (const Combo& combo :
         spec.is_path ? bench::AllCombos() : bench::ListCombos()) {
      SCOPED_TRACE(combo.Label());
      core::RunOptions run;
      run.algorithm = combo.algorithm;
      const RunResult r = context->engine().Execute(
          query, context->Views(split, combo.scheme), run);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.match_count, oracle.count());
      EXPECT_EQ(r.result_hash, oracle.hash());
      if (combo.algorithm == Algorithm::kTwigStack) {
        ts_scanned[combo.scheme] = r.stats.entries_scanned;
      }
      if (combo.algorithm == Algorithm::kViewJoin) {
        // ListCombos puts every TwigStack combination first.
        ASSERT_EQ(ts_scanned.count(combo.scheme), 1u);
        EXPECT_LE(r.stats.entries_scanned, ts_scanned[combo.scheme]);
      }
      if (combo.algorithm != Algorithm::kInterJoin &&
          AllEdgesDescendant(query) && r.stats.drained == 0) {
        EXPECT_EQ(r.stats.certified_flushes, r.stats.flushes);
        EXPECT_EQ(r.stats.filtered_lists, 0u);
      }
    }
  }
}

TEST(Fig5CountersTest, XmarkGrid) {
  std::unique_ptr<BenchContext> context = BenchContext::Xmark(0.05);
  CheckGrid(context.get(), bench::XmarkQueries());
}

TEST(Fig5CountersTest, NasaGrid) {
  std::unique_ptr<BenchContext> context = BenchContext::Nasa(20);
  CheckGrid(context.get(), bench::NasaQueries());
}

}  // namespace
}  // namespace viewjoin
