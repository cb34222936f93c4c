#ifndef VIEWJOIN_PLAN_PLANNER_H_
#define VIEWJOIN_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "algo/holistic_stats.h"
#include "plan/algorithm.h"
#include "plan/physical_plan.h"
#include "plan/plan_cache.h"
#include "storage/materialized_view.h"
#include "tpq/pattern.h"
#include "xml/document.h"
#include "xml/statistics.h"

namespace viewjoin::plan {

/// Everything the planner consults for one query.
struct PlannerInput {
  const xml::Document* doc = nullptr;
  const tpq::TreePattern* query = nullptr;
  /// Caller-supplied covering views (pre-redirect; the planner applies
  /// quarantine replacements itself).
  std::vector<const storage::MaterializedView*> views;
  /// Catalog for replacement lookups and (kAuto) scheme-twin discovery.
  storage::ViewCatalog* catalog = nullptr;
  /// Document statistics for cardinality estimation under kAuto (optional;
  /// without them the far-pointer skip discount never engages).
  const xml::DocumentStatistics* statistics = nullptr;
  Algorithm algorithm = Algorithm::kViewJoin;
  algo::OutputMode mode = algo::OutputMode::kMemory;
  /// Out-of-core environment: whether the base document serves from a paged
  /// store, and the buffer pools' background read-ahead depth. Both shape
  /// the cost calibration (cold scans price differently) and therefore the
  /// plan-cache environment fingerprint.
  bool disk_doc_mode = false;
  size_t readahead_pages = 0;
};

/// Cost-based query planner.
///
/// A forced algorithm passes through: the plan pins that algorithm on the
/// caller's views (after quarantine redirect) and no costing runs — bind
/// errors, if any, surface at Operator::Open() with the binder's message,
/// exactly as before the plan layer existed.
///
/// Algorithm::kAuto engages planning proper (satisfying the paper's central
/// experimental question — which algorithm × scheme combination wins — per
/// query instead of per benchmark):
///   1. candidate pool = the caller's views plus their catalog twins (same
///      pattern materialized in another scheme, via ViewCatalog::FindView);
///   2. a greedy covering subset is chosen by the paper's benefit rule
///      (newly covered query nodes per unit cost, exact |L_q| from the
///      materialized lists);
///   3. per covering view the cheapest available scheme is picked (the cost
///      contributions are per-view separable), independently for the TS and
///      VJ alternatives;
///   4. TS, VJ and (for path queries over tuple-scheme path views) IJ are
///      costed in entry units and the cheapest becomes the plan.
/// When no candidate subset covers the query the caller's original views
/// pass through unchanged (the binder reports the real error at Open).
///
/// Plans are memoized in the PlanCache keyed by (query fingerprint,
/// environment fingerprint, catalog manifest epoch); see plan_cache.h.
class Planner {
 public:
  /// `cache` may be null (planning always runs).
  explicit Planner(PlanCache* cache = nullptr) : cache_(cache) {}

  /// Builds (or recalls) the plan for `input`. Never fails: un-plannable
  /// inputs yield a pass-through plan whose errors surface at Open().
  /// `*from_cache` (optional) reports whether the plan came from the cache.
  std::shared_ptr<const PhysicalPlan> Plan(const PlannerInput& input,
                                           bool* from_cache = nullptr) const;

  /// Folds algorithm, mode, view identities and the out-of-core
  /// environment (doc mode, read-ahead depth) into the cache key's
  /// environment fingerprint.
  static uint64_t EnvFingerprint(
      Algorithm algorithm, algo::OutputMode mode,
      const std::vector<const storage::MaterializedView*>& views,
      bool disk_doc_mode = false, size_t readahead_pages = 0);

 private:
  PlanCache* cache_;
};

}  // namespace viewjoin::plan

#endif  // VIEWJOIN_PLAN_PLANNER_H_
