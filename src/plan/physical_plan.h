#ifndef VIEWJOIN_PLAN_PHYSICAL_PLAN_H_
#define VIEWJOIN_PLAN_PHYSICAL_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/holistic_stats.h"
#include "plan/algorithm.h"
#include "storage/materialized_view.h"

namespace viewjoin::plan {

/// Kind of one physical plan step. A plan is a short, fixed pipeline — the
/// interesting planning decisions (algorithm, scheme, view set) are encoded
/// in the step details, not in the plan shape.
enum class StepKind {
  kResolveCover,    // quarantine redirects + (kAuto) cover/scheme selection
  kEvalSegments,    // segment evaluation: the operator's getNext machinery
  kExtendOutput,    // extension walk + match enumeration (output pass)
  kSpill,           // disk-mode intermediate-solution spill traffic
  kVerifyFallback,  // fault verification, quarantine/rebuild, base fallback
};

const char* StepKindName(StepKind kind);

/// Runtime counters of one executed plan step. The engine guarantees that
/// over a finished RunResult the step columns sum exactly to the run totals:
/// Σ elapsed_ms = total_ms, Σ pages_read = io.pages_read, Σ pages_decoded =
/// io.pages_decoded, Σ entries_advanced = stats.entries_scanned,
/// Σ pointer_jumps = stats.pointer_jumps. Residual work that cannot be
/// attributed to a measured step (retry bookkeeping, quarantine/rebuild, the
/// base-document fallback) lands in kVerifyFallback.
struct StepStats {
  double elapsed_ms = 0;
  uint64_t pages_read = 0;
  uint64_t pages_decoded = 0;
  uint64_t entries_advanced = 0;
  uint64_t pointer_jumps = 0;

  StepStats& operator+=(const StepStats& other) {
    elapsed_ms += other.elapsed_ms;
    pages_read += other.pages_read;
    pages_decoded += other.pages_decoded;
    entries_advanced += other.entries_advanced;
    pointer_jumps += other.pointer_jumps;
    return *this;
  }
};

/// One step of a physical plan: its kind, a human-readable detail line
/// (algorithm, views, schemes, estimated cost) and, after execution, its
/// measured stats.
struct PlanStep {
  StepKind kind = StepKind::kEvalSegments;
  std::string detail;
  StepStats stats;
};

/// The typed execution plan for one query: the resolved algorithm (never
/// kAuto), the covering views in use, the output mode, and the step pipeline.
/// Built by the Planner, which renders it once into `text` for EXPLAIN;
/// interpreted by Engine::ExecuteInternal.
struct PhysicalPlan {
  Algorithm algorithm = Algorithm::kViewJoin;
  algo::OutputMode mode = algo::OutputMode::kMemory;
  /// Covering views after quarantine redirect (and, under kAuto, after
  /// cover/scheme selection). Owned by the catalog; valid for its lifetime.
  std::vector<const storage::MaterializedView*> views;
  std::vector<PlanStep> steps;
  /// Estimated cost (entry units) of the chosen alternative; 0 when the
  /// algorithm was forced and no costing ran.
  double estimated_cost = 0;
  /// Cache bookkeeping: the key this plan was stored under.
  uint64_t query_fingerprint = 0;
  uint64_t catalog_epoch = 0;
  /// ToString() as of planning time, so a run copies it instead of
  /// rendering it again.
  std::string text;

  /// Renders the plan tree without stats, e.g.
  ///   Plan [VJ, memory] cost=412 views=2
  ///     -> resolve-cover    views: //a//b (LE), //c (LE)
  ///     -> eval-segments    VJ over Q' {a} {c}
  ///     -> extend-output    2 removed nodes via pointers
  ///     -> verify-fallback  quarantine+rebuild, base TwigStack if exhausted
  std::string ToString() const;
};

/// What the engine hands back for EXPLAIN: the resolved plan description plus
/// (when the query actually ran) the measured per-step stats. RunResult
/// carries one of these for every executed query.
struct ExplainResult {
  Algorithm algorithm = Algorithm::kViewJoin;
  bool from_cache = false;
  double estimated_cost = 0;
  /// Plan rendering (PhysicalPlan::text).
  std::string text;
  /// Steps with measured stats (empty until the query has executed).
  std::vector<PlanStep> steps;

  /// Renders text plus a per-step stats table.
  std::string ToString() const;
};

}  // namespace viewjoin::plan

#endif  // VIEWJOIN_PLAN_PHYSICAL_PLAN_H_
