#ifndef VIEWJOIN_ALGO_TWIG_STACK_H_
#define VIEWJOIN_ALGO_TWIG_STACK_H_

#include <vector>

#include "algo/holistic_stats.h"
#include "algo/query_binding.h"
#include "algo/query_context.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "tpq/pattern.h"

namespace viewjoin::algo {

/// Holistic twig join of Bruno, Koudas & Srivastava (SIGMOD'02), operating
/// on the element lists of a covering view set (paper baseline "TS").
///
/// The algorithm is scheme-agnostic on the read side: it scans the per-node
/// lists of E, LE or LE_p views sequentially (pointers, when present, are
/// ignored — the paper's "extended TS" processes linked-element views as
/// plain streams, paying their wider records in I/O but using no jumps).
///
/// Phase 1 is the classic getNext/stack machinery that pushes candidate
/// solution nodes; phase 2 (the path-merge) is the shared
/// CandidateEnumerator, run at every root-boundary flush. For queries with
/// only ad-edges the pushed candidates are exactly the solution nodes, so
/// such a flush skips the merge's semi-join filter (a certified flush)
/// unless the termination drain buffered entries; with pc-edges they may
/// over-approximate and the merge filters (TwigStack's documented
/// suboptimality).
///
/// On a path query this degenerates to PathStack [Bruno et al.]: a chain of
/// linked stacks — see path_stack.h.
class TwigStack {
 public:
  /// `pool` serves list page reads; `spill` is required for OutputMode::kDisk
  /// and receives intermediate solutions.
  TwigStack(const QueryBinding* binding, storage::BufferPool* pool);

  /// Runs the join, streaming every match to `sink`. A non-null `ctx`
  /// governs the run: evaluation loops checkpoint it (deadline, cancel,
  /// budgets) and stop early once it aborts — a stopped run's partial
  /// matches must be discarded by the caller.
  void Evaluate(tpq::MatchSink* sink, OutputMode mode = OutputMode::kMemory,
                storage::Pager* spill = nullptr, QueryContext* ctx = nullptr);

  const HolisticStats& stats() const { return stats_; }

 private:
  class Impl;

  const QueryBinding* binding_;
  storage::BufferPool* pool_;
  HolisticStats stats_;
};

}  // namespace viewjoin::algo

#endif  // VIEWJOIN_ALGO_TWIG_STACK_H_
