#ifndef VIEWJOIN_CORE_VIEW_JOIN_H_
#define VIEWJOIN_CORE_VIEW_JOIN_H_

#include <memory>

#include "algo/holistic_stats.h"
#include "algo/query_binding.h"
#include "algo/query_context.h"
#include "core/segmented_query.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "tpq/pattern.h"

namespace viewjoin::core {

/// ViewJoin (paper Section IV): holistic evaluation of a TPQ over a minimal
/// covering view set stored in the element or linked-element schemes.
///
/// Structure, following the paper's two-step design:
///
///  1. Evaluate the view-segmented query Q' (only nodes incident to
///     inter-view edges survive; usually a small fraction of Q). This runs
///     the holistic getNext/stack machinery over the view lists of the Q'
///     nodes, collecting solution candidates into the result buffer F,
///     grouped per root match. With LE/LE_p views the advance steps *skip*
///     non-solution entries: a failed node's following pointer jumps over
///     all its same-type descendants in one dereference.
///  2. At each root-group boundary, extend F to the query nodes dropped
///     from Q' by walking child pointers from their in-view anchor's
///     buffered entries (LE/LE_p) or by a single shared sequential scan of
///     their lists (E), then enumerate and emit all matches embedded in F —
///     pc-edge level checks happen here, as in the paper. On a //-only query
///     whose Q' edges are all Q edges, pushed and extended candidates are
///     proven to lie in matches, and the output pass filters only the lists
///     of drained nodes and of removed nodes extended under them (DESIGN.md
///     §6 item 3).
///
/// Safety deviations from the paper's pseudocode are documented in
/// DESIGN.md: every skip used here is provably complete (the unconstrained
/// following pointer only ever jumps a failed node's own descendants; the
/// paper's cursor realignment of descendant query nodes is omitted because
/// it can lose matches whose ancestors are still open), and the output pass
/// re-verifies all structural relations.
///
/// Works with all three list schemes; with E-scheme views all jumps
/// degenerate to sequential advances (the paper's VJ+E).
class ViewJoin {
 public:
  /// `binding` and `segmented` must outlive the ViewJoin and belong to the
  /// same query. `pool` serves list page reads.
  ViewJoin(const algo::QueryBinding* binding, const SegmentedQuery* segmented,
           storage::BufferPool* pool);

  /// Runs the join, streaming every match to `sink`. Disk output mode
  /// spills intermediate solutions through `spill` and re-reads them at
  /// group boundaries (paper Section VI-E). A non-null `ctx` governs the
  /// run: the segment getNext recursion, drains, extension walks and the
  /// output enumeration all checkpoint it and stop early once it aborts — a
  /// stopped run's partial matches must be discarded by the caller.
  void Evaluate(tpq::MatchSink* sink,
                algo::OutputMode mode = algo::OutputMode::kMemory,
                storage::Pager* spill = nullptr,
                algo::QueryContext* ctx = nullptr);

  const algo::HolisticStats& stats() const { return stats_; }
  const SegmentedQuery& segmented() const { return *segmented_; }

 private:
  class Impl;

  const algo::QueryBinding* binding_;
  const SegmentedQuery* segmented_;
  storage::BufferPool* pool_;
  algo::HolisticStats stats_;
};

}  // namespace viewjoin::core

#endif  // VIEWJOIN_CORE_VIEW_JOIN_H_
