#include "algo/inter_join.h"

#include <algorithm>

#include "algo/structural_join.h"
#include "storage/stored_list.h"
#include "tpq/subpattern.h"
#include "util/check.h"

namespace viewjoin::algo {

using storage::ListCursor;
using storage::MaterializedView;
using storage::Scheme;
using tpq::Axis;
using tpq::TreePattern;
using xml::Label;
using xml::NodeId;

namespace {

/// Structural predicate between adjacent covered positions p < q of a path
/// query: direct edge (q == p+1) uses the edge's axis; positions bridging a
/// gap still require a proper ancestor-descendant relationship.
bool PositionsSatisfied(const TreePattern& query, int p, int q,
                        const Label& lp, const Label& lq) {
  if (!(lp.start < lq.start && lq.end < lp.end)) return false;
  if (q == p + 1 && query.node(q).incoming == Axis::kChild) {
    return lp.level + 1 == lq.level;
  }
  return true;
}

}  // namespace

std::optional<InterJoin> InterJoin::Bind(
    const xml::Document& doc, const TreePattern& query,
    std::vector<const MaterializedView*> views, storage::BufferPool* pool,
    std::string* error) {
  auto fail = [error](const std::string& message) -> std::optional<InterJoin> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!query.IsPath()) {
    return fail("InterJoin handles path queries only: " + query.ToString());
  }
  std::vector<TreePattern> patterns;
  for (const MaterializedView* v : views) {
    if (v->scheme() != Scheme::kTuple) {
      return fail("InterJoin requires tuple-scheme views");
    }
    if (!v->pattern().IsPath()) {
      return fail("InterJoin requires path views: " + v->pattern().ToString());
    }
    patterns.push_back(v->pattern());
  }
  tpq::CoveringInfo covering = tpq::AnalyzeCovering(query, patterns);
  if (covering.overlapping) return fail("views overlap in element types");
  if (!covering.covers) {
    return fail("views do not cover the query " + query.ToString());
  }
  InterJoin join;
  join.doc_ = &doc;
  join.query_ = &query;
  join.views_ = std::move(views);
  join.pool_ = pool;
  for (size_t vi = 0; vi < join.views_.size(); ++vi) {
    join.mappings_.push_back(*covering.mappings[vi]);
  }
  for (size_t q = 0; q < query.size(); ++q) {
    join.tags_.push_back(doc.FindTag(query.node(static_cast<int>(q)).tag));
  }
  return join;
}

InterJoin::Relation InterJoin::LoadView(size_t view_index, QueryContext* ctx) {
  const MaterializedView* view = views_[view_index];
  const tpq::PatternMapping& mapping = mappings_[view_index];
  Relation rel;
  rel.positions.assign(mapping.begin(), mapping.end());
  // A path view's preorder equals its root-to-leaf order, and a subpattern
  // of a path query maps monotonically into query positions.
  VJ_DCHECK(std::is_sorted(rel.positions.begin(), rel.positions.end()));
  ListCursor cursor(&view->tuple_list(), pool_);
  size_t arity = rel.arity();
  rel.labels.reserve(static_cast<size_t>(view->tuple_list().count) * arity);
  // Copy each decoded page's SoA spans in one pass instead of re-entering
  // the cursor per entry and per tuple slot.
  while (!cursor.AtEnd()) {
    storage::BlockView block = cursor.CurrentBlock();
    uint32_t values = block.count * static_cast<uint32_t>(arity);
    for (uint32_t v = 0; v < values; ++v) {
      rel.labels.push_back({block.starts[v], block.ends[v], block.levels[v]});
    }
    ctx->ChargeMemory(static_cast<uint64_t>(values) * sizeof(Label));
    stats_.entries_scanned += block.count;
    cursor.Seek(block.first + block.count);
    if (ctx->CheckpointN(block.count)) break;
  }
  return rel;
}

InterJoin::Relation InterJoin::Join(const Relation& left, const Relation& right,
                                    const TreePattern& query,
                                    HolisticStats* stats, QueryContext* ctx) {
  // Anchor pair: deepest left position above the right relation's top
  // position; the query path makes it an ancestor in every final match.
  int rtop = right.positions.front();
  int anchor = -1;
  size_t anchor_slot = 0;
  for (size_t k = 0; k < left.positions.size(); ++k) {
    if (left.positions[k] < rtop) {
      anchor = left.positions[k];
      anchor_slot = k;
    }
  }
  VJ_CHECK(anchor >= 0) << "join inputs must nest under the left relation";
  Axis axis = (rtop == anchor + 1 && query.node(rtop).incoming == Axis::kChild)
                  ? Axis::kChild
                  : Axis::kDescendant;

  // The stack join needs both sides sorted on their anchor labels.
  size_t la = left.arity();
  size_t ra = right.arity();
  std::vector<size_t> lorder(left.size());
  for (size_t i = 0; i < lorder.size(); ++i) lorder[i] = i;
  std::sort(lorder.begin(), lorder.end(), [&](size_t a, size_t b) {
    return left.labels[a * la + anchor_slot].start <
           left.labels[b * la + anchor_slot].start;
  });
  std::vector<Label> anc(lorder.size());
  for (size_t i = 0; i < lorder.size(); ++i) {
    anc[i] = left.labels[lorder[i] * la + anchor_slot];
  }
  std::vector<Label> desc(right.size());
  for (size_t j = 0; j < desc.size(); ++j) desc[j] = right.labels[j * ra];

  Relation out;
  out.positions = left.positions;
  out.positions.insert(out.positions.end(), right.positions.begin(),
                       right.positions.end());
  std::vector<size_t> perm(out.positions.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    return out.positions[a] < out.positions[b];
  });
  std::vector<int> sorted_positions(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    sorted_positions[i] = out.positions[perm[i]];
  }

  std::vector<Label> combined(perm.size());
  StackTreeDesc(anc, desc, axis, [&](size_t i, size_t j) {
    // Assemble the merged tuple in ascending query-position order.
    for (size_t k = 0; k < perm.size(); ++k) {
      size_t src = perm[k];
      combined[k] = src < la ? left.labels[lorder[i] * la + src]
                             : right.labels[j * ra + (src - la)];
    }
    // Verify every adjacent covered pair (the "interleaved" constraints the
    // anchor join did not check).
    for (size_t k = 0; k + 1 < perm.size(); ++k) {
      if (!PositionsSatisfied(query, sorted_positions[k],
                              sorted_positions[k + 1], combined[k],
                              combined[k + 1])) {
        return;
      }
    }
    out.labels.insert(out.labels.end(), combined.begin(), combined.end());
    ctx->ChargeMemory(combined.size() * sizeof(Label));
    ++stats->candidates;
  }, ctx);
  out.positions = sorted_positions;
  return out;
}

void InterJoin::Evaluate(tpq::MatchSink* sink, QueryContext* ctx) {
  stats_ = HolisticStats();
  QueryContext ungoverned;
  if (ctx == nullptr) ctx = &ungoverned;
  // Left-deep join order by top covered position: start from the view
  // covering the query root.
  std::vector<size_t> order(views_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return mappings_[a].front() < mappings_[b].front();
  });
  VJ_CHECK(!order.empty());

  Relation acc = LoadView(order[0], ctx);
  VJ_CHECK_EQ(acc.positions.front(), 0);
  for (size_t step = 1;
       step < order.size() && !acc.labels.empty() && !ctx->aborted(); ++step) {
    Relation next = LoadView(order[step], ctx);
    if (ctx->aborted()) break;
    uint64_t input_bytes =
        (acc.labels.size() + next.labels.size()) * sizeof(Label);
    acc = Join(acc, next, *query_, &stats_, ctx);
    // The join inputs are freed here; only the output stays charged.
    ctx->ReleaseMemory(input_bytes);
  }
  if (ctx->aborted()) return;
  if (views_.size() == 1) {
    // Single covering view: tuples may still violate pc-edges that the view
    // stored as ad-edges; verify before emitting.
    Relation verified;
    verified.positions = acc.positions;
    size_t arity = acc.arity();
    for (size_t t = 0; t < acc.size(); ++t) {
      if (ctx->Checkpoint()) return;
      bool ok = true;
      for (size_t k = 0; k + 1 < arity && ok; ++k) {
        ok = PositionsSatisfied(*query_, acc.positions[k], acc.positions[k + 1],
                                acc.labels[t * arity + k],
                                acc.labels[t * arity + k + 1]);
      }
      if (ok) {
        verified.labels.insert(verified.labels.end(),
                               acc.labels.begin() + t * arity,
                               acc.labels.begin() + (t + 1) * arity);
      }
    }
    acc = std::move(verified);
  }

  // Emit in document order of the full tuple.
  if (acc.labels.empty()) return;
  size_t arity = acc.arity();
  VJ_CHECK_EQ(arity, query_->size());
  std::vector<size_t> emit_order(acc.size());
  for (size_t i = 0; i < emit_order.size(); ++i) emit_order[i] = i;
  std::sort(emit_order.begin(), emit_order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < arity; ++k) {
      uint32_t sa = acc.labels[a * arity + k].start;
      uint32_t sb = acc.labels[b * arity + k].start;
      if (sa != sb) return sa < sb;
    }
    return false;
  });
  tpq::Match match(arity, xml::kInvalidNode);
  for (size_t t : emit_order) {
    if (ctx->Checkpoint()) return;
    for (size_t k = 0; k < arity; ++k) {
      match[k] = doc_->FindByStart(tags_[k], acc.labels[t * arity + k].start);
      VJ_DCHECK(match[k] != xml::kInvalidNode);
    }
    sink->OnMatch(match);
  }
}

}  // namespace viewjoin::algo
