#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>

#include "algo/query_binding.h"
#include "core/segmented_query.h"
#include "storage/pager.h"
#include "storage/stored_list.h"
#include "tpq/subpattern.h"
#include "view/cardinality.h"
#include "view/cost_model.h"

namespace viewjoin::plan {

using storage::MaterializedView;
using storage::Scheme;
using tpq::TreePattern;

namespace {

// ---- Cost constants (entry units) ------------------------------------------
//
// Calibrated against BENCH_plan.json on the Fig. 5 path/twig workloads: the
// absolute values are arbitrary, only the ratios matter for the argmin.

/// Per-entry scan weight of each scheme: wider records cost more pages for
/// the same |L_q| (paper Table IV — LE stores all pointers, LE_p only child
/// + far pointers, E none). Scanning a kept list touches every entry no
/// matter the scheme, so pointers only ever add width here; their payoff is
/// the removed-node terms below.
double WidthFactor(Scheme scheme) {
  switch (scheme) {
    case Scheme::kElement:
      return 1.0;
    case Scheme::kTuple:
      return 1.0;
    case Scheme::kLinkedElement:
      return 1.35;
    case Scheme::kLinkedElementPartial:
      return 1.2;
  }
  return 1.0;
}

bool HasPointers(Scheme scheme) {
  return scheme == Scheme::kLinkedElement ||
         scheme == Scheme::kLinkedElementPartial;
}

/// Measured scan-width ratio of one stored list against the 12-byte E
/// record: pages it actually occupies × page size ÷ entry count. Unlike the
/// scheme constants this sees the on-disk format — a delta-compressed LE
/// list can scan *cheaper* per entry than an uncompressed E list — and the
/// one-page floor correctly prices tiny lists as one page read. Falls back
/// to the scheme constant for empty or memory-backed lists.
double MeasuredWidthFactor(const MaterializedView* view, int vn,
                           Scheme scheme) {
  const storage::StoredList& list = view->list(vn);
  if (list.count == 0 || list.PageSpan() == 0) return WidthFactor(scheme);
  double per_entry = static_cast<double>(list.PageSpan()) *
                     storage::Pager::kPageSize /
                     static_cast<double>(list.count);
  return std::max(0.25, per_entry / 12.0);
}

/// Residency surcharge of one stored list: a list whose first page is not
/// cached scans cold — every block landing is a synchronous page read —
/// while a resident list is mostly a memory walk. Probing only the first
/// page is deliberate: sequential scans either find the whole list warm or
/// fault it in from the front, so the head page is a faithful proxy.
/// Background read-ahead overlaps the cold reads with decode/join work and
/// shrinks (without erasing) the penalty.
double ColdFactor(storage::BufferPool* pool, const MaterializedView* view,
                  int vn, size_t readahead_pages) {
  constexpr double kColdScan = 1.4;       // synchronous read per block landing
  constexpr double kColdReadAhead = 1.1;  // reads overlapped by the IO thread
  const storage::StoredList& list = view->list(vn);
  if (pool == nullptr || list.count == 0 || list.PageSpan() == 0) return 1.0;
  if (pool->Contains(list.pages.front())) return 1.0;
  return readahead_pages > 0 ? kColdReadAhead : kColdScan;
}

/// CPU weight of one inter-view structural comparison, per entry of the
/// SMALLER edge side: the interleaving check advances the sparser list and
/// probes the denser one, so its cost tracks min(|L_parent|, |L_child|).
/// Fitted on the one-edge NASA paths, where VJ's measured overhead over TS
/// is 9% (N1: min side 13% of volume), 26% (N2: 40%) and 20% (N3: 19%).
constexpr double kInterViewEdgeCpu = 0.65;
/// Far-pointer skipping on a kept list only pays when the entries that
/// survive the full query's constraints are rare — the effective scan is
/// min(len, est_qualifying·kSkipCost + anchors·kSkipFanout), where
/// est_qualifying is the cardinality estimate of the node under the whole
/// query (each retained entry is reached by a pointer chase, hence the
/// kSkipCost weight) and the second term charges the jump overhead per
/// anchor region. Raw anchor count alone is the wrong gate: a one-entry
/// //site anchor spans the whole document, so nothing under it is skippable
/// even though the anchor is tiny (XMark Q6), and a 2× reduction (XMark Q1)
/// is eaten by the chase overhead — only order-of-magnitude skew like N8's
/// 236 description anchors over a 107k-entry //para list wins outright.
/// Cursors gallop over fence keys and binary-search inside one decoded page
/// per landing, so a pointer-directed skip costs O(log) probes rather than
/// per-entry stepping; both weights are calibrated for that.
constexpr double kSkipCost = 1.6;
constexpr double kSkipFanout = 4.0;
/// Per-anchor-entry weight of recovering a removed trunk node through child
/// pointers in the output pass: every surviving segment match chases and
/// enumerates, which costs well more than scanning the dropped list would
/// have unless that list dwarfs its anchor.
constexpr double kExtensionPointer = 2.5;
/// Per-anchor-entry weight of verifying a removed branch predicate through
/// pointers: an existence probe with early exit, much cheaper than trunk
/// enumeration.
constexpr double kBranchVerify = 0.5;
/// Per-tuple weight of InterJoin's binary-join cascade growth per extra view.
constexpr double kInterJoinGrowth = 0.5;

// ---- Candidate bookkeeping -------------------------------------------------

/// One distinct view pattern usable for the query, with every scheme the
/// catalog has it materialized in.
struct Candidate {
  const MaterializedView* representative = nullptr;  // caller's instance
  tpq::PatternMapping mapping;                       // view node -> query node
  std::vector<std::pair<Scheme, const MaterializedView*>> schemes;
  double paper_cost = 0;  // c(v,Q), λ=1 — the greedy's denominator

  const MaterializedView* WithScheme(Scheme want) const {
    for (const auto& [scheme, view] : schemes) {
      if (scheme == want) return view;
    }
    return nullptr;
  }
};

std::string DescribeViews(
    const std::vector<const MaterializedView*>& views) {
  std::ostringstream out;
  out << "views:";
  for (const MaterializedView* v : views) {
    out << " " << v->pattern().ToString() << " ("
        << storage::SchemeName(v->scheme()) << ")";
  }
  if (views.empty()) out << " (none)";
  return out.str();
}

/// Fills the fixed step pipeline for a resolved plan. Eval/extension details
/// use the segmented query when the views bind (best effort — a failing bind
/// keeps its error for Operator::Open, the plan just stays less descriptive).
void BuildSteps(const PlannerInput& in, PhysicalPlan* plan) {
  plan->steps.clear();
  PlanStep resolve;
  resolve.kind = StepKind::kResolveCover;
  resolve.detail = DescribeViews(plan->views);
  plan->steps.push_back(std::move(resolve));

  PlanStep eval;
  eval.kind = StepKind::kEvalSegments;
  PlanStep extend;
  extend.kind = StepKind::kExtendOutput;
  extend.detail = "match enumeration";
  std::ostringstream detail;
  detail << AlgorithmName(plan->algorithm);
  if (plan->algorithm == Algorithm::kViewJoin && in.doc != nullptr) {
    std::optional<algo::QueryBinding> binding =
        algo::QueryBinding::Bind(*in.doc, *in.query, plan->views);
    if (binding.has_value()) {
      core::SegmentedQuery sq = core::BuildSegmentedQuery(*binding);
      detail << " over Q' " << sq.ToString(*in.query) << " ("
             << sq.inter_view_edges << " inter-view edges)";
      std::ostringstream ext;
      ext << sq.removed.size() << " removed node"
          << (sq.removed.size() == 1 ? "" : "s") << " + enumeration";
      extend.detail = ext.str();
    }
  } else if (plan->algorithm == Algorithm::kInterJoin) {
    detail << " binary-join cascade over " << plan->views.size()
           << " tuple list" << (plan->views.size() == 1 ? "" : "s");
    extend.detail = "interleaving verification + enumeration";
  } else {
    detail << " over " << plan->views.size() << " view"
           << (plan->views.size() == 1 ? "" : "s");
  }
  eval.detail = detail.str();
  plan->steps.push_back(std::move(eval));
  plan->steps.push_back(std::move(extend));

  if (plan->mode == algo::OutputMode::kDisk) {
    PlanStep spill;
    spill.kind = StepKind::kSpill;
    spill.detail = "disk-mode intermediate solutions";
    plan->steps.push_back(std::move(spill));
  }

  PlanStep verify;
  verify.kind = StepKind::kVerifyFallback;
  verify.detail = "quarantine + rebuild on fault; base TwigStack last";
  plan->steps.push_back(std::move(verify));
}

/// Greedy covering-subset selection over the candidates (paper Section V's
/// benefit rule: newly covered query nodes per unit cost), keeping the chosen
/// set type-disjoint. Returns indices into `candidates`, empty on failure.
std::vector<size_t> GreedyCover(const TreePattern& query,
                                const std::vector<Candidate>& candidates) {
  size_t nq = query.size();
  std::vector<uint8_t> covered(nq, 0);
  std::unordered_set<std::string> used_tags;
  std::vector<size_t> chosen;
  size_t covered_count = 0;
  while (covered_count < nq) {
    double best_benefit = 0;
    size_t best = candidates.size();
    size_t best_new = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const Candidate& cand = candidates[c];
      bool overlaps = false;
      for (int vn = 0; vn < static_cast<int>(cand.mapping.size()); ++vn) {
        if (used_tags.count(
                cand.representative->pattern().node(vn).tag) != 0) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) continue;
      size_t fresh = 0;
      for (int q : cand.mapping) {
        if (covered[static_cast<size_t>(q)] == 0) ++fresh;
      }
      if (fresh == 0) continue;
      double cost = cand.paper_cost > 0 ? cand.paper_cost : 1.0;
      double benefit = static_cast<double>(fresh) / cost;
      if (best == candidates.size() || benefit > best_benefit) {
        best_benefit = benefit;
        best = c;
        best_new = fresh;
      }
    }
    if (best == candidates.size()) return {};  // stuck: cannot cover
    chosen.push_back(best);
    covered_count += best_new;
    const Candidate& cand = candidates[best];
    for (int q : cand.mapping) covered[static_cast<size_t>(q)] = 1;
    for (int vn = 0; vn < static_cast<int>(cand.mapping.size()); ++vn) {
      used_tags.insert(cand.representative->pattern().node(vn).tag);
    }
  }
  return chosen;
}

/// Cost workspace for one chosen covering set: which view serves each query
/// node, the inter-view edge counts e_q, and the kept/removed partition of
/// the view-segmented query.
struct CoverShape {
  std::vector<int> view_of;     // query node -> index into chosen set
  std::vector<double> lengths;  // |L_q| per query node
  std::vector<int> eq;          // inter-view edges incident to q
  std::vector<uint8_t> kept;    // survives into Q'
  std::vector<int> children;    // query children per node (branch detection)
};

CoverShape ShapeCover(const TreePattern& query,
                      const std::vector<Candidate>& candidates,
                      const std::vector<size_t>& chosen) {
  size_t nq = query.size();
  CoverShape shape;
  shape.view_of.assign(nq, -1);
  shape.lengths.assign(nq, 0);
  shape.eq.assign(nq, 0);
  shape.kept.assign(nq, 0);
  for (size_t slot = 0; slot < chosen.size(); ++slot) {
    const Candidate& cand = candidates[chosen[slot]];
    for (int vn = 0; vn < static_cast<int>(cand.mapping.size()); ++vn) {
      int q = cand.mapping[static_cast<size_t>(vn)];
      shape.view_of[static_cast<size_t>(q)] = static_cast<int>(slot);
      shape.lengths[static_cast<size_t>(q)] =
          cand.representative->ListLength(vn);
    }
  }
  shape.children.assign(nq, 0);
  for (size_t q = 1; q < nq; ++q) {
    int p = query.node(static_cast<int>(q)).parent;
    ++shape.children[static_cast<size_t>(p)];
    if (shape.view_of[q] != shape.view_of[static_cast<size_t>(p)]) {
      ++shape.eq[q];
      ++shape.eq[static_cast<size_t>(p)];
    }
  }
  for (size_t q = 0; q < nq; ++q) {
    shape.kept[q] = (q == 0 || shape.eq[q] > 0) ? 1 : 0;
  }
  return shape;
}

}  // namespace

uint64_t Planner::EnvFingerprint(
    Algorithm algorithm, algo::OutputMode mode,
    const std::vector<const MaterializedView*>& views, bool disk_doc_mode,
    size_t readahead_pages) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](uint64_t value) {
    h ^= value + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(algorithm) + 1);
  mix(static_cast<uint64_t>(mode) + 1);
  // The out-of-core knobs shift the cold-scan pricing: a cached plan from
  // another doc mode or read-ahead depth would carry the wrong algorithm
  // choice.
  mix(disk_doc_mode ? 2 : 1);
  mix(static_cast<uint64_t>(readahead_pages) + 1);
  for (const MaterializedView* v : views) {
    mix(reinterpret_cast<uintptr_t>(v));
  }
  return h;
}

std::shared_ptr<const PhysicalPlan> Planner::Plan(const PlannerInput& in,
                                                  bool* from_cache) const {
  if (from_cache != nullptr) *from_cache = false;
  PlanCache::Key key;
  key.query_fingerprint = in.query->Fingerprint();
  key.env_fingerprint = EnvFingerprint(in.algorithm, in.mode, in.views,
                                       in.disk_doc_mode, in.readahead_pages);
  key.catalog_epoch = in.catalog != nullptr ? in.catalog->epoch() : 0;
  if (cache_ != nullptr) {
    if (std::shared_ptr<const PhysicalPlan> hit = cache_->Lookup(key)) {
      if (from_cache != nullptr) *from_cache = true;
      return hit;
    }
  }

  auto plan = std::make_shared<PhysicalPlan>();
  plan->mode = in.mode;
  plan->query_fingerprint = key.query_fingerprint;
  plan->catalog_epoch = key.catalog_epoch;

  // Quarantine redirect: stale caller pointers keep working after a view was
  // rebuilt in an earlier call.
  std::vector<const MaterializedView*> active = in.views;
  if (in.catalog != nullptr) {
    for (const MaterializedView*& v : active) {
      if (const MaterializedView* r = in.catalog->ReplacementFor(v)) v = r;
    }
  }

  if (in.algorithm != Algorithm::kAuto) {
    // Forced algorithm: pass the views through untouched so bind errors (and
    // their exact messages) surface at Operator::Open as they always did.
    plan->algorithm = in.algorithm;
    plan->views = std::move(active);
    BuildSteps(in, plan.get());
    if (cache_ != nullptr) cache_->Insert(key, plan);
    return plan;
  }

  // ---- kAuto: candidate pool = caller views + catalog scheme twins ---------
  std::vector<Candidate> candidates;
  {
    std::unordered_set<std::string> seen_patterns;
    for (const MaterializedView* v : active) {
      std::string pattern_string = v->pattern().ToString();
      if (!seen_patterns.insert(pattern_string).second) continue;
      std::optional<tpq::PatternMapping> mapping =
          tpq::SubpatternMapping(v->pattern(), *in.query);
      if (!mapping.has_value()) continue;
      Candidate cand;
      cand.representative = v;
      cand.mapping = *mapping;
      cand.schemes.emplace_back(v->scheme(), v);
      if (in.catalog != nullptr) {
        for (Scheme s : {Scheme::kElement, Scheme::kTuple,
                         Scheme::kLinkedElement,
                         Scheme::kLinkedElementPartial}) {
          if (s == v->scheme()) continue;
          if (const MaterializedView* twin =
                  in.catalog->FindView(pattern_string, s)) {
            cand.schemes.emplace_back(s, twin);
          }
        }
      }
      std::vector<uint32_t> lengths(v->pattern().size());
      for (size_t i = 0; i < lengths.size(); ++i) {
        lengths[i] = v->ListLength(static_cast<int>(i));
      }
      cand.paper_cost =
          view::ViewCost(*in.query, v->pattern(), lengths, /*lambda=*/1.0);
      candidates.push_back(std::move(cand));
    }
  }

  std::vector<size_t> chosen = GreedyCover(*in.query, candidates);
  if (chosen.empty()) {
    // No covering subset: pass through and let the binder explain why.
    plan->algorithm = Algorithm::kViewJoin;
    plan->views = std::move(active);
    BuildSteps(in, plan.get());
    if (cache_ != nullptr) cache_->Insert(key, plan);
    return plan;
  }

  CoverShape shape = ShapeCover(*in.query, candidates, chosen);

  // Estimated |L_q| under the FULL query's constraints — how many entries of
  // each kept list actually fall inside qualifying regions, the quantity
  // far-pointer skipping can shrink a scan to.
  std::vector<double> est_qualifying;
  if (in.statistics != nullptr && in.doc != nullptr) {
    est_qualifying =
        view::EstimateListLengths(*in.statistics, *in.doc, *in.query);
  }

  // ---- Cost the alternatives, choosing each view's scheme per algorithm ----

  // Inter-view condition checks don't depend on scheme choice: charge each
  // edge once, on its smaller side.
  double edge_cost = 0;
  for (size_t q = 1; q < in.query->size(); ++q) {
    int p = in.query->node(static_cast<int>(q)).parent;
    if (shape.view_of[q] != shape.view_of[static_cast<size_t>(p)]) {
      edge_cost += kInterViewEdgeCpu *
                   std::min(shape.lengths[q],
                            shape.lengths[static_cast<size_t>(p)]);
    }
  }
  // Smallest kept list per chosen view (segment anchor), and for each view
  // the smallest anchor among the OTHER views — the partner a kept list's
  // far-pointer skipping is gated on.
  std::vector<double> kept_min(chosen.size(),
                               std::numeric_limits<double>::infinity());
  for (size_t q = 0; q < in.query->size(); ++q) {
    if (shape.kept[q] != 0 && shape.view_of[q] >= 0) {
      size_t slot = static_cast<size_t>(shape.view_of[q]);
      kept_min[slot] = std::min(kept_min[slot], shape.lengths[q]);
    }
  }

  // TwigStack scans every list fully; the cheapest scheme is the narrowest.
  double cost_ts = 0;
  std::vector<const MaterializedView*> ts_views;
  // ViewJoin scans kept lists (far pointers may shrink the effective scan
  // under extreme anchor skew), pays the inter-view condition checks, and
  // recovers removed nodes in the output pass. Without pointers nothing can
  // be removed — the binder keeps the whole view in Q' — so the E variant
  // prices every node as kept.
  double cost_vj = edge_cost;
  std::vector<const MaterializedView*> vj_views;
  for (size_t slot = 0; slot < chosen.size(); ++slot) {
    const Candidate& cand = candidates[chosen[slot]];
    double best_ts = std::numeric_limits<double>::infinity();
    double best_vj = std::numeric_limits<double>::infinity();
    const MaterializedView* best_ts_view = nullptr;
    const MaterializedView* best_vj_view = nullptr;
    double anchor = std::isinf(kept_min[slot]) ? 0 : kept_min[slot];
    double partner = std::numeric_limits<double>::infinity();
    for (size_t other = 0; other < chosen.size(); ++other) {
      if (other != slot) partner = std::min(partner, kept_min[other]);
    }
    for (const auto& [scheme, view] : cand.schemes) {
      if (scheme == Scheme::kTuple) continue;  // element family only
      double ts = 0;
      double vj = 0;
      for (int vn = 0; vn < static_cast<int>(cand.mapping.size()); ++vn) {
        size_t q = static_cast<size_t>(cand.mapping[static_cast<size_t>(vn)]);
        double len = shape.lengths[q];
        double width = MeasuredWidthFactor(view, vn, scheme) *
                       ColdFactor(in.catalog != nullptr ? in.catalog->pool()
                                                        : nullptr,
                                  view, vn, in.readahead_pages);
        ts += len * width;
        if (shape.kept[q] == 0 && HasPointers(scheme)) {
          // Removed from Q': branch predicates verify cheaply with early
          // exit, trunk nodes enumerate into every output tuple.
          int parent = in.query->node(static_cast<int>(q)).parent;
          bool branch =
              parent >= 0 && shape.children[static_cast<size_t>(parent)] > 1;
          vj += anchor * (branch ? kBranchVerify : kExtensionPointer);
        } else {
          double effective = len;
          if (HasPointers(scheme) && shape.eq[q] > 0 &&
              !std::isinf(partner) && q < est_qualifying.size()) {
            effective = std::min(
                len, est_qualifying[q] * kSkipCost + partner * kSkipFanout);
          }
          vj += effective * width;
        }
      }
      if (ts < best_ts) {
        best_ts = ts;
        best_ts_view = view;
      }
      if (vj < best_vj) {
        best_vj = vj;
        best_vj_view = view;
      }
    }
    if (best_ts_view == nullptr) {
      // Tuple-only candidate: TS/VJ cannot use it; poison those alternatives.
      cost_ts = std::numeric_limits<double>::infinity();
      cost_vj = std::numeric_limits<double>::infinity();
      break;
    }
    cost_ts += best_ts;
    cost_vj += best_vj;
    ts_views.push_back(best_ts_view);
    vj_views.push_back(best_vj_view);
  }

  // InterJoin: path query over tuple-scheme path views only.
  double cost_ij = std::numeric_limits<double>::infinity();
  std::vector<const MaterializedView*> ij_views;
  if (in.query->IsPath()) {
    double tuples = 0;
    bool feasible = true;
    for (size_t c : chosen) {
      const Candidate& cand = candidates[c];
      const MaterializedView* tuple = cand.WithScheme(Scheme::kTuple);
      if (tuple == nullptr || !tuple->pattern().IsPath()) {
        feasible = false;
        break;
      }
      ij_views.push_back(tuple);
      tuples += static_cast<double>(tuple->MatchCount()) *
                static_cast<double>(tuple->pattern().size());
    }
    if (feasible && !ij_views.empty()) {
      cost_ij = tuples * (1.0 + kInterJoinGrowth *
                                    static_cast<double>(ij_views.size() - 1));
    } else {
      ij_views.clear();
    }
  }

  // Cheapest alternative wins; ties fall to TwigStack, which measures
  // fastest on tied workloads (its getNext loop has no condition-check or
  // extension machinery to set up).
  plan->algorithm = Algorithm::kTwigStack;
  plan->views = ts_views;
  plan->estimated_cost = cost_ts;
  if (cost_vj < plan->estimated_cost) {
    plan->algorithm = Algorithm::kViewJoin;
    plan->views = vj_views;
    plan->estimated_cost = cost_vj;
  }
  if (cost_ij < plan->estimated_cost) {
    plan->algorithm = Algorithm::kInterJoin;
    plan->views = ij_views;
    plan->estimated_cost = cost_ij;
  }
  if (std::isinf(plan->estimated_cost)) {
    plan->algorithm = Algorithm::kViewJoin;  // nothing costable: pass through
    plan->views = std::move(active);
    plan->estimated_cost = 0;
  }

  BuildSteps(in, plan.get());
  if (!plan->steps.empty()) {
    auto cost_str = [](double c) -> std::string {
      if (std::isinf(c)) return "n/a";
      return std::to_string(static_cast<long long>(std::llround(c)));
    };
    std::ostringstream costs;
    costs << plan->steps[0].detail << "  [auto: VJ=" << cost_str(cost_vj)
          << " TS=" << cost_str(cost_ts) << " IJ=" << cost_str(cost_ij)
          << "]";
    plan->steps[0].detail = costs.str();
  }
  if (cache_ != nullptr) cache_->Insert(key, plan);
  return plan;
}

}  // namespace viewjoin::plan
