#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>

#include "algo/query_binding.h"
#include "core/segmented_query.h"
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
// One unit is TwigStack's cost of one resident list entry. The constants were
// fitted to per-query thread CPU times of every forced algorithm x scheme
// combination on the Fig. 5 queries (XMark 2 and 4, NASA 400 and 800), over
// both their PairViews covers and the single view equal to the query, warm and
// cold; only their ratios matter for the argmin.

/// Cost of one list page that is not resident in the pool: a synchronous
/// read and decode, about what scanning 136 resident entries costs.
/// Background read-ahead overlaps part of the read with the join. A resident
/// page costs nothing beyond its entries.
constexpr double kColdPage = 136;
constexpr double kColdPageReadAhead = 107;
/// ViewJoin's cost per entry of a kept list that lies inside its Q' parent's
/// regions. The joins inside a segment are precomputed in its view, so only
/// the inter-view edges are checked. Entries outside every parent region are
/// skipped in bulk and cost nothing.
constexpr double kSegmentEntry = 0.95;
/// Per entry of the smaller side of each inter-view edge: the condition check
/// ViewJoin runs where a structural join remains.
constexpr double kInterViewEdge = 0.1;
/// Per entry of a node removed from Q' and recovered in the output pass. The
/// extension walk collects the entries under each anchor without any getNext
/// machinery: by a shared monotone scan under E, by a child-pointer seek
/// under LE/LE_p, or by a galloping search when the removed node hangs from
/// its anchor by a '/' edge.
constexpr double kExtendScan = 0.65;
constexpr double kExtendPointer = 0.6;
constexpr double kExtendSeek = 0.85;
/// Per-tuple weight of InterJoin's binary-join cascade growth per extra view.
constexpr double kInterJoinGrowth = 0.5;

bool HasPointers(Scheme scheme) {
  return scheme == Scheme::kLinkedElement ||
         scheme == Scheme::kLinkedElementPartial;
}

/// Cost of reading the pages of one stored list: zero when its first page
/// is cached (sequential scans find the whole list warm or fault it in from
/// the front, so the head page is a faithful proxy), else one cold page cost
/// per page. Memory-backed and empty lists have no pages.
double PageCost(storage::BufferPool* pool, const storage::StoredList& list,
                size_t readahead_pages) {
  if (pool == nullptr || list.count == 0 || list.PageSpan() == 0) return 0;
  if (pool->Contains(list.pages.front())) return 0;
  return list.PageSpan() *
         (readahead_pages > 0 ? kColdPageReadAhead : kColdPage);
}

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
  for (size_t q = 1; q < nq; ++q) {
    int p = query.node(static_cast<int>(q)).parent;
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
    return Publish(key, std::move(plan));
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
    return Publish(key, std::move(plan));
  }

  CoverShape shape = ShapeCover(*in.query, candidates, chosen);

  // Estimated entries of each list that lie under a match of the query path
  // above them: the part of a kept list ViewJoin cannot skip in bulk.
  std::vector<double> under_ancestors;
  if (in.statistics != nullptr && in.doc != nullptr) {
    under_ancestors =
        view::EstimateUnderAncestors(*in.statistics, *in.doc, *in.query);
  }
  storage::BufferPool* pool =
      in.catalog != nullptr ? in.catalog->pool() : nullptr;

  // ---- Cost the alternatives, choosing each view's scheme per algorithm ----

  // Inter-view condition checks don't depend on scheme choice: charge each
  // edge once, on its smaller side.
  double edge_cost = 0;
  for (size_t q = 1; q < in.query->size(); ++q) {
    int p = in.query->node(static_cast<int>(q)).parent;
    if (shape.view_of[q] != shape.view_of[static_cast<size_t>(p)]) {
      edge_cost += kInterViewEdge *
                   std::min(shape.lengths[q],
                            shape.lengths[static_cast<size_t>(p)]);
    }
  }

  // TwigStack runs getNext over every entry of every list.
  double cost_ts = 0;
  std::vector<const MaterializedView*> ts_views;
  // ViewJoin runs getNext over the kept lists only, pays the inter-view
  // condition checks, and recovers the removed nodes in the output pass.
  double cost_vj = edge_cost;
  std::vector<const MaterializedView*> vj_views;
  for (size_t slot = 0; slot < chosen.size(); ++slot) {
    const Candidate& cand = candidates[chosen[slot]];
    double best_ts = std::numeric_limits<double>::infinity();
    double best_vj = std::numeric_limits<double>::infinity();
    const MaterializedView* best_ts_view = nullptr;
    const MaterializedView* best_vj_view = nullptr;
    for (const auto& [scheme, view] : cand.schemes) {
      if (scheme == Scheme::kTuple) continue;  // element family only
      double ts = 0;
      double vj = 0;
      for (int vn = 0; vn < static_cast<int>(cand.mapping.size()); ++vn) {
        size_t q = static_cast<size_t>(cand.mapping[static_cast<size_t>(vn)]);
        double len = shape.lengths[q];
        double pages = PageCost(pool, view->list(vn), in.readahead_pages);
        ts += len + pages;
        if (shape.kept[q] != 0) {
          double live = q > 0 && q < under_ancestors.size()
                            ? std::min(len, under_ancestors[q])
                            : len;
          vj += kSegmentEntry * live + pages;
        } else {
          double per_entry = kExtendScan;
          if (HasPointers(scheme)) {
            per_entry = in.query->node(static_cast<int>(q)).incoming ==
                                tpq::Axis::kChild
                            ? kExtendSeek
                            : kExtendPointer;
          }
          vj += per_entry * len + pages;
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
    double pages = 0;
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
      pages += PageCost(pool, tuple->tuple_list(), in.readahead_pages);
    }
    if (feasible && !ij_views.empty()) {
      cost_ij = tuples * (1.0 + kInterJoinGrowth *
                                    static_cast<double>(ij_views.size() - 1)) +
                pages;
    } else {
      ij_views.clear();
    }
  }

  // Cheapest alternative wins; an exact tie stays with ViewJoin.
  plan->algorithm = Algorithm::kViewJoin;
  plan->views = vj_views;
  plan->estimated_cost = cost_vj;
  if (cost_ts < plan->estimated_cost) {
    plan->algorithm = Algorithm::kTwigStack;
    plan->views = ts_views;
    plan->estimated_cost = cost_ts;
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
  return Publish(key, std::move(plan));
}

std::shared_ptr<const PhysicalPlan> Planner::Publish(
    const PlanCache::Key& key, std::shared_ptr<PhysicalPlan> plan) const {
  plan->text = plan->ToString();
  if (cache_ != nullptr) cache_->Insert(key, plan);
  return plan;
}

}  // namespace viewjoin::plan
