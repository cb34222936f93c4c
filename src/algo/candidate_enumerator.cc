#include "algo/candidate_enumerator.h"

#include <algorithm>

#include "util/check.h"

namespace viewjoin::algo {

using tpq::Axis;
using tpq::PatternNode;
using tpq::TreePattern;
using xml::kInvalidNode;
using xml::Label;
using xml::NodeId;

namespace {

/// Stack-sweep semi-joins over the candidate label lists. Candidate lists
/// are in document order, so each query edge costs one linear merge with a
/// nesting stack — no hash maps or per-candidate ancestor walks on the
/// output path.
class SemiJoinFilter {
 public:
  SemiJoinFilter(const xml::Document& doc, const TreePattern& pattern,
                 const std::vector<std::vector<NodeId>>& candidates)
      : doc_(doc), pattern_(pattern), candidates_(candidates) {
    size_t nq = pattern.size();
    labels_.resize(nq);
    for (size_t q = 0; q < nq; ++q) {
      labels_[q].reserve(candidates[q].size());
      for (NodeId n : candidates[q]) labels_[q].push_back(doc.NodeLabel(n));
    }
  }

  /// Runs both passes; returns false if some list filtered to empty.
  bool Run() {
    size_t nq = pattern_.size();
    sub_.resize(nq);
    for (int q = static_cast<int>(nq) - 1; q >= 0; --q) {
      sub_[static_cast<size_t>(q)].assign(
          labels_[static_cast<size_t>(q)].size(), 1);
    }
    // Bottom-up: child lists are final before their parent is processed
    // (reverse preorder), so marking uses final sub flags of children.
    for (int q = static_cast<int>(nq) - 1; q >= 0; --q) {
      for (int c : pattern_.node(q).children) {
        MarkParentsWithChild(q, c);
      }
    }
    top_.resize(nq);
    top_[0].resize(labels_[0].size());
    for (size_t i = 0; i < labels_[0].size(); ++i) {
      bool ok = sub_[0][i] != 0;
      if (pattern_.node(0).incoming == Axis::kChild &&
          candidates_[0][i] != doc_.Root()) {
        ok = false;
      }
      top_[0][i] = ok;
    }
    for (size_t q = 1; q < nq; ++q) {
      MarkChildrenWithParent(static_cast<int>(q));
    }
    for (size_t q = 0; q < nq; ++q) {
      bool any = false;
      for (uint8_t f : top_[q]) any |= (f != 0);
      if (!any) return false;
    }
    return true;
  }

  bool Keep(size_t q, size_t i) const { return top_[q][i] != 0; }

 private:
  /// Bottom-up step for edge (q -> c): clear sub[q][i] unless candidate i
  /// has a sub-marked c child (pc) / descendant (ad).
  void MarkParentsWithChild(int q, int c) {
    const std::vector<Label>& pl = labels_[static_cast<size_t>(q)];
    const std::vector<Label>& cl = labels_[static_cast<size_t>(c)];
    std::vector<uint8_t> marked(pl.size(), 0);
    Axis axis = pattern_.node(c).incoming;
    std::vector<size_t> open;
    size_t i = 0;
    for (size_t j = 0; j < cl.size(); ++j) {
      if (!sub_[static_cast<size_t>(c)][j]) continue;
      const Label& child = cl[j];
      // Open every parent candidate starting before the child.
      while (i < pl.size() && pl[i].start < child.start) {
        while (!open.empty() && pl[open.back()].end < pl[i].start) {
          open.pop_back();
        }
        open.push_back(i);
        ++i;
      }
      while (!open.empty() && pl[open.back()].end < child.start) {
        open.pop_back();
      }
      if (open.empty()) continue;
      if (axis == Axis::kChild) {
        // The stack is a nesting chain; only its top can be the parent.
        size_t idx = open.back();
        if (pl[idx].level + 1 == child.level) marked[idx] = 1;
      } else {
        // Mark every open ancestor, innermost first; once a marked one is
        // hit, everything beneath it is already marked.
        for (size_t k = open.size(); k-- > 0;) {
          if (marked[open[k]]) break;
          marked[open[k]] = 1;
        }
      }
    }
    std::vector<uint8_t>& flags = sub_[static_cast<size_t>(q)];
    for (size_t k = 0; k < flags.size(); ++k) flags[k] &= marked[k];
  }

  /// Top-down step for node c with parent p: top[c][j] = sub[c][j] and c has
  /// a top-marked p ancestor (ad) / parent (pc).
  void MarkChildrenWithParent(int c) {
    int p = pattern_.node(c).parent;
    const std::vector<Label>& pl = labels_[static_cast<size_t>(p)];
    const std::vector<Label>& cl = labels_[static_cast<size_t>(c)];
    Axis axis = pattern_.node(c).incoming;
    top_[static_cast<size_t>(c)].assign(cl.size(), 0);
    std::vector<size_t> open;  // top-marked open parent candidates
    size_t i = 0;
    for (size_t j = 0; j < cl.size(); ++j) {
      if (!sub_[static_cast<size_t>(c)][j]) continue;
      const Label& child = cl[j];
      while (i < pl.size() && pl[i].start < child.start) {
        if (top_[static_cast<size_t>(p)][i]) {
          while (!open.empty() && pl[open.back()].end < pl[i].start) {
            open.pop_back();
          }
          open.push_back(i);
        }
        ++i;
      }
      while (!open.empty() && pl[open.back()].end < child.start) {
        open.pop_back();
      }
      if (open.empty()) continue;
      if (axis == Axis::kChild) {
        if (pl[open.back()].level + 1 == child.level) {
          top_[static_cast<size_t>(c)][j] = 1;
        }
      } else {
        top_[static_cast<size_t>(c)][j] = 1;
      }
    }
  }

  const xml::Document& doc_;
  const TreePattern& pattern_;
  const std::vector<std::vector<NodeId>>& candidates_;
  std::vector<std::vector<Label>> labels_;
  std::vector<std::vector<uint8_t>> sub_;
  std::vector<std::vector<uint8_t>> top_;
};

}  // namespace

CandidateEnumerator::CandidateEnumerator(const xml::Document& doc,
                                         const TreePattern& pattern)
    : doc_(doc), pattern_(pattern) {}

void CandidateEnumerator::Enumerate(
    const std::vector<std::vector<NodeId>>& candidates, tpq::MatchSink* sink,
    QueryContext* ctx) const {
  size_t nq = pattern_.size();
  VJ_CHECK_EQ(candidates.size(), nq);
  for (const auto& list : candidates) {
    if (list.empty()) return;
    VJ_DCHECK(std::is_sorted(list.begin(), list.end()));
  }

  // Filtered per-node solution lists (ids + labels), document order. The
  // filter's scratch is freed before the start indices below are built.
  std::vector<std::vector<NodeId>> lists(nq);
  std::vector<std::vector<Label>> labels(nq);
  {
    SemiJoinFilter filter(doc_, pattern_, candidates);
    if (!filter.Run()) return;
    for (size_t q = 0; q < nq; ++q) {
      lists[q].reserve(candidates[q].size());
      labels[q].reserve(candidates[q].size());
      for (size_t i = 0; i < candidates[q].size(); ++i) {
        if (filter.Keep(q, i)) {
          lists[q].push_back(candidates[q][i]);
          labels[q].push_back(doc_.NodeLabel(candidates[q][i]));
        }
      }
      if (lists[q].empty()) return;
    }
  }

  // first[q][i]: index of the first candidate of q whose start is after
  // that of parent candidate i — the first possible strict descendant, so a
  // repeated tag never pairs a node with itself. One linear merge of the two
  // start-ordered lists computes it for every parent candidate.
  std::vector<std::vector<uint32_t>> first(nq);
  for (size_t q = 1; q < nq; ++q) {
    const std::vector<Label>& pl =
        labels[static_cast<size_t>(pattern_.node(static_cast<int>(q)).parent)];
    const std::vector<Label>& cl = labels[q];
    first[q].resize(pl.size());
    uint32_t j = 0;
    for (size_t i = 0; i < pl.size(); ++i) {
      while (j < cl.size() && cl[j].start <= pl[i].start) ++j;
      first[q][i] = j;
    }
  }

  // Output-sensitive enumeration (every explored branch completes). The
  // recursion carries each bound node's index into its filtered list.
  tpq::Match match(nq, kInvalidNode);
  std::vector<uint32_t> chosen(nq);
  auto recurse = [&](auto&& self, size_t q) -> void {
    if (q == nq) {
      if (ctx != nullptr && ctx->Checkpoint()) return;
      sink->OnMatch(match);
      return;
    }
    const PatternNode& pn = pattern_.node(static_cast<int>(q));
    const size_t parent = static_cast<size_t>(pn.parent);
    const Label& pl = labels[parent][chosen[parent]];
    const std::vector<Label>& ll = labels[q];
    for (size_t i = first[q][chosen[parent]]; i < ll.size(); ++i) {
      if (ctx != nullptr && ctx->aborted()) return;
      if (ll[i].start > pl.end) break;
      if (pn.incoming == Axis::kChild && ll[i].level != pl.level + 1) continue;
      match[q] = lists[q][i];
      chosen[q] = static_cast<uint32_t>(i);
      self(self, q + 1);
    }
  };
  for (size_t i = 0; i < lists[0].size(); ++i) {
    if (ctx != nullptr && ctx->aborted()) return;
    match[0] = lists[0][i];
    chosen[0] = static_cast<uint32_t>(i);
    recurse(recurse, 1);
  }
}

}  // namespace viewjoin::algo
