#include "algo/candidate_enumerator.h"

#include <algorithm>

#include "util/check.h"

namespace viewjoin::algo {

using tpq::Axis;
using tpq::PatternNode;
using tpq::TreePattern;
using xml::kInvalidNode;
using xml::Label;

CandidateEnumerator::CandidateEnumerator(const xml::Document& doc,
                                         const TreePattern& pattern)
    : doc_(doc), pattern_(pattern) {}

// Candidate lists are in document order, so each query edge costs one linear
// merge with a nesting stack — no hash maps or per-candidate ancestor walks
// on the output path.
bool CandidateEnumerator::SemiJoinFilter(const CandidateLists& lists) {
  const size_t nq = pattern_.size();
  keep_.resize(nq);
  for (size_t q = 0; q < nq; ++q) keep_[q].assign(lists[q].size(), 1);
  // Bottom-up: child lists are final before their parent is processed
  // (reverse preorder), so marking uses final flags of children.
  for (int q = static_cast<int>(nq) - 1; q >= 0; --q) {
    for (int c : pattern_.node(q).children) MarkParentsWithChild(lists, q, c);
  }
  // Top-down, in place: a parent's flags are final before its children's.
  if (pattern_.node(0).incoming == Axis::kChild) {
    for (size_t i = 0; i < lists[0].size(); ++i) {
      if (lists[0][i].node != doc_.Root()) keep_[0][i] = 0;
    }
  }
  for (size_t q = 1; q < nq; ++q) {
    MarkChildrenWithParent(lists, static_cast<int>(q));
  }
  for (size_t q = 0; q < nq; ++q) {
    if (std::find(keep_[q].begin(), keep_[q].end(), 1) == keep_[q].end()) {
      return false;
    }
  }
  return true;
}

/// Bottom-up step for edge (q -> c): clear keep[q][i] unless candidate i
/// has a kept c child (pc) / descendant (ad).
void CandidateEnumerator::MarkParentsWithChild(const CandidateLists& lists,
                                               int q, int c) {
  const std::vector<Candidate>& pl = lists[static_cast<size_t>(q)];
  const std::vector<Candidate>& cl = lists[static_cast<size_t>(c)];
  const std::vector<uint8_t>& child_keep = keep_[static_cast<size_t>(c)];
  marked_.assign(pl.size(), 0);
  open_.clear();
  const Axis axis = pattern_.node(c).incoming;
  size_t i = 0;
  for (size_t j = 0; j < cl.size(); ++j) {
    if (!child_keep[j]) continue;
    const Label& child = cl[j].label;
    // Open every parent candidate starting before the child.
    while (i < pl.size() && pl[i].label.start < child.start) {
      while (!open_.empty() && pl[open_.back()].label.end < pl[i].label.start) {
        open_.pop_back();
      }
      open_.push_back(static_cast<uint32_t>(i));
      ++i;
    }
    while (!open_.empty() && pl[open_.back()].label.end < child.start) {
      open_.pop_back();
    }
    if (open_.empty()) continue;
    if (axis == Axis::kChild) {
      // The stack is a nesting chain; only its top can be the parent.
      uint32_t idx = open_.back();
      if (pl[idx].label.level + 1 == child.level) marked_[idx] = 1;
    } else {
      // Mark every open ancestor, innermost first; once a marked one is
      // hit, everything beneath it is already marked.
      for (size_t k = open_.size(); k-- > 0;) {
        if (marked_[open_[k]]) break;
        marked_[open_[k]] = 1;
      }
    }
  }
  std::vector<uint8_t>& flags = keep_[static_cast<size_t>(q)];
  for (size_t k = 0; k < flags.size(); ++k) flags[k] &= marked_[k];
}

/// Top-down step for node c with parent p: keep[c][j] stays set only if c
/// has a kept p ancestor (ad) / parent (pc).
void CandidateEnumerator::MarkChildrenWithParent(const CandidateLists& lists,
                                                 int c) {
  const int p = pattern_.node(c).parent;
  const std::vector<Candidate>& pl = lists[static_cast<size_t>(p)];
  const std::vector<Candidate>& cl = lists[static_cast<size_t>(c)];
  const std::vector<uint8_t>& parent_keep = keep_[static_cast<size_t>(p)];
  std::vector<uint8_t>& flags = keep_[static_cast<size_t>(c)];
  const Axis axis = pattern_.node(c).incoming;
  open_.clear();  // kept open parent candidates
  size_t i = 0;
  for (size_t j = 0; j < cl.size(); ++j) {
    if (!flags[j]) continue;
    const Label& child = cl[j].label;
    while (i < pl.size() && pl[i].label.start < child.start) {
      if (parent_keep[i]) {
        while (!open_.empty() &&
               pl[open_.back()].label.end < pl[i].label.start) {
          open_.pop_back();
        }
        open_.push_back(static_cast<uint32_t>(i));
      }
      ++i;
    }
    while (!open_.empty() && pl[open_.back()].label.end < child.start) {
      open_.pop_back();
    }
    flags[j] = !open_.empty() &&
               (axis != Axis::kChild ||
                pl[open_.back()].label.level + 1 == child.level);
  }
}

void CandidateEnumerator::Enumerate(CandidateLists* candidates,
                                    tpq::MatchSink* sink, QueryContext* ctx) {
  CandidateLists& lists = *candidates;
  const size_t nq = pattern_.size();
  VJ_CHECK_EQ(lists.size(), nq);
  for (const auto& list : lists) {
    if (list.empty()) return;
    VJ_DCHECK(std::is_sorted(list.begin(), list.end(),
                             [](const Candidate& a, const Candidate& b) {
                               return a.label.start < b.label.start;
                             }));
  }

  if (!SemiJoinFilter(lists)) return;
  // Compact every list to its survivors, in place.
  for (size_t q = 0; q < nq; ++q) {
    std::vector<Candidate>& list = lists[q];
    const std::vector<uint8_t>& keep = keep_[q];
    size_t kept = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      if (keep[i]) list[kept++] = list[i];
    }
    list.resize(kept);
  }

  // first[q][i]: index of the first candidate of q whose start is after
  // that of parent candidate i — the first possible strict descendant, so a
  // repeated tag never pairs a node with itself. One linear merge of the two
  // start-ordered lists computes it for every parent candidate.
  first_.resize(nq);
  for (size_t q = 1; q < nq; ++q) {
    const std::vector<Candidate>& pl =
        lists[static_cast<size_t>(pattern_.node(static_cast<int>(q)).parent)];
    const std::vector<Candidate>& cl = lists[q];
    first_[q].resize(pl.size());
    uint32_t j = 0;
    for (size_t i = 0; i < pl.size(); ++i) {
      while (j < cl.size() && cl[j].label.start <= pl[i].label.start) ++j;
      first_[q][i] = j;
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
    const Label& pl = lists[parent][chosen[parent]].label;
    const std::vector<Candidate>& ll = lists[q];
    for (size_t i = first_[q][chosen[parent]]; i < ll.size(); ++i) {
      if (ctx != nullptr && ctx->aborted()) return;
      if (ll[i].label.start > pl.end) break;
      if (pn.incoming == Axis::kChild && ll[i].label.level != pl.level + 1) {
        continue;
      }
      match[q] = ll[i].node;
      chosen[q] = static_cast<uint32_t>(i);
      self(self, q + 1);
    }
  };
  for (size_t i = 0; i < lists[0].size(); ++i) {
    if (ctx != nullptr && ctx->aborted()) return;
    match[0] = lists[0][i].node;
    chosen[0] = static_cast<uint32_t>(i);
    recurse(recurse, 1);
  }
}

}  // namespace viewjoin::algo
