#include "tpq/evaluator.h"

#include <algorithm>

#include "util/check.h"

namespace viewjoin::tpq {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::TagId;

namespace {

/// Per-pattern-node boolean over document nodes (indexed by NodeId).
using NodeSet = std::vector<uint8_t>;

/// Computes, for every pattern node q, the set of data nodes that root a
/// match of the subtree of q (`sub`), then filters top-down to solution
/// nodes (`top`). Ancestor walks use the document's parent pointers; depth
/// is bounded by the document height.
class SolutionComputer {
 public:
  SolutionComputer(const Document& doc, const TreePattern& pattern,
                   const std::vector<TagId>& tags)
      : doc_(doc), pattern_(pattern), tags_(tags) {}

  /// Returns top[q] for all q, or empty vectors when some pattern tag is
  /// absent from the document (no matches possible).
  std::vector<NodeSet> Compute() const {
    size_t nq = pattern_.size();
    std::vector<NodeSet> sub(nq);
    for (size_t q = 0; q < nq; ++q) {
      if (tags_[q] == xml::kInvalidTag) return {};  // tag absent => no matches
    }
    // Bottom-up: reverse preorder visits children before parents.
    for (int q = static_cast<int>(nq) - 1; q >= 0; --q) {
      const PatternNode& pn = pattern_.node(q);
      sub[q].assign(doc_.NodeCount(), 1);
      // Restrict to nodes of the right tag implicitly: we only ever read
      // sub[q][d] for d of tag q; but child marking below needs explicit
      // intersection, so build it as: marked-for-every-child AND tag match.
      for (int c : pn.children) {
        NodeSet marked(doc_.NodeCount(), 0);
        Axis axis = pattern_.node(c).incoming;
        for (NodeId d : doc_.NodesOfTag(tags_[c])) {
          if (!sub[c][d]) continue;
          if (axis == Axis::kChild) {
            NodeId p = doc_.Parent(d);
            if (p != kInvalidNode && doc_.NodeTag(p) == tags_[q]) marked[p] = 1;
          } else {
            for (NodeId p = doc_.Parent(d); p != kInvalidNode;
                 p = doc_.Parent(p)) {
              if (doc_.NodeTag(p) == tags_[q]) {
                if (marked[p]) break;  // ancestors above already marked
                marked[p] = 1;
              }
            }
          }
        }
        for (NodeId d : doc_.NodesOfTag(tags_[q])) {
          sub[q][d] = sub[q][d] && marked[d];
        }
      }
    }
    // Top-down: keep only nodes whose ancestor chain matches up to the root.
    std::vector<NodeSet> top(nq);
    top[0].assign(doc_.NodeCount(), 0);
    for (NodeId d : doc_.NodesOfTag(tags_[0])) {
      if (!sub[0][d]) continue;
      if (pattern_.node(0).incoming == Axis::kChild && d != doc_.Root()) {
        continue;  // absolute '/' root step must match the document root
      }
      top[0][d] = 1;
    }
    for (size_t q = 1; q < nq; ++q) {
      const PatternNode& pn = pattern_.node(static_cast<int>(q));
      int p = pn.parent;
      top[q].assign(doc_.NodeCount(), 0);
      for (NodeId d : doc_.NodesOfTag(tags_[q])) {
        if (!sub[q][d]) continue;
        if (pn.incoming == Axis::kChild) {
          NodeId par = doc_.Parent(d);
          if (par != kInvalidNode && doc_.NodeTag(par) == tags_[p] &&
              top[p][par]) {
            top[q][d] = 1;
          }
        } else {
          for (NodeId a = doc_.Parent(d); a != kInvalidNode;
               a = doc_.Parent(a)) {
            if (doc_.NodeTag(a) == tags_[p] && top[p][a]) {
              top[q][d] = 1;
              break;
            }
          }
        }
      }
    }
    return top;
  }

 private:
  const Document& doc_;
  const TreePattern& pattern_;
  const std::vector<TagId>& tags_;
};

/// Output-sensitive enumerator over the precomputed solution sets: every
/// candidate explored extends to at least one full match, so total work is
/// proportional to the number of matches emitted.
class Enumerator {
 public:
  Enumerator(const Document& doc, const TreePattern& pattern,
             const std::vector<TagId>& tags, const std::vector<NodeSet>& top,
             MatchSink* sink)
      : doc_(doc), pattern_(pattern), tags_(tags), top_(top), sink_(sink) {
    // Solution lists per pattern node, document order.
    lists_.resize(pattern_.size());
    for (size_t q = 0; q < pattern_.size(); ++q) {
      for (NodeId d : doc_.NodesOfTag(tags_[q])) {
        if (top_[q][d]) lists_[q].push_back(d);
      }
    }
    match_.assign(pattern_.size(), kInvalidNode);
  }

  const std::vector<std::vector<NodeId>>& lists() const { return lists_; }

  void Run() {
    for (NodeId d : lists_[0]) {
      match_[0] = d;
      Recurse(1);
    }
  }

 private:
  void Recurse(size_t q) {
    if (q == pattern_.size()) {
      sink_->OnMatch(match_);
      return;
    }
    const PatternNode& pn = pattern_.node(static_cast<int>(q));
    NodeId parent_match = match_[static_cast<size_t>(pn.parent)];
    const xml::Label& pl = doc_.NodeLabel(parent_match);
    const std::vector<NodeId>& list = lists_[q];
    // Nodes strictly inside (pl.start, pl.end) are exactly the descendants;
    // the parent match itself (same start, when the tags repeat) is not.
    auto begin = std::upper_bound(
        list.begin(), list.end(), pl.start, [&](uint32_t s, NodeId n) {
          return s < doc_.NodeLabel(n).start;
        });
    for (auto it = begin; it != list.end(); ++it) {
      const xml::Label& dl = doc_.NodeLabel(*it);
      if (dl.start > pl.end) break;
      if (pn.incoming == Axis::kChild && dl.level != pl.level + 1) continue;
      match_[q] = *it;
      Recurse(q + 1);
    }
  }

  const Document& doc_;
  const TreePattern& pattern_;
  const std::vector<TagId>& tags_;
  const std::vector<NodeSet>& top_;
  MatchSink* sink_;
  std::vector<std::vector<NodeId>> lists_;
  Match match_;
};

}  // namespace

NaiveEvaluator::NaiveEvaluator(const Document& doc, const TreePattern& pattern)
    : doc_(doc), pattern_(pattern) {
  VJ_CHECK(!pattern.empty());
  tags_.reserve(pattern.size());
  for (size_t q = 0; q < pattern.size(); ++q) {
    tags_.push_back(doc.FindTag(pattern.node(static_cast<int>(q)).tag));
  }
}

void NaiveEvaluator::Evaluate(MatchSink* sink) const {
  SolutionComputer computer(doc_, pattern_, tags_);
  std::vector<NodeSet> top = computer.Compute();
  if (top.empty()) return;
  Enumerator enumerator(doc_, pattern_, tags_, top, sink);
  enumerator.Run();
}

std::vector<Match> NaiveEvaluator::Collect() const {
  CollectingSink sink;
  Evaluate(&sink);
  return sink.matches();
}

uint64_t NaiveEvaluator::Count() const {
  CountingSink sink;
  Evaluate(&sink);
  return sink.count();
}

std::vector<std::vector<NodeId>> NaiveEvaluator::SolutionNodes() const {
  SolutionComputer computer(doc_, pattern_, tags_);
  std::vector<NodeSet> top = computer.Compute();
  std::vector<std::vector<NodeId>> lists(pattern_.size());
  if (top.empty()) return lists;
  for (size_t q = 0; q < pattern_.size(); ++q) {
    for (NodeId d : doc_.NodesOfTag(tags_[q])) {
      if (top[q][d]) lists[q].push_back(d);
    }
  }
  return lists;
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end());
}

}  // namespace viewjoin::tpq
