#include "xml/statistics.h"

#include "util/check.h"

namespace viewjoin::xml {

DocumentStatistics DocumentStatistics::Collect(const Document& doc) {
  DocumentStatistics stats;
  if (doc.Root() != kInvalidNode) stats.ApplySubtree(doc, doc.Root(), +1);
  return stats;
}

void DocumentStatistics::ApplySubtree(const Document& doc, NodeId root,
                                      int sign) {
  VJ_CHECK(sign == 1 || sign == -1) << "sign must be +1 or -1";
  // Counters are unsigned; subtracting a subtree that was added earlier
  // never takes one below zero.
  auto add = [sign](uint64_t& slot, uint64_t amount) {
    slot = sign > 0 ? slot + amount : slot - amount;
  };
  if (tag_counts_.size() < doc.TagCount()) {
    tag_counts_.resize(doc.TagCount(), 0);
  }

  // DFS carrying, per tag, the number of currently open ancestors, plus the
  // distinct open tags in order of their outermost open node. For node n
  // with tag t at depth d:
  //   * tag count and depth stats update directly;
  //   * pc pair (tag(parent), t) moves by 1;
  //   * ad pairs (a, t) move by open[a] for every open ancestor tag a, and
  //     the distinct count (a, t) by 1.
  // A tag's count drops to zero only when its outermost open node closes,
  // after every tag opened inside that node already dropped out, so the
  // distinct open tags form a stack.
  std::vector<uint64_t> open(doc.TagCount(), 0);
  std::vector<TagId> open_tags;
  // Preload the ancestors of `root`, outermost first.
  std::vector<TagId> path;
  for (NodeId a = doc.Parent(root); a != kInvalidNode; a = doc.Parent(a)) {
    path.push_back(doc.NodeTag(a));
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (open[*it]++ == 0) open_tags.push_back(*it);
  }

  struct Frame {
    NodeId node;
    NodeId next_child;
  };
  std::vector<Frame> stack;

  auto enter = [&](NodeId n) {
    TagId t = doc.NodeTag(n);
    add(node_count_, 1);
    add(tag_counts_[t], 1);
    uint32_t depth = doc.NodeLabel(n).level;
    add(depth_sum_, depth);
    if (depth >= depth_histogram_.size()) depth_histogram_.resize(depth + 1);
    add(depth_histogram_[depth], 1);
    NodeId parent = doc.Parent(n);
    if (parent != kInvalidNode) {
      add(pc_pairs_[Key(doc.NodeTag(parent), t)], 1);
    }
    for (TagId a : open_tags) {
      AdCounts& counts = ad_[Key(a, t)];
      add(counts.pairs, open[a]);
      add(counts.distinct, 1);
    }
    if (open[t]++ == 0) open_tags.push_back(t);
  };
  auto leave = [&](NodeId n) {
    TagId t = doc.NodeTag(n);
    if (--open[t] == 0) {
      VJ_DCHECK(open_tags.back() == t);
      open_tags.pop_back();
    }
  };

  stack.push_back({root, doc.FirstChild(root)});
  enter(root);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == kInvalidNode) {
      leave(top.node);
      NodeId finished = top.node;
      stack.pop_back();
      if (!stack.empty()) {
        stack.back().next_child = doc.NextSibling(finished);
      }
      continue;
    }
    NodeId child = top.next_child;
    enter(child);
    stack.push_back({child, doc.FirstChild(child)});
  }

  while (!depth_histogram_.empty() && depth_histogram_.back() == 0) {
    depth_histogram_.pop_back();
  }
}

uint64_t DocumentStatistics::TagCount(TagId tag) const {
  if (tag == kInvalidTag || tag >= tag_counts_.size()) return 0;
  return tag_counts_[tag];
}

uint64_t DocumentStatistics::PcPairCount(TagId parent, TagId child) const {
  if (parent == kInvalidTag || child == kInvalidTag) return 0;
  auto it = pc_pairs_.find(Key(parent, child));
  return it == pc_pairs_.end() ? 0 : it->second;
}

DocumentStatistics::AdCounts DocumentStatistics::Ad(TagId ancestor,
                                                    TagId descendant) const {
  if (ancestor == kInvalidTag || descendant == kInvalidTag) return {};
  auto it = ad_.find(Key(ancestor, descendant));
  return it == ad_.end() ? AdCounts{} : it->second;
}

}  // namespace viewjoin::xml
