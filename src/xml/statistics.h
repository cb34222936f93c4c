#ifndef VIEWJOIN_XML_STATISTICS_H_
#define VIEWJOIN_XML_STATISTICS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "xml/document.h"

namespace viewjoin::xml {

/// Summary statistics of a document: per-tag counts, depth profile, and the
/// tag-pair structure counts that drive cardinality estimation for tree
/// patterns (parent-child and ancestor-descendant pair counts per tag pair).
///
/// The ancestor-descendant count `ad(a, b)` is the number of (ancestor,
/// descendant) node pairs with those tags — exactly |matches of //a//b| —
/// computed by a DFS carrying the count of open ancestors per tag.
///
/// Every counter is additive over subtrees, so the statistics stay exact
/// under live updates: ApplySubtree adds an inserted subtree's contribution
/// or subtracts a deleted one's, and Collect is that same walk over the
/// whole document.
class DocumentStatistics {
 public:
  /// Collects statistics for `doc` (O(nodes × depth) time, one DFS).
  static DocumentStatistics Collect(const Document& doc);

  /// Adds (`sign` = +1) or subtracts (`sign` = -1) the contribution of the
  /// subtree rooted at `root`, including its pairs with `root`'s ancestors.
  /// Call with +1 after Document::InsertSubtree returned `root`, and with -1
  /// after Document::DeleteSubtree(root) succeeded (tombstoned nodes keep
  /// their tags, levels and links, so the removed subtree stays walkable).
  /// O(|subtree| × depth).
  void ApplySubtree(const Document& doc, NodeId root, int sign);

  /// Live elements in the document.
  uint64_t node_count() const { return node_count_; }
  uint32_t max_depth() const {
    return depth_histogram_.empty()
               ? 0
               : static_cast<uint32_t>(depth_histogram_.size() - 1);
  }
  double average_depth() const {
    return node_count_ == 0
               ? 0
               : static_cast<double>(depth_sum_) /
                     static_cast<double>(node_count_);
  }

  /// Number of elements with this tag (0 for unknown tags).
  uint64_t TagCount(TagId tag) const;

  /// Number of (parent, child) element pairs with the given tags.
  uint64_t PcPairCount(TagId parent, TagId child) const;

  /// Number of (ancestor, descendant) element pairs with the given tags
  /// (= the exact match count of //parent//child).
  uint64_t AdPairCount(TagId ancestor, TagId descendant) const {
    return Ad(ancestor, descendant).pairs;
  }

  /// Distinct elements of tag `child` having at least one `parent`-tagged
  /// parent (pc) / ancestor (ad) — the building block of list-length
  /// estimation. Every element has exactly one parent, so the pc variant
  /// equals PcPairCount.
  uint64_t DistinctPcChildren(TagId parent, TagId child) const {
    return PcPairCount(parent, child);
  }
  uint64_t DistinctAdDescendants(TagId ancestor, TagId descendant) const {
    return Ad(ancestor, descendant).distinct;
  }

 private:
  using PairKey = uint64_t;
  static PairKey Key(TagId a, TagId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  /// Ancestor-descendant counters of one tag pair: (ancestor, descendant)
  /// node pairs, and distinct descendants with at least one such ancestor.
  struct AdCounts {
    uint64_t pairs = 0;
    uint64_t distinct = 0;
  };
  AdCounts Ad(TagId ancestor, TagId descendant) const;

  uint64_t node_count_ = 0;
  uint64_t depth_sum_ = 0;
  /// Live elements per level; trimmed so the last entry is nonzero, which
  /// keeps max_depth() exact after deletes. The planner reads only the tag
  /// and pair counts; the depth profile is kept for the bench banner and so
  /// that maintained statistics equal a fresh Collect on every accessor.
  std::vector<uint64_t> depth_histogram_;
  std::vector<uint64_t> tag_counts_;
  std::unordered_map<PairKey, uint64_t> pc_pairs_;
  std::unordered_map<PairKey, AdCounts> ad_;
};

}  // namespace viewjoin::xml

#endif  // VIEWJOIN_XML_STATISTICS_H_
