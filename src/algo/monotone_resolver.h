#ifndef VIEWJOIN_ALGO_MONOTONE_RESOLVER_H_
#define VIEWJOIN_ALGO_MONOTONE_RESOLVER_H_

#include <vector>

#include "xml/document.h"

namespace viewjoin::algo {

/// Resolves stored labels back to document nodes in amortized O(1): each
/// per-query-node stream of labels arrives in ascending start order (list
/// pushes, drain and extension are all monotone), so one forward pointer per
/// query node walks the document's per-tag start index exactly once per
/// evaluation. The index arrays are cached at construction; the document
/// must not change while the resolver is in use (queries hold its read
/// lock).
class MonotoneResolver {
 public:
  MonotoneResolver(const xml::Document* doc,
                   const std::vector<xml::TagId>& tags) {
    streams_.reserve(tags.size());
    for (xml::TagId tag : tags) {
      const std::vector<uint32_t>& starts = doc->StartsOfTag(tag);
      streams_.push_back(Stream{starts.data(), doc->NodesOfTag(tag).data(),
                                starts.size(), 0});
    }
  }

  /// Resolves the node of query node `q` whose label starts at `start`.
  /// `start` must be non-decreasing across calls with the same `q`.
  xml::NodeId Resolve(int q, uint32_t start) {
    Stream& s = streams_[static_cast<size_t>(q)];
    while (s.pos < s.size && s.starts[s.pos] < start) ++s.pos;
    if (s.pos < s.size && s.starts[s.pos] == start) return s.nodes[s.pos];
    return xml::kInvalidNode;
  }

 private:
  /// One query node's tag: its start index and node list (aligned), and the
  /// forward pointer into them.
  struct Stream {
    const uint32_t* starts;
    const xml::NodeId* nodes;
    size_t size;
    size_t pos;
  };
  std::vector<Stream> streams_;
};

}  // namespace viewjoin::algo

#endif  // VIEWJOIN_ALGO_MONOTONE_RESOLVER_H_
