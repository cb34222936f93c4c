#include "tests/test_util.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "storage/list_codec.h"

namespace viewjoin::testing {

using tpq::Axis;
using tpq::Match;
using tpq::TreePattern;
using xml::Document;
using xml::NodeId;

Document MakeDoc(const std::string& spec) {
  Document doc;
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < spec.size() && std::isspace(static_cast<unsigned char>(spec[pos]))) {
      ++pos;
    }
  };
  int depth = 0;
  while (true) {
    skip_space();
    if (pos >= spec.size()) break;
    char c = spec[pos];
    if (c == '(') {
      ++pos;  // children of the element just opened: nothing to do, the
              // element stays open until ')'
      continue;
    }
    if (c == ')') {
      ++pos;
      doc.EndElement();
      --depth;
      continue;
    }
    size_t begin = pos;
    while (pos < spec.size() &&
           (std::isalnum(static_cast<unsigned char>(spec[pos])) ||
            spec[pos] == '_')) {
      ++pos;
    }
    VJ_CHECK(pos > begin) << "bad doc spec near offset " << begin;
    doc.StartElement(spec.substr(begin, pos - begin));
    ++depth;
    skip_space();
    if (pos < spec.size() && spec[pos] == '(') {
      // children follow; keep open.
    } else {
      doc.EndElement();
      --depth;
    }
  }
  VJ_CHECK(doc.IsComplete()) << "unbalanced doc spec";
  return doc;
}

algo::CandidateLists WithLabels(
    const xml::Document& doc,
    const std::vector<std::vector<xml::NodeId>>& node_lists) {
  algo::CandidateLists lists(node_lists.size());
  for (size_t q = 0; q < node_lists.size(); ++q) {
    for (xml::NodeId n : node_lists[q]) {
      lists[q].push_back(algo::Candidate{doc.NodeLabel(n), n});
    }
    std::sort(lists[q].begin(), lists[q].end(),
              [](const algo::Candidate& a, const algo::Candidate& b) {
                return a.label.start < b.label.start;
              });
  }
  return lists;
}

TreePattern MustParse(const std::string& xpath) {
  std::string error;
  std::optional<TreePattern> pattern = TreePattern::Parse(xpath, &error);
  VJ_CHECK(pattern.has_value()) << xpath << ": " << error;
  return *pattern;
}

std::vector<Match> BruteForceMatches(const Document& doc,
                                     const TreePattern& query) {
  size_t nq = query.size();
  std::vector<std::vector<NodeId>> candidates(nq);
  for (size_t q = 0; q < nq; ++q) {
    xml::TagId tag = doc.FindTag(query.node(static_cast<int>(q)).tag);
    if (tag == xml::kInvalidTag) return {};
    candidates[q] = doc.NodesOfTag(tag);
    if (candidates[q].empty()) return {};
  }
  std::vector<Match> result;
  Match match(nq);
  auto verify = [&](size_t q) {
    const tpq::PatternNode& pn = query.node(static_cast<int>(q));
    if (pn.parent < 0) {
      return pn.incoming != Axis::kChild || match[q] == doc.Root();
    }
    const xml::Label& pl = doc.NodeLabel(match[static_cast<size_t>(pn.parent)]);
    const xml::Label& dl = doc.NodeLabel(match[q]);
    if (!(pl.start < dl.start && dl.end < pl.end)) return false;
    if (pn.incoming == Axis::kChild && pl.level + 1 != dl.level) return false;
    return true;
  };
  // Full cartesian product with per-level verification.
  auto recurse = [&](auto&& self, size_t q) -> void {
    if (q == nq) {
      result.push_back(match);
      return;
    }
    for (NodeId n : candidates[q]) {
      match[q] = n;
      if (verify(q)) self(self, q + 1);
    }
  };
  recurse(recurse, 0);
  std::sort(result.begin(), result.end());
  return result;
}

Document RandomDoc(util::Rng* rng, int node_budget,
                   const std::vector<std::string>& tags, int max_fanout) {
  Document doc;
  int remaining = node_budget;
  auto subtree = [&](auto&& self, int depth) -> void {
    doc.StartElement(tags[rng->Uniform(tags.size())]);
    --remaining;
    if (depth < 10) {
      int64_t fanout = rng->UniformRange(0, max_fanout);
      for (int64_t i = 0; i < fanout && remaining > 0; ++i) {
        self(self, depth + 1);
      }
    }
    doc.EndElement();
  };
  // A fixed synthetic root keeps specs single-rooted.
  doc.StartElement("root0");
  while (remaining > 0) subtree(subtree, 1);
  doc.EndElement();
  return doc;
}

TreePattern RandomQuery(util::Rng* rng, int num_nodes,
                        const std::vector<std::string>& tags) {
  VJ_CHECK_LE(static_cast<size_t>(num_nodes), tags.size());
  // Sample distinct tags.
  std::vector<std::string> pool = tags;
  for (size_t i = 0; i < pool.size(); ++i) {
    std::swap(pool[i], pool[i + rng->Uniform(pool.size() - i)]);
  }
  TreePattern query;
  query.AddNode(pool[0], -1, Axis::kDescendant);
  for (int i = 1; i < num_nodes; ++i) {
    int parent = static_cast<int>(rng->Uniform(static_cast<uint64_t>(i)));
    Axis axis = rng->Bernoulli(0.3) ? Axis::kChild : Axis::kDescendant;
    query.AddNode(pool[static_cast<size_t>(i)], parent, axis);
  }
  return query;
}

std::vector<TreePattern> RandomViewPartition(util::Rng* rng,
                                             const TreePattern& query,
                                             int max_views) {
  size_t nq = query.size();
  int num_views = 1 + static_cast<int>(rng->Uniform(
                          static_cast<uint64_t>(std::min<size_t>(
                              static_cast<size_t>(max_views), nq))));
  // Assign each query node to a group; group of node 0 is 0.
  std::vector<int> group(nq);
  for (size_t q = 0; q < nq; ++q) {
    group[q] = static_cast<int>(rng->Uniform(static_cast<uint64_t>(num_views)));
  }
  // Build one view per non-empty group. Process query nodes in preorder so
  // view parents exist before children.
  std::vector<TreePattern> views(static_cast<size_t>(num_views));
  std::vector<int> view_node_of(nq, -1);
  for (size_t q = 0; q < nq; ++q) {
    int g = group[q];
    TreePattern& view = views[static_cast<size_t>(g)];
    // Find the nearest query ancestor in the same group.
    int anc = query.node(static_cast<int>(q)).parent;
    while (anc >= 0 && group[static_cast<size_t>(anc)] != g) {
      anc = query.node(anc).parent;
    }
    if (anc < 0) {
      if (!view.empty()) {
        // Second root within a group: views must be trees, so move this
        // node (and implicitly its group-descendants) to a fresh group.
        views.emplace_back();
        g = static_cast<int>(views.size()) - 1;
        group[q] = g;
      }
      view_node_of[q] = views[static_cast<size_t>(g)].AddNode(
          query.node(static_cast<int>(q)).tag, -1, Axis::kDescendant);
      continue;
    }
    // Direct query edge survives with its axis; bridged edges become ad.
    bool direct = query.node(static_cast<int>(q)).parent == anc;
    Axis axis = direct ? query.node(static_cast<int>(q)).incoming
                       : Axis::kDescendant;
    view_node_of[q] = view.AddNode(query.node(static_cast<int>(q)).tag,
                                   view_node_of[static_cast<size_t>(anc)],
                                   axis);
  }
  // Drop empty groups.
  std::vector<TreePattern> result;
  for (TreePattern& view : views) {
    if (!view.empty()) result.push_back(std::move(view));
  }
  return result;
}

storage::DecodeKey WriteTaggedPages(storage::Pager* pager, int pages) {
  const storage::RecordLayout layout{1, false, 0};
  for (int k = 0; k < pages; ++k) {
    const uint32_t fields[3] = {static_cast<uint32_t>(k),
                                static_cast<uint32_t>(k), 1};
    uint8_t record[12];
    std::memcpy(record, fields, sizeof(record));
    auto encoded = storage::EncodeDeltaList(record, 1, layout);
    VJ_CHECK(encoded.ok() && encoded->pages.size() == 1);
    auto id = pager->AllocatePage();
    VJ_CHECK(id.ok());
    VJ_CHECK(pager->WritePage(*id, encoded->pages[0].data()).ok());
  }
  return {0, 1, layout};
}

uint32_t PageTag(storage::BufferPool* pool, storage::PageId page,
                 const storage::DecodeKey& key) {
  std::vector<uint32_t> scratch;
  return pool->GetDecoded(page, key, &scratch).values()[0];
}

}  // namespace viewjoin::testing
