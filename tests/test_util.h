#ifndef VIEWJOIN_TESTS_TEST_UTIL_H_
#define VIEWJOIN_TESTS_TEST_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "algo/candidate_enumerator.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "tpq/pattern.h"
#include "util/check.h"
#include "util/rng.h"
#include "xml/document.h"

namespace viewjoin::testing {

/// Builds a document from a compact spec: "a(b(c)d)" is an `a` root with
/// children `b` (containing `c`) and `d`. Whitespace is ignored.
xml::Document MakeDoc(const std::string& spec);

/// Pairs every node of each list with its label, in document order: the
/// candidate lists CandidateEnumerator::Enumerate takes.
algo::CandidateLists WithLabels(
    const xml::Document& doc,
    const std::vector<std::vector<xml::NodeId>>& node_lists);

/// Parses an XPath or dies (test convenience).
tpq::TreePattern MustParse(const std::string& xpath);

/// Completely independent brute-force TPQ evaluator (O(n^|Q|) candidate
/// product with full verification) used to validate the NaiveEvaluator
/// oracle itself on small documents.
std::vector<tpq::Match> BruteForceMatches(const xml::Document& doc,
                                          const tpq::TreePattern& query);

/// Random element tree over `tags` with recursive same-tag nesting allowed —
/// the structure that stresses stacks and pointer skipping.
xml::Document RandomDoc(util::Rng* rng, int node_budget,
                        const std::vector<std::string>& tags, int max_fanout = 4);

/// Random TPQ over a subset of `tags` (each tag used at most once), with
/// random pc/ad edges and branching.
tpq::TreePattern RandomQuery(util::Rng* rng, int num_nodes,
                             const std::vector<std::string>& tags);

/// Random partition of `query`'s nodes into covering, type-disjoint views.
/// Each view is the subpattern induced by a node group: a group node's view
/// parent is its nearest group ancestor (pc edges survive only when the
/// query edge itself is in the group).
std::vector<tpq::TreePattern> RandomViewPartition(util::Rng* rng,
                                                  const tpq::TreePattern& query,
                                                  int max_views);

/// Appends `pages` one-record list pages to `pager`; the k-th page's record
/// has start label k (so a fresh pager's page id is its tag). Returns the
/// decode key all of them share (first entry 0, one element record).
storage::DecodeKey WriteTaggedPages(storage::Pager* pager, int pages);

/// The tag of `page` (see WriteTaggedPages), read through `pool`; the
/// 0xFFFFFFFF sentinel when the pool cannot serve the page.
uint32_t PageTag(storage::BufferPool* pool, storage::PageId page,
                 const storage::DecodeKey& key);

}  // namespace viewjoin::testing

#endif  // VIEWJOIN_TESTS_TEST_UTIL_H_
