#ifndef VIEWJOIN_VIEW_CARDINALITY_H_
#define VIEWJOIN_VIEW_CARDINALITY_H_

#include <vector>

#include "tpq/pattern.h"
#include "xml/document.h"
#include "xml/statistics.h"

namespace viewjoin::view {

/// Independence-assumption cardinality estimator for tree patterns, in the
/// System-R tradition: estimates each pattern node's solution-list length
/// |L_q| from single-pass document statistics instead of evaluating the
/// pattern.
///
///   est[q] = count(tag_q) · chain(q) · sub(q)
///
/// where `chain(q)` multiplies, along q's root path, the probability that a
/// tag_q node sits under a tag_p parent/ancestor (distinct-pair counts), and
/// `sub(q)` multiplies, over q's children, the probability that a tag_q node
/// has a qualifying child subtree (expected-count capped at 1).
///
/// Exact for single-node patterns and for the descendant side of two-node
/// patterns; the view-selection cost model only needs relative magnitudes.
std::vector<double> EstimateListLengths(const xml::DocumentStatistics& stats,
                                        const xml::Document& doc,
                                        const tpq::TreePattern& pattern);

/// Estimated number of each pattern node's tag entries that lie under a
/// match of the pattern path above it: count(tag_q) · chain(q), the ancestor
/// side of EstimateListLengths without the subtree fraction.
std::vector<double> EstimateUnderAncestors(
    const xml::DocumentStatistics& stats, const xml::Document& doc,
    const tpq::TreePattern& pattern);

/// Estimated total matches of the pattern (product along expected fan-outs;
/// a coarse figure for planning, exact for paths of length <= 2).
double EstimateMatchCount(const xml::DocumentStatistics& stats,
                          const xml::Document& doc,
                          const tpq::TreePattern& pattern);

}  // namespace viewjoin::view

#endif  // VIEWJOIN_VIEW_CARDINALITY_H_
