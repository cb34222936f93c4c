#include "view/cardinality.h"

#include <algorithm>

#include "util/check.h"

namespace viewjoin::view {

using tpq::Axis;
using tpq::TreePattern;
using xml::DocumentStatistics;
using xml::TagId;

namespace {

struct NodeEstimates {
  std::vector<double> sub;    // P(subtree below q matches | q's tag)
  std::vector<double> chain;  // P(ancestor chain above q matches)
  std::vector<TagId> tags;
};

NodeEstimates ComputeFractions(const DocumentStatistics& stats,
                               const xml::Document& doc,
                               const TreePattern& pattern) {
  size_t nq = pattern.size();
  NodeEstimates est;
  est.sub.assign(nq, 1.0);
  est.chain.assign(nq, 1.0);
  est.tags.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    est.tags[q] = doc.FindTag(pattern.node(static_cast<int>(q)).tag);
  }
  // Bottom-up subtree fractions (children have larger preorder indexes).
  for (int q = static_cast<int>(nq) - 1; q >= 0; --q) {
    double frac = 1.0;
    TagId tq = est.tags[static_cast<size_t>(q)];
    double count_q = static_cast<double>(stats.TagCount(tq));
    for (int c : pattern.node(q).children) {
      TagId tc = est.tags[static_cast<size_t>(c)];
      double pairs =
          pattern.node(c).incoming == Axis::kChild
              ? static_cast<double>(stats.PcPairCount(tq, tc))
              : static_cast<double>(stats.AdPairCount(tq, tc));
      double expected =
          count_q > 0 ? pairs / count_q * est.sub[static_cast<size_t>(c)] : 0;
      frac *= std::min(1.0, expected);
    }
    est.sub[static_cast<size_t>(q)] = frac;
  }
  // Top-down ancestor-chain fractions.
  for (size_t q = 1; q < nq; ++q) {
    const tpq::PatternNode& pn = pattern.node(static_cast<int>(q));
    size_t p = static_cast<size_t>(pn.parent);
    TagId tq = est.tags[q];
    TagId tp = est.tags[p];
    double count_q = static_cast<double>(stats.TagCount(tq));
    double with_parent =
        pn.incoming == Axis::kChild
            ? static_cast<double>(stats.DistinctPcChildren(tp, tq))
            : static_cast<double>(stats.DistinctAdDescendants(tp, tq));
    double frac = count_q > 0 ? with_parent / count_q : 0;
    est.chain[q] = est.chain[p] * std::min(1.0, frac);
  }
  return est;
}

}  // namespace

std::vector<double> EstimateListLengths(const DocumentStatistics& stats,
                                        const xml::Document& doc,
                                        const TreePattern& pattern) {
  NodeEstimates est = ComputeFractions(stats, doc, pattern);
  std::vector<double> lengths(pattern.size());
  for (size_t q = 0; q < pattern.size(); ++q) {
    lengths[q] = static_cast<double>(stats.TagCount(est.tags[q])) *
                 est.chain[q] * est.sub[q];
  }
  return lengths;
}

std::vector<double> EstimateUnderAncestors(const DocumentStatistics& stats,
                                           const xml::Document& doc,
                                           const TreePattern& pattern) {
  NodeEstimates est = ComputeFractions(stats, doc, pattern);
  std::vector<double> counts(pattern.size());
  for (size_t q = 0; q < pattern.size(); ++q) {
    counts[q] =
        static_cast<double>(stats.TagCount(est.tags[q])) * est.chain[q];
  }
  return counts;
}

double EstimateMatchCount(const DocumentStatistics& stats,
                          const xml::Document& doc,
                          const TreePattern& pattern) {
  NodeEstimates est = ComputeFractions(stats, doc, pattern);
  // Root matches times expected fan-out per edge.
  TagId root_tag = est.tags[0];
  double matches =
      static_cast<double>(stats.TagCount(root_tag)) * est.sub[0];
  for (size_t q = 1; q < pattern.size(); ++q) {
    const tpq::PatternNode& pn = pattern.node(static_cast<int>(q));
    TagId tp = est.tags[static_cast<size_t>(pn.parent)];
    TagId tq = est.tags[q];
    double count_p = static_cast<double>(stats.TagCount(tp));
    double pairs = pn.incoming == Axis::kChild
                       ? static_cast<double>(stats.PcPairCount(tp, tq))
                       : static_cast<double>(stats.AdPairCount(tp, tq));
    double fanout = count_p > 0 ? pairs / count_p : 0;
    // Conditioned on the parent having at least one qualifying child, the
    // per-parent fan-out is at least 1.
    matches *= std::max(fanout, pairs > 0 ? 1.0 : 0.0);
  }
  return matches;
}

}  // namespace viewjoin::view
