#ifndef VIEWJOIN_ALGO_OUTPUT_PASS_H_
#define VIEWJOIN_ALGO_OUTPUT_PASS_H_

#include <algorithm>
#include <vector>

#include "algo/candidate_enumerator.h"
#include "algo/monotone_resolver.h"
#include "algo/query_binding.h"
#include "algo/query_context.h"
#include "tpq/pattern.h"
#include "xml/label.h"

namespace viewjoin::algo {

/// The output pass TwigStack and ViewJoin share at every flush: each
/// buffered candidate label is resolved to its document node once (the
/// monotone resolver's forward scan over the per-tag start index), the
/// (label, node) pairs are collected per query node, and the candidate
/// enumerator semi-join-filters them in place and emits the matches.
///
/// Usage per flush: Resolve() every query node's buffered labels, release
/// the caller's buffers, then Enumerate(). One pass serves one evaluation;
/// its lists keep their capacity across flushes.
class OutputPass {
 public:
  explicit OutputPass(const QueryBinding& binding);

  /// Resolves query node `q`'s buffered entries, in ascending start order;
  /// `label_of(entry)` yields an entry's label. A label that resolves to no
  /// document node can only come from a corrupt or poisoned page: it is
  /// dropped here, before the semi-join, so it can keep no ancestor alive
  /// (the engine sees the latched storage error and discards the run).
  /// Returns false once `ctx` aborts.
  template <typename Entry, typename LabelOf>
  bool Resolve(size_t q, const std::vector<Entry>& entries, LabelOf label_of,
               QueryContext* ctx) {
    std::vector<Candidate>& list = lists_[q];
    list.reserve(list.size() + entries.size());
    // Governed a block at a time: the same checkpoint cadence as one
    // Checkpoint() per label, without it in the inner loop.
    for (size_t done = 0; done < entries.size();) {
      const size_t block = std::min<size_t>(entries.size() - done,
                                            QueryContext::kCheckInterval);
      if (ctx->CheckpointN(static_cast<uint32_t>(block))) return false;
      for (size_t i = done; i < done + block; ++i) {
        const xml::Label& label = label_of(entries[i]);
        xml::NodeId n = resolver_.Resolve(static_cast<int>(q), label.start);
        if (n != xml::kInvalidNode) list.push_back(Candidate{label, n});
      }
      done += block;
    }
    return true;
  }

  bool Resolve(size_t q, const std::vector<xml::Label>& labels,
               QueryContext* ctx) {
    auto identity = [](const xml::Label& l) -> const xml::Label& { return l; };
    return Resolve(q, labels, identity, ctx);
  }

  /// Enumerates the matches among the resolved candidates into `sink` and
  /// empties the lists for the next flush. Returns false, emitting nothing,
  /// when no label resolved at all (nothing was flushed).
  bool Enumerate(tpq::MatchSink* sink, QueryContext* ctx);

 private:
  MonotoneResolver resolver_;
  CandidateEnumerator enumerator_;
  CandidateLists lists_;
};

}  // namespace viewjoin::algo

#endif  // VIEWJOIN_ALGO_OUTPUT_PASS_H_
