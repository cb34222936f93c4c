#ifndef VIEWJOIN_ALGO_CANDIDATE_ENUMERATOR_H_
#define VIEWJOIN_ALGO_CANDIDATE_ENUMERATOR_H_

#include <cstdint>
#include <vector>

#include "algo/query_context.h"
#include "tpq/pattern.h"
#include "xml/document.h"

namespace viewjoin::algo {

/// One candidate solution node: the region label it was buffered with and
/// the document node that label resolved to.
struct Candidate {
  xml::Label label;
  xml::NodeId node;
};

/// Per-pattern-node candidate lists, each in document (start) order.
using CandidateLists = std::vector<std::vector<Candidate>>;

/// What a caller knows about its candidate lists.
enum class CandidateSet : uint8_t {
  /// May hold candidates that join nothing: semi-join filter them first.
  kSuperset,
  /// Every candidate is in some match built from the lists themselves
  /// (TwigStack's certified flushes), so the filter could remove nothing.
  kExact,
};

/// Shared "merge" phase of the holistic algorithms: given per-query-node
/// candidate solution nodes (document order), enumerates every embedding of
/// `pattern` whose nodes all come from the candidate lists, and streams the
/// matches to a sink.
///
/// This plays the role of TwigStack's path-solution merge and of ViewJoin's
/// output pass over the DAG F: candidates may over-approximate the true
/// solution nodes (TwigStack with pc-edges pushes non-solutions; ViewJoin
/// defers pc-level checks to output time, paper Section IV-B), so the
/// enumerator first semi-join-filters the candidates bottom-up and top-down
/// (restricted to the candidate sets) and then enumerates output-sensitively.
/// Lists the caller declares kExact skip the filter. Every structural test
/// reads the labels the candidates carry.
///
/// Candidates must be sorted in document order; every emitted match is
/// correct and complete *relative to the candidate lists*.
class CandidateEnumerator {
 public:
  CandidateEnumerator(const xml::Document& doc,
                      const tpq::TreePattern& pattern);

  /// Enumerates all matches embedded in `candidates` (indexed by pattern
  /// node). kSuperset lists are filtered in place: on return they hold only
  /// candidates that survived the semi-joins (or anything, if the call
  /// stopped early). kExact lists skip the filter and are left as they are:
  /// on exact lists it would remove nothing, and the recursion checks
  /// containment and levels itself, so the matches are the same.
  /// Scratch buffers are reused across calls, so one enumerator serves one
  /// thread. A non-null `ctx` is checkpointed inside the enumeration
  /// recursion so an output explosion cannot overshoot a deadline or
  /// cancellation by one giant call; an aborted enumeration stops
  /// mid-stream (the engine discards the run).
  void Enumerate(CandidateLists* candidates, tpq::MatchSink* sink,
                 QueryContext* ctx = nullptr,
                 CandidateSet set = CandidateSet::kSuperset);

 private:
  /// Stack-sweep semi-joins over the candidate lists, bottom-up then
  /// top-down; leaves keep_[q][i] set for the survivors. Returns false if
  /// some list filtered to empty.
  bool SemiJoinFilter(const CandidateLists& lists);
  void MarkParentsWithChild(const CandidateLists& lists, int q, int c);
  void MarkChildrenWithParent(const CandidateLists& lists, int c);

  const xml::Document& doc_;
  tpq::TreePattern pattern_;  // owned copy: callers may pass temporaries

  // Scratch, reused across edges and calls.
  std::vector<std::vector<uint8_t>> keep_;  // per candidate: still alive
  std::vector<uint8_t> marked_;             // per parent candidate of an edge
  std::vector<uint32_t> open_;              // nesting stack of an edge sweep
  std::vector<std::vector<uint32_t>> first_;
};

}  // namespace viewjoin::algo

#endif  // VIEWJOIN_ALGO_CANDIDATE_ENUMERATOR_H_
