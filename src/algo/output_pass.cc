#include "algo/output_pass.h"

#include <algorithm>

namespace viewjoin::algo {

namespace {

std::vector<xml::TagId> BoundTags(const QueryBinding& binding) {
  std::vector<xml::TagId> tags;
  for (size_t q = 0; q < binding.query().size(); ++q) {
    tags.push_back(binding.binding(static_cast<int>(q)).tag);
  }
  return tags;
}

bool AllEdgesDescendant(const tpq::TreePattern& query) {
  for (size_t q = 0; q < query.size(); ++q) {
    if (query.node(static_cast<int>(q)).incoming != tpq::Axis::kDescendant) {
      return false;
    }
  }
  return true;
}

}  // namespace

OutputPass::OutputPass(const QueryBinding& binding, bool pushes_proven)
    : resolver_(&binding.doc(), BoundTags(binding)),
      enumerator_(binding.doc(), binding.query()),
      lists_(binding.query().size()),
      flush_start_(pushes_proven && AllEdgesDescendant(binding.query()) ? 0
                                                                        : 1),
      unproven_(binding.query().size(), flush_start_) {}

bool OutputPass::Enumerate(tpq::MatchSink* sink, QueryContext* ctx,
                           HolisticStats* stats) {
  bool any = false;
  for (const std::vector<Candidate>& list : lists_) any |= !list.empty();
  if (any) {
    enumerator_.Enumerate(&lists_, unproven_, sink, ctx);
    const uint64_t filtered = static_cast<uint64_t>(
        std::count(unproven_.begin(), unproven_.end(), 1));
    ++stats->flushes;
    stats->filtered_lists += filtered;
    if (filtered == 0) ++stats->certified_flushes;
  }
  for (std::vector<Candidate>& list : lists_) list.clear();
  std::fill(unproven_.begin(), unproven_.end(), flush_start_);
  return any;
}

}  // namespace viewjoin::algo
