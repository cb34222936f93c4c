#include "algo/output_pass.h"

namespace viewjoin::algo {

namespace {

std::vector<xml::TagId> BoundTags(const QueryBinding& binding) {
  std::vector<xml::TagId> tags;
  for (size_t q = 0; q < binding.query().size(); ++q) {
    tags.push_back(binding.binding(static_cast<int>(q)).tag);
  }
  return tags;
}

}  // namespace

OutputPass::OutputPass(const QueryBinding& binding)
    : resolver_(&binding.doc(), BoundTags(binding)),
      enumerator_(binding.doc(), binding.query()),
      lists_(binding.query().size()) {}

bool OutputPass::Enumerate(tpq::MatchSink* sink, QueryContext* ctx) {
  bool any = false;
  for (const std::vector<Candidate>& list : lists_) any |= !list.empty();
  if (any) enumerator_.Enumerate(&lists_, sink, ctx);
  for (std::vector<Candidate>& list : lists_) list.clear();
  return any;
}

}  // namespace viewjoin::algo
