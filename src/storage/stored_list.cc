#include "storage/stored_list.h"

#include <algorithm>

namespace viewjoin::storage {

void ListCursor::EnsureBlock(EntryIndex i) const {
  VJ_DCHECK(list_ != nullptr && i < list_->count);
  if (block_.valid && i >= block_.first && i < block_.first + block_.count) {
    return;
  }
  const uint32_t page = list_->PageIndexOf(i);
  const DecodeKey key = list_->DecodeKeyOf(page);
  pin_ = pool_->GetDecoded(list_->pages[page], key, &block_.scratch);
  const uint32_t* values = pin_.values();
  const size_t labels = static_cast<size_t>(key.records) * key.layout.label_count;
  block_.valid = true;
  block_.first = key.first_entry;
  block_.count = key.records;
  block_.starts = values;
  block_.ends = values + labels;
  block_.levels = values + 2 * labels;
  block_.pointers = key.layout.has_pointers ? values + 3 * labels : nullptr;
  MaybeReadAhead(page);
}

void ListCursor::MaybeReadAhead(uint32_t page) const {
  const size_t depth = pool_->read_ahead_depth();
  if (depth == 0) return;
  const uint32_t pages = list_->PageSpan();
  uint32_t end = page + 1 + static_cast<uint32_t>(depth);
  if (end > pages) end = pages;
  for (uint32_t p = std::max(page + 1, prefetch_edge_); p < end; ++p) {
    pool_->Prefetch(list_->pages[p], list_->DecodeKeyOf(p));
  }
  if (end > prefetch_edge_) prefetch_edge_ = end;
}

}  // namespace viewjoin::storage
