#include "storage/stored_list.h"

#include <algorithm>
#include <cstring>

#include "storage/list_codec.h"

namespace viewjoin::storage {

void ListCursor::EnsureBlock(EntryIndex i, uint32_t wanted) const {
  VJ_DCHECK(list_ != nullptr && i < list_->count);
  const RecordLayout& layout = list_->layout;
  const uint32_t slots = layout.PointerSlots();
  if (!(block_.valid && i >= block_.first && i < block_.first + block_.count)) {
    // Land on the page holding `i`. Fixed pages decode nothing yet; delta
    // pages arrive decoded (varints have no random access).
    const uint32_t page = list_->PageIndexOf(i);
    block_.first = list_->FirstEntryOfPage(page);
    block_.count = list_->RecordsOnPage(page);
    block_.point_reads = 0;
    block_.valid = true;
    if (list_->format == ListFormat::kDelta) {
      pin_ = pool_->GetDecoded(list_->pages[page], list_->DecodeKeyOf(page),
                               &block_.scratch);
      const uint32_t* values = pin_.values();
      const size_t labels =
          static_cast<size_t>(block_.count) * layout.label_count;
      block_.starts = values;
      block_.ends = values + labels;
      block_.levels = values + 2 * labels;
      block_.pointers = slots > 0 ? values + 3 * labels : nullptr;
      block_.fields = kAllBlockFields;
      MaybeReadAhead(page);
      return;
    }
    block_.fields = 0;
    pin_ = pool_->GetPage(list_->pages[page]);
    MaybeReadAhead(page);
  }
  uint32_t missing = wanted & ~block_.fields;
  if (missing == 0) return;
  const size_t labels = static_cast<size_t>(block_.count) * layout.label_count;
  // De-interleave the requested field classes of the fixed page into their
  // scratch arrays — one strided pass per array, only for arrays actually
  // wanted. A poison page (pool read failure) is 0xFF-filled, which these
  // passes faithfully decode into 0xFFFFFFFF sentinels.
  if (block_.fields == 0) {
    // First decode on this page: lay the arrays out over the scratch.
    block_.scratch.resize(DecodedValues(layout, block_.count));
  }
  uint32_t* values = block_.scratch.data();
  block_.starts = values;
  block_.ends = values + labels;
  block_.levels = values + 2 * labels;
  block_.pointers = slots > 0 ? values + 3 * labels : nullptr;
  const uint8_t* payload = pin_.data();
  const uint32_t record_size = layout.RecordSize();
  const uint32_t n = block_.count;
  for (uint32_t field = kStartsField; field <= kLevelsField; field <<= 1) {
    if ((missing & field) == 0) continue;
    const uint32_t base =
        field == kStartsField ? 0u : field == kEndsField ? 4u : 8u;
    uint32_t* out = values + (base / 4) * labels;
    for (uint32_t r = 0; r < n; ++r) {
      const uint8_t* rec = payload + static_cast<size_t>(r) * record_size;
      for (uint32_t k = 0; k < layout.label_count; ++k) {
        std::memcpy(&out[r * layout.label_count + k], rec + 12 * k + base, 4);
      }
    }
  }
  if ((missing & kPointersField) != 0 && slots > 0) {
    uint32_t* out = values + 3 * labels;
    for (uint32_t r = 0; r < n; ++r) {
      const uint8_t* rec = payload + static_cast<size_t>(r) * record_size;
      for (uint32_t s = 0; s < slots; ++s) {
        std::memcpy(&out[r * slots + s],
                    rec + 12 * layout.label_count + 4 * s, 4);
      }
    }
  }
  block_.fields |= wanted;
}

xml::Label ListCursor::LabelAtSlow(uint32_t k) const {
  EnsureBlock(index_, 0);
  if ((block_.fields & kLabelFields) != kLabelFields) {
    // Undecoded fixed page: read the one record directly until the page has
    // seen enough traffic to be worth de-interleaving.
    if (block_.point_reads < kDecodeAfterPointReads) {
      ++block_.point_reads;
      uint32_t off = index_ - block_.first;
      return {FixedFieldAt(off, 12 * k), FixedFieldAt(off, 12 * k + 4),
              FixedFieldAt(off, 12 * k + 8)};
    }
    EnsureBlock(index_, kLabelFields);
  }
  uint32_t slot = (index_ - block_.first) * list_->layout.label_count + k;
  return {block_.starts[slot], block_.ends[slot], block_.levels[slot]};
}

void ListCursor::MaybeReadAhead(uint32_t page) const {
  const size_t depth = pool_->read_ahead_depth();
  if (depth == 0) return;
  const uint32_t pages = list_->PageSpan();
  uint32_t end = page + 1 + static_cast<uint32_t>(depth);
  if (end > pages) end = pages;
  for (uint32_t p = std::max(page + 1, prefetch_edge_); p < end; ++p) {
    if (list_->format == ListFormat::kDelta) {
      pool_->Prefetch(list_->pages[p], list_->DecodeKeyOf(p));
    } else {
      pool_->Prefetch(list_->pages[p]);
    }
  }
  if (end > prefetch_edge_) prefetch_edge_ = end;
}

uint32_t ListCursor::StartAt(EntryIndex i) const {
  if (mem_labels_ != nullptr) return mem_labels_[i].start;
  EnsureBlock(i, 0);
  if ((block_.fields & kStartsField) != 0) {
    return block_.starts[(i - block_.first) * list_->layout.label_count];
  }
  return FixedFieldAt(i - block_.first, 0);
}

uint32_t ListCursor::EndAt(EntryIndex i) const {
  if (mem_labels_ != nullptr) return mem_labels_[i].end;
  EnsureBlock(i, 0);
  if ((block_.fields & kEndsField) != 0) {
    return block_.ends[(i - block_.first) * list_->layout.label_count];
  }
  return FixedFieldAt(i - block_.first, 4);
}

}  // namespace viewjoin::storage
