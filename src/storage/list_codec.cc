#include "storage/list_codec.h"

#include <cstring>

#include "storage/pager.h"
#include "storage/stored_list.h"
#include "util/check.h"

namespace viewjoin::storage {
namespace {

constexpr uint32_t kPageHeaderSize = 4;  // u16 record_count + u16 flags

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Bounds-checked LEB128 decode; false on truncation or a >10-byte varint.
/// Most fields (level, small deltas) fit one byte, which skips the loop.
inline bool GetVarint(const uint8_t* payload, uint32_t limit, uint32_t* pos,
                      uint64_t* out) {
  if (*pos < limit && payload[*pos] < 0x80) {
    *out = payload[(*pos)++];
    return true;
  }
  uint64_t value = 0;
  for (uint32_t shift = 0; shift < 64; shift += 7) {
    if (*pos >= limit) return false;
    uint8_t byte = payload[(*pos)++];
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
  }
  return false;
}

/// Encodes one record's labels + pointers with `prev_start` threading
/// through; appends to `out` and advances the delta state.
void EncodeRecord(const uint8_t* rec, uint32_t index,
                  const RecordLayout& layout, uint32_t* prev_start,
                  std::vector<uint8_t>* out) {
  for (uint32_t k = 0; k < layout.label_count; ++k) {
    uint32_t start, end, level;
    std::memcpy(&start, rec + 12 * k, 4);
    std::memcpy(&end, rec + 12 * k + 4, 4);
    std::memcpy(&level, rec + 12 * k + 8, 4);
    VJ_DCHECK(end >= start);
    PutVarint(out, ZigZag(static_cast<int64_t>(start) -
                          static_cast<int64_t>(*prev_start)));
    PutVarint(out, end - start);
    PutVarint(out, level);
    *prev_start = start;
  }
  if (layout.has_pointers) {
    const uint8_t* ptrs = rec + 12 * layout.label_count;
    for (uint32_t slot = 0; slot < 2 + layout.child_count; ++slot) {
      uint32_t ptr;
      std::memcpy(&ptr, ptrs + 4 * slot, 4);
      if (ptr == kNullEntry) {
        PutVarint(out, 0);
      } else {
        PutVarint(out, ZigZag(static_cast<int64_t>(ptr) -
                              static_cast<int64_t>(index)) +
                           1);
      }
    }
  }
}

}  // namespace

uint32_t MaxEncodedRecordSize(const RecordLayout& layout) {
  // Every field is a varint of a value that fits 34 bits (zigzagged 33-bit
  // deltas, +1), i.e. at most 5 bytes.
  uint32_t slots = layout.has_pointers ? 2 + layout.child_count : 0;
  return 5 * (3 * layout.label_count + slots);
}

util::StatusOr<DeltaEncoded> EncodeDeltaList(const uint8_t* records, uint32_t count,
                                       const RecordLayout& layout) {
  const uint32_t record_size = layout.RecordSize();
  if (record_size == 0 ||
      kPageHeaderSize + MaxEncodedRecordSize(layout) > Pager::kPageSize) {
    return util::Status::InvalidArgument(
        "list record too wide for delta page encoding");
  }
  DeltaEncoded out;
  std::vector<uint8_t> body;      // encoded records of the open page
  std::vector<uint8_t> scratch;   // one speculatively encoded record
  uint32_t page_records = 0;
  uint32_t prev_start = 0;
  uint32_t page_first = 0;
  auto close_page = [&] {
    std::vector<uint8_t> page(Pager::kPageSize, 0);
    uint16_t n = static_cast<uint16_t>(page_records);
    std::memcpy(page.data(), &n, 2);  // flags at [2,4) stay 0
    std::memcpy(page.data() + kPageHeaderSize, body.data(), body.size());
    out.pages.push_back(std::move(page));
    body.clear();
    page_records = 0;
    prev_start = 0;
  };
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* rec = records + static_cast<size_t>(i) * record_size;
    scratch.clear();
    EncodeRecord(rec, i, layout, &prev_start, &scratch);
    if (kPageHeaderSize + body.size() + scratch.size() > Pager::kPageSize) {
      close_page();
      // Re-encode with the fresh page's reset delta state.
      scratch.clear();
      EncodeRecord(rec, i, layout, &prev_start, &scratch);
    }
    if (page_records == 0) {
      page_first = i;
      uint32_t start;
      std::memcpy(&start, rec, 4);
      out.page_first_entry.push_back(page_first);
      out.page_first_start.push_back(start);
    }
    body.insert(body.end(), scratch.begin(), scratch.end());
    ++page_records;
  }
  if (page_records > 0) close_page();
  return out;
}

util::Status DecodeDeltaPage(const uint8_t* payload, const RecordLayout& layout,
                       uint32_t first_entry, uint32_t expected_records,
                       uint32_t* starts, uint32_t* ends, uint32_t* levels,
                       uint32_t* pointers) {
  uint16_t n = 0;
  std::memcpy(&n, payload, 2);
  if (n != expected_records) {
    return util::Status::Corruption("delta page record count mismatch");
  }
  const uint32_t limit = static_cast<uint32_t>(Pager::kPageSize);
  uint32_t pos = kPageHeaderSize;
  uint64_t prev_start = 0;
  const uint32_t slots = layout.has_pointers ? 2 + layout.child_count : 0;
  for (uint32_t i = 0; i < expected_records; ++i) {
    for (uint32_t k = 0; k < layout.label_count; ++k) {
      uint64_t ds, de, lv;
      if (!GetVarint(payload, limit, &pos, &ds) ||
          !GetVarint(payload, limit, &pos, &de) ||
          !GetVarint(payload, limit, &pos, &lv)) {
        return util::Status::Corruption("delta page label varint truncated");
      }
      int64_t start = static_cast<int64_t>(prev_start) + UnZigZag(ds);
      int64_t end = start + static_cast<int64_t>(de);
      if (start < 0 || end > 0xFFFFFFFF || lv > 0xFFFFFFFF) {
        return util::Status::Corruption("delta page label out of range");
      }
      uint32_t idx = i * layout.label_count + k;
      starts[idx] = static_cast<uint32_t>(start);
      ends[idx] = static_cast<uint32_t>(end);
      levels[idx] = static_cast<uint32_t>(lv);
      prev_start = static_cast<uint64_t>(start);
    }
    for (uint32_t slot = 0; slot < slots; ++slot) {
      uint64_t v;
      if (!GetVarint(payload, limit, &pos, &v)) {
        return util::Status::Corruption("delta page pointer varint truncated");
      }
      uint32_t idx = i * slots + slot;
      if (v == 0) {
        pointers[idx] = kNullEntry;
      } else {
        int64_t ptr = static_cast<int64_t>(first_entry + i) + UnZigZag(v - 1);
        if (ptr < 0 || ptr >= static_cast<int64_t>(kNullEntry)) {
          return util::Status::Corruption("delta page pointer out of range");
        }
        pointers[idx] = static_cast<uint32_t>(ptr);
      }
    }
  }
  return util::Status::Ok();
}

util::Status DecodeDeltaPage(const uint8_t* payload, const RecordLayout& layout,
                             uint32_t first_entry, uint32_t expected_records,
                             uint32_t* out) {
  const size_t labels =
      static_cast<size_t>(expected_records) * layout.label_count;
  return DecodeDeltaPage(payload, layout, first_entry, expected_records, out,
                         out + labels, out + 2 * labels,
                         layout.has_pointers ? out + 3 * labels : nullptr);
}

}  // namespace viewjoin::storage
