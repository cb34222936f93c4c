#ifndef VIEWJOIN_STORAGE_LIST_CODEC_H_
#define VIEWJOIN_STORAGE_LIST_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace viewjoin::storage {

/// On-disk record layouts of a list (all little-endian uint32 fields):
///
///  element record  : start, end, level                          (12 bytes)
///  LE record       : start, end, level, following, descendant,
///                    child[0..m)                                (20 + 4m)
///  tuple record    : n consecutive element records              (12n)
///
/// `following`/`descendant`/`child[k]` hold an EntryIndex into the pointed
/// list or kNullEntry.
struct RecordLayout {
  uint32_t label_count = 1;   // 1 for element/LE lists, n for tuple lists
  bool has_pointers = false;  // true for LE / LE_p lists
  uint32_t child_count = 0;   // number of child pointers (LE only)

  uint32_t RecordSize() const {
    return 12 * label_count + (has_pointers ? 8 + 4 * child_count : 0);
  }
  uint32_t PointerSlots() const {
    return has_pointers ? 2 + child_count : 0;
  }
  bool operator==(const RecordLayout&) const = default;
};

/// Prefix/delta varint codec for list pages (list format kDelta).
///
/// Page payload layout (within the pager's 4096-byte logical page):
///
///   u16 record_count | u16 flags (reserved, 0)
///   then per record, per label k in [0, label_count):
///     varint zigzag(start - prev_start)   prev_start resets to 0 per page
///     varint (end - start)                region labels have end >= start
///     varint level
///   then, if the layout has pointers, per slot (follow, desc, child[0..m)):
///     varint 0                            for kNullEntry
///     varint zigzag(ptr - record_index)+1 otherwise (pointers land near
///                                         their origin, so deltas are small)
///
/// `prev_start` threads through *all* labels on the page in stream order
/// (across records and across a tuple's intra-record labels), resetting at
/// each page boundary so any page decodes independently. Starts are
/// document-ordered across records but a tuple's later labels can precede
/// the next record's first label, hence zigzag rather than unsigned deltas.
///
/// Records never span pages; a page holds a variable number of whole
/// records, so delta lists carry a page directory (first entry index + first
/// start per page) in the StoredList metadata for random access.

/// One encoded list: page payloads (each exactly Pager::kPageSize bytes)
/// plus the per-page directory.
struct DeltaEncoded {
  std::vector<std::vector<uint8_t>> pages;
  std::vector<uint32_t> page_first_entry;  // entry index of each page's first record
  std::vector<uint32_t> page_first_start;  // label 0 start of that record (fence key)
};

/// Encodes `count` fixed-layout records (the materializer's flat blob) into
/// delta pages. InvalidArgument when a single worst-case record could not
/// fit a page (the delta analogue of the fixed-format fan-out guard).
util::StatusOr<DeltaEncoded> EncodeDeltaList(const uint8_t* records, uint32_t count,
                                       const RecordLayout& layout);

/// Decodes one delta page into struct-of-arrays scratch. `starts`/`ends`/
/// `levels` receive label_count * expected_records values (record-major);
/// `pointers` receives (2 + child_count) * expected_records entry indexes
/// when the layout has pointers (pass nullptr otherwise). `first_entry` is
/// the page's first record index (pointer deltas are relative to absolute
/// record indexes). Corruption when the payload disagrees with
/// `expected_records` or a varint runs past the page.
util::Status DecodeDeltaPage(const uint8_t* payload, const RecordLayout& layout,
                       uint32_t first_entry, uint32_t expected_records,
                       uint32_t* starts, uint32_t* ends, uint32_t* levels,
                       uint32_t* pointers);

/// Number of uint32 values `records` decoded records of `layout` occupy in
/// the single-buffer form below.
inline size_t DecodedValues(const RecordLayout& layout, uint32_t records) {
  return static_cast<size_t>(records) *
         (3 * layout.label_count + layout.PointerSlots());
}

/// Decodes one delta page into one buffer of DecodedValues(layout,
/// expected_records) values, laid out as the four arrays above back to back:
/// starts, ends, levels (each label_count * expected_records), then the
/// pointer slots. This is the form the buffer pool caches a delta page in.
util::Status DecodeDeltaPage(const uint8_t* payload, const RecordLayout& layout,
                             uint32_t first_entry, uint32_t expected_records,
                             uint32_t* out);

/// Worst-case encoded size of one record — the page-fit guard bound.
uint32_t MaxEncodedRecordSize(const RecordLayout& layout);

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_LIST_CODEC_H_
