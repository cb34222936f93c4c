#ifndef VIEWJOIN_STORAGE_STORED_LIST_H_
#define VIEWJOIN_STORAGE_STORED_LIST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/list_codec.h"
#include "storage/list_search.h"
#include "storage/pager.h"
#include "storage/simd_scan.h"
#include "util/check.h"
#include "xml/label.h"

namespace viewjoin::storage {

/// Index of an entry within a stored list; the on-disk encoding of the LE
/// scheme's child/descendant/following pointers. The paper's pointers are
/// (page number, byte offset) pairs; a delta page holds a variable number of
/// records, so an entry index resolves to its page through the list's page
/// directory (StoredList::PageIndexOf) instead.
using EntryIndex = uint32_t;

inline constexpr EntryIndex kNullEntry = 0xFFFFFFFFu;

/// A maximal run of consecutive pager pages in a list's page table.
struct PageRun {
  PageId first = kInvalidPage;
  uint32_t count = 0;
};

/// Metadata of one immutable list stored in a pager file as delta pages
/// (list_codec.h). Created by the materializer and the document store; read
/// through ListCursor.
///
/// `pages` is the list's page table: pages[p] is the pager page holding the
/// list's p-th page, one entry per page of PageSpan(). A list built from
/// scratch occupies one contiguous run; a list written by the E-scheme delta
/// merge shares its unchanged leading pages with the version it replaced, so
/// its table is that version's prefix followed by fresh pages. Ids ascend
/// either way (fresh pages land at the pager's tail).
///
/// Pages hold a variable number of whole records, so the list carries a
/// page directory: `page_first_entry[p]` is the entry index of page p's
/// first record, and `page_first_start[p]` that record's start label (the
/// fence key), which lets seeks gallop across pages without touching them.
struct StoredList {
  std::vector<PageId> pages;  // page table; empty for an empty list
  uint32_t count = 0;
  RecordLayout layout;
  std::vector<uint32_t> page_first_entry;
  std::vector<uint32_t> page_first_start;

  uint32_t PageSpan() const {
    return static_cast<uint32_t>(page_first_entry.size());
  }
  /// Zero-based page holding entry `i`.
  uint32_t PageIndexOf(EntryIndex i) const {
    // Last directory slot with first_entry <= i.
    uint32_t p = simd::LowerBoundGt(page_first_entry.data(), PageSpan(), i);
    VJ_DCHECK(p > 0);
    return p - 1;
  }
  EntryIndex FirstEntryOfPage(uint32_t p) const { return page_first_entry[p]; }
  uint32_t RecordsOnPage(uint32_t p) const {
    EntryIndex next = p + 1 < PageSpan() ? page_first_entry[p + 1] : count;
    return next - page_first_entry[p];
  }
  /// What page p decodes under (BufferPool::GetDecoded).
  DecodeKey DecodeKeyOf(uint32_t p) const {
    return {FirstEntryOfPage(p), RecordsOnPage(p), layout};
  }
  /// Sets the page table to the run [first, first + PageSpan()); count and
  /// directory must already be final.
  void AssignRun(PageId first) {
    pages.resize(PageSpan());
    for (uint32_t p = 0; p < pages.size(); ++p) pages[p] = first + p;
  }
  /// The page table as maximal runs of consecutive ids (the manifest's
  /// encoding of it).
  std::vector<PageRun> Runs() const {
    std::vector<PageRun> runs;
    for (PageId page : pages) {
      if (!runs.empty() && runs.back().first + runs.back().count == page) {
        ++runs.back().count;
      } else {
        runs.push_back({page, 1});
      }
    }
    return runs;
  }
  /// True when the page directory can be trusted to locate records: one
  /// entry and one fence key per page, entries strictly ascending from 0
  /// and below count, fence keys non-decreasing. An empty list has none.
  /// A directory that fails this would send cursors to arbitrary records.
  bool DirectoryValid() const {
    if (count == 0) {
      return page_first_entry.empty() && page_first_start.empty();
    }
    if (page_first_entry.empty() ||
        page_first_entry.size() != page_first_start.size() ||
        page_first_entry.front() != 0 || page_first_entry.back() >= count) {
      return false;
    }
    for (size_t p = 1; p < page_first_entry.size(); ++p) {
      if (page_first_entry[p] <= page_first_entry[p - 1] ||
          page_first_start[p] < page_first_start[p - 1]) {
        return false;
      }
    }
    return true;
  }
  /// True when the table covers exactly PageSpan() pages, all below `limit`
  /// (a pager's page count or durable prefix). False for a record layout no
  /// page can hold.
  bool PagesWithin(uint32_t limit) const {
    if (count == 0) return pages.empty();
    if (layout.RecordSize() == 0 || layout.RecordSize() > Pager::kPageSize) {
      return false;
    }
    if (pages.size() != PageSpan()) return false;
    for (PageId page : pages) {
      if (page >= limit) return false;
    }
    return true;
  }
};

/// Result of a non-moving skip search (FindFirstStart).
struct SeekOutcome {
  EntryIndex pos = 0;
  bool aborted = false;
};

/// A decoded page of a block-capable cursor, as struct-of-arrays spans.
/// Arrays are record-major, strided by label_count. Valid until the cursor
/// lands on another block or is destroyed.
struct BlockView {
  EntryIndex first = 0;  // entry index of the block's first record
  uint32_t count = 0;    // records in the block
  const uint32_t* starts = nullptr;
  const uint32_t* ends = nullptr;
  const uint32_t* levels = nullptr;
};

/// Cursor over a StoredList. Provides sequential Next() and random Seek()
/// (how pointer jumps land). The cursor reads a page at a time: it holds a
/// *pin* on its current page's decoded frame, so the frame cannot be
/// evicted (and its arrays never dangle) while the cursor sits on it — even
/// when other queries thrash the shared pool concurrently — and serves
/// LabelAt/pointer reads and the galloping/SIMD skip primitives from those
/// struct-of-arrays blocks in place (the pool decodes each page once per
/// residency). A page that fails to read or to decode yields sentinel
/// records — 0xFFFFFFFF labels, null pointers — which every algorithm reads
/// as an exhausted stream.
///
/// A second, memory-backed mode wraps a plain label array instead of a pager
/// list: memory doc mode streams the document's own tag lists through the
/// same cursor interface, so the join algorithms run unchanged over either.
/// Memory mode carries no pointers.
///
/// The skip primitives take a checkpoint hook `ck(n)` — charge `n` entries
/// of governance work, return true to abort (see QueryContext::CheckpointN)
/// — and count their probe/scan work into caller-provided counters so
/// EXPLAIN stats stay exact however a skip is executed.
class ListCursor {
 public:
  ListCursor() = default;
  ListCursor(const StoredList* list, BufferPool* pool)
      : list_(list), pool_(pool) {}
  /// Memory-backed cursor over `count` labels (no storage behind it).
  ListCursor(const xml::Label* labels, uint32_t count)
      : mem_labels_(labels), mem_count_(count) {}

  // Move-only: the block's array pointers may point into its own scratch,
  // which a move carries along (the heap buffer stays put) but a copy would
  // alias.
  ListCursor(const ListCursor&) = delete;
  ListCursor& operator=(const ListCursor&) = delete;
  ListCursor(ListCursor&&) noexcept = default;
  ListCursor& operator=(ListCursor&&) noexcept = default;

  bool valid() const { return list_ != nullptr || mem_labels_ != nullptr; }
  bool AtEnd() const { return index_ >= size(); }
  EntryIndex index() const { return index_; }
  uint32_t size() const {
    return list_ != nullptr ? list_->count : mem_count_;
  }
  const StoredList& list() const { return *list_; }

  /// Rewinds to entry 0 and drops the current page. The block goes with its
  /// pin: a block left valid would let a later read on the same page take
  /// values from a frame nothing pins any more.
  void Reset() {
    index_ = 0;
    pin_.Release();
    block_.valid = false;
  }

  void Next() { ++index_; }

  /// Random access (pointer dereference target).
  void Seek(EntryIndex i) { index_ = i; }

  /// Label of the current record's `k`-th label (k = 0 for element/LE lists).
  /// A head on the current block is read in line, three array loads;
  /// anything else lands on its page first.
  xml::Label LabelAt(uint32_t k = 0) const {
    if (mem_labels_ != nullptr) {
      VJ_DCHECK(!AtEnd());
      return mem_labels_[index_];
    }
    // Unsigned: an index before the block wraps past its count.
    if (!block_.valid || index_ - block_.first >= block_.count) {
      EnsureBlock(index_);
    }
    const uint32_t slot =
        (index_ - block_.first) * list_->layout.label_count + k;
    return {block_.starts[slot], block_.ends[slot], block_.levels[slot]};
  }

  EntryIndex Following() const { return PointerAt(0); }
  EntryIndex Descendant() const { return PointerAt(1); }
  EntryIndex Child(uint32_t k) const { return PointerAt(2 + k); }

  /// Decoded block containing the current entry (storage-backed only):
  /// callers batch over its spans instead of reading entry by entry.
  BlockView CurrentBlock() const {
    VJ_DCHECK(list_ != nullptr && !AtEnd());
    EnsureBlock(index_);
    return {block_.first, block_.count, block_.starts, block_.ends,
            block_.levels};
  }

  /// First position >= index() whose start is >= `bound` (or > `bound` when
  /// `strict`), or size() when none. Does not move the cursor. Requires a
  /// single-label list (starts are sorted in document order). Probe reads
  /// are added to `*probes`; `ck` runs per probe/decoded block.
  template <typename Ck>
  SeekOutcome FindFirstStart(uint32_t bound, bool strict, uint64_t* probes,
                             Ck&& ck) const {
    VJ_DCHECK(mem_labels_ != nullptr || list_->layout.label_count == 1);
    if (strict) {
      if (bound == 0xFFFFFFFFu) return {size(), false};
      ++bound;  // first start > old bound == first start >= bound+1
    }
    if (index_ >= size()) return {size(), false};
    if (list_ != nullptr) return FindFirstStartBlocks(bound, probes, ck);
    // Memory mode: entry-level gallop.
    auto below = [&](EntryIndex i) { return mem_labels_[i].start < bound; };
    auto on_probe = [&] {
      ++*probes;
      return ck(1);
    };
    GallopResult r = GallopLowerBound(index_, size(), below, on_probe);
    return {r.pos, r.aborted};
  }

  /// Advances until the current entry's end is >= `bound` or the list ends,
  /// skipping entries that can no longer join (their region closed before
  /// `bound`). Ends are not sorted, so this is a forward scan — SIMD within
  /// decoded blocks. Every passed entry is added to `*scanned` and charged
  /// through `ck`. With `one_block`, stops at the first block boundary
  /// (memory mode: after one entry) so callers that must re-check pruned
  /// LE_p pointers keep their step-and-revalidate behavior. Returns true
  /// if `ck` aborted.
  template <typename Ck>
  bool SkipEndsBelow(uint32_t bound, bool one_block, uint64_t* scanned,
                     Ck&& ck) {
    VJ_DCHECK(mem_labels_ != nullptr || list_->layout.label_count == 1);
    if (list_ != nullptr) {
      while (index_ < size()) {
        EnsureBlock(index_);
        const uint32_t offset = index_ - block_.first;
        const uint32_t pos =
            offset + simd::FirstGe(block_.ends + offset,
                                   block_.count - offset, bound);
        const uint32_t passed = pos - offset;
        *scanned += passed;
        index_ = block_.first + pos;
        if (ck(passed > 0 ? passed : 1)) return true;
        if (pos < block_.count || one_block) return false;
      }
      return false;
    }
    // Memory mode: per-entry steps, per-entry checkpoints.
    while (index_ < size() && mem_labels_[index_].end < bound) {
      ++index_;
      ++*scanned;
      if (ck(1)) return true;
      if (one_block) return false;
    }
    return false;
  }

  /// Advances until the current entry's start is >= `bound` (or > when
  /// `strict`) or the list ends. Unlike FindFirstStart this *walks* —
  /// touching every page and counting every passed entry into `*scanned` —
  /// preserving the sequential-I/O cost profile of pointerless (E) scans
  /// while still vectorizing within decoded blocks. With `one_block`, stops
  /// at the first block boundary (a memory-backed cursor is one block).
  /// Returns true if `ck` aborted.
  template <typename Ck>
  bool SkipStartsBelow(uint32_t bound, bool strict, bool one_block,
                       uint64_t* scanned, Ck&& ck) {
    VJ_DCHECK(mem_labels_ != nullptr || list_->layout.label_count == 1);
    if (strict) {
      if (bound == 0xFFFFFFFFu) {
        *scanned += size() - index_;
        bool aborted = ck(size() - index_);
        index_ = size();
        return aborted;
      }
      ++bound;
    }
    if (list_ != nullptr) {
      while (index_ < size()) {
        EnsureBlock(index_);
        const uint32_t offset = index_ - block_.first;
        const uint32_t pos =
            offset + simd::LowerBoundGe(block_.starts + offset,
                                        block_.count - offset, bound);
        const uint32_t passed = pos - offset;
        *scanned += passed;
        index_ = block_.first + pos;
        if (ck(passed > 0 ? passed : 1)) return true;
        if (pos < block_.count || one_block) return false;
      }
      return false;
    }
    while (index_ < size() && mem_labels_[index_].start < bound) {
      ++index_;
      ++*scanned;
      if (ck(1)) return true;
    }
    return false;
  }

 private:
  struct Block {
    bool valid = false;  // first/count/pin describe the current page
    EntryIndex first = 0;
    uint32_t count = 0;
    const uint32_t* starts = nullptr;  // label_count-strided, record-major
    const uint32_t* ends = nullptr;
    const uint32_t* levels = nullptr;
    const uint32_t* pointers = nullptr;  // PointerSlots()-strided
    /// Cursor-private arrays in list_codec.h's single-buffer layout, for a
    /// page the pool could not serve from a frame (sentinels, or a private
    /// decode).
    std::vector<uint32_t> scratch;
  };

  /// Makes block_ describe (and pin_ hold) the decoded page containing
  /// entry `i`. No-op when already there.
  void EnsureBlock(EntryIndex i) const;

  /// Queues background fetches for the pages after `page` (a page index
  /// within the list), up to the pool's read-ahead depth and clamped to the
  /// list's page span. Tracks the furthest page already queued so a cursor
  /// grinding through one page does not re-enqueue its successors.
  void MaybeReadAhead(uint32_t page) const;

  /// Fence-directed seek: gallop page fences, then binary-search one block.
  template <typename Ck>
  SeekOutcome FindFirstStartBlocks(uint32_t bound, uint64_t* probes,
                                   Ck&& ck) const {
    const uint32_t pages = list_->PageSpan();
    const uint32_t* fences = list_->page_first_start.data();
    const uint32_t from_page = list_->PageIndexOf(index_);
    // First page whose fence key is >= bound; the answer is on that page's
    // predecessor (its tail can still reach bound) or is its first entry.
    auto below = [&](uint32_t p) { return fences[p] < bound; };
    auto on_probe = [&] {
      ++*probes;
      return ck(1);
    };
    GallopResult fence = GallopLowerBound(from_page, pages, below, on_probe);
    if (fence.aborted) {
      // Pages before fence.pos-1 are wholly below the bound (their last
      // entry precedes the next fence key), so this seek skips only dead
      // entries even though the search was cut short.
      EntryIndex safe = fence.pos > from_page
                            ? list_->FirstEntryOfPage(fence.pos - 1)
                            : index_;
      return {std::max(index_, safe), true};
    }
    uint32_t page = fence.pos > from_page ? fence.pos - 1 : from_page;
    EnsureBlock(list_->FirstEntryOfPage(page));
    ++*probes;  // the block's binary search touches one page
    if (ck(1)) return {std::max(index_, block_.first), true};
    const uint32_t pos = simd::LowerBoundGe(block_.starts, block_.count, bound);
    EntryIndex found = pos < block_.count
                           ? block_.first + pos
                           : (page + 1 < pages
                                  ? list_->FirstEntryOfPage(page + 1)
                                  : size());
    return {std::max(index_, found), false};
  }

  /// Pointer `slot` of the current record, read in line from the current
  /// block as LabelAt reads labels.
  EntryIndex PointerAt(uint32_t slot) const {
    VJ_DCHECK(list_ != nullptr && list_->layout.has_pointers);
    if (!block_.valid || index_ - block_.first >= block_.count) {
      EnsureBlock(index_);
    }
    return block_.pointers[(index_ - block_.first) *
                               list_->layout.PointerSlots() +
                           slot];
  }

  const StoredList* list_ = nullptr;
  BufferPool* pool_ = nullptr;
  const xml::Label* mem_labels_ = nullptr;
  uint32_t mem_count_ = 0;
  EntryIndex index_ = 0;
  mutable BufferPool::PinnedPage pin_;
  mutable Block block_;
  mutable uint32_t prefetch_edge_ = 0;  // pages below this were already queued
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_STORED_LIST_H_
