#ifndef VIEWJOIN_STORAGE_PAGE_RECLAIMER_H_
#define VIEWJOIN_STORAGE_PAGE_RECLAIMER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace viewjoin::storage {

/// The reader registry and free-page list of one view catalog:
/// it decides when the pages of a retired view version may be rewritten.
///
/// A page moves live -> retired -> pending -> free -> reused:
///   - live: a live version's page table names it;
///   - retired: its last live holder was superseded by a committed
///     replacement that does not share it (Retire);
///   - pending: until every pin registered at an epoch before the
///     retirement has been released;
///   - free: its buffer-pool frames are discarded (a pinned frame keeps the
///     page pending), so no stale frame can be served for the id;
///   - reused: Allocate hands it to the next install, lowest ids first,
///     before any id past the pager's tail.
///
/// Readers — query runs, scrubber steps and backups — take a Pin at the
/// catalog epoch *before* they resolve any view and hold it while they read
/// the pages of what they resolved. The catalog advances its epoch after it
/// unlinks retired versions and before it calls Retire, and Retire stamps
/// the pages with the epoch current at the call; a pin at an epoch at or past
/// that stamp was taken after the unlink and cannot reach them.
///
/// A backup pin also stops reuse outright: a backup copies the pager prefix
/// page by page, so while one is live Allocate only appends.
///
/// The free list is derived, never persisted: Open seeds it with the pages
/// below the durable page count that no live page table references, and
/// retirements feed it at runtime.
///
/// Thread-safe: one internal mutex, held once to pin and once to release
/// (a binary search over the epochs that have live pins).
class PageReclaimer {
 public:
  /// `epoch` is the catalog's epoch counter; `pool` the catalog's pool.
  PageReclaimer(const std::atomic<uint64_t>* epoch, BufferPool* pool)
      : epoch_(epoch), pool_(pool) {}

  PageReclaimer(const PageReclaimer&) = delete;
  PageReclaimer& operator=(const PageReclaimer&) = delete;

  /// One registered reader. Move-only; releases on destruction. A
  /// default-constructed Pin registers nothing.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    ~Pin() { Release(); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    void Release();

   private:
    friend class PageReclaimer;
    PageReclaimer* owner_ = nullptr;
    uint64_t epoch_ = 0;
    bool backup_ = false;
  };

  /// Registers a query-side reader at the current epoch.
  Pin PinReader() { return Register(/*backup=*/false); }
  /// Registers a backup at the current epoch; reuse stops while it lives.
  Pin PinBackup() { return Register(/*backup=*/true); }

  /// Queues `pages` — retired by a committed, durable replacement — for
  /// reuse once every pin older than the current epoch has been released.
  void Retire(std::vector<PageId> pages);

  /// Seeds the free list (pages no live version references).
  void AddFree(const std::vector<PageId>& pages);

  /// Ids for `count` new pages: free pages in ascending order, then
  /// `tail`, `tail + 1`, ... (the pager's append positions). Only appends
  /// while a backup pin is live.
  std::vector<PageId> Allocate(uint32_t count, PageId tail);

  /// Gives back ids from Allocate that no journal record can name: the
  /// install failed and its records were truncated away. Ids at or
  /// past `page_count` (the pager's current end) are dropped: an aborted
  /// append was truncated away, so those pages no longer exist.
  void Unallocate(const std::vector<PageId>& ids, PageId page_count);

  size_t free_pages() const;
  size_t pending_pages() const;
  size_t live_pins() const;

 private:
  Pin Register(bool backup);
  void Unregister(uint64_t epoch, bool backup);
  /// Moves pending pages whose pins have passed to the free list, dropping
  /// their frames first. Caller holds mu_.
  void ReclaimLocked();

  struct Retired {
    uint64_t epoch = 0;
    std::vector<PageId> pages;
  };

  const std::atomic<uint64_t>* epoch_;
  BufferPool* pool_;
  mutable std::mutex mu_;
  /// (epoch, live pins registered at it), ascending by epoch: a new pin is
  /// always at the newest epoch. Entries that drop to zero are trimmed from
  /// the front, so front() is the oldest live pin.
  std::deque<std::pair<uint64_t, uint32_t>> pins_;
  uint32_t backup_pins_ = 0;
  /// Retirements in epoch order; held pages (pinned frames) at epoch 0.
  std::deque<Retired> pending_;
  std::set<PageId> free_;
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_PAGE_RECLAIMER_H_
