#ifndef VIEWJOIN_STORAGE_BUFFER_POOL_H_
#define VIEWJOIN_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/list_codec.h"
#include "storage/pager.h"
#include "util/status.h"

namespace viewjoin::storage {

/// What a delta list page decodes under: the entry index of its first record
/// (pointer deltas are relative to it), its record count and the list's
/// record layout. A decoded frame remembers the key it was filled under and
/// is served only for an equal key, so a page id that was reclaimed and
/// reused by another list can never hand out the old list's arrays.
struct DecodeKey {
  uint32_t first_entry = 0;
  uint32_t records = 0;
  RecordLayout layout;
  bool operator==(const DecodeKey&) const = default;
};

/// Sharded LRU cache of decoded list pages in front of a Pager. All list
/// cursors read through a pool; hit/miss counters let benches report
/// logical vs. physical page accesses.
///
/// Pages are immutable once written (views are write-once, read-many), so the
/// pool never writes back. The pool is safe for concurrent readers: frames
/// are distributed over N shards keyed by a PageId hash, each shard with its
/// own mutex and LRU list, so queries running on different worker threads
/// only contend when they touch the same shard at the same instant.
///
/// Every page is cached *decoded*: GetDecoded fills the frame with the
/// page's struct-of-arrays block (list_codec.h's single-buffer form) when the
/// page is read, and later fetches hand cursors pointers into it, so a page
/// is varint-decoded once per residency rather than once per landing. The
/// raw bytes are not kept beside the block.
///
/// Returned frames are *pinned*: GetDecoded hands back a PinnedPage handle
/// that holds a per-frame pin count, and a pinned frame is never evicted —
/// the arrays stay valid for as long as the handle lives, no matter what
/// other threads fetch in the meantime. Eviction takes the least-recently-
/// used *unpinned* frame; when every frame of a shard is pinned the shard
/// temporarily overflows its capacity share rather than invalidating a held
/// page.
///
/// Failure model: GetDecoded keeps the infallible signature the join inner
/// loops rely on — on a failed read it latches the error (error()/
/// error_page()) and hands back sentinel records, which every algorithm
/// reads as an exhausted stream with null pointers. The engine checks the
/// latch after a run and discards the result, so a corrupt page can stop a
/// run early but never fabricate a match. Every engine query installs a
/// thread-local ErrorScope, so one query's latch never contaminates a
/// sibling query running against the same pool; the pool-global latch
/// catches faults outside any scope.
///
/// `capacity` is counted in kPageSize slots and must be >= 1: a frame is
/// charged ceil(decoded bytes / kPageSize) slots, so the cached bytes stay
/// within capacity * kPageSize. A pool constructed with capacity 0 is
/// rejected at use: every GetDecoded latches InvalidArgument and returns
/// sentinels. Capacity is split evenly across shards (at least one slot per
/// shard), and a shard whose share is smaller than one frame holds that
/// frame alone, so tiny pools may cache slightly more than `capacity` slots
/// in total.
class BufferPool {
 private:
  struct Frame;
  struct Shard;

 public:
  /// Default shard count (rounded down to the pool capacity when smaller, so
  /// a capacity-1 pool degenerates to one shard with exact LRU behaviour).
  static constexpr size_t kDefaultShards = 8;

  BufferPool(Pager* pager, size_t capacity, size_t shards = kDefaultShards);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin on one cached page. While any PinnedPage for a frame lives,
  /// the frame cannot be evicted and values() stays valid. Copying re-pins;
  /// destruction (or Release) unpins. A default-constructed handle is
  /// invalid; a handle on a caller's scratch arrays (see GetDecoded) is
  /// valid but unpinned.
  class PinnedPage {
   public:
    PinnedPage() = default;
    PinnedPage(const PinnedPage& other);
    PinnedPage& operator=(const PinnedPage& other);
    PinnedPage(PinnedPage&& other) noexcept;
    PinnedPage& operator=(PinnedPage&& other) noexcept;
    ~PinnedPage() { Release(); }

    bool valid() const { return values_ != nullptr; }
    /// Page id this handle was fetched for (kInvalidPage when invalid).
    PageId page() const { return page_; }
    /// The page's decoded arrays, in list_codec.h's single-buffer layout
    /// (nullptr when invalid).
    const uint32_t* values() const { return values_; }

    /// Drops the pin (idempotent); the handle becomes invalid.
    void Release();

   private:
    friend class BufferPool;
    PinnedPage(BufferPool* pool, Shard* shard, Frame* frame);
    /// Unpinned handle on a caller's scratch arrays.
    PinnedPage(PageId page, const uint32_t* values);
    void Steal(PinnedPage* other);

    BufferPool* pool_ = nullptr;  // null for empty and unpinned handles
    Shard* shard_ = nullptr;
    Frame* frame_ = nullptr;
    PageId page_ = kInvalidPage;
    const uint32_t* values_ = nullptr;
  };

  /// Redirects the calling thread's error latching on `pool` into a private
  /// latch for the scope's lifetime: page faults observed while the scope is
  /// active are recorded here instead of in the pool-global latch. This is
  /// how the engine keeps degraded/quarantine state per query — every
  /// session wraps each query in a scope, so a sibling's fault is invisible
  /// to it.
  /// Scopes nest (per thread, innermost matching pool wins) and must be
  /// destroyed on the thread that created them.
  class ErrorScope {
   public:
    explicit ErrorScope(BufferPool* pool);
    ~ErrorScope();

    ErrorScope(const ErrorScope&) = delete;
    ErrorScope& operator=(const ErrorScope&) = delete;

    /// First fetch failure observed in this scope since the last Clear().
    const util::Status& error() const { return error_; }
    /// Page id of that first failure (kInvalidPage when none).
    PageId error_page() const { return error_page_; }
    void Clear() {
      error_ = util::Status::Ok();
      error_page_ = kInvalidPage;
    }

   private:
    friend class BufferPool;
    BufferPool* pool_;
    ErrorScope* prev_;
    util::Status error_;
    PageId error_page_ = kInvalidPage;
  };

  /// Counts this thread's page accesses on `pool` for the scope's lifetime,
  /// in addition to the pool-global hit/miss counters. Unlike ErrorScope
  /// (where the innermost matching scope *captures* the fault), every active
  /// StatsScope for the pool is credited, so a plan-step scope nested inside
  /// a whole-query scope sees its own slice while the outer scope still sees
  /// the total. Scopes nest per thread and must be destroyed on the thread
  /// that created them.
  class StatsScope {
   public:
    explicit StatsScope(BufferPool* pool);
    ~StatsScope();

    StatsScope(const StatsScope&) = delete;
    StatsScope& operator=(const StatsScope&) = delete;

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t reads() const { return hits_ + misses_; }
    /// Delta pages this thread decoded (frame fills and private decodes).
    uint64_t pages_decoded() const { return pages_decoded_; }

   private:
    friend class BufferPool;
    BufferPool* pool_;
    StatsScope* prev_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t pages_decoded_ = 0;
  };

  /// Returns list page `page` decoded under `key`; values() points at its
  /// arrays. A miss reads the page into a reused per-thread buffer and
  /// decodes it once into a new frame, which is never written again; every
  /// later fetch under the same key is a hit that decodes nothing.
  ///
  /// When the page cannot be served from a frame, the handle is unpinned and
  /// values() points into `*scratch` (valid until `*scratch` is next
  /// touched), which receives:
  ///   - sentinel records (0xFFFFFFFF starts/ends, level 0, null pointers)
  ///     when the read fails (the error is latched) or the payload fails to
  ///     decode; neither is cached, so every landing re-reads;
  ///   - a private decode when the cached frame was filled under another key
  ///     (counted by decode_mismatches()).
  PinnedPage GetDecoded(PageId page, const DecodeKey& key,
                        std::vector<uint32_t>* scratch);

  /// First fetch failure since the last ResetError() (OK when none). Errors
  /// captured by an active ErrorScope bypass this pool-global latch.
  util::Status error() const;
  /// Page id of that first failure (kInvalidPage when none).
  PageId error_page() const;
  /// Clears the pool-global error latch. Clear() also does this, and the
  /// engine's quarantine path calls it after re-materializing a view so a
  /// stale latch cannot outlive the fault it recorded.
  void ResetError();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Pages decoded so far, by demand fetches and read-ahead alike.
  uint64_t pages_decoded() const {
    return pages_decoded_.load(std::memory_order_relaxed);
  }
  /// GetDecoded calls that found the page cached under another DecodeKey
  /// and decoded it privately instead. Page reclamation discards a page's
  /// frames before reusing its id, so this stays 0 unless that breaks.
  uint64_t decode_mismatches() const {
    return decode_mismatches_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    pages_decoded_.store(0, std::memory_order_relaxed);
    decode_mismatches_.store(0, std::memory_order_relaxed);
    prefetch_issued_.store(0, std::memory_order_relaxed);
    prefetch_hits_.store(0, std::memory_order_relaxed);
    prefetch_wasted_.store(0, std::memory_order_relaxed);
  }

  // ---- Asynchronous read-ahead ---------------------------------------------
  //
  // An optional background I/O thread fetches pages a cursor is about to
  // land on so the demand fetch finds them resident. Prefetch is pure
  // speculation and therefore side-effect free on every observable failure
  // surface: a failed prefetch read never latches the error (the demand
  // fetch will re-read and report it with full retry/scope semantics), a
  // full shard drops the speculative page instead of overflowing capacity,
  // and prefetch reads are not counted as pool misses (those mean "a demand
  // read had to wait"). The counters tell the speculation's worth: a hit is
  // a demand fetch served by a prefetched frame, a wasted prefetch is a
  // prefetched frame evicted (or cleared) untouched.

  /// Sets the read-ahead depth cursors should use and starts (depth > 0) or
  /// stops and joins (depth == 0) the background thread. Thread-safe.
  void SetReadAhead(size_t depth);

  /// Depth set by SetReadAhead; cursors prefetch this many pages ahead of a
  /// block landing (0 = read-ahead off, the default).
  size_t read_ahead_depth() const {
    return read_ahead_depth_.load(std::memory_order_relaxed);
  }

  /// Enqueues `page` for background fetch, decoded under `key` into the
  /// frame GetDecoded would fill. No-op when read-ahead is off, the page is
  /// already cached or queued, or the queue is full (speculation never
  /// blocks the caller).
  void Prefetch(PageId page, const DecodeKey& key);

  /// True when `page` is currently cached (pinned or not).
  /// A one-shard probe with no LRU movement and no counter side effects —
  /// the planner uses it to price resident vs cold lists.
  bool Contains(PageId page);

  /// Blocks until the prefetch queue is empty and the worker is idle (tests
  /// and benches use this to measure with a settled cache). No-op when
  /// read-ahead is off.
  void DrainPrefetches();

  uint64_t prefetch_issued() const {
    return prefetch_issued_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_hits() const {
    return prefetch_hits_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_wasted() const {
    return prefetch_wasted_.load(std::memory_order_relaxed);
  }

  /// Total frames evicted so far. Cursors no longer need to revalidate
  /// against this (pins make their pointers stable); it remains as an
  /// observability counter for tests and benches.
  uint64_t eviction_version() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

  /// Number of frames currently pinned by live PinnedPage handles. Quiescent
  /// engines must report 0 — governance tests assert an aborted (timed-out,
  /// cancelled) query leaks no pins.
  size_t pinned_frames();

  /// Drops every cached frame that is not currently pinned (cold-cache
  /// experiments) and resets the pool-global error latch — a cleared pool
  /// must not keep reporting a fault from a previous run.
  void Clear();

  /// Drops the unpinned frames of `pages`, and any read-ahead still queued
  /// or in flight for them. The catalog calls this when a view version is
  /// superseded, with the pages no live version shares, and again before it
  /// reuses such a page for new bytes. Returns the pages whose frames stayed
  /// because they are pinned; those age out through LRU once released.
  std::vector<PageId> Discard(const std::vector<PageId>& pages);

 private:
  struct Frame {
    PageId page = kInvalidPage;
    uint32_t pins = 0;  // guarded by the owning shard's mutex
    /// Landed via the read-ahead thread and not yet demanded (guarded by the
    /// owning shard's mutex, like pins).
    bool prefetched = false;
    /// Capacity slots this frame is charged: ceil(bytes / kPageSize).
    uint32_t charge = 1;
    /// The key the frame was filled under, and its arrays.
    DecodeKey key;
    std::unique_ptr<uint32_t[]> values;
  };

  struct Shard {
    std::mutex mu;
    std::list<Frame> lru;  // front = most recent; node addresses are stable
    std::unordered_map<PageId, std::list<Frame>::iterator> index;
    size_t charge = 0;  // sum of the frames' charges
  };

  /// A queued read-ahead.
  struct PrefetchRequest {
    PageId page = kInvalidPage;
    DecodeKey key;
  };

  Shard& ShardFor(PageId page);
  /// Evicts LRU unpinned frames until `incoming` more slots fit the shard's
  /// capacity share. Caller holds the shard mutex.
  void EvictForSpace(Shard* shard, size_t incoming);
  /// Inserts a filled frame at the LRU front. Caller holds the shard mutex
  /// and has made space.
  Frame& Insert(Shard* shard, Frame frame);
  /// Unlinks an unpinned frame. Caller holds the shard mutex.
  void Drop(Shard* shard, std::list<Frame>::iterator it);
  /// Pins a frame that satisfies a demand fetch. Caller holds the mutex.
  PinnedPage PinDemanded(Shard* shard, Frame* frame);
  /// Counts a hit, moves the frame to the LRU front and pins it. Caller
  /// holds the mutex.
  PinnedPage PinHit(Shard* shard, std::list<Frame>::iterator it);
  void Unpin(Shard* shard, Frame* frame);
  void LatchError(const util::Status& status, PageId page);
  /// Credits this thread's active StatsScopes for the pool.
  void CreditScopes(uint64_t StatsScope::*counter);
  void CountMiss();
  /// Decodes `payload` under `key` into `out`; counts the decode.
  bool Decode(const uint8_t* payload, const DecodeKey& key, uint32_t* out,
              bool demand);
  /// Capacity slots a decoded frame for `key` is charged.
  static uint32_t ChargeFor(const DecodeKey& key);
  /// The background read-ahead thread's main loop.
  void ReadAheadLoop();
  /// Fetches one prefetch request (outside all shard locks) and inserts it.
  void FulfillPrefetch(const PrefetchRequest& request);
  /// Stops and joins the read-ahead thread; pending requests are dropped.
  void StopReadAhead();

  Pager* pager_;
  size_t capacity_;
  size_t per_shard_capacity_ = 1;
  uint32_t shard_mask_ = 0;  // shard count is a power of two
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> pages_decoded_{0};
  std::atomic<uint64_t> decode_mismatches_{0};
  std::atomic<uint64_t> evictions_{0};
  /// Bumped by every Discard: a prefetch read that overlapped one may hold
  /// the bytes of a page about to be reused, so it is dropped, not cached.
  std::atomic<uint64_t> discards_{0};
  mutable std::mutex error_mu_;
  util::Status error_;
  PageId error_page_ = kInvalidPage;

  // Read-ahead state. The queue and its membership set are guarded by
  // prefetch_mu_; the worker thread exists iff read_ahead_depth_ > 0 (both
  // transitions under prefetch_mu_ via SetReadAhead).
  static constexpr size_t kMaxPrefetchQueue = 256;
  std::atomic<size_t> read_ahead_depth_{0};
  std::atomic<uint64_t> prefetch_issued_{0};
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
  std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;
  std::condition_variable prefetch_idle_cv_;
  std::deque<PrefetchRequest> prefetch_queue_;
  std::unordered_set<PageId> prefetch_queued_;
  bool prefetch_stop_ = false;
  bool prefetch_busy_ = false;
  std::thread prefetch_thread_;
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_BUFFER_POOL_H_
