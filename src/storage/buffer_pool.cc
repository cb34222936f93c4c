#include "storage/buffer_pool.h"

#include "util/check.h"

namespace viewjoin::storage {

namespace {

/// Innermost ErrorScope installed on this thread (scopes form a per-thread
/// chain through prev_; LatchError walks it looking for a matching pool).
thread_local BufferPool::ErrorScope* g_error_scope = nullptr;

/// Innermost StatsScope on this thread. Unlike the error chain, *every*
/// matching scope in the chain is credited on each access, so nested scopes
/// partition and total simultaneously.
thread_local BufferPool::StatsScope* g_stats_scope = nullptr;

size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

// ---- PinnedPage ------------------------------------------------------------

BufferPool::PinnedPage::PinnedPage(BufferPool* pool, Shard* shard, Frame* frame)
    : pool_(pool),
      shard_(shard),
      frame_(frame),
      page_(frame->page),
      data_(frame->data.data()) {}

BufferPool::PinnedPage::PinnedPage(PageId page, const uint8_t* poison)
    : page_(page), data_(poison) {}

BufferPool::PinnedPage::PinnedPage(const PinnedPage& other)
    : pool_(other.pool_),
      shard_(other.shard_),
      frame_(other.frame_),
      page_(other.page_),
      data_(other.data_) {
  if (frame_ != nullptr) {
    std::lock_guard<std::mutex> lock(shard_->mu);
    ++frame_->pins;
  }
}

BufferPool::PinnedPage& BufferPool::PinnedPage::operator=(
    const PinnedPage& other) {
  if (this == &other) return *this;
  PinnedPage copy(other);  // pin first so self-interference is impossible
  *this = std::move(copy);
  return *this;
}

BufferPool::PinnedPage::PinnedPage(PinnedPage&& other) noexcept
    : pool_(other.pool_),
      shard_(other.shard_),
      frame_(other.frame_),
      page_(other.page_),
      data_(other.data_) {
  other.pool_ = nullptr;
  other.shard_ = nullptr;
  other.frame_ = nullptr;
  other.page_ = kInvalidPage;
  other.data_ = nullptr;
}

BufferPool::PinnedPage& BufferPool::PinnedPage::operator=(
    PinnedPage&& other) noexcept {
  if (this == &other) return *this;
  Release();
  pool_ = other.pool_;
  shard_ = other.shard_;
  frame_ = other.frame_;
  page_ = other.page_;
  data_ = other.data_;
  other.pool_ = nullptr;
  other.shard_ = nullptr;
  other.frame_ = nullptr;
  other.page_ = kInvalidPage;
  other.data_ = nullptr;
  return *this;
}

void BufferPool::PinnedPage::Release() {
  if (frame_ != nullptr) pool_->Unpin(shard_, frame_);
  pool_ = nullptr;
  shard_ = nullptr;
  frame_ = nullptr;
  page_ = kInvalidPage;
  data_ = nullptr;
}

// ---- ErrorScope ------------------------------------------------------------

BufferPool::ErrorScope::ErrorScope(BufferPool* pool)
    : pool_(pool), prev_(g_error_scope) {
  g_error_scope = this;
}

BufferPool::ErrorScope::~ErrorScope() {
  VJ_DCHECK(g_error_scope == this) << "ErrorScopes must unwind in LIFO order";
  g_error_scope = prev_;
}

// ---- StatsScope ------------------------------------------------------------

BufferPool::StatsScope::StatsScope(BufferPool* pool)
    : pool_(pool), prev_(g_stats_scope) {
  g_stats_scope = this;
}

BufferPool::StatsScope::~StatsScope() {
  VJ_DCHECK(g_stats_scope == this) << "StatsScopes must unwind in LIFO order";
  g_stats_scope = prev_;
}

// ---- BufferPool ------------------------------------------------------------

BufferPool::BufferPool(Pager* pager, size_t capacity, size_t shards)
    : pager_(pager), capacity_(capacity) {
  size_t want = shards == 0 ? 1 : shards;
  if (capacity_ > 0 && want > capacity_) want = capacity_;
  size_t count = FloorPow2(want);
  shard_mask_ = static_cast<uint32_t>(count - 1);
  per_shard_capacity_ = capacity_ == 0 ? 1 : (capacity_ + count - 1) / count;
  shards_ = std::vector<Shard>(count);
  poison_.assign(Pager::kPageSize, 0xFF);
}

BufferPool::~BufferPool() {
  StopReadAhead();
  // Every cursor must have released its pins before the pool dies.
  for (Shard& shard : shards_) {
    for (const Frame& frame : shard.lru) {
      VJ_DCHECK(frame.pins == 0) << "page " << frame.page
                                 << " still pinned at pool destruction";
    }
  }
}

BufferPool::Shard& BufferPool::ShardFor(PageId page) {
  // Multiplicative hash so consecutive pages (one list) spread over shards.
  uint32_t h = page * 2654435761u;
  return shards_[(h >> 16) & shard_mask_];
}

void BufferPool::EvictForSpace(Shard* shard) {
  while (shard->lru.size() >= per_shard_capacity_) {
    // Take the least-recently-used unpinned frame; a fully pinned shard
    // overflows rather than invalidating a page someone still holds.
    auto victim = shard->lru.end();
    for (auto it = std::prev(shard->lru.end());; --it) {
      if (it->pins == 0) {
        victim = it;
        break;
      }
      if (it == shard->lru.begin()) break;
    }
    if (victim == shard->lru.end()) break;
    if (victim->prefetched) {
      prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    }
    shard->index.erase(victim->page);
    shard->lru.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void BufferPool::Unpin(Shard* shard, Frame* frame) {
  std::lock_guard<std::mutex> lock(shard->mu);
  VJ_DCHECK(frame->pins > 0);
  --frame->pins;
}

util::Status BufferPool::Fetch(PageId page, PinnedPage* out) {
  if (capacity_ == 0) {
    return util::Status::InvalidArgument(
        "buffer pool has capacity 0; a pool needs at least one frame");
  }
  Shard& shard = ShardFor(page);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(page);
    if (it != shard.index.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      CreditScopes(/*hit=*/true);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      Frame& frame = *it->second;
      if (frame.prefetched) {
        frame.prefetched = false;
        prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      ++frame.pins;
      *out = PinnedPage(this, &shard, &frame);
      return util::Status::Ok();
    }
  }
  // Miss: read outside the shard lock so hits on other pages of this shard
  // are not blocked behind the physical read.
  std::vector<uint8_t> data(Pager::kPageSize);
  util::Status status = pager_->ReadPage(page, data.data());
  misses_.fetch_add(1, std::memory_order_relaxed);
  CreditScopes(/*hit=*/false);
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(page);
  if (it == shard.index.end()) {
    EvictForSpace(&shard);
    shard.lru.push_front(Frame{page, 0, false, std::move(data)});
    it = shard.index.emplace(page, shard.lru.begin()).first;
  }
  // (If another thread cached the page while we read, ours is dropped and
  // the already-cached copy is pinned — pages are immutable, both are equal.)
  Frame& frame = *it->second;
  if (frame.prefetched) {
    // The read-ahead thread landed it while our demand read was in flight:
    // the prefetch arrived too late to save this miss, but the frame is now
    // demanded, not speculative.
    frame.prefetched = false;
  }
  ++frame.pins;
  *out = PinnedPage(this, &shard, &frame);
  return util::Status::Ok();
}

BufferPool::PinnedPage BufferPool::GetPage(PageId page) {
  PinnedPage pin;
  util::Status status = Fetch(page, &pin);
  if (status.ok()) return pin;
  LatchError(status, page);
  // 0xFF poison: labels read as the exhausted-stream sentinel and pointers as
  // kNullEntry, so cursors terminate instead of chasing garbage.
  return PinnedPage(page, poison_.data());
}

void BufferPool::CreditScopes(bool hit) {
  for (StatsScope* scope = g_stats_scope; scope != nullptr;
       scope = scope->prev_) {
    if (scope->pool_ != this) continue;
    if (hit) {
      ++scope->hits_;
    } else {
      ++scope->misses_;
    }
  }
}

void BufferPool::LatchError(const util::Status& status, PageId page) {
  for (ErrorScope* scope = g_error_scope; scope != nullptr;
       scope = scope->prev_) {
    if (scope->pool_ != this) continue;
    if (scope->error_.ok()) {
      scope->error_ = status;
      scope->error_page_ = page;
    }
    return;
  }
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.ok()) {
    error_ = status;
    error_page_ = page;
  }
}

util::Status BufferPool::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

PageId BufferPool::error_page() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_page_;
}

void BufferPool::ResetError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  error_ = util::Status::Ok();
  error_page_ = kInvalidPage;
}

size_t BufferPool::pinned_frames() {
  size_t pinned = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const Frame& frame : shard.lru) {
      if (frame.pins > 0) ++pinned;
    }
  }
  return pinned;
}

void BufferPool::Clear() {
  {
    // Pending speculation must not resurrect pages a cold-cache run just
    // dropped.
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    prefetch_queue_.clear();
    prefetch_queued_.clear();
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->pins == 0) {
        if (it->prefetched) {
          prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.index.erase(it->page);
        it = shard.lru.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  ResetError();
}

std::vector<PageId> BufferPool::Discard(const std::vector<PageId>& pages) {
  std::vector<PageId> pinned;
  if (pages.empty() || capacity_ == 0) return pinned;
  discards_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    // prefetch_queued_ mirrors the queue: unmark the dropped pages, then
    // drop the queue entries that lost their mark.
    size_t unmarked = 0;
    for (PageId page : pages) unmarked += prefetch_queued_.erase(page);
    if (unmarked != 0) {
      std::erase_if(prefetch_queue_, [this](PageId page) {
        return prefetch_queued_.count(page) == 0;
      });
    }
  }
  for (PageId page : pages) {
    Shard& shard = ShardFor(page);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(page);
    if (it == shard.index.end()) continue;
    if (it->second->pins != 0) {
      pinned.push_back(page);
      continue;
    }
    if (it->second->prefetched) {
      prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.erase(it->second);
    shard.index.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return pinned;
}

// ---- Read-ahead ------------------------------------------------------------

void BufferPool::SetReadAhead(size_t depth) {
  if (depth > 0 && capacity_ == 0) depth = 0;  // nowhere to put a page
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    size_t old = read_ahead_depth_.exchange(depth, std::memory_order_relaxed);
    start = depth > 0 && old == 0 && !prefetch_thread_.joinable();
  }
  if (depth == 0) {
    StopReadAhead();
    return;
  }
  if (start) {
    prefetch_stop_ = false;
    prefetch_thread_ = std::thread([this] { ReadAheadLoop(); });
  }
}

bool BufferPool::Contains(PageId page) {
  if (page == kInvalidPage || capacity_ == 0) return false;
  Shard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.find(page) != shard.index.end();
}

void BufferPool::Prefetch(PageId page) {
  if (read_ahead_depth_.load(std::memory_order_relaxed) == 0) return;
  if (page == kInvalidPage || capacity_ == 0) return;
  {
    // Already resident? Pure index probe — no LRU touch, no counters, so a
    // speculative inquiry never perturbs what the demand path measures.
    Shard& shard = ShardFor(page);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(page) != shard.index.end()) return;
  }
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    if (prefetch_queue_.size() >= kMaxPrefetchQueue) return;
    if (!prefetch_queued_.insert(page).second) return;
    prefetch_queue_.push_back(page);
    prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  }
  prefetch_cv_.notify_one();
}

void BufferPool::DrainPrefetches() {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  prefetch_idle_cv_.wait(
      lock, [this] { return prefetch_queue_.empty() && !prefetch_busy_; });
}

void BufferPool::ReadAheadLoop() {
  for (;;) {
    PageId page;
    {
      std::unique_lock<std::mutex> lock(prefetch_mu_);
      prefetch_cv_.wait(
          lock, [this] { return prefetch_stop_ || !prefetch_queue_.empty(); });
      if (prefetch_stop_) return;
      page = prefetch_queue_.front();
      prefetch_queue_.pop_front();
      prefetch_queued_.erase(page);
      prefetch_busy_ = true;
    }
    FulfillPrefetch(page);
    {
      std::lock_guard<std::mutex> lock(prefetch_mu_);
      prefetch_busy_ = false;
    }
    prefetch_idle_cv_.notify_all();
  }
}

void BufferPool::FulfillPrefetch(PageId page) {
  {
    Shard& shard = ShardFor(page);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(page) != shard.index.end()) return;
  }
  // Physical read outside every lock. A failure is dropped on the floor by
  // design: the demand fetch will re-read with retry semantics and report
  // through the proper (scoped) latch — a speculative thread latching errors
  // would attribute faults to whichever query ran next.
  const uint64_t discards = discards_.load(std::memory_order_acquire);
  std::vector<uint8_t> data(Pager::kPageSize);
  util::Status status = pager_->ReadPage(page, data.data());
  if (!status.ok()) return;
  Shard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.index.find(page) != shard.index.end()) return;
  // A Discard since the read began may have freed this page for reuse.
  if (discards_.load(std::memory_order_acquire) != discards) return;
  EvictForSpace(&shard);
  if (shard.lru.size() >= per_shard_capacity_) return;  // all pinned: drop
  shard.lru.push_front(Frame{page, 0, true, std::move(data)});
  shard.index.emplace(page, shard.lru.begin());
}

void BufferPool::StopReadAhead() {
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    if (!prefetch_thread_.joinable()) return;
    prefetch_stop_ = true;
    prefetch_queue_.clear();
    prefetch_queued_.clear();
  }
  prefetch_cv_.notify_all();
  prefetch_thread_.join();
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    prefetch_stop_ = false;
    prefetch_thread_ = std::thread();
  }
}

}  // namespace viewjoin::storage
