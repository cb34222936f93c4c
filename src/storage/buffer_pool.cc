#include "storage/buffer_pool.h"

#include <algorithm>
#include <utility>

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
      data_(frame->values ? nullptr : frame->data.data()),
      values_(frame->values.get()) {}

BufferPool::PinnedPage::PinnedPage(PageId page, const uint8_t* data,
                                   const uint32_t* values)
    : page_(page), data_(data), values_(values) {}

BufferPool::PinnedPage::PinnedPage(const PinnedPage& other)
    : pool_(other.pool_),
      shard_(other.shard_),
      frame_(other.frame_),
      page_(other.page_),
      data_(other.data_),
      values_(other.values_) {
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

BufferPool::PinnedPage::PinnedPage(PinnedPage&& other) noexcept {
  Steal(&other);
}

BufferPool::PinnedPage& BufferPool::PinnedPage::operator=(
    PinnedPage&& other) noexcept {
  if (this == &other) return *this;
  Release();
  Steal(&other);
  return *this;
}

void BufferPool::PinnedPage::Steal(PinnedPage* other) {
  pool_ = std::exchange(other->pool_, nullptr);
  shard_ = std::exchange(other->shard_, nullptr);
  frame_ = std::exchange(other->frame_, nullptr);
  page_ = std::exchange(other->page_, kInvalidPage);
  data_ = std::exchange(other->data_, nullptr);
  values_ = std::exchange(other->values_, nullptr);
}

void BufferPool::PinnedPage::Release() {
  if (frame_ != nullptr) pool_->Unpin(shard_, frame_);
  pool_ = nullptr;
  shard_ = nullptr;
  frame_ = nullptr;
  page_ = kInvalidPage;
  data_ = nullptr;
  values_ = nullptr;
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

void BufferPool::EvictForSpace(Shard* shard, size_t incoming) {
  while (shard->charge + incoming > per_shard_capacity_ &&
         !shard->lru.empty()) {
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
    Drop(shard, victim);
  }
}

BufferPool::Frame& BufferPool::Insert(Shard* shard, Frame frame) {
  const uint64_t key = FrameKey(frame.page, frame.values != nullptr);
  shard->charge += frame.charge;
  shard->lru.push_front(std::move(frame));
  shard->index.emplace(key, shard->lru.begin());
  return shard->lru.front();
}

void BufferPool::Drop(Shard* shard, std::list<Frame>::iterator it) {
  VJ_DCHECK(it->pins == 0);
  if (it->prefetched) {
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
  }
  shard->charge -= it->charge;
  shard->index.erase(FrameKey(it->page, it->values != nullptr));
  shard->lru.erase(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

BufferPool::PinnedPage BufferPool::PinDemanded(Shard* shard, Frame* frame) {
  if (frame->prefetched) {
    // Either a prefetch hit, or the read-ahead thread landed the page while
    // a demand read was in flight: the frame is demanded, not speculative.
    frame->prefetched = false;
  }
  ++frame->pins;
  return PinnedPage(this, shard, frame);
}

BufferPool::PinnedPage BufferPool::PinHit(Shard* shard,
                                          std::list<Frame>::iterator it) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  CreditScopes(&StatsScope::hits_);
  shard->lru.splice(shard->lru.begin(), shard->lru, it);
  if (it->prefetched) prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  return PinDemanded(shard, &*it);
}

void BufferPool::Unpin(Shard* shard, Frame* frame) {
  std::lock_guard<std::mutex> lock(shard->mu);
  VJ_DCHECK(frame->pins > 0);
  --frame->pins;
}

namespace {

util::Status CapacityZero() {
  return util::Status::InvalidArgument(
      "buffer pool has capacity 0; a pool needs at least one frame");
}

}  // namespace

util::Status BufferPool::Fetch(PageId page, PinnedPage* out) {
  if (capacity_ == 0) return CapacityZero();
  Shard& shard = ShardFor(page);
  const uint64_t key = FrameKey(page, /*decoded=*/false);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      *out = PinHit(&shard, it->second);
      return util::Status::Ok();
    }
  }
  // Miss: read outside the shard lock so hits on other pages of this shard
  // are not blocked behind the physical read.
  std::vector<uint8_t> data(Pager::kPageSize);
  util::Status status = pager_->ReadPage(page, data.data());
  CountMiss();
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  // (If another thread cached the page while we read, ours is dropped and
  // the already-cached copy is pinned — pages are immutable, both are equal.)
  Frame* frame = nullptr;
  if (it != shard.index.end()) {
    frame = &*it->second;
  } else {
    EvictForSpace(&shard, 1);
    Frame fresh;
    fresh.page = page;
    fresh.data = std::move(data);
    frame = &Insert(&shard, std::move(fresh));
  }
  *out = PinDemanded(&shard, frame);
  return util::Status::Ok();
}

BufferPool::PinnedPage BufferPool::GetPage(PageId page) {
  PinnedPage pin;
  util::Status status = Fetch(page, &pin);
  if (status.ok()) return pin;
  LatchError(status, page);
  // 0xFF poison: labels read as the exhausted-stream sentinel and pointers as
  // kNullEntry, so cursors terminate instead of chasing garbage.
  return PinnedPage(page, poison_.data(), nullptr);
}

namespace {

/// The per-thread raw page a decoded fetch reads into before decoding.
uint8_t* ThreadPageBuffer() {
  thread_local std::vector<uint8_t> buffer(Pager::kPageSize);
  return buffer.data();
}

/// Sentinel records in the single-buffer layout: what a poison page yields
/// under the fixed format, so governance sees the same values either way.
void FillSentinels(const DecodeKey& key, uint32_t* out) {
  const size_t labels =
      static_cast<size_t>(key.records) * key.layout.label_count;
  std::fill(out, out + 2 * labels, 0xFFFFFFFFu);  // starts, ends
  std::fill(out + 2 * labels, out + 3 * labels, 0u);  // levels
  std::fill(out + 3 * labels, out + DecodedValues(key.layout, key.records),
            0xFFFFFFFFu);  // pointers: kNullEntry
}

}  // namespace

uint32_t BufferPool::ChargeFor(const DecodeKey& key) {
  const size_t bytes =
      DecodedValues(key.layout, key.records) * sizeof(uint32_t);
  return std::max<uint32_t>(
      1, static_cast<uint32_t>((bytes + Pager::kPageSize - 1) /
                               Pager::kPageSize));
}

bool BufferPool::Decode(const uint8_t* payload, const DecodeKey& key,
                        uint32_t* out, bool demand) {
  pages_decoded_.fetch_add(1, std::memory_order_relaxed);
  if (demand) CreditScopes(&StatsScope::pages_decoded_);
  return DecodeDeltaPage(payload, key.layout, key.first_entry, key.records,
                         out)
      .ok();
}

BufferPool::PinnedPage BufferPool::GetDecoded(PageId page, const DecodeKey& key,
                                              std::vector<uint32_t>* scratch) {
  const size_t values = DecodedValues(key.layout, key.records);
  auto private_handle = [&] {
    return PinnedPage(page, nullptr, scratch->data());
  };
  auto sentinels = [&] {
    scratch->resize(values);
    FillSentinels(key, scratch->data());
    return private_handle();
  };
  if (capacity_ == 0) {
    LatchError(CapacityZero(), page);
    return sentinels();
  }
  Shard& shard = ShardFor(page);
  const uint64_t frame_key = FrameKey(page, /*decoded=*/true);
  bool mismatch = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(frame_key);
    if (it != shard.index.end()) {
      if (it->second->key == key) return PinHit(&shard, it->second);
      mismatch = true;
    }
  }
  // Miss: read and decode outside the shard lock.
  uint8_t* raw = ThreadPageBuffer();
  util::Status status = pager_->ReadPage(page, raw);
  CountMiss();
  if (!status.ok()) {
    LatchError(status, page);
    return sentinels();
  }
  if (mismatch) {
    decode_mismatches_.fetch_add(1, std::memory_order_relaxed);
    scratch->resize(values);
    if (!Decode(raw, key, scratch->data(), /*demand=*/true)) return sentinels();
    return private_handle();
  }
  std::unique_ptr<uint32_t[]> block =
      std::make_unique_for_overwrite<uint32_t[]>(values);
  if (!Decode(raw, key, block.get(), /*demand=*/true)) {
    // Failed delta decode (torn/corrupt page): sentinels, never cached. The
    // catalog's checksum/scrub machinery owns the actual fault handling.
    return sentinels();
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(frame_key);
  if (it == shard.index.end()) {
    Frame fresh;
    fresh.page = page;
    fresh.charge = ChargeFor(key);
    EvictForSpace(&shard, fresh.charge);
    fresh.key = key;
    fresh.values = std::move(block);
    return PinDemanded(&shard, &Insert(&shard, std::move(fresh)));
  }
  // Another thread cached the page while we read: pin its frame when it
  // decodes under our key (both decodes are equal), else serve ours.
  if (it->second->key == key) return PinDemanded(&shard, &*it->second);
  decode_mismatches_.fetch_add(1, std::memory_order_relaxed);
  scratch->assign(block.get(), block.get() + values);
  return private_handle();
}

void BufferPool::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  CreditScopes(&StatsScope::misses_);
}

void BufferPool::CreditScopes(uint64_t StatsScope::*counter) {
  for (StatsScope* scope = g_stats_scope; scope != nullptr;
       scope = scope->prev_) {
    if (scope->pool_ == this) ++(scope->*counter);
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
      auto next = std::next(it);
      if (it->pins == 0) Drop(&shard, it);
      it = next;
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
      std::erase_if(prefetch_queue_, [this](const PrefetchRequest& request) {
        return prefetch_queued_.count(request.page) == 0;
      });
    }
  }
  for (PageId page : pages) {
    Shard& shard = ShardFor(page);
    std::lock_guard<std::mutex> lock(shard.mu);
    bool held = false;
    for (bool decoded : {false, true}) {
      auto it = shard.index.find(FrameKey(page, decoded));
      if (it == shard.index.end()) continue;
      if (it->second->pins != 0) {
        held = true;
      } else {
        Drop(&shard, it->second);
      }
    }
    if (held) pinned.push_back(page);
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
  return shard.index.count(FrameKey(page, false)) != 0 ||
         shard.index.count(FrameKey(page, true)) != 0;
}

void BufferPool::Prefetch(PageId page) { Enqueue({page, false, {}}); }

void BufferPool::Prefetch(PageId page, const DecodeKey& key) {
  Enqueue({page, true, key});
}

void BufferPool::Enqueue(const PrefetchRequest& request) {
  if (read_ahead_depth_.load(std::memory_order_relaxed) == 0) return;
  if (request.page == kInvalidPage || capacity_ == 0) return;
  {
    // Already resident? Pure index probe — no LRU touch, no counters, so a
    // speculative inquiry never perturbs what the demand path measures.
    Shard& shard = ShardFor(request.page);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.count(FrameKey(request.page, request.decoded)) != 0) return;
  }
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    if (prefetch_queue_.size() >= kMaxPrefetchQueue) return;
    if (!prefetch_queued_.insert(request.page).second) return;
    prefetch_queue_.push_back(request);
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
    PrefetchRequest request;
    {
      std::unique_lock<std::mutex> lock(prefetch_mu_);
      prefetch_cv_.wait(
          lock, [this] { return prefetch_stop_ || !prefetch_queue_.empty(); });
      if (prefetch_stop_) return;
      request = prefetch_queue_.front();
      prefetch_queue_.pop_front();
      prefetch_queued_.erase(request.page);
      prefetch_busy_ = true;
    }
    FulfillPrefetch(request);
    {
      std::lock_guard<std::mutex> lock(prefetch_mu_);
      prefetch_busy_ = false;
    }
    prefetch_idle_cv_.notify_all();
  }
}

void BufferPool::FulfillPrefetch(const PrefetchRequest& request) {
  const PageId page = request.page;
  const uint64_t frame_key = FrameKey(page, request.decoded);
  Shard& shard = ShardFor(page);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.count(frame_key) != 0) return;
  }
  // Physical read (and decode) outside every lock. A failure is dropped on
  // the floor by design: the demand fetch will re-read with retry semantics
  // and report through the proper (scoped) latch — a speculative thread
  // latching errors would attribute faults to whichever query ran next.
  const uint64_t discards = discards_.load(std::memory_order_acquire);
  Frame fresh;
  fresh.page = page;
  fresh.prefetched = true;
  if (request.decoded) {
    fresh.charge = ChargeFor(request.key);
    uint8_t* raw = ThreadPageBuffer();
    if (!pager_->ReadPage(page, raw).ok()) return;
    fresh.key = request.key;
    fresh.values = std::make_unique_for_overwrite<uint32_t[]>(
        DecodedValues(request.key.layout, request.key.records));
    if (!Decode(raw, request.key, fresh.values.get(), /*demand=*/false)) {
      return;
    }
  } else {
    fresh.data.resize(Pager::kPageSize);
    if (!pager_->ReadPage(page, fresh.data.data()).ok()) return;
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.index.count(frame_key) != 0) return;
  // A Discard since the read began may have freed this page for reuse.
  if (discards_.load(std::memory_order_acquire) != discards) return;
  EvictForSpace(&shard, fresh.charge);
  // Still no room: what is left is pinned, so drop the speculative page.
  if (!shard.lru.empty() &&
      shard.charge + fresh.charge > per_shard_capacity_) {
    return;
  }
  Insert(&shard, std::move(fresh));
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
