#include "storage/page_reclaimer.h"

#include <algorithm>

namespace viewjoin::storage {

PageReclaimer::Pin& PageReclaimer::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = std::exchange(other.owner_, nullptr);
    epoch_ = other.epoch_;
    backup_ = other.backup_;
  }
  return *this;
}

void PageReclaimer::Pin::Release() {
  if (owner_ != nullptr) {
    std::exchange(owner_, nullptr)->Unregister(epoch_, backup_);
  }
}

PageReclaimer::Pin PageReclaimer::Register(bool backup) {
  Pin pin;
  std::lock_guard<std::mutex> lock(mu_);
  // Read under the lock: a Retire ordered after this pin stamps an epoch at
  // least this one, and one ordered before it stamps at most this one.
  const uint64_t epoch = epoch_->load(std::memory_order_acquire);
  if (!pins_.empty() && pins_.back().first == epoch) {
    ++pins_.back().second;
  } else {
    pins_.emplace_back(epoch, 1);
  }
  if (backup) ++backup_pins_;
  pin.owner_ = this;
  pin.epoch_ = epoch;
  pin.backup_ = backup;
  return pin;
}

void PageReclaimer::Unregister(uint64_t epoch, bool backup) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::lower_bound(
      pins_.begin(), pins_.end(), epoch,
      [](const std::pair<uint64_t, uint32_t>& e, uint64_t v) {
        return e.first < v;
      });
  --it->second;
  while (!pins_.empty() && pins_.front().second == 0) pins_.pop_front();
  if (backup) --backup_pins_;
}

void PageReclaimer::Retire(std::vector<PageId> pages) {
  if (pages.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back({epoch_->load(std::memory_order_acquire),
                      std::move(pages)});
}

void PageReclaimer::AddFree(const std::vector<PageId>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.insert(pages.begin(), pages.end());
}

void PageReclaimer::ReclaimLocked() {
  std::vector<PageId> held;
  while (!pending_.empty() &&
         (pins_.empty() || pins_.front().first >= pending_.front().epoch)) {
    std::vector<PageId> pages = std::move(pending_.front().pages);
    pending_.pop_front();
    std::vector<PageId> pinned = pool_->Discard(pages);
    std::sort(pinned.begin(), pinned.end());
    for (PageId page : pages) {
      if (std::binary_search(pinned.begin(), pinned.end(), page)) {
        held.push_back(page);
      } else {
        free_.insert(page);
      }
    }
  }
  // A frame still pinned means someone still reads the old bytes through
  // the pool; retry those pages at the next allocation.
  if (!held.empty()) pending_.push_front({0, std::move(held)});
}

std::vector<PageId> PageReclaimer::Allocate(uint32_t count, PageId tail) {
  std::vector<PageId> ids;
  ids.reserve(count);
  std::lock_guard<std::mutex> lock(mu_);
  if (backup_pins_ == 0) {
    ReclaimLocked();
    while (ids.size() < count && !free_.empty()) {
      ids.push_back(*free_.begin());
      free_.erase(free_.begin());
    }
  }
  while (ids.size() < count) ids.push_back(tail++);
  return ids;
}

void PageReclaimer::Unallocate(const std::vector<PageId>& ids,
                               PageId page_count) {
  std::lock_guard<std::mutex> lock(mu_);
  for (PageId id : ids) {
    if (id < page_count) free_.insert(id);
  }
}

size_t PageReclaimer::free_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

size_t PageReclaimer::pending_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t pages = 0;
  for (const Retired& r : pending_) pages += r.pages.size();
  return pages;
}

size_t PageReclaimer::live_pins() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t pins = 0;
  for (const auto& [epoch, count] : pins_) pins += count;
  return pins;
}

}  // namespace viewjoin::storage
