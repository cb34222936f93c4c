#include "storage/scrubber.h"

#include <vector>

namespace viewjoin::storage {

namespace {

/// The non-empty stored lists of `view`, in scan order.
std::vector<const StoredList*> SegmentsOf(const MaterializedView* view) {
  std::vector<const StoredList*> segments;
  for (const StoredList& list : view->lists()) {
    if (list.count != 0) segments.push_back(&list);
  }
  if (view->tuple_list().count != 0) segments.push_back(&view->tuple_list());
  return segments;
}

uint32_t TotalPages(const std::vector<const StoredList*>& segments) {
  uint32_t total = 0;
  for (const StoredList* list : segments) total += list->PageSpan();
  return total;
}

/// Physical page id of the `index`-th page in scan order.
PageId PageAt(const std::vector<const StoredList*>& segments, uint32_t index) {
  for (const StoredList* list : segments) {
    uint32_t span = list->PageSpan();
    if (index < span) return list->pages[index];
    index -= span;
  }
  return kInvalidPage;
}

}  // namespace

Scrubber::Scrubber(ViewCatalog* catalog, Healer healer)
    : catalog_(catalog), healer_(std::move(healer)) {}

Scrubber::~Scrubber() { Stop(); }

uint32_t Scrubber::Step(uint32_t page_budget) {
  // Healing runs *after* the scan, outside mu_: the healer re-reads the
  // document under the engine's document lock, and query threads read
  // stats() while holding that same lock — invoking the healer under mu_
  // would invert the two orders into a potential deadlock.
  std::vector<const MaterializedView*> to_heal;
  uint32_t scanned = ScanLocked(page_budget, &to_heal);
  for (const MaterializedView* view : to_heal) {
    util::Status healed = healer_(view);
    std::lock_guard<std::mutex> lock(mu_);
    if (healed.ok()) {
      ++stats_.views_healed;
    } else {
      ++stats_.heal_failures;
    }
  }
  return scanned;
}

uint32_t Scrubber::ScanLocked(uint32_t page_budget,
                              std::vector<const MaterializedView*>* to_heal) {
  std::lock_guard<std::mutex> lock(mu_);
  // No query resolves to a retired version, so it is not scrubbed: its
  // pages may already hold another version's bytes. The pin keeps the
  // versions resolved here from being reused while this step reads them.
  const PageReclaimer::Pin pin = catalog_->PinReader();
  std::vector<const MaterializedView*> views = catalog_->LiveViews();
  std::vector<uint8_t> buffer(Pager::kPageSize);
  uint32_t scanned = 0;
  while (scanned < page_budget) {
    // The next live view at or after the cursor. Epoch order == install
    // order, so this resumes exactly where the previous step stopped.
    const MaterializedView* view = nullptr;
    for (const MaterializedView* v : views) {
      if (v->epoch() >= cursor_epoch_ && !catalog_->IsQuarantined(v)) {
        view = v;
        break;
      }
    }
    if (view == nullptr) {
      // Pass complete (or nothing to scan). End the step at the boundary —
      // wrapping inside one call could spin forever on an empty catalog.
      if (cursor_epoch_ != 0) ++stats_.full_passes;
      cursor_epoch_ = 0;
      cursor_page_ = 0;
      break;
    }
    if (view->epoch() > cursor_epoch_) cursor_page_ = 0;  // skipped ahead
    cursor_epoch_ = view->epoch();

    std::vector<const StoredList*> segments = SegmentsOf(view);
    const uint32_t total = TotalPages(segments);
    bool corrupt = false;
    while (cursor_page_ < total && scanned < page_budget && !corrupt) {
      PageId id = PageAt(segments, cursor_page_);
      util::Status status = catalog_->pager()->VerifyPage(id, buffer.data());
      ++scanned;
      ++stats_.pages_scanned;
      if (status.code() == util::StatusCode::kCorruption) {
        ++stats_.corrupt_pages;
        corrupt = true;
      }
      // A transient IoError is not evidence of rot: skip the page this pass,
      // the next lap re-checks it.
      ++cursor_page_;
    }
    if (corrupt) {
      catalog_->Quarantine(view);
      ++stats_.views_quarantined;
      if (healer_ != nullptr) to_heal->push_back(view);
    }
    if (corrupt || cursor_page_ >= total) {
      // Done with this view (healthy or handed off): move to the next one.
      cursor_epoch_ = view->epoch() + 1;
      cursor_page_ = 0;
    }
  }
  return scanned;
}

void Scrubber::Start(std::chrono::milliseconds interval,
                     uint32_t page_budget) {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread(&Scrubber::Loop, this, interval, page_budget);
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Scrubber::running() const {
  std::lock_guard<std::mutex> lock(thread_mu_);
  return thread_.joinable() && !stop_;
}

ScrubStats Scrubber::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Scrubber::Loop(std::chrono::milliseconds interval, uint32_t page_budget) {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_) {
    if (stop_cv_.wait_for(lock, interval, [this] { return stop_; })) break;
    lock.unlock();
    Step(page_budget);
    lock.lock();
  }
}

}  // namespace viewjoin::storage
