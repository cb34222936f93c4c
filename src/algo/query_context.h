#ifndef VIEWJOIN_ALGO_QUERY_CONTEXT_H_
#define VIEWJOIN_ALGO_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace viewjoin::algo {

/// Why a governed query stopped early. First requested reason wins; later
/// requests (e.g. the watchdog firing after a budget abort) are ignored.
enum class AbortReason {
  kNone = 0,
  kDeadline,      // wall-clock deadline expired
  kCancelled,     // the caller flipped the cancellation token
  kMemoryBudget,  // buffered intermediate solutions exceeded the budget
  kDiskBudget,    // spilled intermediate solutions exceeded the budget
};

const char* AbortReasonName(AbortReason reason);

/// Per-query governance state threaded through every evaluation loop:
/// deadline, cooperative cancellation token, memory/disk budgets, and
/// progress counters. One context governs one query (across its engine-level
/// recovery and degradation attempts); the engine configures it before
/// evaluation and reads the abort verdict after.
///
/// Cost model: the hot path is Checkpoint(), one relaxed atomic load plus a
/// counter decrement per advance. The clock and the cancellation token are
/// only consulted every kCheckInterval advances, so governance overhead is
/// amortized to noise (the acceptance bar is < 3% on the paper's Fig. 5
/// paths). Evaluation loops additionally test aborted() in their conditions
/// so an abort requested by another thread (the server watchdog) is observed
/// within one loop iteration.
///
/// Thread model: configuration and budget accounting belong to the owning
/// worker thread; RequestAbort() and FireIfExpired() are safe from any
/// thread (the watchdog). A default-constructed context is ungoverned — no
/// deadline, no token, no budgets — and never aborts, so algorithms can run
/// against a local default instead of null-checking.
class QueryContext {
 public:
  /// Advances between two full (clock + token) checkpoint inspections.
  static constexpr uint32_t kCheckInterval = 2048;

  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // --- Configuration (owning thread, before evaluation) ---

  /// Arms (or re-arms) the deadline `ms` milliseconds from now. Stored as an
  /// atomic so the watchdog can poll it concurrently (FireIfExpired()).
  void set_deadline_after_ms(double ms) {
    deadline_ns_.store(NowNanos() + static_cast<int64_t>(ms * 1e6),
                       std::memory_order_relaxed);
  }
  void set_cancel_token(const std::atomic<bool>* token) { cancel_ = token; }
  /// Budgets are in bytes; 0 means unlimited.
  void set_memory_budget(uint64_t bytes) { memory_budget_ = bytes; }
  void set_disk_budget(uint64_t bytes) { disk_budget_ = bytes; }

  // --- Hot path ---

  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

  /// Amortized governance check; call once per advance/emit. Returns true
  /// once the query must stop (deadline, cancel, budget, or watchdog).
  bool Checkpoint() {
    if (aborted()) return true;
    if (--until_check_ > 0) return false;
    return SlowCheckpoint();
  }

  /// Checkpoint charging `n` units of work at once — the batch analogue used
  /// by block-at-a-time skips, which pass whole pages per call instead of
  /// advancing entry by entry. Equivalent governance cadence to calling
  /// Checkpoint() n times, without the n loop iterations.
  bool CheckpointN(uint32_t n) {
    if (aborted()) return true;
    until_check_ -= static_cast<int32_t>(n < kCheckInterval ? n : kCheckInterval);
    if (until_check_ > 0) return false;
    return SlowCheckpoint();
  }

  // --- Budget accounting (owning thread) ---

  void ChargeMemory(uint64_t bytes) {
    memory_used_ += bytes;
    if (memory_used_ > peak_memory_) peak_memory_ = memory_used_;
    if (memory_budget_ != 0 && memory_used_ > memory_budget_) {
      RequestAbort(AbortReason::kMemoryBudget);
    }
  }
  void ReleaseMemory(uint64_t bytes) {
    memory_used_ = bytes < memory_used_ ? memory_used_ - bytes : 0;
  }
  void ChargeDisk(uint64_t bytes) {
    disk_used_ += bytes;
    if (disk_budget_ != 0 && disk_used_ > disk_budget_) {
      RequestAbort(AbortReason::kDiskBudget);
    }
  }

  // --- Cross-thread control (watchdog, callers) ---

  /// Requests a stop; the first reason wins. Safe from any thread.
  void RequestAbort(AbortReason reason) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_relaxed);
    aborted_.store(true, std::memory_order_release);
  }
  /// The watchdog's step: fires kDeadline when an armed deadline lies in
  /// the past. Check and fire are one step with respect to ResetForQuery(),
  /// so a watchdog that saw query N's deadline expire can never abort query
  /// N+1 on a reused context. Safe from any thread; true when it fired.
  bool FireIfExpired() {
    std::lock_guard<std::mutex> lock(arm_mu_);
    if (!DeadlineExpired()) return false;
    RequestAbort(AbortReason::kDeadline);
    return true;
  }

  // --- Attempt lifecycle (owning thread) ---

  /// Clears the abort verdict and per-attempt budget accounting before a new
  /// evaluation attempt (the memory→disk downgrade or a retry). The
  /// deadline, token, budgets, peak and checkpoint counters persist.
  void ResetForRetry() {
    aborted_.store(false, std::memory_order_relaxed);
    reason_.store(0, std::memory_order_relaxed);
    memory_used_ = 0;
    disk_used_ = 0;
    until_check_ = kCheckInterval;
  }
  /// Starts a new query on a reused context: disarms the deadline and clears
  /// the abort verdict, the attempt accounting and the per-query peak and
  /// checkpoint counters. Serialized with FireIfExpired() (see there).
  void ResetForQuery() {
    std::lock_guard<std::mutex> lock(arm_mu_);
    deadline_ns_.store(0, std::memory_order_relaxed);
    ResetForRetry();
    peak_memory_ = 0;
    checkpoints_ = 0;
  }

  // --- Observation ---

  AbortReason reason() const {
    return static_cast<AbortReason>(reason_.load(std::memory_order_relaxed));
  }
  uint64_t memory_used() const { return memory_used_; }
  uint64_t peak_memory_bytes() const { return peak_memory_; }
  uint64_t disk_used() const { return disk_used_; }
  /// Number of slow (clock + token) checkpoint inspections performed.
  uint64_t checkpoints() const { return checkpoints_; }

 private:
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool SlowCheckpoint();

  /// True once an armed deadline lies in the past.
  bool DeadlineExpired() const {
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != 0 && NowNanos() >= deadline;
  }

  /// Orders FireIfExpired() against ResetForQuery(): a deadline check and
  /// the abort it fires happen within one arming. Never taken on the hot
  /// path (Checkpoint() stays lock-free).
  std::mutex arm_mu_;
  std::atomic<int64_t> deadline_ns_{0};  // 0 = no deadline armed
  const std::atomic<bool>* cancel_ = nullptr;
  uint64_t memory_budget_ = 0;
  uint64_t disk_budget_ = 0;
  uint64_t memory_used_ = 0;
  uint64_t peak_memory_ = 0;
  uint64_t disk_used_ = 0;
  uint64_t checkpoints_ = 0;
  int32_t until_check_ = kCheckInterval;
  std::atomic<int> reason_{0};
  std::atomic<bool> aborted_{false};
};

}  // namespace viewjoin::algo

#endif  // VIEWJOIN_ALGO_QUERY_CONTEXT_H_
