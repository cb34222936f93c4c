#include "util/fault_injection.h"

namespace viewjoin::util {

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kCrashAfterDataSync:
      return "after-data-sync";
    case CrashPoint::kCrashMidJournal:
      return "mid-journal";
    case CrashPoint::kCrashMidDeltaMerge:
      return "mid-delta-merge";
    case CrashPoint::kCrashBeforeEpochBump:
      return "before-epoch-bump";
    case CrashPoint::kCrashAfterEpochBump:
      return "after-epoch-bump";
    case CrashPoint::kCrashMidCompaction:
      return "mid-compaction";
    case CrashPoint::kCrashMidBackupCopy:
      return "mid-backup-copy";
  }
  return "?";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  reads_seen_ = 0;
  writes_seen_ = 0;
  injected_read_faults_ = 0;
  injected_write_faults_ = 0;
  read_trigger_ = 0;
  read_remaining_ = 0;
  write_trigger_ = 0;
  write_remaining_ = 0;
  write_kind_ = WriteFault::kNone;
  headers_seen_ = 0;
  header_trigger_ = 0;
  header_remaining_ = 0;
  header_kind_ = WriteFault::kNone;
  flushes_seen_ = 0;
  flush_trigger_ = 0;
  flush_remaining_ = 0;
  disk_budget_armed_ = false;
  disk_budget_remaining_ = 0;
  injected_no_space_faults_ = 0;
  crash_point_ = CrashPoint::kNone;
  crash_trigger_ = 0;
  crash_reached_ = 0;
  injected_crashes_ = 0;
  recovery_barrier_armed_ = false;
  update_barrier_armed_ = false;
  delta_spill_armed_ = false;
  barrier_cv_.notify_all();
}

void FaultInjector::ArmReadFault(uint64_t nth, int count) {
  std::lock_guard<std::mutex> lock(mu_);
  read_trigger_ = reads_seen_ + (nth == 0 ? 1 : nth);
  read_remaining_ = count;
}

void FaultInjector::ArmWriteFault(WriteFault kind, uint64_t nth, int count) {
  std::lock_guard<std::mutex> lock(mu_);
  write_trigger_ = writes_seen_ + (nth == 0 ? 1 : nth);
  write_remaining_ = kind == WriteFault::kNone ? 0 : count;
  write_kind_ = kind;
}

bool FaultInjector::OnReadAttempt() {
  std::lock_guard<std::mutex> lock(mu_);
  ++reads_seen_;
  if (read_remaining_ == 0 || reads_seen_ < read_trigger_) return false;
  if (read_remaining_ > 0) --read_remaining_;
  ++injected_read_faults_;
  return true;
}

WriteFault FaultInjector::OnWriteAttempt() {
  std::lock_guard<std::mutex> lock(mu_);
  ++writes_seen_;
  if (write_remaining_ == 0 || writes_seen_ < write_trigger_) {
    return WriteFault::kNone;
  }
  if (write_remaining_ > 0) --write_remaining_;
  ++injected_write_faults_;
  return write_kind_;
}

void FaultInjector::ArmHeaderWriteFault(WriteFault kind, uint64_t nth,
                                        int count) {
  std::lock_guard<std::mutex> lock(mu_);
  header_trigger_ = headers_seen_ + (nth == 0 ? 1 : nth);
  header_remaining_ = kind == WriteFault::kNone ? 0 : count;
  header_kind_ = kind;
}

WriteFault FaultInjector::OnHeaderWriteAttempt() {
  std::lock_guard<std::mutex> lock(mu_);
  ++headers_seen_;
  if (header_remaining_ == 0 || headers_seen_ < header_trigger_) {
    return WriteFault::kNone;
  }
  if (header_remaining_ > 0) --header_remaining_;
  ++injected_write_faults_;
  return header_kind_;
}

void FaultInjector::ArmFlushFault(uint64_t nth, int count) {
  std::lock_guard<std::mutex> lock(mu_);
  flush_trigger_ = flushes_seen_ + (nth == 0 ? 1 : nth);
  flush_remaining_ = count;
}

void FaultInjector::ArmDiskBudget(uint64_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_budget_armed_ = true;
  disk_budget_remaining_ = budget_bytes;
}

void FaultInjector::DisarmDiskBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  disk_budget_armed_ = false;
  disk_budget_remaining_ = 0;
}

bool FaultInjector::OnDiskCharge(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!disk_budget_armed_) return false;
  if (bytes > disk_budget_remaining_) {
    // Full disk: this write and every later one fail until space is freed
    // (Reset/DisarmDiskBudget). The remainder is pinned, not left fractional,
    // so a smaller follow-up write cannot sneak through a "full" device.
    disk_budget_remaining_ = 0;
    ++injected_no_space_faults_;
    return true;
  }
  disk_budget_remaining_ -= bytes;
  return false;
}

bool FaultInjector::OnFlushAttempt() {
  std::lock_guard<std::mutex> lock(mu_);
  ++flushes_seen_;
  if (flush_remaining_ == 0 || flushes_seen_ < flush_trigger_) return false;
  if (flush_remaining_ > 0) --flush_remaining_;
  return true;
}

void FaultInjector::ArmCrashPoint(CrashPoint point, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_point_ = point;
  crash_trigger_ = nth == 0 ? 1 : nth;
  crash_reached_ = 0;
}

void FaultInjector::ArmRecoveryBarrier() {
  std::lock_guard<std::mutex> lock(mu_);
  recovery_barrier_armed_ = true;
}

void FaultInjector::ReleaseRecoveryBarrier() {
  std::lock_guard<std::mutex> lock(mu_);
  recovery_barrier_armed_ = false;
  barrier_cv_.notify_all();
}

void FaultInjector::OnRecoveryPoint() {
  std::unique_lock<std::mutex> lock(mu_);
  barrier_cv_.wait(lock, [this] { return !recovery_barrier_armed_; });
}

void FaultInjector::ArmUpdateBarrier() {
  std::lock_guard<std::mutex> lock(mu_);
  update_barrier_armed_ = true;
}

void FaultInjector::ReleaseUpdateBarrier() {
  std::lock_guard<std::mutex> lock(mu_);
  update_barrier_armed_ = false;
  barrier_cv_.notify_all();
}

void FaultInjector::OnUpdateMaintenancePoint() {
  std::unique_lock<std::mutex> lock(mu_);
  update_barrier_waiting_ = update_barrier_armed_;
  barrier_cv_.wait(lock, [this] { return !update_barrier_armed_; });
  update_barrier_waiting_ = false;
}

bool FaultInjector::AtCrashPoint(CrashPoint point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (point != crash_point_ || point == CrashPoint::kNone) return false;
  if (++crash_reached_ < crash_trigger_) return false;
  crash_point_ = CrashPoint::kNone;  // a process crashes once
  ++injected_crashes_;
  return true;
}

const char* SocketFaultName(SocketFault fault) {
  switch (fault) {
    case SocketFault::kNone:
      return "none";
    case SocketFault::kShortRead:
      return "short-read";
    case SocketFault::kShortWrite:
      return "short-write";
    case SocketFault::kReset:
      return "reset";
    case SocketFault::kStall:
      return "stall";
  }
  return "?";
}

SocketFaultInjector& SocketFaultInjector::Global() {
  static SocketFaultInjector injector;
  return injector;
}

void SocketFaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  recvs_seen_ = 0;
  sends_seen_ = 0;
  injected_faults_ = 0;
  stall_ms_ = 50;
  recv_matching_seen_ = 0;
  recv_trigger_ = 0;
  recv_remaining_ = 0;
  recv_kind_ = SocketFault::kNone;
  recv_target_ = SocketEnd::kAny;
  send_matching_seen_ = 0;
  send_trigger_ = 0;
  send_remaining_ = 0;
  send_kind_ = SocketFault::kNone;
  send_target_ = SocketEnd::kAny;
}

void SocketFaultInjector::ArmRecvFault(SocketFault kind, uint64_t nth,
                                       int count, SocketEnd target) {
  std::lock_guard<std::mutex> lock(mu_);
  recv_matching_seen_ = 0;
  recv_trigger_ = nth == 0 ? 1 : nth;
  recv_remaining_ = kind == SocketFault::kNone ? 0 : count;
  recv_kind_ = kind;
  recv_target_ = target;
}

void SocketFaultInjector::ArmSendFault(SocketFault kind, uint64_t nth,
                                       int count, SocketEnd target) {
  std::lock_guard<std::mutex> lock(mu_);
  send_matching_seen_ = 0;
  send_trigger_ = nth == 0 ? 1 : nth;
  send_remaining_ = kind == SocketFault::kNone ? 0 : count;
  send_kind_ = kind;
  send_target_ = target;
}

void SocketFaultInjector::set_stall_ms(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_ms_ = ms;
}

double SocketFaultInjector::stall_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_ms_;
}

bool SocketFaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recv_remaining_ != 0 || send_remaining_ != 0;
}

uint64_t SocketFaultInjector::recvs_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recvs_seen_;
}

uint64_t SocketFaultInjector::sends_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sends_seen_;
}

uint64_t SocketFaultInjector::injected_faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_faults_;
}

SocketFault SocketFaultInjector::OnRecvAttempt(SocketEnd end) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recvs_seen_;
  if (recv_remaining_ == 0 || !Matches(recv_target_, end)) {
    return SocketFault::kNone;
  }
  if (++recv_matching_seen_ < recv_trigger_) return SocketFault::kNone;
  if (recv_remaining_ > 0) --recv_remaining_;
  ++injected_faults_;
  return recv_kind_;
}

SocketFault SocketFaultInjector::OnSendAttempt(SocketEnd end) {
  std::lock_guard<std::mutex> lock(mu_);
  ++sends_seen_;
  if (send_remaining_ == 0 || !Matches(send_target_, end)) {
    return SocketFault::kNone;
  }
  if (++send_matching_seen_ < send_trigger_) return SocketFault::kNone;
  if (send_remaining_ > 0) --send_remaining_;
  ++injected_faults_;
  return send_kind_;
}

}  // namespace viewjoin::util
