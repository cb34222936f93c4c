#ifndef VIEWJOIN_UTIL_FAULT_INJECTION_H_
#define VIEWJOIN_UTIL_FAULT_INJECTION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace viewjoin::util {

/// Fault applied to a physical page write.
enum class WriteFault {
  kNone = 0,
  kShortWrite,  // only a prefix of the page reaches the file; the write fails
  kTornPage,    // the tail of the page is garbage, but the write "succeeds"
  kBitFlip,     // one payload bit flips after the checksum was computed
  kNoSpace,     // the device is full (ENOSPC); nothing reaches the file
};

/// Simulated kill -9 instants inside the view-install protocol (data
/// write+sync -> journal commit). When the armed point is reached the
/// storage layer abandons the operation exactly as a crash would — no
/// cleanup, no rollback, files left mid-flight — and surfaces
/// kIoError("injected crash ..."); the crash-matrix test then reopens the
/// store and asserts recovery.
enum class CrashPoint {
  kNone = 0,
  kCrashAfterDataSync,  // pages written+synced to the main file, no commit
  kCrashMidJournal,     // journal commit record torn mid-record (short write)
  // Update-batch crash points (ApplyUpdateBatch): the batch is one manifest
  // transaction — kUpdateBegin, per-view installs, kUpdateCommit — so a crash
  // anywhere before the commit record must roll the whole batch back.
  kCrashMidDeltaMerge,    // some views of the batch installed, others not
  kCrashBeforeEpochBump,  // all views staged+installed, commit record missing
  kCrashAfterEpochBump,   // commit durable; new versions not yet registered,
                          // old ones not yet retired
  // Checkpoint compaction crash point: the rewritten journal torn mid-write,
  // tmp left on disk, the original journal untouched.
  kCrashMidCompaction,
  // Hot-backup crash point: the backup copy dies mid-page, leaving a partial
  // image directory. The SOURCE store must be byte-identical afterwards —
  // backup is strictly read-only over the live files.
  kCrashMidBackupCopy,
};

/// Human-readable crash-point name (test matrix labels).
const char* CrashPointName(CrashPoint point);

/// Deterministic, programmatically-armed fault injector consulted by the
/// pager (page reads and writes) and by storage/file.h (disk charges,
/// flushes, torn crash writes). Tests arm a fault relative to the current
/// operation count ("fail the 2nd read from now"), run the scenario, and
/// assert on the surfaced Status — no real disk faults or flaky timing.
///
/// Thread-safe: the pager hooks and arming calls are mutex-guarded, so fault
/// tests can run against concurrent ExecuteBatch workers ("fail the next N
/// reads, whichever thread issues them"). All state lives in the process-wide
/// instance returned by Global(); prefer ScopedFaultInjection in tests so a
/// failing test cannot leak armed faults into the next one.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Disarms everything and clears the counters.
  void Reset();

  /// Arms `count` consecutive failing read attempts starting at the `nth`
  /// upcoming physical read (1-based; nth=1 fails the very next read).
  /// count < 0 means every read from that point on fails.
  void ArmReadFault(uint64_t nth, int count = 1);

  /// Arms `kind` on `count` consecutive writes starting at the `nth` upcoming
  /// page write (1-based). count < 0 applies it to every write from there on.
  void ArmWriteFault(WriteFault kind, uint64_t nth, int count = 1);

  /// Arms `kind` on the `nth` upcoming *header* write (1-based). Header
  /// writes — the pager file header and the manifest journal header /
  /// checkpoint — are counted on a channel separate from page writes, so
  /// arming one cannot shift the page-write counting existing tests rely on.
  void ArmHeaderWriteFault(WriteFault kind, uint64_t nth, int count = 1);

  /// Arms a failure of the `nth` upcoming Flush/Sync call (1-based): a
  /// pager sync or close, the fsync of a manifest journal append (whose
  /// record then lands whole while the append reports failure), or a
  /// directory sync after a file's creation or rename.
  /// count < 0 fails every flush from that point on.
  void ArmFlushFault(uint64_t nth, int count = 1);

  /// Arms the budgeted free-space injector: the next `budget_bytes` bytes of
  /// charged writes succeed, and every write after the budget is exhausted
  /// fails as ENOSPC — exactly how a filling disk behaves (writes succeed
  /// until the device is full, then everything fails until space is freed).
  /// The exhausted state is sticky until Reset()/DisarmDiskBudget(). A
  /// budget of 0 makes the very next charged write fail.
  void ArmDiskBudget(uint64_t budget_bytes);

  /// Disarms the free-space injector; charged writes stop being counted.
  void DisarmDiskBudget();

  /// Arms a simulated crash at `point`; fires on the `nth` time that point
  /// is reached (1-based). Only one crash point is armed at a time.
  void ArmCrashPoint(CrashPoint point, uint64_t nth = 1);

  /// Arms a barrier at the engine's post-recovery point: after a faulting
  /// query quarantines and rebuilds a view, its worker blocks inside
  /// OnRecoveryPoint() until ReleaseRecoveryBarrier() (or Reset()) runs.
  /// Lets a test pin an event — e.g. flipping a cancellation token —
  /// deterministically between the rebuild and the retry run, with no
  /// sleep-based timing.
  void ArmRecoveryBarrier();

  /// Releases (and disarms) an armed recovery barrier. Safe to call before
  /// the barrier is reached: the recovering worker then passes through.
  void ReleaseRecoveryBarrier();

  /// Arms a barrier at the engine's update-maintenance point: after an
  /// update batch has mutated the document and released the document lock,
  /// and before its catalog transaction, the updater blocks inside
  /// OnUpdateMaintenancePoint() until ReleaseUpdateBarrier() (or Reset())
  /// runs. Lets a test land queries — and the rebuilds they trigger — in
  /// that window deterministically.
  void ArmUpdateBarrier();

  /// Releases (and disarms) an armed update barrier.
  void ReleaseUpdateBarrier();

  /// True while an updater is blocked at the armed update barrier.
  bool update_barrier_reached() const {
    std::lock_guard<std::mutex> lock(mu_);
    return update_barrier_waiting_;
  }

  bool armed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_remaining_ != 0 || write_remaining_ != 0 ||
           header_remaining_ != 0 || flush_remaining_ != 0 ||
           crash_point_ != CrashPoint::kNone || disk_budget_armed_;
  }

  // ---- Pager hooks ---------------------------------------------------------

  /// Consumes one read-attempt slot; true → the pager must fail this attempt
  /// as a short read.
  bool OnReadAttempt();

  /// Consumes one write slot and returns the fault to apply (kNone usually).
  WriteFault OnWriteAttempt();

  /// Consumes one header-write slot (pager header, journal header or
  /// checkpoint) and returns the fault to apply.
  WriteFault OnHeaderWriteAttempt();

  /// Consumes one flush slot; true → the Flush/Sync must report failure.
  bool OnFlushAttempt();

  /// Charges `bytes` against an armed disk budget; true → the write must
  /// fail as ENOSPC (typed kResourceExhausted) WITHOUT touching the file.
  /// Always false when no budget is armed. A charge that would overdraw the
  /// budget pins it to zero, so every later write fails too (full disk).
  bool OnDiskCharge(uint64_t bytes);

  /// True (once) when execution reaches the armed crash point; the caller
  /// must then abandon the operation mid-flight. Unmatched points never fire.
  bool AtCrashPoint(CrashPoint point);

  /// Engine hook at the quarantine-recovery retry point: blocks while an
  /// armed recovery barrier is unreleased, no-op otherwise.
  void OnRecoveryPoint();

  /// Engine hook between an update batch's document phase and its catalog
  /// transaction: blocks while an armed update barrier is unreleased.
  void OnUpdateMaintenancePoint();

  // ---- Observability -------------------------------------------------------

  uint64_t reads_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_seen_;
  }
  uint64_t writes_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writes_seen_;
  }
  uint64_t injected_read_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_read_faults_;
  }
  uint64_t injected_write_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_write_faults_;
  }
  uint64_t injected_crashes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_crashes_;
  }
  uint64_t injected_no_space_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_no_space_faults_;
  }
  /// Bytes left in an armed disk budget (0 when exhausted or disarmed).
  uint64_t disk_budget_remaining() const {
    std::lock_guard<std::mutex> lock(mu_);
    return disk_budget_armed_ ? disk_budget_remaining_ : 0;
  }

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  uint64_t reads_seen_ = 0;
  uint64_t writes_seen_ = 0;
  uint64_t injected_read_faults_ = 0;
  uint64_t injected_write_faults_ = 0;

  uint64_t read_trigger_ = 0;   // absolute read index at which faults start
  int64_t read_remaining_ = 0;  // faults left to fire; -1 = unbounded

  uint64_t write_trigger_ = 0;
  int64_t write_remaining_ = 0;
  WriteFault write_kind_ = WriteFault::kNone;

  uint64_t headers_seen_ = 0;
  uint64_t header_trigger_ = 0;
  int64_t header_remaining_ = 0;
  WriteFault header_kind_ = WriteFault::kNone;

  uint64_t flushes_seen_ = 0;
  uint64_t flush_trigger_ = 0;
  int64_t flush_remaining_ = 0;

  bool disk_budget_armed_ = false;
  uint64_t disk_budget_remaining_ = 0;
  uint64_t injected_no_space_faults_ = 0;

  CrashPoint crash_point_ = CrashPoint::kNone;
  uint64_t crash_trigger_ = 0;   // nth reach of the point at which it fires
  uint64_t crash_reached_ = 0;   // times the armed point has been reached
  uint64_t injected_crashes_ = 0;

  std::condition_variable barrier_cv_;
  bool recovery_barrier_armed_ = false;
  bool update_barrier_armed_ = false;
  bool update_barrier_waiting_ = false;
};

// ---- Network fault injection ----------------------------------------------

/// Fault applied to one socket send/recv call (server/net.cc consults the
/// injector on every call). These are the wire-level analogues of the pager
/// faults above: deterministic stand-ins for the partial I/O, RSTs and
/// stalls a real network produces, so every server degradation path is
/// testable without flaky timing or packet-mangling privileges.
enum class SocketFault {
  kNone = 0,
  kShortRead,   // recv delivers a 1-byte prefix on this call
  kShortWrite,  // send consumes a 1-byte prefix on this call
  kReset,       // the connection is hard-closed (RST on the wire); call fails
  kStall,       // the call sleeps for the armed stall before proceeding
};

/// Human-readable fault name ("short-read", "reset", ...).
const char* SocketFaultName(SocketFault fault);

/// Which end of a connection an armed socket fault targets. In-process tests
/// run client and server sockets side by side; targeting one end keeps the
/// nth-call counting deterministic regardless of how the other end's I/O
/// interleaves.
enum class SocketEnd {
  kAny = 0,
  kClient,
  kServer,
};

/// Deterministic socket-fault injector, mirroring FaultInjector's arming
/// model: arm `kind` on the `nth` upcoming matching call ("reset the 2nd
/// server-side recv from now"). Only calls whose end matches the armed
/// target consume slots. Thread-safe; state lives in Global(). Prefer
/// ScopedSocketFaultInjection in tests.
class SocketFaultInjector {
 public:
  static SocketFaultInjector& Global();

  /// Disarms everything and clears the counters.
  void Reset();

  /// Arms `kind` on `count` consecutive recv calls at `target` ends,
  /// starting with the `nth` matching call from now (1-based). count < 0
  /// applies it to every matching recv from that point on.
  void ArmRecvFault(SocketFault kind, uint64_t nth, int count = 1,
                    SocketEnd target = SocketEnd::kAny);

  /// Same for send calls.
  void ArmSendFault(SocketFault kind, uint64_t nth, int count = 1,
                    SocketEnd target = SocketEnd::kAny);

  /// Duration of a kStall fault, in milliseconds (default 50).
  void set_stall_ms(double ms);
  double stall_ms() const;

  bool armed() const;

  // ---- net.cc hooks --------------------------------------------------------

  /// Consumes one matching recv slot and returns the fault to apply.
  SocketFault OnRecvAttempt(SocketEnd end);

  /// Consumes one matching send slot and returns the fault to apply.
  SocketFault OnSendAttempt(SocketEnd end);

  // ---- Observability -------------------------------------------------------

  uint64_t recvs_seen() const;
  uint64_t sends_seen() const;
  uint64_t injected_faults() const;

 private:
  SocketFaultInjector() = default;

  static bool Matches(SocketEnd target, SocketEnd end) {
    return target == SocketEnd::kAny || target == end;
  }

  mutable std::mutex mu_;
  uint64_t recvs_seen_ = 0;
  uint64_t sends_seen_ = 0;
  uint64_t injected_faults_ = 0;
  double stall_ms_ = 50;

  // Matching-call counters restart at arming time, so "nth" always means
  // "nth matching call from now" regardless of earlier traffic.
  uint64_t recv_matching_seen_ = 0;
  uint64_t recv_trigger_ = 0;
  int64_t recv_remaining_ = 0;
  SocketFault recv_kind_ = SocketFault::kNone;
  SocketEnd recv_target_ = SocketEnd::kAny;

  uint64_t send_matching_seen_ = 0;
  uint64_t send_trigger_ = 0;
  int64_t send_remaining_ = 0;
  SocketFault send_kind_ = SocketFault::kNone;
  SocketEnd send_target_ = SocketEnd::kAny;
};

/// RAII guard for tests: resets the global injector on entry and exit.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection() { FaultInjector::Global().Reset(); }
  ~ScopedFaultInjection() { FaultInjector::Global().Reset(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector& operator*() { return FaultInjector::Global(); }
  FaultInjector* operator->() { return &FaultInjector::Global(); }
};

/// RAII guard for tests: resets the global socket injector on entry and exit.
class ScopedSocketFaultInjection {
 public:
  ScopedSocketFaultInjection() { SocketFaultInjector::Global().Reset(); }
  ~ScopedSocketFaultInjection() { SocketFaultInjector::Global().Reset(); }

  ScopedSocketFaultInjection(const ScopedSocketFaultInjection&) = delete;
  ScopedSocketFaultInjection& operator=(const ScopedSocketFaultInjection&) =
      delete;

  SocketFaultInjector& operator*() { return SocketFaultInjector::Global(); }
  SocketFaultInjector* operator->() { return &SocketFaultInjector::Global(); }
};

}  // namespace viewjoin::util

#endif  // VIEWJOIN_UTIL_FAULT_INJECTION_H_
