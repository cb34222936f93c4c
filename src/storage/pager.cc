#include "storage/pager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/file.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace viewjoin::storage {
namespace {

/// Optional simulated per-page read latency in microseconds (environment
/// variable VIEWJOIN_PAGE_READ_MICROS, default 0). Benchmarks can enable it
/// to approximate the paper's 2005-era disk, where the page accesses saved
/// by the LE scheme translate into wall-clock time; with the default the
/// timings are honest in-memory numbers and the saved pages show up only in
/// the read counters. Parsing is strict: a malformed value dies with the
/// typed error at the first page read instead of silently measuring with the
/// latency off.
int64_t SimulatedReadMicros() {
  static const int64_t value = [] {
    util::StatusOr<int64_t> parsed =
        util::ParseNonNegativeIntEnv("VIEWJOIN_PAGE_READ_MICROS", 0);
    VJ_CHECK(parsed.ok()) << parsed.status().ToString();
    return *parsed;
  }();
  return value;
}

/// With VIEWJOIN_PAGE_READ_SLEEP=1 the simulated latency sleeps instead of
/// spinning. A sleeping reader releases the CPU, so concurrent queries
/// overlap their simulated I/O exactly as parallel requests overlap on a
/// real disk — the mode bench_concurrency uses. The default (0) spin keeps
/// single-threaded timings deterministic on loaded hosts. Strict like
/// VIEWJOIN_PAGE_READ_MICROS: anything but 0/1/true/false dies with the
/// typed error rather than being coerced to a mode the operator didn't ask
/// for.
bool SimulatedReadSleeps() {
  static const bool value = [] {
    util::StatusOr<bool> parsed =
        util::ParseBoolEnv("VIEWJOIN_PAGE_READ_SLEEP", false);
    VJ_CHECK(parsed.ok()) << parsed.status().ToString();
    return *parsed;
  }();
  return value;
}

/// Burns or sleeps whatever remains of the configured per-page latency,
/// given a timer started when the read began. Called WITHOUT the pager
/// mutex held, so concurrent readers pay the latency in parallel.
void ApplySimulatedReadLatency(const util::Timer& timer) {
  int64_t simulated = SimulatedReadMicros();
  if (simulated <= 0) return;
  if (SimulatedReadSleeps()) {
    int64_t remaining = simulated - timer.ElapsedMicros();
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(remaining));
    }
    return;
  }
  while (timer.ElapsedMicros() < simulated) {
    // Busy-wait: simulated seek+transfer time for one page.
  }
}

constexpr char kFileMagic[8] = {'V', 'J', 'P', 'A', 'G', 'E', 'R', 'F'};
constexpr uint32_t kPageMagic = 0x47504A56u;  // "VJPG" little-endian

// Header field offsets (all little-endian u32 unless noted).
constexpr size_t kHdrMagicOff = 0;    // 8 bytes
constexpr size_t kHdrVersionOff = 8;
constexpr size_t kHdrPageSizeOff = 12;
constexpr size_t kHdrFooterSizeOff = 16;
constexpr size_t kHdrHeaderSizeOff = 20;
constexpr size_t kHdrCrcOff = Pager::kHeaderSize - 4;

// Footer field offsets within the physical page.
constexpr size_t kFtrMagicOff = Pager::kPageSize;
constexpr size_t kFtrPageIdOff = Pager::kPageSize + 4;
constexpr size_t kFtrCrcOff = Pager::kPageSize + 8;

// Deterministic payload position the bit-flip fault perturbs.
constexpr size_t kBitFlipByte = 64;
constexpr uint8_t kBitFlipMask = 0x08;

void PutU32(uint8_t* base, size_t off, uint32_t value) {
  std::memcpy(base + off, &value, 4);
}

uint32_t GetU32(const uint8_t* base, size_t off) {
  uint32_t value;
  std::memcpy(&value, base + off, 4);
  return value;
}

std::function<void(int)>& BackoffHook() {
  static std::function<void(int)> hook;
  return hook;
}

uint64_t PhysicalOffset(PageId id) {
  return Pager::kHeaderSize +
         static_cast<uint64_t>(id) * Pager::kPhysicalPageSize;
}

}  // namespace

void Pager::SetRetryBackoffHook(std::function<void(int)> hook) {
  BackoffHook() = std::move(hook);
}

Pager::Pager(const std::string& path, Mode mode) : path_(path), mode_(mode) {
  const bool existing = mode == Mode::kReopen || mode == Mode::kReadOnly;
  util::StatusOr<File> opened = File::Open(
      path, mode == Mode::kReopen     ? File::Mode::kReadWrite
            : mode == Mode::kReadOnly ? File::Mode::kReadOnly
                                      : File::Mode::kCreate);
  if (!opened.ok()) {
    init_status_ = opened.status();
    return;
  }
  file_ = std::move(*opened);
  init_status_ = existing ? ValidateExistingFile() : WriteHeader();
  // A durable store's file must survive a crash by name, not only by
  // content: its creation is made durable once, here.
  if (init_status_.ok() && mode == Mode::kPersist) {
    init_status_ = SyncDirectoryOf(path);
  }
  if (!init_status_.ok()) (void)file_.Close();
}

Pager::~Pager() {
  util::Status closed = Close();
  if (!closed.ok() && mode_ != Mode::kTruncate) {
    std::fprintf(stderr, "viewjoin: %s\n", closed.ToString().c_str());
  }
}

util::Status Pager::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!file_.is_open()) return close_status_;  // already closed (idempotent)
  // Writes go straight to the OS, so there is nothing left to flush; the
  // close-time flush stays an injectable event, and its verdict is latched
  // in close_status_ for ViewCatalog::Close to surface.
  if (mode_ == Mode::kPersist || mode_ == Mode::kReopen) {
    close_status_ = FlushFault("pager close-time flush failed for " + path_);
  }
  util::Status closed = file_.Close();
  if (close_status_.ok() && mode_ != Mode::kTruncate) close_status_ = closed;
  if (mode_ == Mode::kTruncate) RemoveFile(path_);
  if (!close_status_.ok() && last_error_.ok()) last_error_ = close_status_;
  return close_status_;
}

util::Status Pager::WriteHeader() {
  uint8_t header[kHeaderSize] = {0};
  std::memcpy(header + kHdrMagicOff, kFileMagic, sizeof(kFileMagic));
  PutU32(header, kHdrVersionOff, kFormatVersion);
  PutU32(header, kHdrPageSizeOff, static_cast<uint32_t>(kPageSize));
  PutU32(header, kHdrFooterSizeOff, static_cast<uint32_t>(kFooterSize));
  PutU32(header, kHdrHeaderSizeOff, static_cast<uint32_t>(kHeaderSize));
  PutU32(header, kHdrCrcOff, util::Crc32(header, kHdrCrcOff));

  // Header writes are injectable on their own channel (they happen at open
  // time, before any page traffic, so sharing the page-write counter would
  // shift every armed "nth write"). A short write leaves a truncated header
  // on disk and MUST fail the open: the next Reopen's header CRC would
  // otherwise read garbage geometry.
  util::Status charged = ChargeDisk(kHeaderSize, path_);
  if (!charged.ok()) return charged;
  const util::WriteFault fault =
      util::FaultInjector::Global().OnHeaderWriteAttempt();
  // A full disk rejects the write before any byte lands: the file stays
  // untouched (here: empty), so the failed open leaves nothing torn.
  if (fault == util::WriteFault::kNoSpace) return InjectedNoSpace(path_);
  const size_t write_bytes =
      ApplyWriteFault(fault, header, kHeaderSize, kHdrVersionOff, 0x01);
  util::Status written = file_.WriteAt(header, write_bytes, 0);
  if (written.ok() && write_bytes < kHeaderSize) {
    return util::Status::IoError("injected short write of the header of " +
                                 path_);
  }
  return written;
}

util::Status Pager::ValidateExistingFile() {
  const uint64_t size = file_.append_offset();  // the size at open
  if (size < kHeaderSize) {
    return util::Status::Corruption("pager file " + path_ +
                                    " is truncated (no file header)");
  }
  uint8_t header[kHeaderSize];
  util::Status read = file_.ReadAt(header, kHeaderSize, 0);
  if (!read.ok()) return read;
  if (std::memcmp(header + kHdrMagicOff, kFileMagic, sizeof(kFileMagic)) != 0) {
    return util::Status::Corruption(
        "pager file " + path_ +
        " has no valid header magic (pre-checksum format or foreign file)");
  }
  if (GetU32(header, kHdrCrcOff) != util::Crc32(header, kHdrCrcOff)) {
    return util::Status::Corruption("pager header checksum mismatch in " +
                                    path_);
  }
  if (GetU32(header, kHdrVersionOff) != kFormatVersion) {
    return util::Status::Corruption(
        "unsupported pager format version " +
        std::to_string(GetU32(header, kHdrVersionOff)) + " in " + path_);
  }
  if (GetU32(header, kHdrPageSizeOff) != kPageSize ||
      GetU32(header, kHdrFooterSizeOff) != kFooterSize ||
      GetU32(header, kHdrHeaderSizeOff) != kHeaderSize) {
    return util::Status::Corruption("pager page geometry mismatch in " + path_);
  }
  const uint64_t body = size - kHeaderSize;
  if (body % kPhysicalPageSize != 0) {
    return util::Status::Corruption(
        "pager file " + path_ + " is truncated: " + std::to_string(size) +
        " bytes is not a whole number of pages");
  }
  page_count_ = static_cast<uint32_t>(body / kPhysicalPageSize);
  return util::Status::Ok();
}

util::Status Pager::Latch(util::Status status) {
  if (!status.ok() && last_error_.ok()) last_error_ = status;
  return status;
}

util::StatusOr<PageId> Pager::AllocatePage() {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ == Mode::kReadOnly) {
    return Latch(util::Status::InvalidArgument(
        "cannot allocate pages in read-only pager " + path_));
  }
  // The file grows lazily: a page becomes readable once first written.
  return page_count_++;
}

void Pager::EncodePhysicalPage(PageId id, const void* payload,
                               uint8_t* out_phys) {
  std::memcpy(out_phys, payload, kPageSize);
  PutU32(out_phys, kFtrMagicOff, kPageMagic);
  PutU32(out_phys, kFtrPageIdOff, id);
  PutU32(out_phys, kFtrCrcOff, util::Crc32(out_phys, kPageSize));
  PutU32(out_phys, kFtrCrcOff + 4, 0);
}

util::Status Pager::WritePage(PageId id, const void* data) {
  if (!init_status_.ok()) return init_status_;
  uint8_t phys[kPhysicalPageSize];
  EncodePhysicalPage(id, data, phys);
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= page_count_) {
    return Latch(util::Status::InvalidArgument(
        "write of unallocated page " + std::to_string(id) + " in " + path_));
  }
  return WritePhysicalPagesLocked(&id, phys, 1);
}

util::Status Pager::AppendPhysicalPages(const uint8_t* phys, uint32_t count) {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PageId> ids(count);
  for (uint32_t p = 0; p < count; ++p) ids[p] = page_count_ + p;
  return WritePhysicalPagesLocked(ids.data(), phys, count);
}

util::Status Pager::WritePhysicalPages(const std::vector<PageId>& ids,
                                       const uint8_t* phys) {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t count = static_cast<uint32_t>(ids.size());
  uint32_t existing = 0;
  while (existing < count && ids[existing] < page_count_) ++existing;
  for (uint32_t p = existing; p < count; ++p) {
    if (ids[p] != page_count_ + (p - existing)) {
      return Latch(util::Status::InvalidArgument(
          "page " + std::to_string(ids[p]) + " is neither allocated nor the "
          "next append position of " + path_));
    }
  }
  return WritePhysicalPagesLocked(ids.data(), phys, count);
}

util::Status Pager::WritePhysicalPagesLocked(const PageId* ids,
                                             const uint8_t* phys,
                                             uint32_t count) {
  if (mode_ == Mode::kReadOnly) {
    return Latch(util::Status::InvalidArgument(
        "cannot write pages to read-only pager " + path_));
  }
  if (!file_.is_open()) {
    return Latch(util::Status::IoError("pager " + path_ + " is closed"));
  }
  if (count == 0) return util::Status::Ok();
  util::Timer timer;
  // The injector is consulted once per page — identical counting to the old
  // page-at-a-time write loop, so tests arming "the nth write" keep hitting
  // the same page whether it lands via WritePage or a staged write. Clean
  // pages with consecutive ids are gathered into runs that land with one
  // pwrite each.
  util::Status status;
  util::Status refused;    // a full disk stopped the write at page p
  uint32_t written = 0;    // pages already in the file
  uint32_t run_start = 0;  // first clean page not yet written
  auto write_run = [&](uint32_t end) {
    if (end == run_start) return util::Status::Ok();
    util::Status landed = file_.WriteAt(
        phys + static_cast<size_t>(run_start) * kPhysicalPageSize,
        static_cast<size_t>(end - run_start) * kPhysicalPageSize,
        PhysicalOffset(ids[run_start]));
    if (landed.ok()) written += end - run_start;
    run_start = end;
    return landed;
  };
  uint32_t p = 0;  // where the loop stopped: count, or the refused page
  for (; p < count && status.ok(); ++p) {
    refused = ChargeDisk(kPhysicalPageSize, path_);
    if (!refused.ok()) break;
    util::WriteFault fault = util::FaultInjector::Global().OnWriteAttempt();
    if (fault == util::WriteFault::kNoSpace) {
      // A full disk stops the write before this page's first byte: appended
      // pages written so far are still dead bytes past page_count_, never a
      // torn page.
      refused = InjectedNoSpace(path_);
      break;
    }
    if (p > run_start && ids[p] != ids[p - 1] + 1) {
      status = write_run(p);  // the id run breaks: land what is gathered
      if (!status.ok()) break;
    }
    if (fault == util::WriteFault::kNone) continue;
    status = write_run(p);  // land the clean run before the faulted page
    if (!status.ok()) break;
    uint8_t page[kPhysicalPageSize];
    std::memcpy(page, phys + static_cast<size_t>(p) * kPhysicalPageSize,
                kPhysicalPageSize);
    const size_t write_bytes = ApplyWriteFault(
        fault, page, kPhysicalPageSize, kBitFlipByte, kBitFlipMask);
    status = file_.WriteAt(page, write_bytes, PhysicalOffset(ids[p]));
    if (status.ok() && write_bytes < kPhysicalPageSize) {
      status = util::Status::IoError("injected short write of page " +
                                     std::to_string(ids[p]) + " in " + path_);
    }
    if (status.ok()) ++written;
    run_start = p + 1;
  }
  if (status.ok()) status = write_run(p);
  stats_.write_micros += timer.ElapsedMicros();
  stats_.pages_written += written;
  // The write fails as a unit: page_count_ stays put, so a partial appended
  // tail is unaddressable dead bytes (recovery truncates it on a persistent
  // store), and rewritten pages hold bytes no committed page table names.
  // Torn pages and bit flips "succeed" here exactly as they do on real
  // hardware; the page checksum catches them at read time.
  if (!refused.ok()) return Latch(refused);
  if (!status.ok()) return Latch(status);
  for (uint32_t p = 0; p < count; ++p) {
    page_count_ = std::max(page_count_, ids[p] + 1);
  }
  return util::Status::Ok();
}

util::Status Pager::TruncateToPageCount(uint32_t count) {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ == Mode::kReadOnly) {
    return Latch(util::Status::InvalidArgument(
        "cannot truncate read-only pager " + path_));
  }
  if (!file_.is_open()) {
    return Latch(util::Status::IoError("pager " + path_ + " is closed"));
  }
  if (count > page_count_) {
    return Latch(util::Status::InvalidArgument(
        "cannot truncate " + path_ + " to " + std::to_string(count) +
        " pages: only " + std::to_string(page_count_) + " committed"));
  }
  util::Status truncated = file_.Truncate(PhysicalOffset(count));
  if (!truncated.ok()) return Latch(truncated);
  page_count_ = count;
  return util::Status::Ok();
}

util::Status Pager::ReadPhysicalOnce(int fd, PageId id, uint8_t* phys) const {
  if (fd < 0) {
    return util::Status::IoError("pager " + path_ + " is closed");
  }
  if (util::FaultInjector::Global().OnReadAttempt()) {
    return util::Status::IoError("injected read fault on page " +
                                 std::to_string(id) + " in " + path_);
  }
  if (!File::ReadFull(fd, phys, kPhysicalPageSize, PhysicalOffset(id))) {
    return util::Status::IoError("short read of page " + std::to_string(id) +
                                 " in " + path_);
  }
  if (GetU32(phys, kFtrMagicOff) != kPageMagic) {
    return util::Status::Corruption("page " + std::to_string(id) + " in " +
                                    path_ + " has a torn or foreign footer");
  }
  if (GetU32(phys, kFtrPageIdOff) != id) {
    return util::Status::Corruption(
        "page " + std::to_string(id) + " in " + path_ +
        " carries footer id " + std::to_string(GetU32(phys, kFtrPageIdOff)) +
        " (misdirected write)");
  }
  if (GetU32(phys, kFtrCrcOff) != util::Crc32(phys, kPageSize)) {
    return util::Status::Corruption("payload checksum mismatch on page " +
                                    std::to_string(id) + " in " + path_);
  }
  return util::Status::Ok();
}

util::Status Pager::ReadPage(PageId id, void* out) {
  if (!init_status_.ok()) return init_status_;
  util::Timer timer;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= page_count_) {
      return Latch(util::Status::InvalidArgument(
          "read of unallocated page " + std::to_string(id) + " in " + path_));
    }
    fd = file_.fd();
  }
  // A page below the snapshotted count is complete in the file and not
  // being rewritten (see the class comment): read and verify it unlocked.
  uint8_t phys[kPhysicalPageSize];
  util::Status status;
  int attempt = 1;
  for (;; ++attempt) {
    status = ReadPhysicalOnce(fd, id, phys);
    if (status.ok() || attempt == kReadAttempts) break;
    if (BackoffHook()) BackoffHook()(attempt + 1);
  }
  if (status.ok()) std::memcpy(out, phys, kPageSize);
  ApplySimulatedReadLatency(timer);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.read_retries += static_cast<uint64_t>(attempt - 1);
  stats_.read_micros += timer.ElapsedMicros();
  ++stats_.pages_read;
  return Latch(status);
}

util::Status Pager::VerifyPage(PageId id, void* out) {
  if (!init_status_.ok()) return init_status_;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= page_count_) {
      return util::Status::InvalidArgument("page " + std::to_string(id) +
                                           " is beyond the end of " + path_);
    }
    fd = file_.fd();
  }
  uint8_t phys[kPhysicalPageSize];
  util::Status status = ReadPhysicalOnce(fd, id, phys);
  if (status.ok() && out != nullptr) std::memcpy(out, phys, kPageSize);
  return status;
}

util::Status Pager::Sync() {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(mu_);
  if (!file_.is_open()) {
    return Latch(util::Status::IoError("pager " + path_ + " is closed"));
  }
  util::Status synced = FlushFault("sync failed for " + path_);
  if (synced.ok()) synced = file_.Sync();
  return Latch(synced);
}

}  // namespace viewjoin::storage
