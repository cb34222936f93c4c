#ifndef VIEWJOIN_STORAGE_PAGER_H_
#define VIEWJOIN_STORAGE_PAGER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "util/status.h"

namespace viewjoin::storage {

/// Page id within a pager file.
using PageId = uint32_t;

inline constexpr PageId kInvalidPage = 0xFFFFFFFFu;

/// Fixed-size-page file manager. Materialized views are serialized into a
/// pager file and read back page-at-a-time through the BufferPool, so that
/// every algorithm's list accesses are attributable to page I/O — the cost
/// the LE pointer scheme is designed to reduce.
///
/// On-disk layout (format version 2):
///
///   [ file header, kHeaderSize bytes ]
///   [ page 0: kPageSize payload + kFooterSize footer ]
///   [ page 1: ... ]
///
/// The header records magic/version/page geometry plus its own CRC so Reopen
/// rejects pre-checksum, foreign, or truncated files with a typed error. Each
/// page footer holds a magic word, the page's own id, and a CRC32 of the
/// payload; WritePage stamps it and ReadPage verifies it, so torn pages and
/// bit flips surface as StatusCode::kCorruption instead of silent wrong
/// matches. Transient read failures are retried kReadAttempts times (with a
/// deterministic backoff hook between attempts) before kIoError is returned.
///
/// Media faults are recoverable events, not invariant violations: every
/// fallible entry point returns util::Status, and the first failure is also
/// latched in last_error() so layers that cannot thread a Status through
/// (e.g. the spill spool inside a join) can still detect it afterwards.
///
/// Thread-safe. The file is a raw descriptor accessed with pread/pwrite, so
/// no call shares a file position. ReadPage and VerifyPage hold the internal
/// mutex only to snapshot the page count (and descriptor); the positioned
/// read and the footer/CRC check run unlocked, so concurrent buffer-pool
/// misses (ExecuteBatch workers, server threads, read-ahead) read in
/// parallel, and the stats and error latch are then updated under the lock.
/// A page below the snapshotted count is complete in the file: appends bump
/// the count only after their bytes landed. Callers must not write a page
/// while another thread reads it (a view catalog rewrites only free pages,
/// which no pinned reader can reach; spill and document-store pages are
/// written before their first read), and must
/// not Close while reads are in flight. Writes, appends, truncation and sync
/// stay serialized under the mutex. Simulated read latency
/// (VIEWJOIN_PAGE_READ_MICROS) is also applied unlocked, so with
/// VIEWJOIN_PAGE_READ_SLEEP=1 concurrent reads overlap their simulated I/O
/// the way parallel requests overlap on real storage.
class Pager {
 public:
  /// Payload bytes per page — the unit every list layout computes with.
  static constexpr size_t kPageSize = 4096;
  /// Per-page footer: magic, page id, payload CRC32, reserved.
  static constexpr size_t kFooterSize = 16;
  /// Bytes one page occupies in the file.
  static constexpr size_t kPhysicalPageSize = kPageSize + kFooterSize;
  /// Bytes of the file header preceding page 0.
  static constexpr size_t kHeaderSize = 64;
  /// Current file format version (1 was the unchecksummed raw-page format).
  static constexpr uint32_t kFormatVersion = 2;
  /// Physical read attempts per page before kIoError is surfaced.
  static constexpr int kReadAttempts = 3;

  /// How the backing file is opened and closed.
  enum class Mode {
    kTruncate,  // create/truncate; file removed on close (scratch store)
    kPersist,   // create/truncate; file kept on close
    kReopen,    // open an existing file read/write; kept on close
    kReadOnly,  // open an existing file read-only (fsck, inspection)
  };

  /// Opens the backing file according to `mode`. Open/validation failures do
  /// not abort: they are recorded in init_status() and every subsequent page
  /// operation returns that status.
  explicit Pager(const std::string& path, Mode mode = Mode::kTruncate);
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Result of opening and validating the backing file (kNotFound/kIoError
  /// when it cannot be opened, kCorruption when the header or size is bad).
  const util::Status& init_status() const { return init_status_; }

  /// Reserves a new page id at the end of the file. The page must be written
  /// before it is first read.
  util::StatusOr<PageId> AllocatePage();

  /// Serializes one page into its on-disk physical form: payload (`kPageSize`
  /// bytes) followed by the stamped footer {magic, id, CRC32(payload)}.
  /// `out_phys` must hold kPhysicalPageSize bytes. Installs encode staged
  /// pages with their *final* ids through this, so the bytes written at
  /// install time are byte-identical to a direct WritePage.
  static void EncodePhysicalPage(PageId id, const void* payload,
                                 uint8_t* out_phys);

  /// Appends `count` already-encoded physical pages in one contiguous write.
  /// The pages must be stamped (EncodePhysicalPage) with ids
  /// `page_count() .. page_count()+count-1`; on success the pager's page
  /// count covers them.
  util::Status AppendPhysicalPages(const uint8_t* phys, uint32_t count);

  /// Writes already-encoded physical pages (phys[p] stamped with ids[p]):
  /// ids below page_count() rewrite existing pages, and the rest must be
  /// page_count(), page_count()+1, ... in order, extending the file. Pages
  /// with consecutive ids land with one pwrite per run. This is the install
  /// step of a view version: a catalog reuses free pages first and appends
  /// the remainder. On failure page_count() is unchanged.
  util::Status WritePhysicalPages(const std::vector<PageId>& ids,
                                  const uint8_t* phys);

  /// Rolls the file back to exactly `count` pages (count <= page_count()),
  /// cutting away any appended-but-uncommitted tail bytes a failed append
  /// left past the committed region. This is the in-process abort path:
  /// when a commit record fails on a full disk the process is still alive
  /// to undo its own append, so the store needs no reopen-time repair.
  /// Crash handling never calls this — Open's recovery truncates there.
  util::Status TruncateToPageCount(uint32_t count);

  /// Writes a full page (`data` must be kPageSize payload bytes) together
  /// with its checksum footer.
  util::Status WritePage(PageId id, const void* data);

  /// Reads a full page into `out` (kPageSize bytes), verifying the footer.
  /// Retries transient failures before returning kIoError; checksum/magic
  /// mismatches return kCorruption.
  util::Status ReadPage(PageId id, void* out);

  /// Single-attempt read + verification of one page (no retries, no stats
  /// side effects on last_error) — the fsck primitive.
  util::Status VerifyPage(PageId id, void* out);

  /// fsyncs the backing file — the durability barrier of the install
  /// protocol (data must be on the medium before the journal commit record
  /// that makes it visible). Writes are unbuffered pwrites, so a page is
  /// readable as soon as its write returns; only durability needs this.
  util::Status Sync();

  /// Closes the backing file (persistent modes first pass the injectable
  /// close-time flush fault point), latching the outcome in
  /// LastFlushStatus(). Idempotent; the destructor calls it, so a caller
  /// that needs the verdict (ViewCatalog::Close) invokes it first.
  util::Status Close();

  /// Outcome of the final flush+close (Ok until Close has run). A swallowed
  /// close-time flush failure would hand the next Reopen a truncated file
  /// with no witness; this latch is how catalog close surfaces it.
  util::Status LastFlushStatus() const {
    std::lock_guard<std::mutex> lock(mu_);
    return close_status_;
  }

  /// First non-OK status any operation produced since the last ClearError().
  util::Status last_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_error_;
  }
  void ClearError() {
    std::lock_guard<std::mutex> lock(mu_);
    last_error_ = util::Status::Ok();
  }

  /// Hook invoked between read retry attempts (attempt number, 2-based).
  /// Deterministic by default (no-op); tests install counters, deployments
  /// can install real backoff.
  static void SetRetryBackoffHook(std::function<void(int)> hook);

  uint32_t page_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return page_count_;
  }
  IoStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = IoStats();
  }
  const std::string& path() const { return path_; }

 private:
  util::Status WriteHeader();
  util::Status ValidateExistingFile();
  util::Status ReadPhysicalOnce(int fd, PageId id, uint8_t* phys) const;
  /// The write loop behind AppendPhysicalPages and WritePhysicalPages;
  /// caller holds mu_ and has validated `ids`.
  util::Status WritePhysicalPagesLocked(const PageId* ids, const uint8_t* phys,
                                        uint32_t count);
  util::Status Latch(util::Status status);  // first error; caller holds mu_

  std::string path_;
  Mode mode_ = Mode::kTruncate;
  int fd_ = -1;
  uint32_t page_count_ = 0;
  util::Status init_status_;
  util::Status last_error_;
  util::Status close_status_;
  IoStats stats_;
  /// Guards fd_, page_count_, the counters and the error latch; file reads
  /// run outside it. init_status_, path_ and mode_ are immutable after
  /// construction and need no lock.
  mutable std::mutex mu_;
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_PAGER_H_
