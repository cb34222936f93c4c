#ifndef VIEWJOIN_STORAGE_BACKUP_H_
#define VIEWJOIN_STORAGE_BACKUP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/materialized_view.h"
#include "util/status.h"

namespace viewjoin::storage {

// ---- Online hot backup ------------------------------------------------------
//
// A backup image is a self-describing directory:
//
//   <dir>/store               copied view pager file (verified page by page)
//   <dir>/store.manifest      checkpoint-format manifest journal written from
//                             the pinned catalog snapshot (never a raw copy
//                             of the live journal, which may be compacting)
//   <dir>/store.doc           copied document-store pager (when present)
//   <dir>/store.doc.manifest  copied document-store manifest (when present)
//   <dir>/backup.meta         epoch, page count, per-file size + CRC32, and
//                             the meta file's own CRC — written last, so a
//                             directory without it is a torn backup
//
// The file names follow the live store's sibling conventions
// ("<pager>.manifest", "<pager>.doc"), so a verified image is itself a store
// that ViewCatalog::Open recovers cleanly — restore is a verified copy back
// out plus an Open to prove it.
//
// Consistency: CreateBackup pins the catalog's state with
// ViewCatalog::SnapshotForBackup() — a microsecond hold of the install mutex
// that fixes {install records, quarantined epochs, epoch, page count} and
// registers a backup pin. While a backup pin is live the catalog reuses no
// free page and only appends, so every page below the pinned count is
// immutable and is copied afterwards with no lock held; queries and update
// batches keep serving, and updates committed past the pinned epoch are
// simply absent from the image. Pages no pinned install record references
// are free space and land in the image as zero pages. The document store is
// copied by the caller under its own read lock (Engine holds the document
// mutex shared, so queries proceed and updates briefly wait).

struct BackupOptions {
  /// Copy pacing in bytes per second (0 = unthrottled). Servers wire
  /// VIEWJOIN_BACKUP_RATE_BYTES through here so a backup cannot starve
  /// serving I/O.
  uint64_t rate_bytes_per_sec = 0;
  /// Pager path of the live document store ("<storage>.doc"); empty or
  /// missing on disk means the backup holds views only.
  std::string doc_store_path;
  /// Invoked around the document-store copy only (not the much longer view
  /// copy). The engine installs lambdas that take/release its document
  /// mutex in shared mode, so update batches — which rewrite the doc store
  /// in place — wait just for this window while queries keep running.
  /// Either may be empty. doc_copy_end is always called if begin was.
  std::function<void()> doc_copy_begin;
  std::function<void()> doc_copy_end;
};

/// One file of a backup image, as recorded in backup.meta.
struct BackupFileInfo {
  std::string name;  // relative to the image directory
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

struct BackupReport {
  std::string directory;
  /// Catalog epoch the image is transactionally consistent at.
  uint64_t epoch = 0;
  /// Committed view pages the image holds.
  uint32_t view_page_count = 0;
  /// Total bytes copied (what the rate limiter paced).
  uint64_t bytes_copied = 0;
  bool has_doc_store = false;
  std::vector<BackupFileInfo> files;

  std::string ToJson() const;
};

/// Name of the image descriptor inside a backup directory; its presence is
/// what IsBackupImageDir (and vj_fsck's auto-detection) keys on.
inline constexpr char kBackupMetaName[] = "backup.meta";
/// Base name of the copied pager file inside a backup directory.
inline constexpr char kBackupStoreName[] = "store";

/// Takes an online hot backup of a live catalog (plus the document store
/// named in `options`, if any) into `dest_dir`, which is created if missing
/// and must not already contain a backup image. Every page is checksum-
/// verified as it is copied; a page that fails verification aborts the
/// backup with kCorruption (the live store needs fsck, the partial image is
/// removed). kResourceExhausted when the destination disk fills — never a
/// torn image with a valid backup.meta. Crash-injectable at
/// CrashPoint::kCrashMidBackupCopy; the source store is never written to.
util::StatusOr<BackupReport> CreateBackup(ViewCatalog& catalog,
                                          const std::string& dest_dir,
                                          const BackupOptions& options = {});

/// Fully verifies a backup image: backup.meta parses and matches its own
/// CRC, every listed file has the recorded size and CRC32, every page of the
/// copied pager files passes footer + checksum verification, and the image
/// manifest replays cleanly to exactly the recorded epoch and page count.
util::StatusOr<BackupReport> VerifyBackupImage(const std::string& dir);

/// Restores a verified image to a fresh store at `dest_path` (the pager
/// path; "<dest_path>.manifest" and the ".doc" siblings are derived). The
/// destination files must not exist. Runs the full VerifyBackupImage pass
/// first, then copies, then proves the result by a clean ViewCatalog::Open.
/// On any failure every file already copied is removed — no orphans.
util::StatusOr<BackupReport> RestoreBackup(const std::string& dir,
                                           const std::string& dest_path,
                                           uint64_t rate_bytes_per_sec = 0);

/// True when `path` is a directory holding a backup.meta file.
bool IsBackupImageDir(const std::string& path);

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_BACKUP_H_
