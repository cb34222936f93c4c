#include "storage/backup.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "storage/file.h"
#include "storage/fsck.h"
#include "storage/pager.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace viewjoin::storage {
namespace {

using util::Status;
using util::StatusOr;

constexpr char kMetaMagic[] = "VJBACKUP v1";

/// Backup copies move this many bytes per read, write and disk charge.
constexpr uint64_t kChunkBytes = 1 << 16;

/// Paces backup I/O to `bytes_per_sec` (0 = unthrottled): after charging N
/// bytes, sleeps until wall time catches up with N / rate — a token bucket
/// with no burst credit, so a hot backup cannot monopolize the device the
/// live store is serving from.
class RateLimiter {
 public:
  explicit RateLimiter(uint64_t bytes_per_sec) : rate_(bytes_per_sec) {}

  void Charge(uint64_t bytes) {
    if (rate_ == 0) return;
    charged_ += bytes;
    int64_t due_micros =
        static_cast<int64_t>(charged_ * 1000000 / rate_);
    int64_t ahead = due_micros - timer_.ElapsedMicros();
    if (ahead > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(ahead));
    }
  }

 private:
  uint64_t rate_;
  uint64_t charged_ = 0;
  util::Timer timer_;
};

/// Streams `path` computing its size and CRC32 — the end-to-end check that
/// what actually landed on disk is what the meta file promises.
Status FileSizeAndCrc(const std::string& path, uint64_t* size,
                      uint32_t* crc32) {
  StatusOr<File> file = File::Open(path, File::Mode::kReadOnly);
  if (!file.ok()) return file.status();
  *size = file->append_offset();
  *crc32 = 0;
  std::vector<uint8_t> buf(kChunkBytes);
  for (uint64_t off = 0; off < *size; off += kChunkBytes) {
    const size_t n = static_cast<size_t>(std::min(kChunkBytes, *size - off));
    Status read = file->ReadAt(buf.data(), n, off);
    if (!read.ok()) return read;
    *crc32 = util::Crc32(buf.data(), n, *crc32);
  }
  return Status::Ok();
}

/// Byte-for-byte copy with rate limiting, per-chunk disk-budget charging,
/// and the mid-backup-copy crash point. On an injected crash the half-copied
/// destination is left behind (as a dying process would) and *crashed is
/// set so the caller skips cleanup; genuine failures are reported for the
/// caller to clean up. The source is only ever read.
Status CopyFileRaw(const std::string& src, const std::string& dst,
                   RateLimiter& limiter, uint64_t* copied, bool* crashed) {
  StatusOr<File> in = File::Open(src, File::Mode::kReadOnly);
  if (!in.ok()) return in.status();
  StatusOr<File> out = File::Open(dst, File::Mode::kCreate);
  if (!out.ok()) return out.status();
  const uint64_t size = in->append_offset();
  std::vector<uint8_t> buf(kChunkBytes);
  for (uint64_t off = 0; off < size; off += kChunkBytes) {
    const size_t n = static_cast<size_t>(std::min(kChunkBytes, size - off));
    Status status = in->ReadAt(buf.data(), n, off);
    if (status.ok()) {
      status = out->Append(buf.data(), n,
                           util::CrashPoint::kCrashMidBackupCopy);
    }
    if (!status.ok()) {
      *crashed = out->crashed();
      return status;
    }
    limiter.Charge(n);
    if (copied != nullptr) *copied += n;
  }
  return out->Sync();
}

/// Copies the first `limit` pages of the pager file at `src_path` into a
/// fresh pager at `dst_path`, verifying every page's footer and checksum as
/// it goes (kInvalidPage = all pages). With `referenced`, a page it does not
/// mark is free space no page table of the image names: it is written as a
/// zero page without being read, so the image never depends on what a free
/// page holds. The source is opened read-only and never written; writes to
/// the destination go through the normal pager write path, so injected
/// faults and the disk budget apply to them too.
Status CopyPagerPages(const std::string& src_path, const std::string& dst_path,
                      uint32_t limit, const std::vector<bool>* referenced,
                      RateLimiter& limiter, uint64_t* copied, bool* crashed) {
  Pager src(src_path, Pager::Mode::kReadOnly);
  if (!src.init_status().ok()) return src.init_status();
  uint32_t count = limit == kInvalidPage ? src.page_count() : limit;
  if (count > src.page_count()) {
    return Status::Corruption(
        "backup snapshot pins " + std::to_string(count) + " pages but " +
        src_path + " holds only " + std::to_string(src.page_count()));
  }
  Pager dst(dst_path, Pager::Mode::kPersist);
  if (!dst.init_status().ok()) return dst.init_status();

  constexpr uint32_t kBatchPages = 32;
  uint8_t payload[Pager::kPageSize];
  std::vector<uint8_t> phys(static_cast<size_t>(kBatchPages) *
                            Pager::kPhysicalPageSize);
  uint32_t staged = 0;
  auto flush_batch = [&]() -> Status {
    if (staged == 0) return Status::Ok();
    Status appended = dst.AppendPhysicalPages(phys.data(), staged);
    if (!appended.ok()) return appended;
    uint64_t bytes =
        static_cast<uint64_t>(staged) * Pager::kPhysicalPageSize;
    limiter.Charge(bytes);
    if (copied != nullptr) *copied += bytes;
    staged = 0;
    return Status::Ok();
  };
  for (PageId id = 0; id < count; ++id) {
    if (util::FaultInjector::Global().AtCrashPoint(
            util::CrashPoint::kCrashMidBackupCopy)) {
      // Die with whatever the batch already flushed — a partial destination
      // pager and no backup.meta. The source saw only reads.
      *crashed = true;
      return Status::IoError("injected crash mid-backup-copy at page " +
                             std::to_string(id) + " of " + src_path);
    }
    if (referenced != nullptr && !(*referenced)[id]) {
      std::memset(payload, 0, sizeof(payload));
    } else {
      Status read = src.VerifyPage(id, payload);
      if (!read.ok()) return read;  // the LIVE store is sick; abort the backup
    }
    Pager::EncodePhysicalPage(
        id, payload,
        phys.data() + static_cast<size_t>(staged) * Pager::kPhysicalPageSize);
    if (++staged == kBatchPages) {
      Status flushed = flush_batch();
      if (!flushed.ok()) return flushed;
    }
  }
  Status flushed = flush_batch();
  if (!flushed.ok()) return flushed;
  Status synced = dst.Sync();
  if (!synced.ok()) return synced;
  return dst.Close();
}

std::string JsonQuote(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders backup.meta. Text format, one fact per line, self-checksummed:
///
///   VJBACKUP v1
///   epoch <n>
///   view_pages <n>
///   doc_store <0|1>
///   file <size> <crc32-hex> <name>     (one per image file)
///   crc <crc32-hex of every preceding byte>
std::string RenderMeta(const BackupReport& report) {
  std::string out = std::string(kMetaMagic) + "\n";
  out += "epoch " + std::to_string(report.epoch) + "\n";
  out += "view_pages " + std::to_string(report.view_page_count) + "\n";
  out += "doc_store " + std::string(report.has_doc_store ? "1" : "0") + "\n";
  char hex[16];
  for (const BackupFileInfo& f : report.files) {
    std::snprintf(hex, sizeof(hex), "%08x", f.crc32);
    out += "file " + std::to_string(f.size) + " " + hex + " " + f.name + "\n";
  }
  std::snprintf(hex, sizeof(hex), "%08x",
                util::Crc32(out.data(), out.size()));
  out += "crc " + std::string(hex) + "\n";
  return out;
}

/// Parses backup.meta into a report skeleton (files carry the *recorded*
/// size/CRC). kCorruption when the format or the self-checksum is off.
StatusOr<BackupReport> ParseMeta(const std::string& dir) {
  const std::string meta_path = dir + "/" + kBackupMetaName;
  StatusOr<std::vector<uint8_t>> read = ReadWholeFile(meta_path);
  if (!read.ok()) {
    if (read.status().code() != util::StatusCode::kNotFound) {
      return read.status();
    }
    return Status::NotFound("no backup image: " + meta_path + " is missing");
  }
  const std::string content(read->begin(), read->end());

  // The final line must be "crc <hex>" over every byte before it.
  size_t crc_line = content.rfind("crc ");
  if (crc_line == std::string::npos ||
      (crc_line != 0 && content[crc_line - 1] != '\n')) {
    return Status::Corruption(meta_path + " has no trailing checksum line");
  }
  uint32_t stored_crc = 0;
  if (std::sscanf(content.c_str() + crc_line, "crc %x", &stored_crc) != 1) {
    return Status::Corruption(meta_path + " checksum line does not parse");
  }
  if (stored_crc != util::Crc32(content.data(), crc_line)) {
    return Status::Corruption(meta_path + " fails its checksum");
  }

  BackupReport report;
  report.directory = dir;
  size_t pos = 0;
  bool saw_magic = false, saw_epoch = false, saw_pages = false;
  while (pos < crc_line) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos || eol > crc_line) eol = crc_line;
    std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line == kMetaMagic) {
      saw_magic = true;
    } else if (line.rfind("epoch ", 0) == 0) {
      report.epoch = std::strtoull(line.c_str() + 6, nullptr, 10);
      saw_epoch = true;
    } else if (line.rfind("view_pages ", 0) == 0) {
      report.view_page_count = static_cast<uint32_t>(
          std::strtoul(line.c_str() + 11, nullptr, 10));
      saw_pages = true;
    } else if (line.rfind("doc_store ", 0) == 0) {
      report.has_doc_store = line.substr(10) == "1";
    } else if (line.rfind("file ", 0) == 0) {
      BackupFileInfo info;
      char name[256] = {0};
      unsigned long long size = 0;
      unsigned crc = 0;
      if (std::sscanf(line.c_str(), "file %llu %x %255s", &size, &crc,
                      name) != 3) {
        return Status::Corruption(meta_path + " has a malformed file line: " +
                                  line);
      }
      info.size = size;
      info.crc32 = crc;
      info.name = name;
      report.files.push_back(std::move(info));
    } else {
      return Status::Corruption(meta_path + " has an unknown line: " + line);
    }
  }
  if (!saw_magic || !saw_epoch || !saw_pages) {
    return Status::Corruption(meta_path + " is missing required fields");
  }
  return report;
}

/// Footer + checksum verification of every page of a copied pager file.
Status VerifyPagerFile(const std::string& path, uint32_t expect_pages) {
  const FsckReport scanned = FsckPagerFile(path);
  if (!scanned.file_status.ok()) return scanned.file_status;
  if (expect_pages != kInvalidPage && scanned.page_count != expect_pages) {
    return Status::Corruption(path + " holds " +
                              std::to_string(scanned.page_count) +
                              " pages, backup.meta records " +
                              std::to_string(expect_pages));
  }
  if (!scanned.bad_pages.empty()) return scanned.bad_pages.front().second;
  return Status::Ok();
}

}  // namespace

std::string BackupReport::ToJson() const {
  std::string out = "{\"directory\": \"" + JsonQuote(directory) + "\"";
  out += ", \"epoch\": " + std::to_string(epoch);
  out += ", \"view_page_count\": " + std::to_string(view_page_count);
  out += ", \"bytes_copied\": " + std::to_string(bytes_copied);
  out += std::string(", \"doc_store\": ") + (has_doc_store ? "true" : "false");
  out += ", \"files\": [";
  for (size_t i = 0; i < files.size(); ++i) {
    if (i != 0) out += ", ";
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", files[i].crc32);
    out += "{\"name\": \"" + JsonQuote(files[i].name) +
           "\", \"size\": " + std::to_string(files[i].size) +
           ", \"crc32\": \"" + hex + "\"}";
  }
  out += "]}";
  return out;
}

bool IsBackupImageDir(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  return FileExists(path + "/" + kBackupMetaName);
}

StatusOr<BackupReport> CreateBackup(ViewCatalog& catalog,
                                    const std::string& dest_dir,
                                    const BackupOptions& options) {
  if (::mkdir(dest_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create backup directory " + dest_dir +
                           ": " + std::strerror(errno));
  }
  const std::string meta_path = dest_dir + "/" + kBackupMetaName;
  if (FileExists(meta_path)) {
    return Status::InvalidArgument(
        "refusing to overwrite the existing backup image in " + dest_dir);
  }

  // Pin the transactionally consistent state; everything after this line
  // runs without any catalog lock (see BackupSnapshot).
  ViewCatalog::BackupSnapshot snap = catalog.SnapshotForBackup();

  BackupReport report;
  report.directory = dest_dir;
  report.epoch = snap.epoch;
  report.view_page_count = snap.page_count;

  const std::string store_dst = dest_dir + "/" + kBackupStoreName;
  const std::string manifest_dst = ManifestJournal::PathFor(store_dst);
  const std::string doc_dst = store_dst + ".doc";
  const std::string doc_manifest_dst = ManifestJournal::PathFor(doc_dst);

  RateLimiter limiter(options.rate_bytes_per_sec);
  bool crashed = false;
  std::vector<std::string> created;
  auto fail = [&](Status status) -> StatusOr<BackupReport> {
    // An injected crash leaves the torn image exactly as a dying process
    // would (recognizable: no backup.meta); genuine failures clean up.
    if (!crashed) {
      for (const std::string& path : created) RemoveFile(path);
    }
    return status;
  };

  std::vector<const ManifestViewRecord*> records;
  for (const ManifestViewRecord& record : snap.records) {
    records.push_back(&record);
  }
  const std::vector<bool> referenced =
      ReferencedPages(records, snap.page_count);
  created.push_back(store_dst);
  Status copied = CopyPagerPages(catalog.pager()->path(), store_dst,
                                 snap.page_count, &referenced, limiter,
                                 &report.bytes_copied, &crashed);
  if (!copied.ok()) return fail(copied);

  // The image manifest is a fresh checkpoint rendered from the pinned
  // snapshot — never a copy of the live journal, which a concurrent
  // Checkpoint() may be replacing while we run.
  created.push_back(manifest_dst);
  Status checkpointed = ManifestJournal::WriteCheckpoint(
      manifest_dst, snap.records, snap.quarantined_epochs, snap.epoch);
  if (!checkpointed.ok()) return fail(checkpointed);

  if (!options.doc_store_path.empty() && FileExists(options.doc_store_path)) {
    report.has_doc_store = true;
    if (options.doc_copy_begin) options.doc_copy_begin();
    created.push_back(doc_dst);
    copied = CopyPagerPages(options.doc_store_path, doc_dst, kInvalidPage,
                            nullptr, limiter, &report.bytes_copied, &crashed);
    if (copied.ok()) {
      created.push_back(doc_manifest_dst);
      copied = CopyFileRaw(ManifestJournal::PathFor(options.doc_store_path),
                           doc_manifest_dst, limiter, &report.bytes_copied,
                           &crashed);
    }
    if (options.doc_copy_end) options.doc_copy_end();
    if (!copied.ok()) return fail(copied);
  }

  // Record what actually landed: re-read every produced file from disk for
  // its size + CRC32, then commit the image by installing backup.meta.
  for (const std::string& path : created) {
    BackupFileInfo info;
    info.name = path.substr(dest_dir.size() + 1);
    Status summed = FileSizeAndCrc(path, &info.size, &info.crc32);
    if (!summed.ok()) return fail(summed);
    report.files.push_back(std::move(info));
  }
  // Writing backup.meta commits the image. A failure after its rename (the
  // directory sync) reports the backup failed, so the meta goes too.
  created.push_back(meta_path);
  const std::string meta = RenderMeta(report);
  Status committed = ReplaceFileDurably(meta_path, [&meta](File& file) {
    return file.Append(meta.data(), meta.size());
  });
  if (!committed.ok()) return fail(committed);
  return report;
}

StatusOr<BackupReport> VerifyBackupImage(const std::string& dir) {
  StatusOr<BackupReport> parsed = ParseMeta(dir);
  if (!parsed.ok()) return parsed.status();
  BackupReport report = std::move(*parsed);

  // Whole-file sums against the meta records.
  for (const BackupFileInfo& f : report.files) {
    uint64_t size = 0;
    uint32_t crc = 0;
    Status summed = FileSizeAndCrc(dir + "/" + f.name, &size, &crc);
    if (!summed.ok()) return summed;
    if (size != f.size || crc != f.crc32) {
      return Status::Corruption("backup file " + f.name + " in " + dir +
                                " does not match its recorded size/checksum");
    }
  }

  // Page-level verification of the copied pager files.
  const std::string store = dir + "/" + kBackupStoreName;
  Status verified = VerifyPagerFile(store, report.view_page_count);
  if (!verified.ok()) return verified;

  // The image manifest must replay cleanly to exactly the pinned state.
  StatusOr<ManifestReplayResult> replay =
      ManifestJournal::Replay(ManifestJournal::PathFor(store));
  if (!replay.ok()) return replay.status();
  if (replay->tail_torn) {
    return Status::Corruption("backup image manifest in " + dir +
                              " has a torn tail");
  }
  if (replay->durable_page_count > report.view_page_count) {
    return Status::Corruption(
        "backup image manifest in " + dir + " references page count " +
        std::to_string(replay->durable_page_count) + " beyond the image's " +
        std::to_string(report.view_page_count));
  }
  if (replay->last_epoch != report.epoch) {
    return Status::Corruption(
        "backup image manifest in " + dir + " replays to epoch " +
        std::to_string(replay->last_epoch) + ", backup.meta records " +
        std::to_string(report.epoch));
  }

  if (report.has_doc_store) {
    const std::string doc = store + ".doc";
    verified = VerifyPagerFile(doc, kInvalidPage);
    if (!verified.ok()) return verified;
    StatusOr<ManifestReplayResult> doc_replay =
        ManifestJournal::Replay(ManifestJournal::PathFor(doc));
    if (!doc_replay.ok()) return doc_replay.status();
    if (doc_replay->tail_torn) {
      return Status::Corruption("backup image document manifest in " + dir +
                                " has a torn tail");
    }
  }
  return report;
}

StatusOr<BackupReport> RestoreBackup(const std::string& dir,
                                     const std::string& dest_path,
                                     uint64_t rate_bytes_per_sec) {
  StatusOr<BackupReport> verified = VerifyBackupImage(dir);
  if (!verified.ok()) return verified.status();
  BackupReport report = std::move(*verified);

  struct Target {
    std::string src;
    std::string dst;
  };
  const std::string store_src = dir + "/" + kBackupStoreName;
  std::vector<Target> targets = {
      {store_src, dest_path},
      {ManifestJournal::PathFor(store_src), ManifestJournal::PathFor(dest_path)},
  };
  if (report.has_doc_store) {
    targets.push_back({store_src + ".doc", dest_path + ".doc"});
    targets.push_back({ManifestJournal::PathFor(store_src + ".doc"),
                       ManifestJournal::PathFor(dest_path + ".doc")});
  }
  for (const Target& t : targets) {
    if (FileExists(t.dst)) {
      return Status::InvalidArgument("restore target " + t.dst +
                                     " already exists; restore requires a "
                                     "fresh destination");
    }
  }

  RateLimiter limiter(rate_bytes_per_sec);
  bool crashed = false;
  report.bytes_copied = 0;
  std::vector<std::string> created;
  auto fail = [&](Status status) -> StatusOr<BackupReport> {
    if (!crashed) {
      for (const std::string& path : created) RemoveFile(path);
    }
    return status;
  };
  for (const Target& t : targets) {
    created.push_back(t.dst);
    Status copied =
        CopyFileRaw(t.src, t.dst, limiter, &report.bytes_copied, &crashed);
    if (!copied.ok()) return fail(copied);
  }

  // The restore is only done once the result proves it recovers cleanly.
  StatusOr<std::unique_ptr<ViewCatalog>> opened =
      ViewCatalog::Open(dest_path, /*pool_pages=*/64);
  if (!opened.ok()) return fail(opened.status());
  Status closed = (*opened)->Close();
  if (!closed.ok()) return fail(closed);
  return report;
}

}  // namespace viewjoin::storage
