#ifndef VIEWJOIN_STORAGE_FILE_H_
#define VIEWJOIN_STORAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/fault_injection.h"
#include "util/status.h"

namespace viewjoin::storage {

/// The one layer through which the storage code opens, reads, writes,
/// syncs, truncates, renames and removes a store file. It types failures
/// (real ENOSPC is kResourceExhausted, anything else kIoError) and is where
/// the fault injector's file-level hooks are consulted: the disk budget, the
/// flush fault, and a torn "half then die" write at a named crash point.
/// Page-level faults (short, torn and bit-flipped pages, read faults) stay
/// with the pager, which knows what a page is.
///
/// A File is an RAII descriptor, movable, not copyable and not internally
/// synchronized: its owner serializes writes.
class File {
 public:
  enum class Mode {
    kCreate,     // create, or truncate an existing file; read/write
    kReadWrite,  // an existing file
    kReadOnly,   // an existing file
  };

  /// An existing file that cannot be opened is kNotFound; a file that
  /// cannot be created is kIoError.
  static util::StatusOr<File> Open(const std::string& path, Mode mode);

  File() = default;
  ~File() { (void)Close(); }
  File(File&& other) noexcept { *this = std::move(other); }
  File& operator=(File&& other) noexcept;

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  /// Where Append writes next: the size at Open, moved by every append
  /// (buffered ones included) and truncation through this handle.
  uint64_t append_offset() const { return append_offset_; }
  /// A torn write at a crash point went through this handle: its owner must
  /// leave the file as a killed process would, with no cleanup.
  bool crashed() const { return crashed_; }

  /// Reads exactly `size` bytes at `offset` (kIoError if the file ends
  /// first).
  util::Status ReadAt(void* buf, size_t size, uint64_t offset) const;

  /// ReadAt's loop on a bare descriptor: false on an error or end of file.
  /// The pager's unlocked page read calls it with the descriptor it
  /// snapshotted under its lock: one pread per page, no virtual call.
  static bool ReadFull(int fd, void* buf, size_t size, uint64_t offset);

  /// Writes all `size` bytes at `offset`; consults no fault hook.
  util::Status WriteAt(const void* data, size_t size, uint64_t offset);

  /// Appends at append_offset(). When `tear` is the armed crash point, the
  /// buffered bytes and half of these land, crashed() turns true and the
  /// call fails as an injected crash; otherwise the disk budget is charged
  /// `size` bytes before anything is written or buffered.
  util::Status Append(const void* data, size_t size,
                      util::CrashPoint tear = util::CrashPoint::kNone);

  /// From now on Append holds the bytes in memory until Sync or Close,
  /// which land them with one write: a file written as many small records
  /// costs one write syscall, as a stdio stream would.
  void BufferAppends() { buffered_ = true; }

  /// Lands buffered appends, then fsyncs; not an injectable flush event
  /// (see FlushFault).
  util::Status Sync();

  /// Sets the file size and moves append_offset() there.
  util::Status Truncate(uint64_t size);

  util::Status Close();

 private:
  util::Status Flush();  // lands buffered appends

  std::string path_;
  int fd_ = -1;
  uint64_t append_offset_ = 0;
  bool crashed_ = false;
  bool buffered_ = false;
  std::vector<uint8_t> pending_;  // buffered appends, ending at append_offset_
};

// ---- Fault hooks ------------------------------------------------------------

/// The injected full device, typed like the real one (kResourceExhausted).
util::Status InjectedNoSpace(const std::string& path);

/// Charges `bytes` to an armed disk budget: InjectedNoSpace when refused.
util::Status ChargeDisk(uint64_t bytes, const std::string& path);

/// One flush event: kIoError "<what>: injected flush fault" when an armed
/// flush fault fires. The pager's sync and close, each journal append's
/// fsync and every directory sync are flush events.
util::Status FlushFault(const std::string& what);

/// Applies a page or header write fault to `buf` before it is written:
/// kTornPage garbles its second half, kBitFlip flips `flip_mask` at
/// `flip_byte`. Returns the bytes to write, half of `size` for kShortWrite
/// (whose write the caller must then fail). kNoSpace is the caller's.
size_t ApplyWriteFault(util::WriteFault fault, uint8_t* buf, size_t size,
                       size_t flip_byte, uint8_t flip_mask);

// ---- Whole-file helpers -----------------------------------------------------

bool FileExists(const std::string& path);

/// kNotFound when `path` does not exist.
util::StatusOr<uint64_t> FileSize(const std::string& path);

/// True when a file was there to remove.
bool RemoveFile(const std::string& path);

/// kNotFound when `path` does not exist.
util::StatusOr<std::vector<uint8_t>> ReadWholeFile(const std::string& path);

/// Creates (or truncates) `path` holding exactly `data`, charging the disk
/// budget first; no fsync. On failure the file is removed.
util::Status WriteFile(const std::string& path, const void* data, size_t size);

/// Atomically replaces `path`: `write` fills "<path>.tmp", which is fsynced
/// and renamed over `path`, and then the parent directory is fsynced so the
/// rename is durable too. A failure before the rename removes the tmp file
/// unless `write` tore it at a crash point. `*renamed` says whether the
/// rename happened: after a failed directory sync the new file is at `path`,
/// and a caller holding the old one open must switch to it.
util::Status ReplaceFileDurably(const std::string& path,
                                const std::function<util::Status(File&)>& write,
                                bool* renamed = nullptr);

/// fsyncs the directory holding `path`, making its creation or rename
/// durable. A flush event.
util::Status SyncDirectoryOf(const std::string& path);

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_FILE_H_
