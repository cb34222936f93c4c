#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

namespace viewjoin::storage {
namespace {

/// Moves all `size` bytes at `off` with ::pread or ::pwrite, resuming short
/// transfers. False on an error (errno set) or on end of file / a write that
/// made no progress (errno left as the caller set it).
template <typename Syscall, typename Byte>
bool TransferFull(Syscall io, int fd, Byte* buf, size_t size, off_t off) {
  while (size > 0) {
    ssize_t n = io(fd, buf, size, off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf += n;
    size -= static_cast<size_t>(n);
    off += n;
  }
  return true;
}

/// A failed syscall as kIoError with its errno text.
util::Status IoError(const std::string& what) {
  return util::Status::IoError(what + ": " + std::strerror(errno));
}

/// Typed verdict for a failed write or sync: a full device (ENOSPC) is
/// kResourceExhausted, an operational condition the engine degrades around,
/// not a broken medium. Callers clear errno before the syscall, so a stale
/// ENOSPC cannot retype an unrelated failure.
util::Status WriteError(const std::string& what) {
  if (errno == 0) return util::Status::IoError(what + ": short write");
  if (errno == ENOSPC) {
    return util::Status::ResourceExhausted(what + ": " + std::strerror(errno));
  }
  return IoError(what);
}

}  // namespace

// ---- File -------------------------------------------------------------------

util::StatusOr<File> File::Open(const std::string& path, Mode mode) {
  int flags = O_RDWR | O_CREAT | O_TRUNC;
  if (mode == Mode::kReadWrite) flags = O_RDWR;
  if (mode == Mode::kReadOnly) flags = O_RDONLY;
  File file;
  file.path_ = path;
  file.fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0666);
  if (file.fd_ < 0) {
    if (mode == Mode::kCreate) return IoError("cannot create " + path);
    return util::Status::NotFound("cannot open " + path + ": " +
                                  std::strerror(errno));
  }
  struct stat st;
  if (::fstat(file.fd_, &st) != 0) return IoError("cannot size " + path);
  file.append_offset_ = static_cast<uint64_t>(st.st_size);
  return file;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    (void)Close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    append_offset_ = other.append_offset_;
    crashed_ = other.crashed_;
    buffered_ = other.buffered_;
    pending_ = std::move(other.pending_);
  }
  return *this;
}

bool File::ReadFull(int fd, void* buf, size_t size, uint64_t offset) {
  return TransferFull(::pread, fd, static_cast<uint8_t*>(buf), size,
                      static_cast<off_t>(offset));
}

util::Status File::ReadAt(void* buf, size_t size, uint64_t offset) const {
  errno = 0;
  if (ReadFull(fd_, buf, size, offset)) return util::Status::Ok();
  if (errno == 0) return util::Status::IoError("short read of " + path_);
  return IoError("cannot read " + path_);
}

util::Status File::WriteAt(const void* data, size_t size, uint64_t offset) {
  errno = 0;
  if (TransferFull(::pwrite, fd_, static_cast<const uint8_t*>(data), size,
                   static_cast<off_t>(offset))) {
    return util::Status::Ok();
  }
  return WriteError("cannot write " + path_);
}

util::Status File::Append(const void* data, size_t size,
                          util::CrashPoint tear) {
  if (tear != util::CrashPoint::kNone &&
      util::FaultInjector::Global().AtCrashPoint(tear)) {
    // Simulated kill -9 mid-write: half the bytes reach the file, then the
    // process "dies" — no sync, no cleanup.
    (void)Flush();
    (void)WriteAt(data, size / 2, append_offset_);
    append_offset_ += size / 2;
    crashed_ = true;
    return util::Status::IoError("injected crash " +
                                 std::string(util::CrashPointName(tear)) +
                                 " writing " + path_);
  }
  util::Status status = ChargeDisk(size, path_);
  if (status.ok() && buffered_) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    pending_.insert(pending_.end(), bytes, bytes + size);
  } else if (status.ok()) {
    status = WriteAt(data, size, append_offset_);
  }
  if (status.ok()) append_offset_ += size;
  return status;
}

util::Status File::Flush() {
  const uint64_t at = append_offset_ - pending_.size();
  util::Status status = WriteAt(pending_.data(), pending_.size(), at);
  pending_.clear();
  return status;
}

util::Status File::Sync() {
  util::Status flushed = Flush();
  if (!flushed.ok()) return flushed;
  errno = 0;
  if (::fsync(fd_) == 0) return util::Status::Ok();
  return WriteError("cannot fsync " + path_);
}

util::Status File::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return IoError("cannot truncate " + path_ + " to " + std::to_string(size) +
                   " bytes");
  }
  append_offset_ = size;
  pending_.clear();
  return util::Status::Ok();
}

util::Status File::Close() {
  if (fd_ < 0) return util::Status::Ok();
  util::Status status = Flush();
  if (::close(std::exchange(fd_, -1)) != 0 && status.ok()) {
    status = IoError("cannot close " + path_);
  }
  return status;
}

// ---- Fault hooks ------------------------------------------------------------

util::Status InjectedNoSpace(const std::string& path) {
  return util::Status::ResourceExhausted(
      "cannot write " + path + ": no space left on device (injected)");
}

util::Status ChargeDisk(uint64_t bytes, const std::string& path) {
  if (!util::FaultInjector::Global().OnDiskCharge(bytes)) {
    return util::Status::Ok();
  }
  return InjectedNoSpace(path);
}

util::Status FlushFault(const std::string& what) {
  if (!util::FaultInjector::Global().OnFlushAttempt()) {
    return util::Status::Ok();
  }
  return util::Status::IoError(what + ": injected flush fault");
}

size_t ApplyWriteFault(util::WriteFault fault, uint8_t* buf, size_t size,
                       size_t flip_byte, uint8_t flip_mask) {
  switch (fault) {
    case util::WriteFault::kShortWrite:
      return size / 2;
    case util::WriteFault::kTornPage:
      // Power loss mid-write: the tail never makes it, but the caller is
      // told the write succeeded.
      std::memset(buf + size / 2, 0xAA, size - size / 2);
      break;
    case util::WriteFault::kBitFlip:
      buf[flip_byte] ^= flip_mask;
      break;
    case util::WriteFault::kNone:
    case util::WriteFault::kNoSpace:
      break;
  }
  return size;
}

// ---- Whole-file helpers -----------------------------------------------------

bool FileExists(const std::string& path) { return FileSize(path).ok(); }

util::StatusOr<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return util::Status::NotFound("cannot stat " + path + ": " +
                                  std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

bool RemoveFile(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

util::StatusOr<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  util::StatusOr<File> file = File::Open(path, File::Mode::kReadOnly);
  if (!file.ok()) return file.status();
  std::vector<uint8_t> bytes(file->append_offset());
  util::Status read = file->ReadAt(bytes.data(), bytes.size(), 0);
  if (!read.ok()) return read;
  return bytes;
}

util::Status WriteFile(const std::string& path, const void* data,
                       size_t size) {
  util::StatusOr<File> file = File::Open(path, File::Mode::kCreate);
  if (!file.ok()) return file.status();
  util::Status status = file->Append(data, size);
  if (status.ok()) status = file->Close();
  if (!status.ok()) RemoveFile(path);
  return status;
}

util::Status ReplaceFileDurably(const std::string& path,
                                const std::function<util::Status(File&)>& write,
                                bool* renamed) {
  if (renamed != nullptr) *renamed = false;
  const std::string tmp = path + ".tmp";
  util::StatusOr<File> file = File::Open(tmp, File::Mode::kCreate);
  if (!file.ok()) return file.status();
  file->BufferAppends();
  util::Status status = write(*file);
  if (status.ok()) status = file->Sync();
  if (status.ok()) status = file->Close();
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = IoError("cannot rename " + tmp + " to " + path);
  }
  if (!status.ok()) {
    if (!file->crashed()) RemoveFile(tmp);
    return status;
  }
  if (renamed != nullptr) *renamed = true;
  return SyncDirectoryOf(path);
}

util::Status SyncDirectoryOf(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  util::Status status = FlushFault("cannot sync directory " + dir);
  if (!status.ok()) return status;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open directory " + dir);
  errno = 0;
  if (::fsync(fd) != 0) status = WriteError("cannot fsync directory " + dir);
  ::close(fd);
  return status;
}

}  // namespace viewjoin::storage
