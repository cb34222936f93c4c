#include "storage/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

#include "util/crc32.h"
#include "util/fault_injection.h"

namespace viewjoin::storage {

namespace {

using util::Status;
using util::StatusOr;

constexpr char kMagic[8] = {'V', 'J', 'M', 'A', 'N', 'I', 'F', 'J'};
constexpr size_t kJournalHeaderSize = 16;

// ---- Little-endian append/read helpers -------------------------------------

void PutU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutBytes(std::vector<uint8_t>& out, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out.insert(out.end(), p, p + size);
}

/// Bounds-checked sequential reader over one record payload. Any overrun
/// sets failed() instead of reading garbage — a payload that does not parse
/// is corruption even when its CRC matched (impossible unless the encoder
/// and decoder disagree, but fail closed).
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() { return Take(1) ? data_[pos_++] : 0; }

  uint16_t U16() {
    if (!Take(2)) return 0;
    uint16_t v = static_cast<uint16_t>(data_[pos_]) |
                 static_cast<uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  uint32_t U32() {
    if (!Take(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Take(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::string Bytes(size_t n) {
    if (!Take(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  bool Take(size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Format-byte flag of a list whose page table is more than one run; the
/// runs then follow the fence keys. A single-run list spends no bytes on
/// its table: the leading first-page id and the list's page span (from its
/// count or directory) describe it, so such records keep the v2 layout.
constexpr uint8_t kMultiRunFlag = 0x80;

/// Largest page table a decoded list may expand to (a 64 GiB list); a
/// record claiming more is garbage, and its list decodes with no table so
/// range checks reject it instead of allocating for it.
constexpr uint64_t kMaxListPages = 1u << 24;

void EncodeStoredList(std::vector<uint8_t>& out, const StoredList& list) {
  const std::vector<PageRun> runs = list.Runs();
  PutU32(out, runs.empty() ? kInvalidPage : runs.front().first);
  PutU32(out, list.count);
  PutU32(out, list.layout.label_count);
  PutU8(out, list.layout.has_pointers ? 1 : 0);
  PutU32(out, list.layout.child_count);
  // v2 extensions: physical format plus the page directory (delta lists)
  // and fence keys (both formats) that make page-level galloping possible.
  const bool multi_run = runs.size() > 1;
  PutU8(out, static_cast<uint8_t>(list.format) |
                 (multi_run ? kMultiRunFlag : 0));
  PutU32(out, static_cast<uint32_t>(list.page_first_entry.size()));
  for (uint32_t e : list.page_first_entry) PutU32(out, e);
  PutU32(out, static_cast<uint32_t>(list.page_first_start.size()));
  for (uint32_t s : list.page_first_start) PutU32(out, s);
  if (multi_run) {
    PutU32(out, static_cast<uint32_t>(runs.size()));
    for (const PageRun& run : runs) {
      PutU32(out, run.first);
      PutU32(out, run.count);
    }
  }
}

/// Expands decoded runs into `list`'s page table when they cover exactly
/// its PageSpan() pages without overflowing a page id; otherwise leaves the
/// table empty, which every range check rejects. The list's count, layout
/// and directory must be decoded and its layout valid.
void ExpandRuns(const std::vector<PageRun>& runs, StoredList* list) {
  uint64_t total = 0;
  for (const PageRun& run : runs) {
    if (static_cast<uint64_t>(run.first) + run.count > kInvalidPage) return;
    total += run.count;
  }
  if (total != list->PageSpan() || total > kMaxListPages) return;
  list->pages.reserve(total);
  for (const PageRun& run : runs) {
    for (uint32_t p = 0; p < run.count; ++p) {
      list->pages.push_back(run.first + p);
    }
  }
}

StoredList DecodeStoredList(PayloadReader& in) {
  StoredList list;
  const PageId first_page = in.U32();
  list.count = in.U32();
  list.layout.label_count = in.U32();
  list.layout.has_pointers = in.U8() != 0;
  list.layout.child_count = in.U32();
  uint8_t format = in.U8();
  const bool multi_run = (format & kMultiRunFlag) != 0;
  format &= static_cast<uint8_t>(~kMultiRunFlag);
  // An unknown format byte cannot pass the record CRC unless a newer
  // writer produced it; degrade to fixed so ListInRange rejects cleanly.
  list.format =
      format <= 1 ? static_cast<ListFormat>(format) : ListFormat::kFixed;
  uint32_t dir_count = in.U32();
  if (dir_count > ManifestJournal::kMaxPayload / 4) dir_count = 0;
  list.page_first_entry.reserve(dir_count);
  for (uint32_t i = 0; i < dir_count && !in.failed(); ++i) {
    list.page_first_entry.push_back(in.U32());
  }
  uint32_t fence_count = in.U32();
  if (fence_count > ManifestJournal::kMaxPayload / 4) fence_count = 0;
  list.page_first_start.reserve(fence_count);
  for (uint32_t i = 0; i < fence_count && !in.failed(); ++i) {
    list.page_first_start.push_back(in.U32());
  }
  std::vector<PageRun> runs;
  if (multi_run) {
    uint32_t run_count = in.U32();
    if (run_count > ManifestJournal::kMaxPayload / 8) run_count = 0;
    runs.reserve(run_count);
    for (uint32_t i = 0; i < run_count && !in.failed(); ++i) {
      const PageId first = in.U32();
      runs.push_back({first, in.U32()});
    }
  }
  if (in.failed() || list.count == 0) return list;
  const uint32_t record = list.layout.RecordSize();
  if (record == 0 || record > Pager::kPageSize) return list;  // rejected later
  if (!multi_run) runs = {{first_page, list.PageSpan()}};
  ExpandRuns(runs, &list);
  return list;
}

std::vector<uint8_t> EncodeBegin(uint64_t epoch, uint8_t scheme,
                                 const std::string& pattern) {
  std::vector<uint8_t> payload;
  PutU64(payload, epoch);
  PutU8(payload, scheme);
  PutU16(payload, static_cast<uint16_t>(pattern.size()));
  PutBytes(payload, pattern.data(), pattern.size());
  return payload;
}

std::vector<uint8_t> EncodeInstall(const ManifestViewRecord& r) {
  std::vector<uint8_t> payload;
  PutU64(payload, r.epoch);
  PutU8(payload, r.scheme);
  PutU16(payload, static_cast<uint16_t>(r.pattern.size()));
  PutBytes(payload, r.pattern.data(), r.pattern.size());
  PutU64(payload, r.match_count);
  PutU64(payload, r.size_bytes);
  PutU64(payload, r.pointer_count);
  PutU32(payload, r.page_count_after);
  EncodeStoredList(payload, r.tuple_list);
  PutU32(payload, static_cast<uint32_t>(r.lists.size()));
  for (const StoredList& list : r.lists) EncodeStoredList(payload, list);
  PutU32(payload, static_cast<uint32_t>(r.list_lengths.size()));
  for (uint32_t len : r.list_lengths) PutU32(payload, len);
  return payload;
}

std::vector<uint8_t> EncodeUpdateBegin(uint64_t epoch, uint32_t view_count) {
  std::vector<uint8_t> payload;
  PutU64(payload, epoch);
  PutU32(payload, view_count);
  return payload;
}

std::vector<uint8_t> EncodeEpoch(uint64_t epoch) {
  std::vector<uint8_t> payload;
  PutU64(payload, epoch);
  return payload;
}

std::vector<uint8_t> EncodePair(uint64_t epoch, uint64_t target) {
  std::vector<uint8_t> payload;
  PutU64(payload, epoch);
  PutU64(payload, target);
  return payload;
}

std::vector<uint8_t> EncodeTriple(uint64_t epoch, uint64_t a, uint64_t b) {
  std::vector<uint8_t> payload;
  PutU64(payload, epoch);
  PutU64(payload, a);
  PutU64(payload, b);
  return payload;
}

/// Serializes one framed record: length | type | payload | crc.
std::vector<uint8_t> FrameRecord(ManifestRecordType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(payload.size() + 9);
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  PutU8(frame, static_cast<uint8_t>(type));
  PutBytes(frame, payload.data(), payload.size());
  // CRC covers type || payload — the length field is implied by what the CRC
  // validates, and a torn length prefix shows up as an incomplete record.
  uint32_t crc = util::Crc32(frame.data() + 4, payload.size() + 1);
  PutU32(frame, crc);
  return frame;
}

std::vector<uint8_t> EncodeJournalHeader() {
  std::vector<uint8_t> header;
  header.reserve(kJournalHeaderSize);
  PutBytes(header, kMagic, sizeof(kMagic));
  PutU32(header, ManifestJournal::kFormatVersion);
  PutU32(header, util::Crc32(header.data(), header.size()));
  return header;
}

Status IoError(const std::string& message) {
  return Status::IoError(message + ": " + std::strerror(errno));
}

/// Typed verdict for a failed journal write: real ENOSPC from the OS becomes
/// kResourceExhausted (the engine treats a full disk as an operational
/// condition, not rot), everything else stays kIoError. Callers clear errno
/// before the write so a stale value cannot retype an unrelated failure.
Status WriteError(const std::string& message) {
  int err = errno;
  std::string detail =
      message + ": " + (err != 0 ? std::strerror(err) : "short write");
  if (err == ENOSPC) return Status::ResourceExhausted(detail);
  return Status::IoError(detail);
}

/// The injected flavor of a full disk, typed identically to the real one.
Status NoSpace(const std::string& message) {
  return Status::ResourceExhausted(message +
                                   ": no space left on device (injected)");
}

/// Writes the journal header, honoring header-write fault injection (the
/// manifest header and the pager header share the injector channel).
Status WriteJournalHeader(std::FILE* file, const std::string& path) {
  std::vector<uint8_t> header = EncodeJournalHeader();
  util::WriteFault fault = util::FaultInjector::Global().OnHeaderWriteAttempt();
  if (fault == util::WriteFault::kShortWrite) {
    std::fwrite(header.data(), 1, header.size() / 2, file);
    std::fflush(file);
    return Status::IoError("injected short write on manifest header of " +
                           path);
  }
  if (fault == util::WriteFault::kNoSpace ||
      util::FaultInjector::Global().OnDiskCharge(header.size())) {
    // A full disk rejects the header before any byte lands; the (fresh or
    // tmp) file stays empty for the caller to remove.
    return NoSpace("cannot write manifest header of " + path);
  }
  if (fault == util::WriteFault::kTornPage) {
    std::memset(header.data() + header.size() / 2, 0xAA, header.size() / 2);
  } else if (fault == util::WriteFault::kBitFlip) {
    header[sizeof(kMagic)] ^= 0x01;  // corrupt the version field
  }
  errno = 0;
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
    return WriteError("cannot write manifest header of " + path);
  }
  return Status::Ok();
}

Status SyncFile(std::FILE* file, const std::string& path) {
  errno = 0;
  if (std::fflush(file) != 0) return WriteError("cannot flush " + path);
  if (::fsync(fileno(file)) != 0) return WriteError("cannot fsync " + path);
  return Status::Ok();
}

/// kBegin records not yet matched by their install: epoch -> (pattern,
/// scheme).
using PendingBegins =
    std::unordered_map<uint64_t, std::pair<std::string, uint8_t>>;

/// Applies one parsed record to the accumulating replay state. Returns
/// kCorruption when the payload does not decode.
Status ApplyRecord(ManifestRecordType type, const uint8_t* payload,
                   size_t payload_size, const std::string& path, long offset,
                   ManifestReplayResult& result,
                   PendingBegins& pending_begins) {
  PayloadReader in(payload, payload_size);
  uint64_t epoch = in.U64();
  switch (type) {
    case ManifestRecordType::kBegin: {
      uint8_t scheme = in.U8();
      std::string pattern = in.Bytes(in.U16());
      if (in.failed()) break;
      pending_begins[epoch] = {std::move(pattern), scheme};
      break;
    }
    case ManifestRecordType::kInstall: {
      ManifestViewRecord r;
      r.epoch = epoch;
      r.scheme = in.U8();
      r.pattern = in.Bytes(in.U16());
      r.match_count = in.U64();
      r.size_bytes = in.U64();
      r.pointer_count = in.U64();
      r.page_count_after = in.U32();
      r.tuple_list = DecodeStoredList(in);
      uint32_t list_count = in.U32();
      if (list_count > ManifestJournal::kMaxPayload / 17) break;
      r.lists.reserve(list_count);
      for (uint32_t i = 0; i < list_count && !in.failed(); ++i) {
        r.lists.push_back(DecodeStoredList(in));
      }
      uint32_t length_count = in.U32();
      if (length_count > ManifestJournal::kMaxPayload / 4) break;
      r.list_lengths.reserve(length_count);
      for (uint32_t i = 0; i < length_count && !in.failed(); ++i) {
        r.list_lengths.push_back(in.U32());
      }
      if (in.failed()) break;
      if (r.page_count_after > result.durable_page_count) {
        result.durable_page_count = r.page_count_after;
      }
      pending_begins.erase(epoch);
      result.installed.push_back(std::move(r));
      break;
    }
    case ManifestRecordType::kQuarantine: {
      uint64_t target = in.U64();
      if (in.failed()) break;
      result.quarantined.insert(target);
      break;
    }
    case ManifestRecordType::kReplace: {
      uint64_t old_epoch = in.U64();
      uint64_t new_epoch = in.U64();
      if (in.failed()) break;
      result.replaced[old_epoch] = new_epoch;
      break;
    }
    case ManifestRecordType::kDrop: {
      uint64_t target = in.U64();
      if (in.failed()) break;
      result.quarantined.erase(target);
      result.replaced.erase(target);
      for (auto it = result.installed.begin(); it != result.installed.end();
           ++it) {
        if (it->epoch == target) {
          result.installed.erase(it);
          break;
        }
      }
      break;
    }
    case ManifestRecordType::kUpdateBegin:
    case ManifestRecordType::kUpdateCommit:
    case ManifestRecordType::kEpochMark:
      // Transaction bracketing and the epoch mark are handled by the replay
      // loop itself (they need the whole-file state, not per-record state).
      break;
  }
  if (in.failed()) {
    return Status::Corruption("manifest record at offset " +
                              std::to_string(offset) + " of " + path +
                              " does not decode");
  }
  if (epoch > result.last_epoch) result.last_epoch = epoch;
  return Status::Ok();
}

/// One pass over a journal's records: the replay state plus the bookkeeping
/// the record loop keeps across records.
struct RecordScan {
  ManifestReplayResult result;
  PendingBegins pending;
  /// Offset of the first record not applied (torn tail start or the end).
  long offset = static_cast<long>(kJournalHeaderSize);
  // Epoch bookkeeping across every scanned record, including records an
  // update rollback later undoes: the epoch counter must resume above
  // everything ever written, or a restart would mint colliding epochs.
  uint64_t max_epoch_seen = 0;
  uint64_t prev_epoch = 0;
  uint64_t regressions = 0;
  /// An update transaction (kUpdateBegin) has seen no kUpdateCommit yet.
  bool txn_open = false;
  long txn_begin_offset = 0;
};

/// Applies the records from scan.offset up to `end`, reading sequentially
/// from `file`'s current position (which must be scan.offset). Stops at a
/// torn record (tail_torn); fails with kCorruption on a record that is fully
/// present but bad.
Status ScanRecords(std::FILE* file, const std::string& path, long end,
                   RecordScan& scan) {
  std::vector<uint8_t> buf;
  while (scan.offset < end) {
    const long offset = scan.offset;
    long remaining = end - offset;
    uint8_t len_bytes[4];
    if (remaining < 4 ||
        std::fread(len_bytes, 1, 4, file) != 4) {
      scan.result.tail_torn = true;  // crash tore the length prefix itself
      break;
    }
    uint32_t payload_len = 0;
    for (int i = 0; i < 4; ++i) {
      payload_len |= static_cast<uint32_t>(len_bytes[i]) << (8 * i);
    }
    long record_size = 4 + 1 + static_cast<long>(payload_len) + 4;
    if (payload_len > ManifestJournal::kMaxPayload || remaining < record_size) {
      // Either the record's bytes end before its declared size (classic torn
      // append) or the length prefix itself is torn garbage; both are the
      // signature of a crash at EOF, not of rot inside the valid prefix.
      scan.result.tail_torn = true;
      break;
    }
    buf.resize(1 + payload_len + 4);
    if (std::fread(buf.data(), 1, buf.size(), file) != buf.size()) {
      scan.result.tail_torn = true;
      break;
    }
    uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
      stored_crc |= static_cast<uint32_t>(buf[1 + payload_len + i]) << (8 * i);
    }
    if (stored_crc != util::Crc32(buf.data(), 1 + payload_len)) {
      // The record is fully present yet fails its checksum: bit rot, not a
      // torn append — a crash cannot fabricate the trailing bytes.
      return Status::Corruption("manifest record at offset " +
                                std::to_string(offset) + " of " + path +
                                " fails its checksum");
    }
    uint8_t type = buf[0];
    if (type < static_cast<uint8_t>(ManifestRecordType::kBegin) ||
        type > static_cast<uint8_t>(ManifestRecordType::kEpochMark)) {
      return Status::Corruption("manifest record at offset " +
                                std::to_string(offset) + " of " + path +
                                " has unknown type " + std::to_string(type));
    }
    // Every record type leads its payload with a u64 epoch; decode it here
    // for the file-wide monotonicity and high-water-mark tracking.
    uint64_t lead_epoch = 0;
    if (payload_len >= 8) {
      for (int i = 0; i < 8; ++i) {
        lead_epoch |= static_cast<uint64_t>(buf[1 + i]) << (8 * i);
      }
    }
    if (lead_epoch < scan.prev_epoch) ++scan.regressions;
    scan.prev_epoch = lead_epoch;
    if (lead_epoch > scan.max_epoch_seen) scan.max_epoch_seen = lead_epoch;

    const ManifestRecordType rtype = static_cast<ManifestRecordType>(type);
    if (rtype == ManifestRecordType::kUpdateBegin) {
      if (scan.txn_open) {
        return Status::Corruption("manifest record at offset " +
                                  std::to_string(offset) + " of " + path +
                                  " opens a nested update transaction");
      }
      scan.txn_open = true;
      scan.txn_begin_offset = offset;
    } else if (rtype == ManifestRecordType::kUpdateCommit) {
      if (!scan.txn_open) {
        return Status::Corruption("manifest record at offset " +
                                  std::to_string(offset) + " of " + path +
                                  " commits an update transaction that was "
                                  "never opened");
      }
      scan.txn_open = false;
    } else if (rtype != ManifestRecordType::kEpochMark) {
      Status applied = ApplyRecord(rtype, buf.data() + 1, payload_len, path,
                                   offset, scan.result, scan.pending);
      if (!applied.ok()) return applied;
    }
    scan.offset += record_size;
  }
  return Status::Ok();
}

}  // namespace

std::vector<bool> ReferencedPages(
    const std::vector<const ManifestViewRecord*>& records, uint32_t page_count,
    std::vector<std::pair<PageId, const ManifestViewRecord*>>* repeats) {
  std::vector<bool> referenced(page_count, false);
  auto mark = [&](const ManifestViewRecord* record, const StoredList& list) {
    for (PageId page : list.pages) {
      if (page >= page_count) continue;
      if (referenced[page] && repeats != nullptr) {
        repeats->emplace_back(page, record);
      }
      referenced[page] = true;
    }
  };
  for (const ManifestViewRecord* record : records) {
    for (const StoredList& list : record->lists) mark(record, list);
    mark(record, record->tuple_list);
  }
  return referenced;
}

ManifestJournal::ManifestJournal(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

ManifestJournal::~ManifestJournal() { Close(); }

void ManifestJournal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

StatusOr<std::unique_ptr<ManifestJournal>> ManifestJournal::Create(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb+");
  if (file == nullptr) {
    return IoError("cannot create manifest journal " + path);
  }
  Status status = WriteJournalHeader(file, path);
  if (status.ok()) status = SyncFile(file, path);
  if (!status.ok()) {
    // Nothing durable was promised yet, so a failed create must not leave an
    // empty/truncated journal for the next open to mistake for corruption.
    std::fclose(file);
    std::remove(path.c_str());
    return status;
  }
  return std::unique_ptr<ManifestJournal>(new ManifestJournal(path, file));
}

StatusOr<std::unique_ptr<ManifestJournal>> ManifestJournal::OpenForAppend(
    const std::string& path, long valid_bytes) {
  // Truncate away any torn tail first so appends resume at a record
  // boundary; truncating to the replay-validated prefix is exactly the
  // recovery action for a crash mid-append.
  if (valid_bytes >= 0 && ::truncate(path.c_str(), valid_bytes) != 0) {
    return IoError("cannot truncate manifest journal " + path);
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return IoError("cannot open manifest journal " + path);
  }
  return std::unique_ptr<ManifestJournal>(new ManifestJournal(path, file));
}

StatusOr<ManifestReplayResult> ManifestJournal::Replay(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("manifest journal " + path + " does not exist");
  }
  std::fseek(file, 0, SEEK_END);
  long file_size = std::ftell(file);
  std::rewind(file);

  ManifestReplayResult result;

  uint8_t header[kJournalHeaderSize];
  size_t got = std::fread(header, 1, sizeof(header), file);
  if (got != sizeof(header) ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(file);
    return Status::Corruption("manifest journal " + path +
                              " has a bad or truncated header");
  }
  // The header is exactly what the writer emits: a flipped version byte, a
  // bad CRC and a journal of another version all fail the same comparison.
  if (std::memcmp(header, EncodeJournalHeader().data(), sizeof(header)) != 0) {
    std::fclose(file);
    return Status::Corruption("manifest journal " + path +
                              " header fails validation (version/CRC)");
  }

  PendingBegins pending;
  RecordScan scan;
  Status scanned = ScanRecords(file, path, file_size, scan);
  if (scanned.ok() && scan.txn_open) {
    // Crash mid-batch: the commit record never landed, so none of the
    // batch's installs/replaces happened. Rebuild the pre-batch state by
    // scanning the records before the kUpdateBegin once more (only a torn
    // batch pays this second pass; committed batches are applied once, with
    // no per-transaction snapshot), and point valid_bytes at the kUpdateBegin
    // record so recovery truncates the half-applied suffix — otherwise
    // records appended after recovery would sit behind a dangling open
    // transaction and be rolled back by every future replay.
    RecordScan before;
    scanned = std::fseek(file, before.offset, SEEK_SET) == 0
                  ? ScanRecords(file, path, scan.txn_begin_offset, before)
                  : IoError("cannot rewind manifest journal " + path);
    before.result.valid_bytes = scan.txn_begin_offset;
    before.result.rolled_back_update_batches = 1;
    result = std::move(before.result);
    pending = std::move(before.pending);
  } else {
    result = std::move(scan.result);
    pending = std::move(scan.pending);
    result.valid_bytes = scan.offset;
  }
  std::fclose(file);
  if (!scanned.ok()) return scanned;
  if (scan.max_epoch_seen > result.last_epoch) {
    result.last_epoch = scan.max_epoch_seen;
  }
  result.epoch_regressions = scan.regressions;
  for (auto& [epoch, begin] : pending) {
    (void)epoch;
    result.rolled_back.emplace_back(std::move(begin.first), begin.second);
  }
  return result;
}

Status ManifestJournal::WriteCheckpoint(
    const std::string& path, const std::vector<ManifestViewRecord>& records,
    const std::vector<uint64_t>& quarantined_epochs, uint64_t last_epoch) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return IoError("cannot create manifest checkpoint " + tmp);
  }
  Status status = WriteJournalHeader(file, tmp);
  bool crashed = false;
  auto append = [&](ManifestRecordType type,
                    const std::vector<uint8_t>& payload) {
    if (!status.ok()) return;
    std::vector<uint8_t> frame = FrameRecord(type, payload);
    if (util::FaultInjector::Global().AtCrashPoint(
            util::CrashPoint::kCrashMidCompaction)) {
      // Simulated crash mid-compaction: half a frame reaches the tmp file
      // and the process "dies" — the torn tmp stays on disk and the rename
      // never happens, so the original journal must win on reopen.
      std::fwrite(frame.data(), 1, frame.size() / 2, file);
      std::fflush(file);
      crashed = true;
      status = Status::IoError("injected crash mid-compaction writing " + tmp);
      return;
    }
    if (util::FaultInjector::Global().OnDiskCharge(frame.size())) {
      // Full disk mid-compaction: the record never starts, the tmp file is
      // removed below, and the rename never happens — the old journal stays
      // the authoritative (and still replayable) manifest.
      status = NoSpace("cannot write manifest checkpoint " + tmp);
      return;
    }
    errno = 0;
    if (std::fwrite(frame.data(), 1, frame.size(), file) != frame.size()) {
      status = WriteError("cannot write manifest checkpoint " + tmp);
    }
  };
  for (const ManifestViewRecord& r : records) {
    append(ManifestRecordType::kInstall, EncodeInstall(r));
  }
  for (uint64_t epoch : quarantined_epochs) {
    append(ManifestRecordType::kQuarantine, EncodePair(last_epoch, epoch));
  }
  // The epoch mark last (keeping leading epochs non-decreasing): a compact
  // journal holds only surviving installs, whose epochs can all be far below
  // the allocator's high-water mark (e.g. after quarantines or drops).
  // Without the mark, reopening after a checkpoint would resume the epoch
  // counter too low and mint epochs the old journal already used.
  append(ManifestRecordType::kEpochMark, EncodeEpoch(last_epoch));
  if (status.ok()) status = SyncFile(file, tmp);
  std::fclose(file);
  if (!status.ok()) {
    // A genuine write error cleans up its tmp; an injected crash leaves it
    // exactly as a kill -9 would, for recovery to sweep.
    if (!crashed) std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status renamed = IoError("cannot install manifest checkpoint " + path);
    std::remove(tmp.c_str());
    return renamed;
  }
  return Status::Ok();
}

size_t ManifestJournal::CheckpointBytes(
    const std::vector<ManifestViewRecord>& records, size_t quarantined) {
  constexpr size_t kFrame = 9;  // length, type, CRC around each payload
  size_t bytes = kJournalHeaderSize + kFrame + EncodeEpoch(0).size();
  for (const ManifestViewRecord& r : records) {
    bytes += kFrame + EncodeInstall(r).size();
  }
  return bytes + quarantined * (kFrame + EncodePair(0, 0).size());
}

Status ManifestJournal::AppendRecord(ManifestRecordType type,
                                     const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::IoError("manifest journal " + path_ + " is closed");
  }
  std::vector<uint8_t> frame = FrameRecord(type, payload);
  if (util::FaultInjector::Global().AtCrashPoint(
          util::CrashPoint::kCrashMidJournal)) {
    // Simulated crash mid-append: half the record reaches the file and the
    // process "dies" — no CRC, no sync, no cleanup. Replay must treat the
    // half-record as a torn tail and recovery must truncate it.
    std::fwrite(frame.data(), 1, frame.size() / 2, file_);
    std::fflush(file_);
    return Status::IoError("injected crash mid-journal appending to " + path_);
  }
  if (util::FaultInjector::Global().OnDiskCharge(frame.size())) {
    // Full disk: the record never starts, so the journal keeps its clean
    // record boundary — no torn tail for recovery to truncate.
    return NoSpace("cannot append to manifest journal " + path_);
  }
  errno = 0;
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return WriteError("cannot append to manifest journal " + path_);
  }
  if (util::FaultInjector::Global().OnFlushAttempt()) {
    // A failed fsync after a complete write: the whole record reaches the
    // file, so a reopen may replay it although the append reports failure.
    std::fflush(file_);
    return Status::IoError("fsync failed appending to manifest journal " +
                           path_ + ": injected flush fault");
  }
  return SyncFile(file_, path_);
}

long ManifestJournal::AppendOffset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return -1;
  std::fflush(file_);
  return std::ftell(file_);
}

Status ManifestJournal::TruncateTo(long offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::IoError("manifest journal " + path_ + " is closed");
  }
  if (offset < static_cast<long>(kJournalHeaderSize)) {
    return Status::InvalidArgument(
        "refusing to truncate manifest journal " + path_ +
        " into its header (offset " + std::to_string(offset) + ")");
  }
  // A failed append may have latched the stream's error flag; clear it so
  // the flush below does not refuse, then cut the file at the record
  // boundary the caller captured before its transaction.
  std::clearerr(file_);
  (void)std::fflush(file_);
  if (::ftruncate(::fileno(file_), offset) != 0) {
    return Status::IoError("cannot truncate manifest journal " + path_ +
                           " to " + std::to_string(offset) + " bytes: " +
                           std::strerror(errno));
  }
  if (std::fseek(file_, offset, SEEK_SET) != 0) {
    return Status::IoError("seek after truncate failed in manifest journal " +
                           path_);
  }
  return SyncFile(file_, path_);
}

Status ManifestJournal::AppendBegin(uint64_t epoch, uint8_t scheme,
                                    const std::string& pattern) {
  return AppendRecord(ManifestRecordType::kBegin,
                      EncodeBegin(epoch, scheme, pattern));
}

Status ManifestJournal::AppendInstall(const ManifestViewRecord& record) {
  return AppendRecord(ManifestRecordType::kInstall, EncodeInstall(record));
}

Status ManifestJournal::AppendQuarantine(uint64_t epoch,
                                         uint64_t target_epoch) {
  return AppendRecord(ManifestRecordType::kQuarantine,
                      EncodePair(epoch, target_epoch));
}

Status ManifestJournal::AppendReplace(uint64_t epoch, uint64_t old_epoch,
                                      uint64_t new_epoch) {
  return AppendRecord(ManifestRecordType::kReplace,
                      EncodeTriple(epoch, old_epoch, new_epoch));
}

Status ManifestJournal::AppendDrop(uint64_t epoch, uint64_t target_epoch) {
  return AppendRecord(ManifestRecordType::kDrop,
                      EncodePair(epoch, target_epoch));
}

Status ManifestJournal::AppendUpdateBegin(uint64_t epoch,
                                          uint32_t view_count) {
  return AppendRecord(ManifestRecordType::kUpdateBegin,
                      EncodeUpdateBegin(epoch, view_count));
}

Status ManifestJournal::AppendUpdateCommit(uint64_t epoch,
                                           uint64_t txn_epoch) {
  return AppendRecord(ManifestRecordType::kUpdateCommit,
                      EncodePair(epoch, txn_epoch));
}

}  // namespace viewjoin::storage
