#include "storage/document_store.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "storage/file.h"
#include "storage/manifest.h"
#include "util/check.h"
#include "xml/parser.h"

namespace viewjoin::storage {
namespace {

/// One parsed element, complete once its closing tag was seen — the unit
/// the spill runs are made of.
struct DocRecord {
  uint32_t tag = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint32_t level = 0;
};

/// (tag, start) — the merge order that groups records into per-tag sorted
/// lists. Starts are unique, so the order is total.
bool TagOrder(const DocRecord& a, const DocRecord& b) {
  return a.tag != b.tag ? a.tag < b.tag : a.start < b.start;
}

std::string RunPath(const std::string& path, size_t run) {
  return path + ".run" + std::to_string(run);
}

/// Writes one sorted run to disk. Typed failure: a full disk (real ENOSPC or
/// the injected budget) is kResourceExhausted, so the build aborts as
/// resource exhaustion rather than corruption; a failed run never survives
/// on disk. Runs are scratch, read back by this build only: no fsync.
util::Status WriteRun(const std::string& run_path,
                      const std::vector<DocRecord>& recs) {
  return WriteFile(run_path, recs.data(), recs.size() * sizeof(DocRecord));
}

/// Buffered sequential reader over one spill run.
class RunReader {
 public:
  static constexpr size_t kBatch = 512;  // records per refill (~12 KiB)

  bool Open(const std::string& run_path) {
    util::StatusOr<File> file = File::Open(run_path, File::Mode::kReadOnly);
    if (!file.ok()) return false;
    file_ = std::move(*file);
    Refill();
    return true;
  }

  bool exhausted() const { return pos_ >= buf_.size(); }
  const DocRecord& Peek() const { return buf_[pos_]; }
  void Next() {
    ++pos_;
    if (pos_ >= buf_.size() && offset_ < file_.append_offset()) Refill();
  }

 private:
  /// Reads the next batch; a failed read ends the run early, like end of
  /// file (EmitStore then counts fewer records than were parsed).
  void Refill() {
    const uint64_t size = file_.append_offset();  // the run's size
    buf_.resize(std::min<uint64_t>(kBatch,
                                   (size - offset_) / sizeof(DocRecord)));
    pos_ = 0;
    const size_t bytes = buf_.size() * sizeof(DocRecord);
    if (!file_.ReadAt(buf_.data(), bytes, offset_).ok()) buf_.clear();
    offset_ = buf_.empty() ? size : offset_ + bytes;
  }

  File file_;
  uint64_t offset_ = 0;  // next byte to read
  std::vector<DocRecord> buf_;
  size_t pos_ = 0;
};

/// Merged (tag, start)-ordered record stream: either a single sorted
/// in-memory vector (no spill happened) or a k-way merge over sorted run
/// files.
class RecordSource {
 public:
  /// In-memory source; `recs` must already be sorted by TagOrder.
  explicit RecordSource(const std::vector<DocRecord>* recs) : mem_(recs) {}

  /// Run-file source. `ok()` is false when a run failed to open.
  RecordSource(const std::string& path, size_t runs) {
    readers_.resize(runs);
    for (size_t r = 0; r < runs; ++r) {
      if (!readers_[r].Open(RunPath(path, r))) {
        ok_ = false;
        return;
      }
    }
  }

  bool ok() const { return ok_; }

  const DocRecord* Next() {
    if (mem_ != nullptr) {
      return mem_pos_ < mem_->size() ? &(*mem_)[mem_pos_++] : nullptr;
    }
    RunReader* best = nullptr;
    for (RunReader& r : readers_) {
      if (r.exhausted()) continue;
      if (best == nullptr || TagOrder(r.Peek(), best->Peek())) best = &r;
    }
    if (best == nullptr) return nullptr;
    current_ = best->Peek();
    best->Next();
    return &current_;
  }

 private:
  const std::vector<DocRecord>* mem_ = nullptr;
  size_t mem_pos_ = 0;
  std::vector<RunReader> readers_;
  DocRecord current_;
  bool ok_ = true;
};

/// ParseHandler that labels elements exactly as xml::Document does (same
/// position counter, same level convention, same first-seen tag interning)
/// and spills complete records into sorted runs under a memory budget.
class StoreBuilder : public xml::ParseHandler {
 public:
  StoreBuilder(const std::string& path, size_t budget_bytes) : path_(path) {
    // At least one page's worth of records per run keeps run counts sane
    // even under adversarially tiny budgets.
    size_t floor_records = Pager::kPageSize / sizeof(DocRecord);
    budget_records_ = std::max(budget_bytes / sizeof(DocRecord), floor_records);
  }

  bool StartElement(std::string_view name) override {
    DocRecord record;
    record.tag = Intern(name);
    record.start = next_pos_++;
    record.level = static_cast<uint32_t>(open_.size()) + 1;
    open_.push_back(record);
    return true;
  }

  bool EndElement() override {
    DocRecord record = open_.back();
    open_.pop_back();
    record.end = next_pos_++;
    buffer_.push_back(record);
    ++record_count_;
    if (buffer_.size() >= budget_records_) return Spill();
    return true;
  }

  bool Text() override {
    ++next_pos_;
    return true;
  }

  /// True when a spill write failed (the abort reason when the parse stops);
  /// spill_status() carries the typed reason (ENOSPC vs generic I/O).
  bool spill_failed() const { return !spill_status_.ok(); }
  const util::Status& spill_status() const { return spill_status_; }
  uint64_t record_count() const { return record_count_; }
  std::vector<std::string>& tag_names() { return tag_names_; }
  std::unordered_map<std::string, xml::TagId>& tag_ids() { return tag_ids_; }

  /// With runs on disk, flushes the in-memory tail as the final run.
  util::Status FinishInput() {
    if (runs_ > 0 && !buffer_.empty()) {
      if (!Spill()) return spill_status_;
    }
    return util::Status::Ok();
  }

  /// The sorted stream over everything parsed.
  RecordSource Source() {
    if (runs_ == 0) {
      std::sort(buffer_.begin(), buffer_.end(), TagOrder);
      return RecordSource(&buffer_);
    }
    return RecordSource(path_, runs_);
  }

  /// Removes every run file this builder created (idempotent).
  void RemoveRuns() {
    for (size_t r = 0; r < runs_; ++r) RemoveFile(RunPath(path_, r));
  }

 private:
  xml::TagId Intern(std::string_view name) {
    auto it = tag_ids_.find(std::string(name));
    if (it != tag_ids_.end()) return it->second;
    xml::TagId id = static_cast<xml::TagId>(tag_names_.size());
    tag_names_.emplace_back(name);
    tag_ids_.emplace(tag_names_.back(), id);
    return id;
  }

  /// Writes the buffer as one sorted run, then drops it. Returning false
  /// aborts the parse (ParseHandler contract).
  bool Spill() {
    std::sort(buffer_.begin(), buffer_.end(), TagOrder);
    spill_status_ = WriteRun(RunPath(path_, runs_), buffer_);
    if (!spill_status_.ok()) return false;
    ++runs_;
    buffer_.clear();
    return true;
  }

  std::string path_;
  size_t budget_records_;
  std::vector<DocRecord> buffer_;
  size_t runs_ = 0;
  uint64_t record_count_ = 0;
  util::Status spill_status_ = util::Status::Ok();

  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, xml::TagId> tag_ids_;
  std::vector<DocRecord> open_;  // elements whose closing tag is pending
  uint32_t next_pos_ = 1;
};

}  // namespace

DocumentStore::~DocumentStore() {
  // The pool's read-ahead thread (if any) must stop before the pager goes.
  if (pool_ != nullptr) pool_->SetReadAhead(0);
  // A scratch store's pager removes its file on close; its TOC goes here.
  if (scratch_) RemoveFile(ManifestJournal::PathFor(path_));
}

util::Status DocumentStore::AttachPool(size_t pool_pages) {
  if (pool_pages == 0) {
    return util::Status::InvalidArgument(
        "document store: pool_pages must be >= 1");
  }
  pool_ = std::make_unique<BufferPool>(pager_.get(), pool_pages);
  return util::Status::Ok();
}

const StoredList* DocumentStore::ListOfTag(xml::TagId tag) const {
  if (tag >= lists_.size()) return &empty_list_;
  return &lists_[tag];
}

xml::TagId DocumentStore::FindTag(std::string_view name) const {
  auto it = tag_ids_.find(std::string(name));
  return it == tag_ids_.end() ? xml::kInvalidTag : it->second;
}

IoStats DocumentStore::Stats() const {
  IoStats stats = pager_->stats();
  stats.pool_hits = pool_->hits();
  stats.pool_misses = pool_->misses();
  stats.prefetch_issued = pool_->prefetch_issued();
  stats.prefetch_hits = pool_->prefetch_hits();
  stats.prefetch_wasted = pool_->prefetch_wasted();
  stats.pages_decoded = pool_->pages_decoded();
  stats.decode_mismatches = pool_->decode_mismatches();
  return stats;
}

void DocumentStore::ResetStats() {
  pager_->ResetStats();
  pool_->ResetStats();
}

namespace {

/// Encodes the (tag, start)-ordered stream into per-tag delta lists, one
/// page in memory at a time, then commits the TOC. Shared by the streaming
/// and from-document builds. `expected` is the number of records the stream
/// must yield; a spill run that failed to read back yields fewer.
util::Status EmitStore(DocumentStore* store, Pager* pager,
                       const std::vector<std::string>& tag_names,
                       RecordSource source, uint64_t expected,
                       std::vector<StoredList>* lists) {
  if (!source.ok()) {
    return util::Status::IoError("document store: spill run unreadable");
  }
  const RecordLayout label_layout{1, false, 0};
  lists->assign(tag_names.size(), StoredList{});
  for (StoredList& l : *lists) l.layout = label_layout;

  DeltaPageEncoder encoder(label_layout);
  std::vector<uint8_t> page(Pager::kPageSize);
  StoredList* list = nullptr;  // the list the encoder's open page belongs to
  auto flush = [&]() -> util::Status {
    list->page_first_entry.push_back(encoder.first_entry());
    list->page_first_start.push_back(encoder.first_start());
    encoder.Flush(page.data());
    util::StatusOr<PageId> id = pager->AllocatePage();
    if (!id.ok()) return id.status();
    list->pages.push_back(*id);
    return pager->WritePage(*id, page.data());
  };
  uint64_t emitted = 0;
  for (const DocRecord* rec = source.Next(); rec != nullptr;
       rec = source.Next()) {
    VJ_CHECK(rec->tag < lists->size());
    if (list != &(*lists)[rec->tag] && !encoder.empty()) {
      util::Status s = flush();  // the previous tag's last page
      if (!s.ok()) return s;
    }
    list = &(*lists)[rec->tag];
    uint8_t bytes[12];
    std::memcpy(bytes, &rec->start, 4);
    std::memcpy(bytes + 4, &rec->end, 4);
    std::memcpy(bytes + 8, &rec->level, 4);
    if (!encoder.Add(bytes, list->count)) {
      util::Status s = flush();
      if (!s.ok()) return s;
      encoder.Add(bytes, list->count);
    }
    ++list->count;
    ++emitted;
  }
  if (!encoder.empty()) {
    util::Status s = flush();
    if (!s.ok()) return s;
  }
  if (emitted != expected) {
    return util::Status::Corruption(
        "document store: spill runs lost records (" + std::to_string(emitted) +
        " of " + std::to_string(expected) + ")");
  }

  // Durability barrier, then the atomic commit point: data before TOC.
  util::Status s = pager->Sync();
  if (!s.ok()) return s;

  std::vector<ManifestViewRecord> records;
  records.reserve(tag_names.size());
  uint64_t epoch = 0;
  uint32_t pages_so_far = 0;
  for (size_t t = 0; t < tag_names.size(); ++t) {
    const StoredList& list = (*lists)[t];
    ManifestViewRecord rec;
    rec.epoch = ++epoch;
    rec.scheme = 0;  // Scheme::kElement — plain label lists
    rec.pattern = tag_names[t];
    rec.match_count = list.count;
    rec.size_bytes = static_cast<uint64_t>(list.PageSpan()) * Pager::kPageSize;
    pages_so_far = list.pages.empty() ? pages_so_far : list.pages.back() + 1;
    rec.page_count_after = pages_so_far;
    rec.list_lengths = {list.count};
    rec.lists = {list};
    records.push_back(std::move(rec));
  }
  return ManifestJournal::WriteCheckpoint(ManifestJournal::PathFor(store->path()),
                                          records, {}, epoch);
}

}  // namespace

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::BuildWith(
    const std::string& path, const Options& options,
    const std::function<util::Status(DocumentStore*)>& fill) {
  // A stale TOC must never describe the file we are about to truncate.
  RemoveFile(ManifestJournal::PathFor(path));
  auto store = std::unique_ptr<DocumentStore>(new DocumentStore());
  store->path_ = path;
  store->scratch_ = !options.persistent;
  store->pager_ = std::make_unique<Pager>(
      path,
      options.persistent ? Pager::Mode::kPersist : Pager::Mode::kTruncate);
  if (!store->pager_->init_status().ok()) return store->pager_->init_status();
  util::Status status = fill(store.get());
  if (!status.ok()) {
    // A failed build leaves nothing behind: no pager file, no TOC.
    store->pager_->Close();
    RemoveFile(path);
    RemoveFile(ManifestJournal::PathFor(path));
    return status;
  }
  status = store->AttachPool(options.pool_pages);
  if (!status.ok()) return status;
  return store;
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::BuildStreamed(
    const std::string& path, const Options& options,
    const std::function<xml::StreamResult(xml::ParseHandler*)>& parse) {
  return BuildWith(path, options, [&](DocumentStore* store) {
    StoreBuilder builder(path, options.parse_budget_bytes);
    xml::StreamResult parsed = parse(&builder);
    util::Status s;
    if (builder.spill_failed()) {
      s = builder.spill_status();
    } else if (!parsed.ok && parsed.error.rfind("cannot open file", 0) == 0) {
      s = util::Status::NotFound(parsed.error);
    } else if (!parsed.ok) {
      s = util::Status::InvalidArgument("parse error at offset " +
                                        std::to_string(parsed.error_offset) +
                                        ": " + parsed.error);
    }
    if (s.ok()) s = builder.FinishInput();
    if (s.ok()) {
      store->tag_names_ = std::move(builder.tag_names());
      store->tag_ids_ = std::move(builder.tag_ids());
      s = EmitStore(store, store->pager_.get(), store->tag_names_,
                    builder.Source(), builder.record_count(), &store->lists_);
    }
    builder.RemoveRuns();
    return s;
  });
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::BuildFromText(
    const std::string& path, std::string_view xml, const Options& options) {
  return BuildStreamed(path, options, [xml](xml::ParseHandler* handler) {
    return xml::ParseStream(xml, handler);
  });
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::Build(
    const std::string& path, const std::string& xml_path,
    const Options& options) {
  return BuildStreamed(path, options, [&xml_path](xml::ParseHandler* handler) {
    return xml::ParseFileStream(xml_path, handler);
  });
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::BuildFromDocument(
    const std::string& path, const xml::Document& doc, const Options& options) {
  return BuildWith(path, options, [&](DocumentStore* store) {
    store->tag_names_.reserve(doc.TagCount());
    for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
      store->tag_names_.push_back(doc.TagName(t));
      store->tag_ids_.emplace(store->tag_names_.back(), t);
    }

    // The document's per-tag streams are already sorted by start and hold
    // only live nodes (tombstones leave the streams), so concatenated in tag
    // order they are the (tag, start) stream the streaming build merges.
    std::vector<DocRecord> tag_stream;
    tag_stream.reserve(doc.LiveNodeCount());
    for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
      for (xml::NodeId n : doc.NodesOfTag(t)) {
        const xml::Label& l = doc.NodeLabel(n);
        tag_stream.push_back(DocRecord{t, l.start, l.end, l.level});
      }
    }
    return EmitStore(store, store->pager_.get(), store->tag_names_,
                     RecordSource(&tag_stream), tag_stream.size(),
                     &store->lists_);
  });
}

util::StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::Open(
    const std::string& path, const Options& options) {
  auto replay = ManifestJournal::Replay(ManifestJournal::PathFor(path));
  if (!replay.ok()) return replay.status();

  auto store = std::unique_ptr<DocumentStore>(new DocumentStore());
  store->path_ = path;
  store->pager_ = std::make_unique<Pager>(path, Pager::Mode::kReopen);
  if (!store->pager_->init_status().ok()) return store->pager_->init_status();
  const uint32_t page_count = store->pager_->page_count();

  for (const ManifestViewRecord& rec : replay->installed) {
    if (rec.lists.size() != 1) {
      return util::Status::Corruption(
          "document store record '" + rec.pattern + "' must hold one list");
    }
    const StoredList& list = rec.lists[0];
    if (!list.DirectoryValid() || !list.PagesWithin(page_count)) {
      return util::Status::Corruption("document store list '" + rec.pattern +
                                      "' points past the pager file or has a "
                                      "malformed page directory");
    }
    xml::TagId id = static_cast<xml::TagId>(store->tag_names_.size());
    if (!store->tag_ids_.emplace(rec.pattern, id).second) {
      return util::Status::Corruption("document store repeats tag '" +
                                      rec.pattern + "'");
    }
    store->tag_names_.push_back(rec.pattern);
    store->lists_.push_back(list);
  }
  util::Status s = store->AttachPool(options.pool_pages);
  if (!s.ok()) return s;
  return store;
}

}  // namespace viewjoin::storage
