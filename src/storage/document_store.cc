#include "storage/document_store.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <queue>

#include "storage/file.h"
#include "storage/manifest.h"
#include "util/check.h"
#include "xml/parser.h"

namespace viewjoin::storage {
namespace {

/// One parsed element, complete once its closing tag was seen. 24 bytes —
/// the unit both the spill runs and the node arena are made of.
struct DocRecord {
  uint32_t tag = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint32_t level = 0;
  uint32_t parent = xml::kInvalidNode;
  uint32_t reserved = 0;
};

/// (tag, start) — the merge order that groups records into per-tag sorted
/// lists. Starts are unique, so the order is total.
bool TagOrder(const DocRecord& a, const DocRecord& b) {
  return a.tag != b.tag ? a.tag < b.tag : a.start < b.start;
}

/// Start order. Both the streaming parser and Document assign start
/// positions and node ids from the same monotone counters, so for a fresh
/// parse start order *is* node-id (preorder) order — the arena order.
bool StartOrder(const DocRecord& a, const DocRecord& b) {
  return a.start < b.start;
}

std::string RunPath(const std::string& path, size_t run, char order) {
  return path + ".run" + std::to_string(run) + "." + order;
}

/// Writes one sorted run to disk. Typed failure: a full disk (real ENOSPC or
/// the injected budget) is kResourceExhausted, so the build aborts as
/// resource exhaustion rather than corruption; a failed run never survives
/// on disk. Runs are scratch, read back by this build only: no fsync.
util::Status WriteRun(const std::string& run_path,
                      const std::vector<DocRecord>& recs) {
  return WriteFile(run_path, recs.data(), recs.size() * sizeof(DocRecord),
                   /*durable=*/false);
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
  /// file (the arena pass then counts fewer records than nodes).
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

/// Merged, ordered record stream: either a single sorted in-memory vector
/// (no spill happened) or a k-way merge over sorted run files.
class RecordSource {
 public:
  using Less = bool (*)(const DocRecord&, const DocRecord&);

  /// In-memory source; `recs` must already be sorted by `less`.
  RecordSource(const std::vector<DocRecord>* recs, Less less)
      : mem_(recs), less_(less) {}

  /// Run-file source. `ok()` is false when a run failed to open.
  RecordSource(const std::string& path, size_t runs, char order, Less less)
      : less_(less) {
    readers_.resize(runs);
    for (size_t r = 0; r < runs; ++r) {
      if (!readers_[r].Open(RunPath(path, r, order))) {
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
      if (best == nullptr || less_(r.Peek(), best->Peek())) best = &r;
    }
    if (best == nullptr) return nullptr;
    current_ = best->Peek();
    best->Next();
    return &current_;
  }

 private:
  const std::vector<DocRecord>* mem_ = nullptr;
  size_t mem_pos_ = 0;
  Less less_;
  std::vector<RunReader> readers_;
  DocRecord current_;
  bool ok_ = true;
};

/// Appends fixed-size records to pager pages, flushing each page as it
/// fills. Pages are zero-padded — a poison read is distinguishable (0xFF).
class PageWriter {
 public:
  explicit PageWriter(Pager* pager) : pager_(pager) {
    page_.resize(Pager::kPageSize);
  }

  util::Status Append(const void* rec, size_t size) {
    if (fill_ + size > Pager::kPageSize) {
      util::Status s = FlushPage();
      if (!s.ok()) return s;
    }
    std::memcpy(page_.data() + fill_, rec, size);
    fill_ += size;
    return util::Status::Ok();
  }

  /// Flushes a partial trailing page (no-op when empty).
  util::Status Finish() {
    if (fill_ == 0) return util::Status::Ok();
    return FlushPage();
  }

  uint32_t pages_written() const { return pages_written_; }

 private:
  util::Status FlushPage() {
    std::memset(page_.data() + fill_, 0, Pager::kPageSize - fill_);
    auto id = pager_->AllocatePage();
    if (!id.ok()) return id.status();
    util::Status s = pager_->WritePage(*id, page_.data());
    if (!s.ok()) return s;
    fill_ = 0;
    ++pages_written_;
    return util::Status::Ok();
  }

  Pager* pager_;
  std::vector<uint8_t> page_;
  size_t fill_ = 0;
  uint32_t pages_written_ = 0;
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
    xml::TagId tag = Intern(name);
    Open open;
    open.record.tag = tag;
    open.record.start = next_pos_++;
    open.record.level = static_cast<uint32_t>(open_.size()) + 1;
    open.record.parent =
        open_.empty() ? xml::kInvalidNode : open_.back().node_id;
    open.node_id = next_node_id_++;
    open_.push_back(open);
    return true;
  }

  bool EndElement() override {
    Open open = open_.back();
    open_.pop_back();
    open.record.end = next_pos_++;
    buffer_.push_back(open.record);
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
  size_t run_count() const { return runs_; }
  uint64_t node_count() const { return next_node_id_; }
  std::vector<std::string>& tag_names() { return tag_names_; }
  std::unordered_map<std::string, xml::TagId>& tag_ids() { return tag_ids_; }

  /// Sorted streams over everything parsed. With runs on disk the in-memory
  /// tail is flushed as the final run first.
  util::Status FinishInput() {
    if (runs_ > 0 && !buffer_.empty()) {
      if (!Spill()) return spill_status_;
    }
    return util::Status::Ok();
  }

  std::unique_ptr<RecordSource> TagSource() {
    if (runs_ == 0) {
      std::sort(buffer_.begin(), buffer_.end(), TagOrder);
      return std::make_unique<RecordSource>(&buffer_, TagOrder);
    }
    return std::make_unique<RecordSource>(path_, runs_, 'a', TagOrder);
  }
  std::unique_ptr<RecordSource> ArenaSource() {
    if (runs_ == 0) {
      std::sort(buffer_.begin(), buffer_.end(), StartOrder);
      return std::make_unique<RecordSource>(&buffer_, StartOrder);
    }
    return std::make_unique<RecordSource>(path_, runs_, 'b', StartOrder);
  }

  /// Removes every run file this builder created (idempotent).
  void RemoveRuns() {
    for (size_t r = 0; r < runs_; ++r) {
      RemoveFile(RunPath(path_, r, 'a'));
      RemoveFile(RunPath(path_, r, 'b'));
    }
  }

 private:
  struct Open {
    DocRecord record;
    xml::NodeId node_id = 0;
  };

  xml::TagId Intern(std::string_view name) {
    auto it = tag_ids_.find(std::string(name));
    if (it != tag_ids_.end()) return it->second;
    xml::TagId id = static_cast<xml::TagId>(tag_names_.size());
    tag_names_.emplace_back(name);
    tag_ids_.emplace(tag_names_.back(), id);
    return id;
  }

  /// Writes the buffer as one run in both merge orders, then drops it.
  /// Returning false aborts the parse (ParseHandler contract).
  bool Spill() {
    std::sort(buffer_.begin(), buffer_.end(), TagOrder);
    spill_status_ = WriteRun(RunPath(path_, runs_, 'a'), buffer_);
    if (!spill_status_.ok()) return false;
    std::sort(buffer_.begin(), buffer_.end(), StartOrder);
    spill_status_ = WriteRun(RunPath(path_, runs_, 'b'), buffer_);
    if (!spill_status_.ok()) return false;
    ++runs_;
    buffer_.clear();
    return true;
  }

  std::string path_;
  size_t budget_records_;
  std::vector<DocRecord> buffer_;
  size_t runs_ = 0;
  util::Status spill_status_ = util::Status::Ok();

  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, xml::TagId> tag_ids_;
  std::vector<Open> open_;
  uint32_t next_pos_ = 1;
  xml::NodeId next_node_id_ = 0;
};

void EncodeLabelRecord(uint8_t* out, uint32_t start, uint32_t end,
                       uint32_t level) {
  std::memcpy(out, &start, 4);
  std::memcpy(out + 4, &end, 4);
  std::memcpy(out + 8, &level, 4);
}

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

util::StatusOr<StoredNode> DocumentStore::NodeAt(xml::NodeId id) const {
  if (id >= nodes_list_.count) {
    return util::Status::InvalidArgument("node id past the arena: " +
                                         std::to_string(id));
  }
  BufferPool::PinnedPage pin;
  util::Status s = pool_->Fetch(nodes_list_.PageOf(id), &pin);
  if (!s.ok()) return s;
  const uint8_t* rec = pin.data() + nodes_list_.OffsetOf(id);
  StoredNode node;
  std::memcpy(&node.start, rec, 4);
  std::memcpy(&node.end, rec + 4, 4);
  std::memcpy(&node.level, rec + 8, 4);
  std::memcpy(&node.tag, rec + 12, 4);
  std::memcpy(&node.parent, rec + 16, 4);
  return node;
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

using SourceFactory = std::function<std::unique_ptr<RecordSource>()>;

/// Encodes the merged (tag, start) stream into per-tag list pages and the
/// start-ordered stream into arena pages, then commits the TOC. Shared by
/// the streaming and from-document builds — both reduce to two sorted
/// record streams plus a tag table.
///
/// The streams arrive as factories, not live sources: when no spill
/// happened, both of the streaming builder's sources are views over the
/// SAME in-memory vector (each factory sorts it into its own order), so the
/// arena source must not be created until the tag pass has fully consumed
/// its stream.
util::Status EmitStore(DocumentStore* store, Pager* pager,
                       const std::vector<std::string>& tag_names,
                       const SourceFactory& make_tag_source,
                       const SourceFactory& make_arena_source,
                       uint64_t node_count, std::vector<StoredList>* lists,
                       StoredList* nodes_list) {
  const RecordLayout label_layout{1, false, 0};
  const RecordLayout arena_layout{2, false, 0};
  lists->assign(tag_names.size(), StoredList{});
  for (StoredList& l : *lists) l.layout = label_layout;

  // Per-tag label lists, in one pass over the (tag, start) stream.
  {
    std::unique_ptr<RecordSource> tag_source = make_tag_source();
    if (!tag_source->ok()) {
      return util::Status::IoError("document store: spill run unreadable");
    }
    PageWriter writer(pager);
    xml::TagId current = xml::kInvalidTag;
    uint32_t page_base = pager->page_count();
    uint32_t records_on_page = 0;
    const uint32_t per_page = label_layout.RecordSize() == 0
                                  ? 0
                                  : Pager::kPageSize / label_layout.RecordSize();
    auto close_tag = [&]() -> util::Status {
      if (current == xml::kInvalidTag) return util::Status::Ok();
      util::Status s = writer.Finish();
      if (!s.ok()) return s;
      (*lists)[current].AssignRun(page_base);
      records_on_page = 0;
      return util::Status::Ok();
    };
    uint8_t rec_bytes[12];
    for (const DocRecord* rec = tag_source->Next(); rec != nullptr;
         rec = tag_source->Next()) {
      if (rec->tag != current) {
        util::Status s = close_tag();
        if (!s.ok()) return s;
        current = rec->tag;
        VJ_CHECK(current < lists->size());
        page_base = pager->page_count();
      }
      StoredList& list = (*lists)[current];
      if (records_on_page == 0) list.page_first_start.push_back(rec->start);
      EncodeLabelRecord(rec_bytes, rec->start, rec->end, rec->level);
      util::Status s = writer.Append(rec_bytes, sizeof(rec_bytes));
      if (!s.ok()) return s;
      ++list.count;
      records_on_page = (records_on_page + 1) % per_page;
    }
    util::Status s = close_tag();
    if (!s.ok()) return s;
  }

  // The node arena, in node-id (start) order.
  {
    std::unique_ptr<RecordSource> arena_source = make_arena_source();
    if (!arena_source->ok()) {
      return util::Status::IoError("document store: spill run unreadable");
    }
    PageWriter writer(pager);
    nodes_list->layout = arena_layout;
    const PageId arena_base = pager->page_count();
    uint8_t rec_bytes[24];
    uint64_t emitted = 0;
    for (const DocRecord* rec = arena_source->Next(); rec != nullptr;
         rec = arena_source->Next()) {
      std::memcpy(rec_bytes, &rec->start, 4);
      std::memcpy(rec_bytes + 4, &rec->end, 4);
      std::memcpy(rec_bytes + 8, &rec->level, 4);
      std::memcpy(rec_bytes + 12, &rec->tag, 4);
      std::memcpy(rec_bytes + 16, &rec->parent, 4);
      std::memcpy(rec_bytes + 20, &rec->reserved, 4);
      util::Status s = writer.Append(rec_bytes, sizeof(rec_bytes));
      if (!s.ok()) return s;
      ++emitted;
    }
    util::Status s = writer.Finish();
    if (!s.ok()) return s;
    nodes_list->count = static_cast<uint32_t>(node_count);
    nodes_list->AssignRun(arena_base);
    if (emitted != node_count) {
      return util::Status::Corruption(
          "document store: arena stream lost records (" +
          std::to_string(emitted) + " of " + std::to_string(node_count) + ")");
    }
  }

  // Durability barrier, then the atomic commit point: data before TOC.
  util::Status s = pager->Sync();
  if (!s.ok()) return s;

  std::vector<ManifestViewRecord> records;
  records.reserve(tag_names.size() + 1);
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
  {
    ManifestViewRecord rec;
    rec.epoch = ++epoch;
    rec.scheme = 0;
    rec.pattern = DocumentStore::kNodesPattern;
    rec.match_count = nodes_list->count;
    rec.size_bytes =
        static_cast<uint64_t>(nodes_list->PageSpan()) * Pager::kPageSize;
    rec.page_count_after = pager->page_count();
    rec.list_lengths = {nodes_list->count};
    rec.lists = {*nodes_list};
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
                    [&builder] { return builder.TagSource(); },
                    [&builder] { return builder.ArenaSource(); },
                    builder.node_count(), &store->lists_, &store->nodes_list_);
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

    // The document already holds both orders: per-tag streams are sorted by
    // start, and node ids index the arrays directly. Adapt them to the same
    // two sorted streams the streaming build produces. Tag lists carry only
    // live nodes (tombstones leave the streams); the arena keeps every id so
    // NodeAt(id) answers for exactly the ids the document answers for.
    std::vector<DocRecord> tag_stream;
    tag_stream.reserve(doc.LiveNodeCount());
    for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
      for (xml::NodeId n : doc.NodesOfTag(t)) {
        const xml::Label& l = doc.NodeLabel(n);
        tag_stream.push_back(DocRecord{t, l.start, l.end, l.level,
                                       doc.Parent(n), 0});
      }
    }
    std::vector<DocRecord> arena_stream;
    arena_stream.reserve(doc.NodeCount());
    for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
      const xml::Label& l = doc.NodeLabel(n);
      arena_stream.push_back(DocRecord{doc.NodeTag(n), l.start, l.end, l.level,
                                       doc.Parent(n), 0});
    }
    // Deliberately NOT sorted: arena order is id order here (post-update ids
    // are not start-ordered), and the tag stream is already grouped/sorted.
    // Two distinct vectors, so the factories just wrap them.
    return EmitStore(
        store, store->pager_.get(), store->tag_names_,
        [&tag_stream] {
          return std::make_unique<RecordSource>(&tag_stream, TagOrder);
        },
        [&arena_stream] {
          return std::make_unique<RecordSource>(&arena_stream, StartOrder);
        },
        doc.NodeCount(), &store->lists_, &store->nodes_list_);
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

  bool arena_seen = false;
  for (const ManifestViewRecord& rec : replay->installed) {
    if (rec.lists.size() != 1) {
      return util::Status::Corruption(
          "document store record '" + rec.pattern + "' must hold one list");
    }
    const StoredList& list = rec.lists[0];
    if (list.count > 0 &&
        !list.PagesWithin(page_count)) {
      return util::Status::Corruption("document store list '" + rec.pattern +
                                      "' points past the pager file");
    }
    if (rec.pattern == kNodesPattern) {
      if (arena_seen) {
        return util::Status::Corruption("document store has two node arenas");
      }
      arena_seen = true;
      store->nodes_list_ = list;
      continue;
    }
    xml::TagId id = static_cast<xml::TagId>(store->tag_names_.size());
    if (!store->tag_ids_.emplace(rec.pattern, id).second) {
      return util::Status::Corruption("document store repeats tag '" +
                                      rec.pattern + "'");
    }
    store->tag_names_.push_back(rec.pattern);
    store->lists_.push_back(list);
  }
  if (!arena_seen) {
    return util::Status::Corruption("document store is missing its node arena");
  }
  util::Status s = store->AttachPool(options.pool_pages);
  if (!s.ok()) return s;
  return store;
}

}  // namespace viewjoin::storage
