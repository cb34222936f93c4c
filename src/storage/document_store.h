#ifndef VIEWJOIN_STORAGE_DOCUMENT_STORE_H_
#define VIEWJOIN_STORAGE_DOCUMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/stored_list.h"
#include "util/status.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace viewjoin::storage {

/// Paged, persistent image of a base document's element streams — the
/// out-of-core counterpart of xml::Document's tag lists, built on the same
/// Pager/BufferPool/StoredList stack the view catalog uses.
///
/// Contents, all immutable once built: one sorted label list per element
/// type (the "element streams" every join algorithm scans), stored as delta
/// pages with a page directory and fence keys, so ListCursor's decoded
/// frames, galloping seeks and read-ahead all apply unchanged. The lists
/// hold every node's start, end, level and tag, and a node's parent follows
/// from label nesting, so they are the whole document structure: there is
/// no separate node table.
///
/// The table of contents is a ManifestJournal checkpoint ("<path>.manifest")
/// holding one install record per tag list — pattern is the tag name. The
/// checkpoint is written *after* the pager file is fsynced, making it the
/// single atomic commit point: a store whose manifest exists is complete, a
/// pager file without one is an aborted-build orphan. vj_fsck verifies both
/// with the catalog machinery, since manifest patterns are opaque strings.
///
/// Builds stream: the XML parser emits element events into the builder,
/// which keeps at most `parse_budget_bytes` of label records in memory and
/// spills (tag, start)-sorted runs ("<path>.runN") beyond that, k-way
/// merging them into list pages at Finish — pages are encoded and written
/// one at a time, so peak memory is the budget plus one read buffer per run,
/// independent of document size. A failed or aborted build removes the
/// pager file and every run file and writes no manifest (no orphans).
class DocumentStore {
 public:
  struct Options {
    /// Buffer-pool frames for reading the store back.
    size_t pool_pages = 1024;
    /// In-memory bytes of parsed label records before the builder spills a
    /// sorted run (floor: one page's worth of records).
    size_t parse_budget_bytes = size_t{64} << 20;
    /// False builds a scratch store: its pager file and TOC are removed when
    /// the store is destroyed, the way a Pager::Mode::kTruncate file is.
    bool persistent = true;
  };

  /// Streams the XML file at `xml_path` into a fresh store at `path`
  /// (truncating any previous one; a stale manifest is removed up front so
  /// no TOC ever points at truncated pages). Parse errors carry the same
  /// message/offset as xml::ParseDocumentFile.
  static util::StatusOr<std::unique_ptr<DocumentStore>> Build(
      const std::string& path, const std::string& xml_path,
      const Options& options);

  /// Build() over in-memory XML text (tests, generated documents).
  static util::StatusOr<std::unique_ptr<DocumentStore>> BuildFromText(
      const std::string& path, std::string_view xml, const Options& options);

  /// Snapshots an in-memory document into a fresh store at `path`. Labels
  /// are copied verbatim — including gap labels — so cursors over the store
  /// see exactly the labels the in-memory streams hold (tombstoned nodes
  /// are in neither).
  static util::StatusOr<std::unique_ptr<DocumentStore>> BuildFromDocument(
      const std::string& path, const xml::Document& doc,
      const Options& options);

  /// Opens an existing store: replays the manifest checkpoint (kNotFound
  /// when missing — the caller rebuilds) and validates the page ranges
  /// against the pager file (kCorruption on mismatch).
  static util::StatusOr<std::unique_ptr<DocumentStore>> Open(
      const std::string& path, const Options& options);

  ~DocumentStore();

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  // ---- Tag table (same first-seen interning order as the parse) -----------

  xml::TagId FindTag(std::string_view name) const;
  const std::string& TagName(xml::TagId tag) const { return tag_names_[tag]; }
  size_t TagCount() const { return tag_names_.size(); }

  // ---- Lists --------------------------------------------------------------

  /// The sorted label list of `tag`. Stable pointer (the store outlives any
  /// cursor over it); an unknown/absent tag yields a shared empty list.
  const StoredList* ListOfTag(xml::TagId tag) const;

  // ---- Plumbing -----------------------------------------------------------

  BufferPool* pool() const { return pool_.get(); }
  Pager* pager() const { return pager_.get(); }
  const std::string& path() const { return path_; }

  /// Pager I/O counters merged with the pool's hit/miss/prefetch counters —
  /// one IoStats snapshot for --explain and bench deltas.
  IoStats Stats() const;
  void ResetStats();

  /// Drops unpinned cached frames (cold-scan experiments).
  void DropCaches() { pool_->Clear(); }

 private:
  DocumentStore() = default;

  /// Every build: a store with a fresh pager file at `path`, filled by
  /// `fill`. A failed fill removes the pager file and TOC.
  static util::StatusOr<std::unique_ptr<DocumentStore>> BuildWith(
      const std::string& path, const Options& options,
      const std::function<util::Status(DocumentStore*)>& fill);
  /// Build() and BuildFromText(): `parse` streams the XML into the store.
  static util::StatusOr<std::unique_ptr<DocumentStore>> BuildStreamed(
      const std::string& path, const Options& options,
      const std::function<xml::StreamResult(xml::ParseHandler*)>& parse);

  /// Shared tail of every Build flavour and Open.
  util::Status AttachPool(size_t pool_pages);

  std::string path_;
  bool scratch_ = false;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;

  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, xml::TagId> tag_ids_;
  std::vector<StoredList> lists_;  // indexed by TagId; stable after build
  StoredList empty_list_;          // returned for unknown tags
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_DOCUMENT_STORE_H_
