#include "storage/materialized_view.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "storage/file.h"
#include "storage/list_codec.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace viewjoin::storage {

using tpq::TreePattern;
using xml::Document;
using xml::Label;
using xml::NodeId;

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kElement:
      return "E";
    case Scheme::kTuple:
      return "T";
    case Scheme::kLinkedElement:
      return "LE";
    case Scheme::kLinkedElementPartial:
      return "LE_p";
  }
  return "?";
}

std::optional<Scheme> ParseScheme(std::string_view name) {
  if (name == "E") return Scheme::kElement;
  if (name == "T") return Scheme::kTuple;
  if (name == "LE") return Scheme::kLinkedElement;
  if (name == "LE_p") return Scheme::kLinkedElementPartial;
  return std::nullopt;
}

// ---- Staging ---------------------------------------------------------------

/// Payload pages of one view accumulated in memory before installation.
/// Staged page p gets the id `base + p`. Materialization stages outside any
/// catalog lock with base 0, and InstallView shifts the ids onto the pager's
/// tail under the install lock. An update batch holds that lock from staging
/// on, so it stages at the tail directly, and its merged lists may also
/// reference committed pages of the versions they replace (ids below base).
struct ViewCatalog::StagedPages {
  std::vector<uint8_t> payload;  // page_count * kPageSize, zero-padded
  uint32_t page_count = 0;
  PageId base = 0;
};

util::StatusOr<StoredList> ViewCatalog::StageList(
    StagedPages& staged, const std::vector<uint8_t>& bytes, RecordLayout layout,
    uint32_t count) {
  // Wide fan-out patterns (LE child pointers grow the record by one slot per
  // pc/ad child) must be rejected here, at materialization, with a typed
  // error — not fail later in the page encoder or the cursor.
  util::Status fits = CheckPageFit(layout);
  if (!fits.ok()) return fits;
  StoredList list;
  list.layout = layout;
  list.count = count;
  if (count == 0) return list;
  util::StatusOr<DeltaEncoded> encoded =
      EncodeDeltaList(bytes.data(), count, layout);
  if (!encoded.ok()) return encoded.status();
  const uint32_t pages = static_cast<uint32_t>(encoded->pages.size());
  list.page_first_entry = std::move(encoded->page_first_entry);
  list.page_first_start = std::move(encoded->page_first_start);
  list.AssignRun(staged.base + staged.page_count);
  staged.payload.resize(
      static_cast<size_t>(staged.page_count + pages) * Pager::kPageSize, 0);
  for (uint32_t p = 0; p < pages; ++p) {
    std::memcpy(staged.payload.data() +
                    static_cast<size_t>(staged.page_count + p) *
                        Pager::kPageSize,
                encoded->pages[p].data(), Pager::kPageSize);
  }
  staged.page_count += pages;
  return list;
}

// ---- Construction / teardown ----------------------------------------------

ViewCatalog::ViewCatalog(const std::string& path, size_t pool_pages,
                         bool persistent)
    : ViewCatalog(path, pool_pages, persistent,
                  persistent ? Pager::Mode::kPersist : Pager::Mode::kTruncate) {
  // A zero-frame pool would make every Fetch fail with InvalidArgument; a
  // fresh catalog asking for one is a configuration error, like a catalog
  // that cannot create its backing file (Open() is the recoverable path).
  VJ_CHECK(pool_pages > 0) << "view catalog needs a pool of >= 1 page";
  VJ_CHECK(pager_->init_status().ok()) << pager_->init_status().ToString();
  if (persistent) {
    auto journal = ManifestJournal::Create(ManifestJournal::PathFor(path));
    VJ_CHECK(journal.ok()) << journal.status().ToString();
    journal_ = std::move(*journal);
  }
}

ViewCatalog::ViewCatalog(const std::string& path, size_t pool_pages,
                         bool persistent, Pager::Mode mode)
    : pager_(std::make_unique<Pager>(path, mode)),
      pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)),
      persistent_(persistent) {}

ViewCatalog::~ViewCatalog() { (void)Close(); }

util::Status ViewCatalog::Close() {
  if (journal_ != nullptr) journal_->Close();
  return pager_->Close();
}

// ---- Manifest journal / checkpoint ----------------------------------------

ManifestViewRecord ViewCatalog::RecordFor(const MaterializedView& view,
                                          uint32_t page_count_after) const {
  ManifestViewRecord record;
  record.epoch = view.epoch_;
  record.scheme = static_cast<uint8_t>(view.scheme_);
  record.pattern = view.pattern_.ToString();
  record.match_count = view.match_count_;
  record.size_bytes = view.size_bytes_;
  record.pointer_count = view.pointer_count_;
  record.page_count_after = page_count_after;
  record.list_lengths = view.list_lengths_;
  record.lists = view.lists_;
  record.tuple_list = view.tuple_list_;
  return record;
}

util::Status ViewCatalog::Checkpoint() {
  if (!persistent_) {
    return util::Status::InvalidArgument(
        "checkpoint requires a persistent catalog");
  }
  std::lock_guard<std::mutex> install_lock(install_mu_);
  return CheckpointLocked(SnapshotLocked());
}

util::Status ViewCatalog::CheckpointLocked(const BackupSnapshot& snap) {
  const std::string journal_path = ManifestJournal::PathFor(pager_->path());
  bool renamed = false;
  util::Status written = ManifestJournal::WriteCheckpoint(
      journal_path, snap.records, snap.quarantined_epochs, snap.epoch,
      &renamed);
  if (!renamed) return written;
  // The rename replaced the inode the open journal handle points at; switch
  // appends over to the fresh compact file, even when the directory sync
  // after the rename failed — appending to the unlinked old inode would
  // lose every later record.
  journal_->Close();
  auto reopened = ManifestJournal::OpenForAppend(journal_path,
                                                 /*valid_bytes=*/-1);
  if (!reopened.ok()) return reopened.status();
  journal_ = std::move(*reopened);
  checkpoint_bytes_ = journal_->AppendOffset();
  return written;
}

void ViewCatalog::MaybeCompactJournalLocked() {
  // The cheap test runs every batch; the size of a checkpoint is computed
  // only when the journal outgrew the last known one, and kept as the new
  // baseline when the live set has grown with it.
  const long journal_bytes = journal_->AppendOffset();
  if (journal_bytes <= kJournalCompactionRatio * checkpoint_bytes_) return;
  const BackupSnapshot snap = SnapshotLocked();
  checkpoint_bytes_ = static_cast<long>(ManifestJournal::CheckpointBytes(
      snap.records, snap.quarantined_epochs.size()));
  if (journal_bytes <= kJournalCompactionRatio * checkpoint_bytes_) return;
  // The batch is committed either way; a failed compaction leaves the old
  // journal authoritative and is retried after a later batch.
  (void)CheckpointLocked(snap);
}

ViewCatalog::BackupSnapshot ViewCatalog::SnapshotForBackup() {
  std::lock_guard<std::mutex> install_lock(install_mu_);
  BackupSnapshot snap = SnapshotLocked();
  snap.pin = reclaimer_.PinBackup();
  return snap;
}

ViewCatalog::BackupSnapshot ViewCatalog::SnapshotLocked() const {
  BackupSnapshot snap;
  snap.page_count = pager_->page_count();
  {
    // Live versions only: a retired version is reachable through no lookup,
    // and writing it without its replacement link would revive it.
    std::lock_guard<std::mutex> lock(registry_mu_);
    snap.records.reserve(live_.size());
    for (const auto& [epoch, view] : live_) {
      snap.records.push_back(RecordFor(*view, snap.page_count));
      if (quarantined_.count(view) != 0) {
        snap.quarantined_epochs.push_back(epoch);
      }
    }
  }
  snap.epoch = epoch();
  return snap;
}

// ---- Open / startup recovery ----------------------------------------------

namespace {

util::Status MalformedManifest(const std::string& path,
                               const std::string& message) {
  return util::Status::Corruption("malformed manifest for " + path + ": " +
                                  message);
}

/// Every stored list must lie inside the (checksummed) pager file; a
/// manifest pointing past the end means one of the two files is stale. A
/// list whose page directory is malformed would send cursors to arbitrary
/// records, so it is rejected as decisively as an out-of-range page.
bool ListInRange(const StoredList& list, uint32_t pages) {
  return list.DirectoryValid() && list.PagesWithin(pages);
}

}  // namespace

util::StatusOr<std::unique_ptr<ViewCatalog>> ViewCatalog::Open(
    const std::string& path, size_t pool_pages) {
  if (pool_pages == 0) {
    return util::Status::InvalidArgument(
        "cannot open catalog " + path + " with a zero-page buffer pool");
  }
  const std::string journal_path = ManifestJournal::PathFor(path);
  auto replayed = ManifestJournal::Replay(journal_path);
  if (!replayed.ok()) {
    if (replayed.status().code() == util::StatusCode::kNotFound) {
      return util::Status::NotFound("missing manifest for " + path);
    }
    return replayed.status();
  }
  ManifestReplayResult replay = std::move(*replayed);

  RecoveryReport report;
  // A checkpoint tmp cut short before its rename is pure staging: the
  // journal it would have replaced is still whole.
  report.checkpoint_tmp_removed = RemoveFile(journal_path + ".tmp");
  report.rolled_back_update_batches = replay.rolled_back_update_batches;

  // Roll the pager file back to the journal's durable prefix *before* the
  // pager validates it: a crash between the data append and the journal
  // commit leaves uncommitted tail pages (possibly a partial page) that
  // would otherwise be rejected as a truncated/oversized file.
  util::StatusOr<File> file = File::Open(path, File::Mode::kReadWrite);
  if (file.ok()) {
    const uint64_t size = file->append_offset();
    const uint64_t expected =
        Pager::kHeaderSize +
        static_cast<uint64_t>(replay.durable_page_count) *
            Pager::kPhysicalPageSize;
    if (size < expected) {
      return util::Status::Corruption(
          "manifest for " + path + " records " +
          std::to_string(replay.durable_page_count) +
          " durable pages but the pager file is shorter — journal and data "
          "file are out of step");
    }
    if (size > expected) {
      util::Status truncated = file->Truncate(expected);
      if (!truncated.ok()) return truncated;
      report.orphan_pages_truncated = static_cast<uint32_t>(
          (size - expected + Pager::kPhysicalPageSize - 1) /
          Pager::kPhysicalPageSize);
    }
    (void)file->Close();
  }

  auto catalog = std::unique_ptr<ViewCatalog>(new ViewCatalog(
      path, pool_pages, /*persistent=*/true, Pager::Mode::kReopen));
  if (!catalog->pager_->init_status().ok()) {
    return catalog->pager_->init_status();
  }

  report.journal_tail_truncated = replay.tail_torn;
  auto journal = ManifestJournal::OpenForAppend(journal_path,
                                                replay.valid_bytes);
  if (!journal.ok()) return journal.status();
  catalog->journal_ = std::move(*journal);

  const uint32_t pages = catalog->pager_->page_count();
  std::unordered_map<uint64_t, MaterializedView*> by_epoch;
  for (ManifestViewRecord& r : replay.installed) {
    std::optional<TreePattern> pattern = TreePattern::Parse(r.pattern);
    if (!pattern.has_value()) {
      return MalformedManifest(path, "unparsable view pattern " + r.pattern);
    }
    auto view = std::make_unique<MaterializedView>();
    view->pattern_ = *pattern;
    view->scheme_ = static_cast<Scheme>(r.scheme);
    view->epoch_ = r.epoch;
    view->match_count_ = r.match_count;
    view->size_bytes_ = r.size_bytes;
    view->pointer_count_ = r.pointer_count;
    view->list_lengths_ = std::move(r.list_lengths);
    view->lists_ = r.lists;  // the free-list derivation below reads r too
    view->tuple_list_ = r.tuple_list;
    for (const StoredList& list : view->lists_) {
      if (!ListInRange(list, pages)) {
        return MalformedManifest(path, "view " + r.pattern +
                                           " references pages beyond the "
                                           "pager file");
      }
    }
    if (!ListInRange(view->tuple_list_, pages)) {
      return MalformedManifest(path, "view " + r.pattern +
                                         " references pages beyond the pager "
                                         "file");
    }
    by_epoch[r.epoch] = view.get();
    catalog->RegisterLocked(std::move(view));
  }
  for (uint64_t e : replay.quarantined) {
    auto it = by_epoch.find(e);
    if (it != by_epoch.end()) catalog->quarantined_.insert(it->second);
  }
  for (const auto& [old_epoch, new_epoch] : replay.replaced) {
    auto from = by_epoch.find(old_epoch);
    auto to = by_epoch.find(new_epoch);
    if (from != by_epoch.end() && to != by_epoch.end() &&
        from->second != to->second) {
      // Nothing is cached yet, so the retired version has no pages to drop.
      (void)catalog->LinkReplacementLocked(from->second, to->second);
    }
  }
  // The free list is derived, never stored: every page below the durable
  // prefix that no live page table references. That covers retired
  // versions' pages and whatever an uncommitted install wrote into free
  // pages before a crash.
  std::vector<const ManifestViewRecord*> live;
  for (const ManifestViewRecord& r : replay.installed) {
    if (catalog->live_.count(r.epoch) != 0) live.push_back(&r);
  }
  const std::vector<bool> referenced = ReferencedPages(live, pages);
  std::vector<PageId> free_pages;
  for (PageId page = 0; page < pages; ++page) {
    if (!referenced[page]) free_pages.push_back(page);
  }
  catalog->reclaimer_.AddFree(free_pages);
  catalog->epoch_.store(std::max<uint64_t>(replay.last_epoch, 1),
                        std::memory_order_release);

  // Re-queue what recovery could not restore: rolled-back builds and
  // quarantined views with no healthy stand-in.
  std::set<std::pair<std::string, int>> seen;
  auto queue_rebuild = [&](const std::string& pattern, Scheme scheme) {
    if (seen.insert({pattern, static_cast<int>(scheme)}).second) {
      report.pending_rebuild.emplace_back(pattern, scheme);
    }
  };
  for (const auto& [pattern, scheme] : replay.rolled_back) {
    // A Begin with no Install at its epoch stays in the journal until the
    // next checkpoint; if a later attempt (new epoch) did commit the same
    // view, there is nothing left to rebuild.
    if (catalog->FindView(pattern, static_cast<Scheme>(scheme)) == nullptr) {
      queue_rebuild(pattern, static_cast<Scheme>(scheme));
    }
  }
  for (const MaterializedView* view : catalog->quarantined_) {
    const std::string pattern = view->pattern_.ToString();
    if (catalog->FindView(pattern, view->scheme_) == nullptr) {
      queue_rebuild(pattern, view->scheme_);
    }
  }
  catalog->recovery_ = std::move(report);
  return catalog;
}

IoStats ViewCatalog::Stats() const {
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

void ViewCatalog::ResetStats() {
  pager_->ResetStats();
  pool_->ResetStats();
}

// ---- Installation ----------------------------------------------------------

util::Status ViewCatalog::PlaceStagedPages(
    StagedPages& staged, const std::vector<MaterializedView*>& views,
    std::vector<PageId>* ids) {
  *ids = reclaimer_.Allocate(staged.page_count, pager_->page_count());
  // Staged ids start at staged.base; anything below it is a committed page
  // a merged list shares with the version it replaces.
  auto place = [&](StoredList& list) {
    for (PageId& page : list.pages) {
      if (page >= staged.base) page = (*ids)[page - staged.base];
    }
  };
  for (MaterializedView* view : views) {
    for (StoredList& list : view->lists_) place(list);
    place(view->tuple_list_);
  }
  if (staged.page_count == 0) return util::Status::Ok();
  // Encode with the final ids stamped in the footers — the bytes written
  // below are byte-identical to what page-at-a-time writes would produce.
  std::vector<uint8_t> phys(static_cast<size_t>(staged.page_count) *
                            Pager::kPhysicalPageSize);
  for (uint32_t p = 0; p < staged.page_count; ++p) {
    Pager::EncodePhysicalPage(
        (*ids)[p],
        staged.payload.data() + static_cast<size_t>(p) * Pager::kPageSize,
        phys.data() + static_cast<size_t>(p) * Pager::kPhysicalPageSize);
  }
  util::Status written = pager_->WritePhysicalPages(*ids, phys.data());
  if (written.ok() && journal_ != nullptr) written = pager_->Sync();
  return written;
}

util::Status ViewCatalog::AbortUncommitted(util::Status status, PageId tail,
                                           long journal_mark,
                                           const std::vector<PageId>& ids) {
  // A returned ENOSPC is an in-process abort, not a crash: the process is
  // alive to undo its own partial transaction, so roll the store back to
  // exactly its pre-install state (no orphan pages, no dangling begin
  // record) and fsck finds nothing to repair. Every other failure kind —
  // injected crashes above all — must keep leaving the artifacts a dying
  // process would, because recovery is what handles them.
  bool uncommitted = journal_ == nullptr;
  if (status.code() == util::StatusCode::kResourceExhausted) {
    (void)pager_->TruncateToPageCount(tail);
    uncommitted = uncommitted ||
                  (journal_mark >= 0 && journal_->TruncateTo(journal_mark).ok());
  }
  // The placed ids go back on the free list only once no journal record can
  // name them. Any other failure may have landed its commit record whole (a
  // failed fsync after a complete write), which a reopen would replay; the
  // ids stay off the list, and Open derives them again if they were not.
  if (uncommitted) reclaimer_.Unallocate(ids, pager_->page_count());
  return status;
}

util::StatusOr<const MaterializedView*> ViewCatalog::InstallView(
    std::unique_ptr<MaterializedView> view, StagedPages& staged) {
  auto& injector = util::FaultInjector::Global();
  std::lock_guard<std::mutex> install_lock(install_mu_);

  const uint64_t epoch = AllocateEpoch();
  view->epoch_ = epoch;
  const long journal_mark =
      journal_ != nullptr ? journal_->AppendOffset() : -1;
  if (journal_ != nullptr) {
    // Intent record first: if the rest of the install never commits, replay
    // finds a begin without an install and re-queues the pattern.
    util::Status begun =
        journal_->AppendBegin(epoch, static_cast<uint8_t>(view->scheme_),
                              view->pattern_.ToString());
    if (!begun.ok()) return begun;
  }

  VJ_DCHECK(staged.base == 0);
  const PageId tail = pager_->page_count();
  std::vector<PageId> ids;
  auto fail = [&](const util::Status& status) {
    return AbortUncommitted(status, tail, journal_mark, ids);
  };
  util::Status placed = PlaceStagedPages(staged, {view.get()}, &ids);
  if (!placed.ok()) return fail(placed);
  if (injector.AtCrashPoint(util::CrashPoint::kCrashAfterDataSync)) {
    // Crash with the pages durable but uncommitted: recovery must truncate
    // the appended ones away and treat reused ones as free (no committed
    // page table names them), and roll the view back.
    return fail(util::Status::IoError(
        "injected crash after data sync, before journal commit"));
  }

  if (journal_ != nullptr) {
    util::Status committed =
        journal_->AppendInstall(RecordFor(*view, pager_->page_count()));
    // Mid-journal crash injection surfaces here: leave everything exactly
    // as a dying process would (written pages, torn record) for recovery to
    // clean up. A typed ENOSPC instead aborts cleanly (AbortUncommitted).
    if (!committed.ok()) return fail(committed);
  }

  const MaterializedView* result = view.get();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    RegisterLocked(std::move(view));
  }
  return result;
}

// ---- Materialization -------------------------------------------------------

namespace {

void AppendU32(std::vector<uint8_t>* out, uint32_t value) {
  uint8_t buf[4];
  std::memcpy(buf, &value, 4);
  out->insert(out->end(), buf, buf + 4);
}

void AppendLabel(std::vector<uint8_t>* out, const Label& label) {
  AppendU32(out, label.start);
  AppendU32(out, label.end);
  AppendU32(out, label.level);
}

/// Streams tuple-scheme matches straight into the record byte buffer.
class TupleWriterSink : public tpq::MatchSink {
 public:
  TupleWriterSink(const Document& doc, std::vector<uint8_t>* out)
      : doc_(doc), out_(out) {}

  void OnMatch(const tpq::Match& match) override {
    for (NodeId n : match) AppendLabel(out_, doc_.NodeLabel(n));
    ++count_;
  }

  uint64_t count() const { return count_; }

 private:
  const Document& doc_;
  std::vector<uint8_t>* out_;
  uint64_t count_ = 0;
};

/// First index j in `labels` with labels[j].start > bound, starting the
/// binary search at `from`.
size_t FirstStartAfter(const std::vector<Label>& labels, size_t from,
                       uint32_t bound) {
  return static_cast<size_t>(
      std::lower_bound(labels.begin() + static_cast<ptrdiff_t>(from),
                       labels.end(), bound,
                       [](const Label& l, uint32_t b) { return l.start <= b; }) -
      labels.begin());
}

/// Encodes the stored records of view node q — labels plus, for the linked
/// schemes, the following/descendant/child pointers recomputed from the
/// given solution labels of *every* node. Shared by initial materialization
/// and delta maintenance (merged lists re-enter here, so freshly patched
/// lists carry exactly the pointers a from-scratch build would).
/// InvalidArgument when a child pointer has no target: the lists are not a
/// consistent view instance (e.g. a delta removed a child but not its
/// parent match).
util::StatusOr<std::vector<uint8_t>> EncodeListRecords(
    const TreePattern& pattern, const std::vector<std::vector<Label>>& labels,
    size_t q, Scheme scheme, uint64_t* pointer_count) {
  const bool with_pointers = scheme != Scheme::kElement;
  const bool partial = scheme == Scheme::kLinkedElementPartial;
  const std::vector<Label>& lq = labels[q];
  const tpq::PatternNode& pn = pattern.node(static_cast<int>(q));
  RecordLayout layout;
  layout.label_count = 1;
  layout.has_pointers = with_pointers;
  layout.child_count =
      with_pointers ? static_cast<uint32_t>(pn.children.size()) : 0;
  std::vector<uint8_t> bytes;
  bytes.reserve(lq.size() * layout.RecordSize());
  for (size_t i = 0; i < lq.size(); ++i) {
    AppendLabel(&bytes, lq[i]);
    if (!with_pointers) continue;
    // Following pointer: first entry starting after this node ends.
    EntryIndex follow = kNullEntry;
    size_t j = FirstStartAfter(lq, i + 1, lq[i].end);
    if (j < lq.size()) follow = static_cast<EntryIndex>(j);
    if (partial && follow != kNullEntry && follow <= i + 1) {
      follow = kNullEntry;  // adjacent targets are not materialized in LE_p
    }
    if (follow != kNullEntry) ++*pointer_count;
    AppendU32(&bytes, follow);
    // Descendant pointer: the next entry iff it is nested in this one.
    EntryIndex desc = kNullEntry;
    if (i + 1 < lq.size() && lq[i + 1].start < lq[i].end) {
      desc = static_cast<EntryIndex>(i + 1);
    }
    if (partial) desc = kNullEntry;  // always one entry away
    if (desc != kNullEntry) ++*pointer_count;
    AppendU32(&bytes, desc);
    // Child pointers: first matching child/descendant entry per pc/ad
    // child of q in the view. Never null for a consistent view instance
    // (every stored node participates in at least one view match).
    for (int c : pn.children) {
      const std::vector<Label>& lc = labels[static_cast<size_t>(c)];
      size_t k = FirstStartAfter(lc, 0, lq[i].start);
      EntryIndex child = kNullEntry;
      if (pattern.node(c).incoming == tpq::Axis::kDescendant) {
        if (k < lc.size() && lc[k].start < lq[i].end) {
          child = static_cast<EntryIndex>(k);
        }
      } else {
        while (k < lc.size() && lc[k].start < lq[i].end) {
          if (lc[k].level == lq[i].level + 1) {
            child = static_cast<EntryIndex>(k);
            break;
          }
          ++k;
        }
      }
      if (child == kNullEntry) {
        return util::Status::InvalidArgument(
            "missing child pointer target in view " + pattern.ToString() +
            ": solution lists are not a consistent view instance");
      }
      ++*pointer_count;
      AppendU32(&bytes, child);
    }
  }
  return bytes;
}

}  // namespace

const MaterializedView* ViewCatalog::Materialize(const Document& doc,
                                                 const TreePattern& pattern,
                                                 Scheme scheme) {
  util::StatusOr<const MaterializedView*> result =
      TryMaterialize(doc, pattern, scheme);
  VJ_CHECK(result.ok()) << "materialization of " << pattern.ToString()
                        << " failed: " << result.status().ToString();
  return *result;
}

util::StatusOr<const MaterializedView*> ViewCatalog::TryMaterialize(
    const Document& doc, const TreePattern& pattern, Scheme scheme) {
  if (!pattern.HasUniqueTags()) {
    return util::Status::InvalidArgument(
        "view patterns must have unique element types: " + pattern.ToString());
  }
  tpq::NaiveEvaluator evaluator(doc, pattern);

  if (scheme == Scheme::kTuple) {
    auto view = std::make_unique<MaterializedView>();
    view->pattern_ = pattern;
    view->scheme_ = scheme;
    std::vector<uint8_t> bytes;
    TupleWriterSink sink(doc, &bytes);
    evaluator.Evaluate(&sink);
    RecordLayout layout;
    layout.label_count = static_cast<uint32_t>(pattern.size());
    StagedPages staged;
    util::StatusOr<StoredList> tuples =
        StageList(staged, bytes, layout, static_cast<uint32_t>(sink.count()));
    if (!tuples.ok()) return tuples.status();
    view->tuple_list_ = *tuples;
    view->match_count_ = sink.count();
    view->size_bytes_ = sink.count() * 12ull * pattern.size();
    // The per-node solution list lengths still drive the cost model.
    std::vector<std::vector<NodeId>> solutions = evaluator.SolutionNodes();
    for (const auto& list : solutions) {
      view->list_lengths_.push_back(static_cast<uint32_t>(list.size()));
    }
    return InstallView(std::move(view), staged);
  }

  // Element-list based schemes. Gather solution node lists and their labels.
  std::vector<std::vector<NodeId>> solutions = evaluator.SolutionNodes();
  return MaterializeFromLists(doc, pattern, solutions, scheme);
}

util::StatusOr<std::unique_ptr<MaterializedView>> ViewCatalog::StageListView(
    const TreePattern& pattern, Scheme scheme,
    const std::vector<std::vector<Label>>& labels, StagedPages& staged) {
  VJ_CHECK(scheme != Scheme::kTuple)
      << "StageListView supports the list schemes only";
  VJ_CHECK_EQ(labels.size(), pattern.size());
  auto view = std::make_unique<MaterializedView>();
  view->pattern_ = pattern;
  view->scheme_ = scheme;
  view->match_count_ = 0;  // not tracked for list schemes (cheap to recount)
  const size_t nq = pattern.size();
  const bool with_pointers = scheme != Scheme::kElement;
  view->lists_.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    view->list_lengths_.push_back(static_cast<uint32_t>(labels[q].size()));
    view->size_bytes_ += 12ull * labels[q].size();
    const tpq::PatternNode& pn = pattern.node(static_cast<int>(q));
    RecordLayout layout;
    layout.label_count = 1;
    layout.has_pointers = with_pointers;
    layout.child_count =
        with_pointers ? static_cast<uint32_t>(pn.children.size()) : 0;
    util::StatusOr<std::vector<uint8_t>> bytes =
        EncodeListRecords(pattern, labels, q, scheme, &view->pointer_count_);
    if (!bytes.ok()) return bytes.status();
    util::StatusOr<StoredList> staged_list =
        StageList(staged, *bytes, layout,
                  static_cast<uint32_t>(labels[q].size()));
    if (!staged_list.ok()) return staged_list.status();
    view->lists_[q] = *staged_list;
  }
  view->size_bytes_ += 4ull * view->pointer_count_;
  return view;
}

util::StatusOr<const MaterializedView*> ViewCatalog::MaterializeFromLists(
    const Document& doc, const TreePattern& pattern,
    const std::vector<std::vector<NodeId>>& solutions, Scheme scheme) {
  VJ_CHECK(scheme != Scheme::kTuple)
      << "MaterializeFromLists supports the list schemes only";
  VJ_CHECK_EQ(solutions.size(), pattern.size());
  const size_t nq = pattern.size();
  std::vector<std::vector<Label>> labels(nq);
  for (size_t q = 0; q < nq; ++q) {
    labels[q].reserve(solutions[q].size());
    for (NodeId n : solutions[q]) labels[q].push_back(doc.NodeLabel(n));
  }
  StagedPages staged;
  util::StatusOr<std::unique_ptr<MaterializedView>> view =
      StageListView(pattern, scheme, labels, staged);
  if (!view.ok()) return view.status();
  return InstallView(std::move(*view), staged);
}

// ---- Incremental maintenance (ApplyUpdateBatch) ----------------------------

namespace {

/// Merges start-sorted `removed`/`added` deltas into the start-sorted
/// `old_labels`. Every removed start must name a present label and every
/// added start must be new — anything else means the delta and the stored
/// list disagree about the pre-update state, which would silently corrupt
/// the view if merged anyway.
util::StatusOr<std::vector<Label>> MergeDelta(
    const std::vector<Label>& old_labels, const std::vector<Label>& removed,
    const std::vector<Label>& added, const std::string& what) {
  std::vector<Label> merged;
  merged.reserve(old_labels.size() + added.size());
  size_t r = 0;
  size_t a = 0;
  for (const Label& l : old_labels) {
    if (r < removed.size() && removed[r].start < l.start) {
      return util::Status::InvalidArgument(
          "delta for " + what + " removes a label (start " +
          std::to_string(removed[r].start) + ") the stored list does not hold");
    }
    while (a < added.size() && added[a].start < l.start) {
      merged.push_back(added[a++]);
    }
    if (a < added.size() && added[a].start == l.start) {
      return util::Status::InvalidArgument(
          "delta for " + what + " adds a label (start " +
          std::to_string(added[a].start) + ") the stored list already holds");
    }
    if (r < removed.size() && removed[r].start == l.start) {
      ++r;
      continue;
    }
    merged.push_back(l);
  }
  if (r < removed.size()) {
    return util::Status::InvalidArgument(
        "delta for " + what + " removes a label (start " +
        std::to_string(removed[r].start) + ") the stored list does not hold");
  }
  while (a < added.size()) merged.push_back(added[a++]);
  return merged;
}

/// The labels of single-label `list` from entry `first` to its end, copied
/// one decoded page at a time.
std::vector<Label> ReadLabels(const StoredList& list, BufferPool* pool,
                              EntryIndex first) {
  VJ_DCHECK(list.layout.label_count == 1 && first <= list.count);
  std::vector<Label> labels;
  labels.reserve(list.count - first);
  ListCursor cursor(&list, pool);
  for (cursor.Seek(first); !cursor.AtEnd();) {
    const BlockView block = cursor.CurrentBlock();
    for (uint32_t j = cursor.index() - block.first; j < block.count; ++j) {
      labels.push_back({block.starts[j], block.ends[j], block.levels[j]});
    }
    cursor.Seek(block.first + block.count);
  }
  return labels;
}

}  // namespace

util::StatusOr<std::unique_ptr<MaterializedView>>
ViewCatalog::StageMergedElementView(const MaterializedView& old,
                                    const ListDeltas& deltas,
                                    StagedPages& staged) {
  VJ_CHECK(old.scheme() == Scheme::kElement)
      << "prefix-preserving merge requires the pointerless E scheme";
  const TreePattern& pattern = old.pattern();
  const size_t nq = pattern.size();
  auto view = std::make_unique<MaterializedView>();
  view->pattern_ = pattern;
  view->scheme_ = Scheme::kElement;
  view->match_count_ = 0;  // not tracked for list schemes (cheap to recount)
  view->lists_.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    const StoredList& old_list = old.list(static_cast<int>(q));
    const std::vector<Label>& added = deltas.added[q];
    const std::vector<Label>& removed = deltas.removed[q];
    RecordLayout layout;
    layout.label_count = 1;

    // The per-page fence keys prove a page holds only labels below the
    // first change.
    const uint32_t old_pages = old_list.PageSpan();
    uint32_t prefix_pages = 0;
    if (old_list.count > 0) {
      if (added.empty() && removed.empty()) {
        prefix_pages = old_pages;  // untouched list: share every page
      } else {
        uint32_t first_change = 0xFFFFFFFFu;
        if (!removed.empty()) first_change = removed[0].start;
        if (!added.empty())
          first_change = std::min(first_change, added[0].start);
        // Pages [0, p) hold only labels strictly below fence p (starts are
        // strictly increasing), so every page before the last fence <=
        // first_change is shared; the page containing the first change —
        // and everything after it — is re-encoded.
        auto it = std::upper_bound(old_list.page_first_start.begin(),
                                   old_list.page_first_start.end(),
                                   first_change);
        if (it != old_list.page_first_start.begin()) {
          prefix_pages =
              static_cast<uint32_t>(it - old_list.page_first_start.begin()) -
              1;
        }
      }
    }
    const uint32_t prefix_entries = prefix_pages >= old_pages
                                        ? old_list.count
                                        : old_list.FirstEntryOfPage(prefix_pages);

    // Read the affected suffix, merge the deltas, re-encode it as fresh
    // staged pages behind the shared prefix.
    util::StatusOr<std::vector<Label>> merged = MergeDelta(
        ReadLabels(old_list, pool_.get(), prefix_entries), removed, added,
        pattern.ToString() + " node " + std::to_string(q));
    if (!merged.ok()) return merged.status();

    StoredList list;
    list.layout = layout;
    list.count = prefix_entries + static_cast<uint32_t>(merged->size());
    if (list.count != 0) {
      // The prefix pages are committed, hence immutable: reference them.
      list.pages.assign(old_list.pages.begin(),
                        old_list.pages.begin() + prefix_pages);
      list.page_first_start.assign(
          old_list.page_first_start.begin(),
          old_list.page_first_start.begin() + prefix_pages);
      list.page_first_entry.assign(
          old_list.page_first_entry.begin(),
          old_list.page_first_entry.begin() + prefix_pages);
      if (!merged->empty()) {
        std::vector<uint8_t> bytes;
        bytes.reserve(merged->size() * 12);
        for (const Label& l : *merged) AppendLabel(&bytes, l);
        util::StatusOr<StoredList> tail =
            StageList(staged, bytes, layout,
                      static_cast<uint32_t>(merged->size()));
        if (!tail.ok()) return tail.status();
        list.pages.insert(list.pages.end(), tail->pages.begin(),
                          tail->pages.end());
        list.page_first_start.insert(list.page_first_start.end(),
                                     tail->page_first_start.begin(),
                                     tail->page_first_start.end());
        for (uint32_t e : tail->page_first_entry) {
          list.page_first_entry.push_back(e + prefix_entries);
        }
      }
    }
    view->lists_[q] = list;
    view->list_lengths_.push_back(list.count);
    view->size_bytes_ += 12ull * list.count;
  }
  return view;
}

util::StatusOr<ViewCatalog::UpdateBatchResult> ViewCatalog::ApplyUpdateBatch(
    const Document& doc, const std::vector<ViewUpdateSpec>& specs) {
  if (specs.empty()) {
    return util::Status::InvalidArgument("empty update batch");
  }
  auto& injector = util::FaultInjector::Global();
  // One lock across staging AND install: the batch must observe a frozen
  // catalog (page ids, epochs) from first delta read to commit record.
  std::lock_guard<std::mutex> install_lock(install_mu_);

  UpdateBatchResult result;

  // ---- Validate specs ------------------------------------------------------
  // A spec whose version a replacement superseded since the caller chose it
  // is skipped: the merge would read pages that may already belong to
  // someone else, and the caller chose its specs after the document changed
  // (see the header), so that replacement was built from the updated
  // document. Retirements take install_mu_: a version live here stays live
  // to the commit.
  std::vector<const ViewUpdateSpec*> todo;
  for (const ViewUpdateSpec& spec : specs) {
    if (spec.view == nullptr) {
      return util::Status::InvalidArgument("update spec without a view");
    }
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      if (live_.find(spec.view->epoch_) == live_.end()) {
        ++result.superseded;
        continue;
      }
    }
    todo.push_back(&spec);
    const size_t nq = spec.view->pattern().size();
    if (spec.view->scheme() == Scheme::kTuple && !spec.full_rebuild) {
      return util::Status::InvalidArgument(
          "T-scheme view " + spec.view->pattern().ToString() +
          " cannot be delta-maintained; request full_rebuild");
    }
    if (spec.full_rebuild) {
      if (spec.view->scheme() != Scheme::kTuple && spec.solutions.size() != nq) {
        return util::Status::InvalidArgument(
            "full rebuild of " + spec.view->pattern().ToString() +
            " needs one solution list per pattern node");
      }
    } else if (spec.deltas.added.size() != nq ||
               spec.deltas.removed.size() != nq) {
      return util::Status::InvalidArgument(
          "delta for " + spec.view->pattern().ToString() +
          " needs one added+removed list per pattern node");
    }
  }

  if (todo.empty()) return result;

  // ---- Stage every new view into one page run ------------------------------
  // The install lock freezes the pager's page count, so the run is staged
  // at its final ids, above every page a merged view shares.
  StagedPages staged;
  staged.base = pager_->page_count();
  std::vector<std::unique_ptr<MaterializedView>> new_views;
  new_views.reserve(todo.size());
  for (size_t i = 0; i < todo.size(); ++i) {
    const ViewUpdateSpec& spec = *todo[i];
    const MaterializedView& old = *spec.view;
    const TreePattern& pattern = old.pattern();
    if (spec.full_rebuild && old.scheme() == Scheme::kTuple) {
      tpq::NaiveEvaluator evaluator(doc, pattern);
      auto view = std::make_unique<MaterializedView>();
      view->pattern_ = pattern;
      view->scheme_ = Scheme::kTuple;
      std::vector<uint8_t> bytes;
      TupleWriterSink sink(doc, &bytes);
      evaluator.Evaluate(&sink);
      RecordLayout layout;
      layout.label_count = static_cast<uint32_t>(pattern.size());
      util::StatusOr<StoredList> tuples =
          StageList(staged, bytes, layout, static_cast<uint32_t>(sink.count()));
      if (!tuples.ok()) return tuples.status();
      view->tuple_list_ = *tuples;
      view->match_count_ = sink.count();
      view->size_bytes_ = sink.count() * 12ull * pattern.size();
      for (const auto& list : evaluator.SolutionNodes()) {
        view->list_lengths_.push_back(static_cast<uint32_t>(list.size()));
      }
      new_views.push_back(std::move(view));
      ++result.fully_rebuilt;
      continue;
    }
    if (!spec.full_rebuild && old.scheme() == Scheme::kElement) {
      // E-scheme delta merge: share the old version's pages below the first
      // changed label instead of decoding and re-encoding whole lists.
      util::StatusOr<std::unique_ptr<MaterializedView>> view =
          StageMergedElementView(old, spec.deltas, staged);
      if (!view.ok()) return view.status();
      new_views.push_back(std::move(*view));
      ++result.delta_maintained;
      continue;
    }
    std::vector<std::vector<Label>> labels(pattern.size());
    if (spec.full_rebuild) {
      for (size_t q = 0; q < pattern.size(); ++q) {
        labels[q].reserve(spec.solutions[q].size());
        for (NodeId n : spec.solutions[q]) labels[q].push_back(doc.NodeLabel(n));
      }
      ++result.fully_rebuilt;
    } else {
      // Sorted-merge the deltas into the stored lists.
      for (size_t q = 0; q < pattern.size(); ++q) {
        util::StatusOr<std::vector<Label>> merged = MergeDelta(
            ReadLabels(old.list(static_cast<int>(q)), pool_.get(), 0),
            spec.deltas.removed[q], spec.deltas.added[q],
            pattern.ToString() + " node " + std::to_string(q));
        if (!merged.ok()) return merged.status();
        labels[q] = std::move(*merged);
      }
      ++result.delta_maintained;
    }
    util::StatusOr<std::unique_ptr<MaterializedView>> view =
        StageListView(pattern, old.scheme(), labels, staged);
    if (!view.ok()) return view.status();
    new_views.push_back(std::move(*view));
  }

  // ---- Transaction: begin, data, installs, commit --------------------------
  const uint64_t ue = AllocateEpoch();
  result.txn_epoch = ue;
  const long journal_mark =
      journal_ != nullptr ? journal_->AppendOffset() : -1;
  if (journal_ != nullptr) {
    util::Status begun =
        journal_->AppendUpdateBegin(ue, static_cast<uint32_t>(todo.size()));
    if (!begun.ok()) return begun;
  }

  // Until the commit record lands, every exit goes through
  // AbortUncommitted.
  const PageId tail = pager_->page_count();
  std::vector<PageId> ids;
  auto fail = [&](const util::Status& status) {
    return AbortUncommitted(status, tail, journal_mark, ids);
  };
  std::vector<MaterializedView*> placing;
  for (const auto& view : new_views) placing.push_back(view.get());
  util::Status placed = PlaceStagedPages(staged, placing, &ids);
  if (!placed.ok()) return fail(placed);

  // Per-view install + replace records inside the transaction. The crash
  // point fires at the top of the nth armed iteration, leaving views
  // [0, n-1) installed and the rest missing — exactly the half-merged state
  // replay must roll back.
  for (size_t i = 0; i < todo.size(); ++i) {
    if (injector.AtCrashPoint(util::CrashPoint::kCrashMidDeltaMerge)) {
      return fail(util::Status::IoError(
          "injected crash mid delta merge (view " + std::to_string(i) + " of " +
          std::to_string(todo.size()) + ")"));
    }
    const uint64_t view_epoch = AllocateEpoch();
    new_views[i]->epoch_ = view_epoch;
    if (journal_ != nullptr) {
      util::Status installed = journal_->AppendInstall(
          RecordFor(*new_views[i], pager_->page_count()));
      if (!installed.ok()) return fail(installed);
      util::Status replaced = journal_->AppendReplace(
          AllocateEpoch(), todo[i]->view->epoch(), view_epoch);
      if (!replaced.ok()) return fail(replaced);
    }
  }

  if (injector.AtCrashPoint(util::CrashPoint::kCrashBeforeEpochBump)) {
    return fail(util::Status::IoError(
        "injected crash with all views installed but the update commit "
        "record missing"));
  }
  if (journal_ != nullptr) {
    util::Status committed = journal_->AppendUpdateCommit(AllocateEpoch(), ue);
    if (!committed.ok()) return fail(committed);
  }
  if (injector.AtCrashPoint(util::CrashPoint::kCrashAfterEpochBump)) {
    return util::Status::IoError(
        "injected crash after the update commit, before registration");
  }

  Retirements retired;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (size_t i = 0; i < todo.size(); ++i) {
      const MaterializedView* fresh = new_views[i].get();
      result.new_views.push_back(fresh);
      RegisterLocked(std::move(new_views[i]));
      if (LinkReplacementLocked(todo[i]->view, fresh)) {
        retired.emplace_back(todo[i]->view, fresh);
      }
    }
    // Readers pinned from the next epoch on resolve only the new versions.
    if (!retired.empty()) AllocateEpoch();
  }
  // The commit record is durable (journal appends are fsynced; a scratch
  // catalog has none to wait for), so the retired pages may be reused once
  // the pins that could reach them pass.
  RetireVersions(retired);
  if (journal_ != nullptr) MaybeCompactJournalLocked();
  return result;
}

// ---- Quarantine / lookup ---------------------------------------------------

void ViewCatalog::Quarantine(const MaterializedView* view) {
  const uint64_t epoch = AllocateEpoch();
  if (journal_ != nullptr) {
    // Best-effort: a lost quarantine record means the view comes back
    // healthy-looking after a restart, where verification re-detects the
    // corruption — annoying, never incorrect.
    (void)journal_->AppendQuarantine(epoch, view->epoch());
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  quarantined_.insert(view);
}

bool ViewCatalog::IsQuarantined(const MaterializedView* view) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return quarantined_.count(view) != 0;
}

size_t ViewCatalog::quarantined_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return quarantined_.size();
}

const MaterializedView* ViewCatalog::ReplacementFor(
    const MaterializedView* view) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const MaterializedView* tip = TipLocked(view);
  return tip == view ? nullptr : tip;
}

void ViewCatalog::SetReplacement(const MaterializedView* from,
                                 const MaterializedView* to) {
  VJ_CHECK(from != to);
  // Serialized with installs and update batches: a batch must not see the
  // version it maintains retire under it.
  std::lock_guard<std::mutex> install_lock(install_mu_);
  const uint64_t epoch = AllocateEpoch();
  // Best-effort journaling; only a durable replace record lets the retired
  // pages be reused (otherwise a restart could revive `from`).
  const bool durable =
      journal_ == nullptr ||
      journal_->AppendReplace(epoch, from->epoch(), to->epoch()).ok();
  bool retired = false;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    retired = LinkReplacementLocked(from, to);
    if (retired) AllocateEpoch();
  }
  if (retired && durable) RetireVersions({{from, to}});
}

const MaterializedView* ViewCatalog::FindView(
    const std::string& pattern_string, Scheme scheme) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = by_pattern_.find(pattern_string);
  if (it == by_pattern_.end()) return nullptr;
  // Newest-first so a re-materialized twin wins over its corrupt
  // predecessor even before the replacement link is consulted.
  const std::vector<const MaterializedView*>& candidates = it->second;
  for (auto c = candidates.rbegin(); c != candidates.rend(); ++c) {
    if ((*c)->scheme_ != scheme) continue;
    // Follow replacements, then reject anything still quarantined.
    const MaterializedView* v = TipLocked(*c);
    if (quarantined_.count(v) == 0) return v;
  }
  return nullptr;
}

std::vector<const MaterializedView*> ViewCatalog::ViewsSnapshot() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<const MaterializedView*> snapshot;
  snapshot.reserve(views_.size());
  for (const auto& view : views_) snapshot.push_back(view.get());
  return snapshot;
}

std::vector<const MaterializedView*> ViewCatalog::LiveViews() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<const MaterializedView*> live;
  live.reserve(live_.size());
  for (const auto& [epoch, view] : live_) live.push_back(view);
  return live;
}

void ViewCatalog::RegisterLocked(std::unique_ptr<MaterializedView> view) {
  live_.emplace(view->epoch_, view.get());
  by_pattern_[view->pattern_.ToString()].push_back(view.get());
  views_.push_back(std::move(view));
}

bool ViewCatalog::LinkReplacementLocked(const MaterializedView* from,
                                        const MaterializedView* to) {
  auto [link, fresh] = replacement_.try_emplace(from, to);
  if (!fresh) {
    // Re-pointing an already retired version (a rebuild racing an update
    // batch): shortcuts compressed through the old link are stale, so start
    // over from the links as registered.
    if (link->second != to) {
      link->second = to;
      tip_ = replacement_;
    }
    return false;
  }
  tip_[from] = to;
  live_.erase(from->epoch_);
  return true;
}

const MaterializedView* ViewCatalog::TipLocked(
    const MaterializedView* view) const {
  auto it = tip_.find(view);
  if (it == tip_.end()) return view;
  const MaterializedView* tip = it->second;
  for (auto next = tip_.find(tip); next != tip_.end(); next = tip_.find(tip)) {
    tip = next->second;
  }
  // Point every member of the walked path straight at the tip.
  for (const MaterializedView* v = view; v != tip;) {
    const MaterializedView*& shortcut = tip_.find(v)->second;
    v = shortcut;
    shortcut = tip;
  }
  return tip;
}

void ViewCatalog::RetireVersions(const Retirements& retired) {
  for (const auto& [old, replacement] : retired) {
    std::unordered_set<PageId> shared;
    auto collect = [&shared](const StoredList& list) {
      shared.insert(list.pages.begin(), list.pages.end());
    };
    for (const StoredList& list : replacement->lists_) collect(list);
    collect(replacement->tuple_list_);
    std::vector<PageId> dead;
    auto retire = [&](const StoredList& list) {
      for (PageId page : list.pages) {
        if (shared.count(page) == 0) dead.push_back(page);
      }
    };
    for (const StoredList& list : old->lists_) retire(list);
    retire(old->tuple_list_);
    pool_->Discard(dead);
    reclaimer_.Retire(std::move(dead));
  }
}

const MaterializedView* ViewCatalog::ViewOfPage(PageId page) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto contains = [page](const StoredList& list) {
    return std::find(list.pages.begin(), list.pages.end(), page) !=
           list.pages.end();
  };
  // Newest first: versions of one view share pages, and the newest holder
  // of a page is the one queries read it through (normally the live tip).
  for (auto view = views_.rbegin(); view != views_.rend(); ++view) {
    for (const StoredList& list : (*view)->lists_) {
      if (contains(list)) return view->get();
    }
    if (contains((*view)->tuple_list_)) return view->get();
  }
  return nullptr;
}

util::Status ViewCatalog::VerifyView(const MaterializedView* view) {
  std::vector<uint8_t> page(Pager::kPageSize);
  auto verify_list = [&](const StoredList& list) {
    if (list.count == 0) return util::Status::Ok();
    for (PageId id : list.pages) {
      util::Status status = pager_->VerifyPage(id, page.data());
      if (!status.ok()) return status;
    }
    return util::Status::Ok();
  };
  for (const StoredList& list : view->lists_) {
    util::Status status = verify_list(list);
    if (!status.ok()) return status;
  }
  return verify_list(view->tuple_list_);
}

}  // namespace viewjoin::storage
