#include "storage/fsck.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <unordered_set>
#include <vector>

#include "storage/file.h"
#include "storage/list_codec.h"
#include "storage/manifest.h"

namespace viewjoin::storage {

FsckReport FsckPagerFile(const std::string& path) {
  FsckReport report;
  Pager pager(path, Pager::Mode::kReadOnly);
  report.file_status = pager.init_status();
  if (!report.file_status.ok()) return report;
  report.page_count = pager.page_count();
  std::vector<uint8_t> page(Pager::kPageSize);
  for (PageId id = 0; id < report.page_count; ++id) {
    util::Status status = pager.VerifyPage(id, page.data());
    if (!status.ok()) report.bad_pages.emplace_back(id, status);
  }
  return report;
}

namespace {

/// The first page run of `list` that reaches past `durable`, rendered
/// "[first, end)", or empty when the whole table lies inside the prefix. A
/// table that does not cover the list's pages renders as "(no page table)".
std::string RunPastPrefix(const StoredList& list, uint32_t durable) {
  if (list.PagesWithin(durable)) return std::string();
  for (const PageRun& run : list.Runs()) {
    if (run.first >= durable || run.count > durable - run.first) {
      return "[" + std::to_string(run.first) + ", " +
             std::to_string(static_cast<uint64_t>(run.first) + run.count) +
             ")";
    }
  }
  return "(no page table)";
}

/// "list q spans pages [first, end) past durable prefix <n>" per list whose
/// page table reaches past the durable prefix.
void CheckViewRanges(const ManifestViewRecord& record, uint32_t durable,
                     std::vector<std::string>* bad) {
  auto check = [&](const StoredList& list, const std::string& what) {
    const std::string run = RunPastPrefix(list, durable);
    if (run.empty()) return;
    bad->push_back("epoch " + std::to_string(record.epoch) + " (" +
                   record.pattern + "): " + what + " spans pages " + run +
                   " past durable prefix " + std::to_string(durable));
  };
  for (size_t q = 0; q < record.lists.size(); ++q) {
    check(record.lists[q], "list " + std::to_string(q));
  }
  check(record.tuple_list, "tuple list");
}

/// Verifies one list end to end: directory invariants, then a full decode
/// of every page with record counts and fence keys cross-checked against
/// the directory. With `sorted_starts` (a document store's tag list) the
/// decoded starts must also strictly increase across the whole list: one
/// element has one start, so a repeat means the merge emitted a record
/// twice. `pager` is the read-only page source; pages that fail their
/// checksum are skipped here (the page scan already reported them), and
/// the order check restarts after such a hole. Each finding is `report`ed.
void CheckDeltaList(Pager& pager, const StoredList& list, bool sorted_starts,
                    const std::function<void(const std::string&)>& report) {
  if (list.count == 0) return;
  if (!list.DirectoryValid()) {
    report("has an inconsistent page directory");
    return;
  }
  const uint32_t pages = list.PageSpan();
  const RecordLayout& layout = list.layout;
  std::vector<uint8_t> page(Pager::kPageSize);
  std::vector<uint32_t> starts, ends, levels, pointers;
  bool have_prev = false;
  uint32_t prev_start = 0;
  for (uint32_t p = 0; p < pages; ++p) {
    if (p >= list.pages.size() ||
        !pager.VerifyPage(list.pages[p], page.data()).ok()) {
      have_prev = false;  // cannot order-check across a hole
      continue;
    }
    const uint32_t first = list.page_first_entry[p];
    const uint32_t expected = list.RecordsOnPage(p);
    starts.assign(static_cast<size_t>(expected) * layout.label_count, 0);
    ends.assign(starts.size(), 0);
    levels.assign(starts.size(), 0);
    pointers.assign(static_cast<size_t>(expected) * layout.PointerSlots(), 0);
    util::Status decoded = DecodeDeltaPage(
        page.data(), layout, first, expected, starts.data(), ends.data(),
        levels.data(), layout.has_pointers ? pointers.data() : nullptr);
    if (!decoded.ok()) {
      report("page " + std::to_string(p) + " fails delta decode: " +
             decoded.ToString());
      return;
    }
    if (starts[0] != list.page_first_start[p]) {
      report("page " + std::to_string(p) + " first start " +
             std::to_string(starts[0]) + " disagrees with fence key " +
             std::to_string(list.page_first_start[p]));
      return;
    }
    if (!sorted_starts) continue;
    for (uint32_t r = 0; r < expected; ++r) {
      if (have_prev && starts[r] <= prev_start) {
        report("starts not strictly increasing at page " + std::to_string(p) +
               " record " + std::to_string(r));
        return;
      }
      prev_start = starts[r];
      have_prev = true;
    }
  }
}

}  // namespace

FsckCatalogReport FsckCatalog(const std::string& path) {
  FsckCatalogReport report;
  // The staging file a crash can leave, which ViewCatalog::Open deletes.
  const std::string checkpoint_tmp = ManifestJournal::PathFor(path) + ".tmp";
  if (FileExists(checkpoint_tmp)) report.checkpoint_tmp = checkpoint_tmp;

  util::StatusOr<ManifestReplayResult> replayed =
      ManifestJournal::Replay(ManifestJournal::PathFor(path));
  report.manifest_status = replayed.status();
  report.pager = FsckPagerFile(path);

  if (!replayed.ok()) {
    // No journal to establish a durable prefix (bare pager file or an
    // unreadable manifest): the whole file is claimed, so every bad page
    // counts.
    report.corrupt_durable_pages =
        static_cast<uint32_t>(report.pager.bad_pages.size());
    return report;
  }

  const ManifestReplayResult& journal = *replayed;
  report.last_epoch = journal.last_epoch;
  report.max_epoch = journal.last_epoch;
  report.epoch_regressions = journal.epoch_regressions;
  report.rolled_back_update_batches = journal.rolled_back_update_batches;
  report.durable_page_count = journal.durable_page_count;
  report.journal_tail_torn = journal.tail_torn;
  report.pending_rebuild = journal.rolled_back.size();
  report.view_count = journal.installed.size();
  for (uint64_t epoch : journal.quarantined) {
    if (journal.replaced.find(epoch) == journal.replaced.end()) {
      ++report.quarantined_count;
    }
  }
  for (const ManifestViewRecord& record : journal.installed) {
    CheckViewRanges(record, journal.durable_page_count, &report.bad_views);
  }
  // Only live versions own pages. A retired version's pages were freed once
  // its replacement committed and may hold another version's bytes by now,
  // so its record is range-checked above and nothing more.
  std::unordered_set<uint64_t> installed;
  for (const ManifestViewRecord& record : journal.installed) {
    installed.insert(record.epoch);
  }
  std::vector<const ManifestViewRecord*> live;
  for (const ManifestViewRecord& record : journal.installed) {
    auto link = journal.replaced.find(record.epoch);
    if (link == journal.replaced.end() || link->second == record.epoch ||
        installed.count(link->second) == 0) {
      live.push_back(&record);
    }
  }
  // Every durable page belongs to at most one live list; the rest is free.
  // Ids past the durable prefix are reported by CheckViewRanges.
  const uint32_t durable = journal.durable_page_count;
  std::vector<std::pair<PageId, const ManifestViewRecord*>> repeats;
  const std::vector<bool> referenced = ReferencedPages(live, durable, &repeats);
  for (const auto& [page, record] : repeats) {
    report.double_claims.push_back("page " + std::to_string(page) +
                                   ": claimed again by epoch " +
                                   std::to_string(record->epoch) + " (" +
                                   record->pattern + ")");
  }
  report.free_pages = static_cast<uint32_t>(
      std::count(referenced.begin(), referenced.end(), false));
  // A free page's bytes matter to no one — a crash may have torn one while
  // an uncommitted install rewrote it — so its checksum is not a finding.
  std::erase_if(report.pager.bad_pages, [&](const auto& bad) {
    return bad.first < durable && !referenced[bad.first];
  });
  // A checksum-clean page can still carry a lying varint payload (truncated
  // stream, impossible deltas), which the page scan above cannot see.
  // Decode every page and cross-check the directory.
  if (report.pager.file_status.ok()) {
    Pager pager(path, Pager::Mode::kReadOnly);
    if (pager.init_status().ok()) {
      auto check = [&](const ManifestViewRecord& record,
                       const StoredList& list, const std::string& what) {
        if (list.count == 0) return;
        ++report.compressed_lists_checked;
        CheckDeltaList(pager, list, /*sorted_starts=*/false,
                       [&](const std::string& problem) {
                         report.bad_compressed_lists.push_back(
                             "epoch " + std::to_string(record.epoch) + " (" +
                             record.pattern + "): " + what + " " + problem);
                       });
      };
      for (const ManifestViewRecord* record : live) {
        for (size_t q = 0; q < record->lists.size(); ++q) {
          check(*record, record->lists[q], "list " + std::to_string(q));
        }
        check(*record, record->tuple_list, "tuple list");
      }
    }
  }

  // Data file vs. durable prefix, from raw size — the pager rejects a file
  // with a partial page tail, but the journal still vouches for the prefix.
  util::StatusOr<uint64_t> file_size = FileSize(path);
  if (!file_size.ok()) {
    report.data_missing = journal.durable_page_count > 0;
    return report;
  }
  const int64_t size = static_cast<int64_t>(*file_size);
  const int64_t expected =
      static_cast<int64_t>(Pager::kHeaderSize) +
      static_cast<int64_t>(journal.durable_page_count) *
          static_cast<int64_t>(Pager::kPhysicalPageSize);
  if (size < expected) {
    report.data_missing = true;
  } else if (size > expected) {
    const int64_t extra = size - expected;
    report.orphan_pages = static_cast<uint32_t>(
        extra / static_cast<int64_t>(Pager::kPhysicalPageSize));
    if (extra % static_cast<int64_t>(Pager::kPhysicalPageSize) != 0) {
      ++report.orphan_pages;
      report.pager_tail_partial = true;
    }
  }
  for (const auto& [page, status] : report.pager.bad_pages) {
    if (page < journal.durable_page_count) ++report.corrupt_durable_pages;
  }
  return report;
}

namespace {

/// Leftover "<base>.runN" spill files next to a document store —
/// artifacts of an interrupted streaming build.
std::vector<std::string> FindStrayRuns(const std::string& path) {
  const std::filesystem::path store(path);
  const std::string dir =
      store.has_parent_path() ? store.parent_path().string() : ".";
  const std::string run_prefix = store.filename().string() + ".run";
  std::vector<std::string> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(run_prefix, 0) == 0) found.push_back(dir + "/" + name);
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

FsckDocStoreReport FsckDocumentStore(const std::string& path) {
  FsckDocStoreReport report;
  report.stray_runs = FindStrayRuns(path);

  const util::StatusOr<uint64_t> pager_size = FileSize(path);
  const bool pager_exists = pager_size.ok();
  util::StatusOr<ManifestReplayResult> replayed =
      ManifestJournal::Replay(ManifestJournal::PathFor(path));
  report.manifest_status = replayed.status();
  const bool manifest_exists =
      replayed.ok() ||
      replayed.status().code() != util::StatusCode::kNotFound;
  report.present = pager_exists || manifest_exists;
  if (!report.present) return report;
  report.pager = FsckPagerFile(path);

  if (!replayed.ok()) {
    // A pager file with no manifest is an aborted build: the manifest write
    // IS the commit point, so nothing vouches for these pages. Rebuild.
    report.orphan =
        replayed.status().code() == util::StatusCode::kNotFound && pager_exists;
    return report;
  }

  const ManifestReplayResult& journal = *replayed;
  report.durable_page_count = journal.durable_page_count;
  std::vector<std::string> tags;
  for (const ManifestViewRecord& record : journal.installed) {
    if (record.lists.size() != 1) {
      report.bad_lists.push_back(record.pattern + ": holds " +
                                 std::to_string(record.lists.size()) +
                                 " lists (document records hold exactly 1)");
      continue;
    }
    tags.push_back(record.pattern);
  }
  report.tag_count = tags.size();
  std::sort(tags.begin(), tags.end());
  for (size_t i = 1; i < tags.size(); ++i) {
    if (tags[i] == tags[i - 1]) {
      report.bad_lists.push_back(tags[i] + ": duplicate tag record");
    }
  }

  if (report.pager.file_status.ok()) {
    Pager pager(path, Pager::Mode::kReadOnly);
    if (pager.init_status().ok()) {
      for (const ManifestViewRecord& record : journal.installed) {
        if (record.lists.size() != 1) continue;
        auto bad = [&](const std::string& problem) {
          report.bad_lists.push_back(record.pattern + ": " + problem);
        };
        const StoredList& list = record.lists[0];
        const std::string run =
            RunPastPrefix(list, journal.durable_page_count);
        if (!run.empty()) {
          bad("spans pages " + run + " past durable prefix " +
              std::to_string(journal.durable_page_count));
          continue;
        }
        CheckDeltaList(pager, list, /*sorted_starts=*/true, bad);
      }
    }
  }

  if (!pager_exists) {
    report.data_missing = journal.durable_page_count > 0;
    return report;
  }
  const int64_t expected =
      static_cast<int64_t>(Pager::kHeaderSize) +
      static_cast<int64_t>(journal.durable_page_count) *
          static_cast<int64_t>(Pager::kPhysicalPageSize);
  if (static_cast<int64_t>(*pager_size) < expected) {
    report.data_missing = true;
  }
  for (const auto& [page, status] : report.pager.bad_pages) {
    if (page < journal.durable_page_count) ++report.corrupt_durable_pages;
  }
  return report;
}

util::StatusOr<RecoveryReport> RepairCatalog(const std::string& path,
                                             size_t pool_pages) {
  util::StatusOr<std::unique_ptr<ViewCatalog>> opened =
      ViewCatalog::Open(path, pool_pages);
  if (!opened.ok()) return opened.status();
  ViewCatalog* catalog = opened->get();
  RecoveryReport recovery = catalog->recovery_report();
  // Checkpointing compacts the repaired journal to one record per live view,
  // so the next replay starts from a clean slate instead of re-walking the
  // crash's Begin/Install interleavings.
  util::Status checkpointed = catalog->Checkpoint();
  if (!checkpointed.ok()) return checkpointed;
  util::Status closed = catalog->Close();
  if (!closed.ok()) return closed;
  return recovery;
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string JsonBool(bool b) { return b ? "true" : "false"; }

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(items[i]);
  }
  out += "]";
  return out;
}

std::string BadPagesJson(
    const std::vector<std::pair<PageId, util::Status>>& bad_pages) {
  std::string out = "[";
  for (size_t i = 0; i < bad_pages.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"page\": " + std::to_string(bad_pages[i].first) +
           ", \"error\": " + JsonQuote(bad_pages[i].second.ToString()) + "}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string ToJson(const FsckReport& report) {
  std::string out = "{\n";
  out += "  \"clean\": " + JsonBool(report.ok()) + ",\n";
  out += "  \"file_status\": " + JsonQuote(report.file_status.ToString()) +
         ",\n";
  out += "  \"page_count\": " + std::to_string(report.page_count) + ",\n";
  out += "  \"bad_pages\": " + BadPagesJson(report.bad_pages) + "\n";
  out += "}\n";
  return out;
}

std::string ToJson(const FsckCatalogReport& report) {
  std::string out = "{\n";
  out += "  \"clean\": " + JsonBool(report.clean()) + ",\n";
  out += "  \"corrupt\": " + JsonBool(report.corrupt()) + ",\n";
  out += "  \"repair_needed\": " + JsonBool(report.repair_needed()) + ",\n";
  out += "  \"pager\": {\n";
  out += "    \"file_status\": " +
         JsonQuote(report.pager.file_status.ToString()) + ",\n";
  out += "    \"page_count\": " + std::to_string(report.pager.page_count) +
         ",\n";
  out += "    \"bad_pages\": " + BadPagesJson(report.pager.bad_pages) + "\n";
  out += "  },\n";
  out += "  \"manifest_status\": " +
         JsonQuote(report.manifest_status.ToString()) + ",\n";
  out += "  \"last_epoch\": " + std::to_string(report.last_epoch) + ",\n";
  out += "  \"max_epoch\": " + std::to_string(report.max_epoch) + ",\n";
  out += "  \"epoch_regressions\": " +
         std::to_string(report.epoch_regressions) + ",\n";
  out += "  \"rolled_back_update_batches\": " +
         std::to_string(report.rolled_back_update_batches) + ",\n";
  out += "  \"durable_page_count\": " +
         std::to_string(report.durable_page_count) + ",\n";
  out += "  \"view_count\": " + std::to_string(report.view_count) + ",\n";
  out += "  \"quarantined_count\": " +
         std::to_string(report.quarantined_count) + ",\n";
  out += "  \"pending_rebuild\": " + std::to_string(report.pending_rebuild) +
         ",\n";
  out += "  \"free_pages\": " + std::to_string(report.free_pages) + ",\n";
  out += "  \"journal_tail_torn\": " + JsonBool(report.journal_tail_torn) +
         ",\n";
  out += "  \"orphan_pages\": " + std::to_string(report.orphan_pages) + ",\n";
  out += "  \"pager_tail_partial\": " + JsonBool(report.pager_tail_partial) +
         ",\n";
  out += "  \"checkpoint_tmp\": " + JsonQuote(report.checkpoint_tmp) + ",\n";
  out += "  \"corrupt_durable_pages\": " +
         std::to_string(report.corrupt_durable_pages) + ",\n";
  out += "  \"data_missing\": " + JsonBool(report.data_missing) + ",\n";
  out += "  \"bad_views\": " + JsonStringArray(report.bad_views) + ",\n";
  out += "  \"double_claims\": " + JsonStringArray(report.double_claims) +
         ",\n";
  out += "  \"compressed_lists_checked\": " +
         std::to_string(report.compressed_lists_checked) + ",\n";
  out += "  \"bad_compressed_lists\": " +
         JsonStringArray(report.bad_compressed_lists) + "\n";
  out += "}\n";
  return out;
}

std::string ToText(const FsckCatalogReport& report, const std::string& path) {
  std::string out;
  char line[512];
  for (const auto& [page, status] : report.pager.bad_pages) {
    const char* where = page >= report.durable_page_count ? " (orphan)" : "";
    out += "page " + std::to_string(page) + where + ": " + status.ToString() +
           "\n";
  }
  if (!report.manifest_status.ok()) {
    out += "manifest: " + report.manifest_status.ToString() + "\n";
  }
  if (report.journal_tail_torn) out += "manifest: torn tail\n";
  if (report.data_missing) {
    out += "data file shorter than journal's durable prefix (" +
           std::to_string(report.durable_page_count) + " pages)\n";
  }
  for (const std::string& bad : report.bad_views) {
    out += "bad view: " + bad + "\n";
  }
  for (const std::string& bad : report.bad_compressed_lists) {
    out += "bad compressed list: " + bad + "\n";
  }
  for (const std::string& claim : report.double_claims) {
    out += "page claimed twice: " + claim + "\n";
  }
  if (report.orphan_pages > 0) {
    out += std::to_string(report.orphan_pages) +
           " uncommitted page(s) past durable prefix" +
           (report.pager_tail_partial ? " (partial tail)" : "") + "\n";
  }
  if (!report.checkpoint_tmp.empty()) {
    out += "stale checkpoint tmp: " + report.checkpoint_tmp + "\n";
  }
  std::snprintf(line, sizeof(line),
                "%s: %zu view(s), %zu quarantined, epoch %llu, "
                "%u durable page(s), %u free, %u bad, %zu compressed list(s) "
                "verified\n",
                path.c_str(), report.view_count, report.quarantined_count,
                static_cast<unsigned long long>(report.last_epoch),
                report.durable_page_count, report.free_pages,
                report.corrupt_durable_pages, report.compressed_lists_checked);
  return out + line;
}

std::string ToText(const RecoveryReport& report) {
  std::string out = "repaired: ";
  if (report.journal_tail_truncated) out += "journal tail truncated, ";
  out += std::to_string(report.orphan_pages_truncated) +
         " orphan page(s) truncated, ";
  if (report.checkpoint_tmp_removed) out += "stale checkpoint tmp removed, ";
  return out + std::to_string(report.pending_rebuild.size()) +
         " view(s) pending rebuild\n";
}

std::string ToJson(const FsckDocStoreReport& report) {
  std::string out = "{\n";
  out += "  \"present\": " + JsonBool(report.present) + ",\n";
  out += "  \"clean\": " + JsonBool(report.clean()) + ",\n";
  out += "  \"corrupt\": " + JsonBool(report.corrupt()) + ",\n";
  out += "  \"orphan\": " + JsonBool(report.orphan) + ",\n";
  out += "  \"pager\": {\n";
  out += "    \"file_status\": " +
         JsonQuote(report.pager.file_status.ToString()) + ",\n";
  out += "    \"page_count\": " + std::to_string(report.pager.page_count) +
         ",\n";
  out += "    \"bad_pages\": " + BadPagesJson(report.pager.bad_pages) + "\n";
  out += "  },\n";
  out += "  \"manifest_status\": " +
         JsonQuote(report.manifest_status.ToString()) + ",\n";
  out += "  \"tag_count\": " + std::to_string(report.tag_count) + ",\n";
  out += "  \"durable_page_count\": " +
         std::to_string(report.durable_page_count) + ",\n";
  out += "  \"corrupt_durable_pages\": " +
         std::to_string(report.corrupt_durable_pages) + ",\n";
  out += "  \"data_missing\": " + JsonBool(report.data_missing) + ",\n";
  out += "  \"bad_lists\": " + JsonStringArray(report.bad_lists) + ",\n";
  out += "  \"stray_runs\": " + JsonStringArray(report.stray_runs) + "\n";
  out += "}\n";
  return out;
}

}  // namespace viewjoin::storage
