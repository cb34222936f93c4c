// Crash safety of the view store. The crash matrix simulates kill -9 at
// every instant of the install protocol (data synced / journal record torn),
// reopens the store, and asserts recovery leaves exactly the committed
// catalog: no uncommitted pages, identical query answers, and the
// interrupted view re-queued for rebuilding. Around the matrix: manifest
// journal torn-tail vs. bit-rot handling, typed rejection of headers no build
// writes any more, the integrity scrubber (detect + heal, alone and under
// concurrent batch queries), close-time flush surfacing, and the offline
// fsck/repair pipeline.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "bench/harness.h"
#include "core/engine.h"
#include "storage/document_store.h"
#include "storage/fsck.h"
#include "storage/manifest.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/scrubber.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace viewjoin {
namespace {

using core::Engine;
using storage::FsckCatalog;
using storage::FsckCatalogReport;
using storage::ManifestJournal;
using storage::MaterializedView;
using storage::Pager;
using storage::RecoveryReport;
using storage::RepairCatalog;
using storage::Scheme;
using storage::Scrubber;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::TreePattern;
using util::CrashPoint;
using util::CrashPointName;
using util::ScopedFaultInjection;
using util::StatusCode;
using util::WriteFault;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

/// Removes the store's files plus a checkpoint tmp a previous (failed) test
/// run may have parked in the shared temp directory.
void CleanupStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  std::remove((path + ".manifest.tmp").c_str());
}

std::string ReadFile(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  VJ_CHECK(f != nullptr) << path;
  VJ_CHECK_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Fingerprints the answer of `query` evaluated over `views` in `catalog`.
uint64_t QueryHash(const xml::Document& doc, ViewCatalog* catalog,
                   const TreePattern& query,
                   const std::vector<const MaterializedView*>& views) {
  auto binding = algo::QueryBinding::Bind(doc, query, views);
  VJ_CHECK(binding.has_value());
  algo::TwigStack ts(&*binding, catalog->pool());
  tpq::HashingSink sink;
  ts.Evaluate(&sink);
  return sink.hash();
}

xml::Document CrashDoc() {
  return MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
}

// ---- Crash matrix ----------------------------------------------------------

struct CrashCase {
  CrashPoint point;
  Scheme scheme;
};

std::string CrashCaseName(const ::testing::TestParamInfo<CrashCase>& info) {
  std::string point = CrashPointName(info.param.point);
  for (char& c : point) {
    if (c == '-') c = '_';
  }
  return point + "_" + storage::SchemeName(info.param.scheme);
}

class CrashMatrixTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashMatrixTest, ReopenAfterCrashMatchesCleanRun) {
  const CrashCase param = GetParam();
  xml::Document doc = CrashDoc();
  const TreePattern base_query = MustParse("//c");
  const std::string target = "//a//b";

  // Reference run, no faults: the target view's metadata and the base
  // query's answer over a store where both installs committed.
  const std::string clean_path =
      TempPath(std::string("crash_clean_") + CrashCaseName({param, 0}) + ".db");
  CleanupStore(clean_path);
  uint64_t ref_match = 0, ref_size = 0, ref_hash = 0;
  {
    ViewCatalog clean(clean_path, 64, /*persistent=*/true);
    const MaterializedView* base =
        clean.Materialize(doc, base_query, Scheme::kLinkedElement);
    const MaterializedView* built =
        clean.Materialize(doc, MustParse(target), param.scheme);
    ref_match = built->MatchCount();
    ref_size = built->SizeBytes();
    ref_hash = QueryHash(doc, &clean, base_query, {base});
  }

  const std::string path =
      TempPath(std::string("crash_") + CrashCaseName({param, 0}) + ".db");
  CleanupStore(path);

  // The victim store: one committed view, then a crash mid-way through
  // installing the second. kCrashMidJournal arms the *second* journal append
  // (the install commit record) — tearing the Begin instead would roll the
  // whole operation back before it left any trace.
  {
    ViewCatalog victim(path, 64, /*persistent=*/true);
    victim.Materialize(doc, base_query, Scheme::kLinkedElement);
    ScopedFaultInjection fi;
    fi->ArmCrashPoint(param.point,
                      param.point == CrashPoint::kCrashMidJournal ? 2 : 1);
    auto failed = victim.TryMaterialize(doc, MustParse(target), param.scheme);
    ASSERT_FALSE(failed.ok()) << CrashPointName(param.point);
    EXPECT_NE(failed.status().message().find("injected crash"),
              std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(fi->injected_crashes(), 1u);
    // The catalog object goes out of scope with the on-disk mid-flight state
    // a real crash would leave; recovery gets no help from this process.
  }

  // Reopen: recovery rolls the store back to the last committed state.
  auto reopened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << CrashPointName(param.point) << ": "
                             << reopened.status().ToString();
  ViewCatalog& catalog = **reopened;

  const RecoveryReport& recovery = catalog.recovery_report();
  ASSERT_EQ(recovery.pending_rebuild.size(), 1u) << CrashPointName(param.point);
  EXPECT_EQ(recovery.pending_rebuild[0].first, target);
  EXPECT_EQ(recovery.pending_rebuild[0].second, param.scheme);
  if (param.point == CrashPoint::kCrashAfterDataSync) {
    // Data reached the file but the commit record did not: the uncommitted
    // pages are rolled back, not adopted.
    EXPECT_GT(recovery.orphan_pages_truncated, 0u);
  }

  // Only the committed view survived, and it still answers identically.
  ASSERT_EQ(catalog.views().size(), 1u) << CrashPointName(param.point);
  const MaterializedView* base = catalog.views()[0].get();
  EXPECT_EQ(base->pattern().ToString(), "//c");
  EXPECT_TRUE(catalog.VerifyView(base).ok());
  EXPECT_EQ(QueryHash(doc, &catalog, base_query, {base}), ref_hash);

  // Re-materializing the rolled-back view converges to the clean run.
  auto rebuilt = catalog.TryMaterialize(doc, MustParse(target), param.scheme);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ((*rebuilt)->MatchCount(), ref_match);
  EXPECT_EQ((*rebuilt)->SizeBytes(), ref_size);
  EXPECT_TRUE(catalog.VerifyView(*rebuilt).ok());
  EXPECT_TRUE(catalog.Close().ok());

  // The rebuild itself committed: a second reopen sees both views.
  auto again = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->views().size(), 2u);
  EXPECT_TRUE((*again)->recovery_report().pending_rebuild.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPointsAllSchemes, CrashMatrixTest,
    ::testing::Values(
        CrashCase{CrashPoint::kCrashAfterDataSync, Scheme::kElement},
        CrashCase{CrashPoint::kCrashAfterDataSync, Scheme::kLinkedElement},
        CrashCase{CrashPoint::kCrashAfterDataSync,
                  Scheme::kLinkedElementPartial},
        CrashCase{CrashPoint::kCrashAfterDataSync, Scheme::kTuple},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kElement},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kLinkedElement},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kLinkedElementPartial},
        CrashCase{CrashPoint::kCrashMidJournal, Scheme::kTuple}),
    CrashCaseName);

// ---- Manifest journal edge cases -------------------------------------------

TEST(ManifestJournalTest, TornTailIsRecoveredNotFatal) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("torn_tail.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  }
  // A crash mid-append: a length prefix promising more bytes than exist.
  {
    std::FILE* f = std::fopen((path + ".manifest").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t length = 100;
    std::fwrite(&length, sizeof(length), 1, f);
    const uint8_t type = 2;
    std::fwrite(&type, 1, 1, f);
    std::fwrite("partial", 1, 7, f);
    std::fclose(f);
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->recovery_report().journal_tail_truncated);
  EXPECT_EQ((*opened)->views().size(), 2u);
  EXPECT_TRUE((*opened)->recovery_report().pending_rebuild.empty());
  EXPECT_TRUE((*opened)->Close().ok());
  // The tail was truncated away on the first open: the second is clean.
  auto again = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE((*again)->recovery_report().journal_tail_truncated);
}

TEST(ManifestJournalTest, MidFileCorruptionIsFatal) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("journal_rot.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  }
  // Flip one byte inside the first record's payload (past the 16-byte
  // journal header and the record's own length/type prefix). A *complete*
  // record failing its CRC is bit rot, not a crash: replay must refuse.
  {
    std::FILE* f = std::fopen((path + ".manifest").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 16 + 5 + 2, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 16 + 5 + 2, SEEK_SET), 0);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

/// A 16-byte journal header for `version` with a valid CRC: magic, u32
/// version, u32 CRC32 of both, little-endian.
std::string JournalHeader(uint32_t version) {
  std::string header = "VJMANIFJ";
  auto put_u32 = [&header](uint32_t v) {
    for (int i = 0; i < 4; ++i) header.push_back(static_cast<char>(v >> 8 * i));
  };
  put_u32(version);
  put_u32(util::Crc32(header.data(), header.size()));
  return header;
}

TEST(ManifestJournalTest, RetiredHeadersAreCorruptionForEveryReader) {
  xml::Document doc = CrashDoc();
  const std::string path = TempPath("retired_header.db");
  const std::string doc_path = TempPath("retired_header.doc");
  CleanupStore(path);
  CleanupStore(doc_path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  }
  ASSERT_TRUE(
      storage::DocumentStore::BuildFromText(doc_path, "<r><a><b/></a></r>", {})
          .ok());
  const std::string records =
      ReadFile(ManifestJournal::PathFor(path)).substr(16);
  ASSERT_FALSE(records.empty());

  // Headers no build writes any more, and one none has written yet. Each
  // must be a typed Corruption for every reader of the journal: no crash,
  // no conversion, no upgrade checkpoint rewriting the file.
  const std::pair<const char*, std::string> inputs[] = {
      {"pre-journal text manifest", "VIEWJOINCAT 1 1\nV 0 //a//b\n"},
      {"v1 journal with a valid CRC", JournalHeader(1) + records},
      {"v3 journal with a valid CRC", JournalHeader(3) + records},
  };
  for (const auto& [name, bytes] : inputs) {
    SCOPED_TRACE(name);
    for (const std::string& store : {path, doc_path}) {
      WriteFile(ManifestJournal::PathFor(store), bytes);
    }
    auto catalog = ViewCatalog::Open(path, 64);
    ASSERT_FALSE(catalog.ok());
    EXPECT_EQ(catalog.status().code(), StatusCode::kCorruption)
        << catalog.status().ToString();
    auto doc_store = storage::DocumentStore::Open(doc_path, {});
    ASSERT_FALSE(doc_store.ok());
    EXPECT_EQ(doc_store.status().code(), StatusCode::kCorruption)
        << doc_store.status().ToString();
    FsckCatalogReport report = FsckCatalog(path);
    EXPECT_EQ(report.manifest_status.code(), StatusCode::kCorruption);
    EXPECT_TRUE(report.corrupt());
    EXPECT_FALSE(report.clean());
    for (const std::string& store : {path, doc_path}) {
      EXPECT_EQ(ReadFile(ManifestJournal::PathFor(store)), bytes)
          << "a failed open rewrote " << store;
    }
  }
  CleanupStore(doc_path);
}

/// Rewrites the list format byte of the first view list in every install
/// record of the journal `bytes` to `format` and re-seals each record's
/// CRC. Install payload: u64 epoch, u8 scheme, u16 + pattern, three u64
/// counters, u32 page count, then the (here empty, 26-byte) tuple list, a
/// u32 list count and the lists, whose format byte follows 17 bytes of
/// first page, count and layout.
std::string WithListFormatByte(std::string bytes, uint8_t format) {
  auto u32_at = [&bytes](size_t at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << 8 * i;
    }
    return v;
  };
  size_t installs = 0;
  for (size_t pos = 16; pos + 5 <= bytes.size();) {
    const uint32_t length = u32_at(pos);
    const size_t payload = pos + 5;
    if (bytes[pos + 4] ==
        static_cast<char>(storage::ManifestRecordType::kInstall)) {
      const size_t pattern = static_cast<uint8_t>(bytes[payload + 9]) |
                             static_cast<uint8_t>(bytes[payload + 10]) << 8;
      const size_t tuple_list = payload + 39 + pattern;
      EXPECT_EQ(u32_at(tuple_list + 4), 0u) << "tuple list not empty";
      const size_t byte = tuple_list + 26 + 4 + 17;
      bytes[byte] = static_cast<char>((bytes[byte] & 0x80) | format);
      const uint32_t crc = util::Crc32(bytes.data() + pos + 4, 1 + length);
      for (int i = 0; i < 4; ++i) {
        bytes[payload + length + i] = static_cast<char>(crc >> 8 * i);
      }
      ++installs;
    }
    pos = payload + length + 4;
  }
  EXPECT_GT(installs, 0u);
  return bytes;
}

TEST(ManifestJournalTest, RetiredListFormatByteIsCorruptionForEveryReader) {
  // Format byte 0 named the fixed-record list pages no build writes any
  // more. A record carrying it must fail to decode for every reader of the
  // journal, view catalog and document store alike: a typed Corruption,
  // never a list read under a format that no longer exists.
  xml::Document doc = CrashDoc();
  const std::string path = TempPath("retired_format.db");
  const std::string doc_path = TempPath("retired_format.doc");
  CleanupStore(path);
  CleanupStore(doc_path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kElement);
  }
  ASSERT_TRUE(
      storage::DocumentStore::BuildFromText(doc_path, "<r><a><b/></a></r>", {})
          .ok());
  for (const std::string& store : {path, doc_path}) {
    const std::string journal = ManifestJournal::PathFor(store);
    const std::string clean = ReadFile(journal);
    // Re-sealing the unchanged byte must leave the file as it was, so the
    // helper edits exactly the byte it names.
    ASSERT_EQ(WithListFormatByte(clean, 1), clean) << store;
    WriteFile(journal, WithListFormatByte(clean, 0));
  }
  auto catalog = ViewCatalog::Open(path, 64);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kCorruption)
      << catalog.status().ToString();
  auto doc_store = storage::DocumentStore::Open(doc_path, {});
  ASSERT_FALSE(doc_store.ok());
  EXPECT_EQ(doc_store.status().code(), StatusCode::kCorruption)
      << doc_store.status().ToString();
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_EQ(report.manifest_status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(report.corrupt());
  storage::FsckDocStoreReport doc_report = storage::FsckDocumentStore(doc_path);
  EXPECT_EQ(doc_report.manifest_status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(doc_report.corrupt());
  CleanupStore(path);
  CleanupStore(doc_path);
}

TEST(ManifestJournalTest, CheckpointSurvivesHeaderShortWrite) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("ckpt_short.db");
  CleanupStore(path);
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  {
    ScopedFaultInjection fi;
    fi->ArmHeaderWriteFault(WriteFault::kShortWrite, 1);
    util::Status checkpointed = catalog.Checkpoint();
    EXPECT_FALSE(checkpointed.ok());
  }
  // The failed checkpoint must not have replaced the live journal: the store
  // reopens with the view intact (and no stray checkpoint tmp file).
  EXPECT_TRUE(catalog.Close().ok());
  struct stat st;
  EXPECT_NE(::stat((path + ".manifest.tmp").c_str(), &st), 0);
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->views().size(), 1u);
}

TEST(ManifestJournalTest, EpochResumesAcrossReopen) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("epoch_resume.db");
  CleanupStore(path);
  uint64_t epoch_before = 0;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
    epoch_before = catalog.epoch();
    EXPECT_GE(epoch_before, 2u);
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok());
  // Plan-cache keys stay monotone across the restart: the epoch counter
  // resumes at (not below) the last journaled epoch, and new installs
  // advance it further.
  EXPECT_EQ((*opened)->epoch(), epoch_before);
  auto added =
      (*opened)->TryMaterialize(doc, MustParse("//b//c"), Scheme::kElement);
  ASSERT_TRUE(added.ok());
  EXPECT_GT((*opened)->epoch(), epoch_before);
  EXPECT_EQ((*added)->epoch(), (*opened)->epoch());
}

long FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

TEST(ManifestJournalTest, SingleRunListsKeepTheirRecordBytes) {
  // A freshly materialized view's lists are single page runs, which cost no
  // table bytes: 26 bytes plus their directory and fence keys, the run's
  // first page id standing for the whole table. The pinned size keeps
  // stores that never take an update batch byte-compatible.
  xml::Document doc = CrashDoc();
  std::string path = TempPath("manifest_single_run.db");
  CleanupStore(path);
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  const MaterializedView* view =
      catalog.Materialize(doc, MustParse("//a//b"), Scheme::kElement);
  auto list_bytes = [](const storage::StoredList& list) {
    EXPECT_LE(list.Runs().size(), 1u);
    return 26 + 4 * (list.page_first_entry.size() +
                     list.page_first_start.size());
  };
  const size_t pattern = view->pattern().ToString().size();
  size_t install = 8 + 1 + 2 + pattern + 3 * 8 + 4 +
                   list_bytes(view->tuple_list()) + 4 + 4 +
                   4 * view->pattern().size();
  for (const storage::StoredList& list : view->lists()) {
    install += list_bytes(list);
  }
  // Header, then a kBegin and a kInstall frame (length, type, CRC: 9 bytes).
  const size_t journal = 16 + (9 + 8 + 1 + 2 + pattern) + (9 + install);
  EXPECT_EQ(FileSize(path + ".manifest"), static_cast<long>(journal));
  EXPECT_EQ(FileSize(path + ".manifest"), 206);
}

TEST(ManifestJournalTest, MultiRunPageTablesRoundTripAsRuns) {
  // Three pages of 341, 341 and 318 records; the table {5, 9, 10} is the
  // runs (5, 1) and (9, 2).
  storage::StoredList list;
  list.count = 1000;
  list.layout.label_count = 1;
  list.page_first_entry = {0, 341, 682};
  list.page_first_start = {0, 3410, 6820};
  list.AssignRun(5);
  storage::ManifestViewRecord record;
  record.epoch = 7;
  record.pattern = "//a";
  record.page_count_after = 11;
  record.list_lengths = {list.count};
  record.lists = {list};
  const std::string single = TempPath("manifest_runs_single.manifest");
  ASSERT_TRUE(ManifestJournal::WriteCheckpoint(single, {record}, {}, 7).ok());
  record.lists[0].pages = {5, 9, 10};
  const std::string multi = TempPath("manifest_runs_multi.manifest");
  ASSERT_TRUE(ManifestJournal::WriteCheckpoint(multi, {record}, {}, 7).ok());

  // A multi-run table costs a run count and 8 bytes per run.
  EXPECT_EQ(FileSize(multi) - FileSize(single), 4 + 8 * 2);
  auto single_replay = ManifestJournal::Replay(single);
  auto multi_replay = ManifestJournal::Replay(multi);
  ASSERT_TRUE(single_replay.ok()) << single_replay.status().ToString();
  ASSERT_TRUE(multi_replay.ok()) << multi_replay.status().ToString();
  ASSERT_EQ(single_replay->installed.size(), 1u);
  ASSERT_EQ(multi_replay->installed.size(), 1u);
  EXPECT_EQ(single_replay->installed[0].lists[0].pages,
            (std::vector<storage::PageId>{5, 6, 7}));
  EXPECT_EQ(multi_replay->installed[0].lists[0].pages,
            (std::vector<storage::PageId>{5, 9, 10}));
  std::remove(single.c_str());
  std::remove(multi.c_str());
}

/// Writes a journal of two installed views followed by `batches` committed
/// update batches, each of which installs a new version of one view and
/// replaces and drops the old one (the shape update batches journal).
/// Returns the next free epoch.
uint64_t WriteCommittedBatches(ManifestJournal* journal, int batches) {
  auto install = [&](uint64_t epoch, const std::string& pattern) {
    storage::ManifestViewRecord record;
    record.epoch = epoch;
    record.pattern = pattern;
    record.page_count_after = static_cast<uint32_t>(epoch + 1);
    record.list_lengths = {3};
    storage::StoredList list;
    list.count = 3;
    list.layout.label_count = 1;
    list.AssignRun(static_cast<storage::PageId>(epoch));
    record.lists = {list};
    EXPECT_TRUE(journal->AppendBegin(epoch, 0, pattern).ok());
    EXPECT_TRUE(journal->AppendInstall(record).ok());
  };
  uint64_t epoch = 1;
  uint64_t live[2] = {epoch, epoch + 1};
  install(epoch++, "//a");
  install(epoch++, "//b");
  for (int i = 0; i < batches; ++i) {
    const uint64_t txn = epoch++;
    EXPECT_TRUE(journal->AppendUpdateBegin(txn, 1).ok());
    const uint64_t fresh = epoch++;
    install(fresh, i % 2 == 0 ? "//a" : "//b");
    EXPECT_TRUE(journal->AppendReplace(epoch++, live[i % 2], fresh).ok());
    EXPECT_TRUE(journal->AppendDrop(epoch++, live[i % 2]).ok());
    live[i % 2] = fresh;
    EXPECT_TRUE(journal->AppendUpdateCommit(epoch++, txn).ok());
  }
  return epoch;
}

void ExpectSameReplayState(const storage::ManifestReplayResult& got,
                           const storage::ManifestReplayResult& want) {
  ASSERT_EQ(got.installed.size(), want.installed.size());
  for (size_t i = 0; i < got.installed.size(); ++i) {
    const storage::ManifestViewRecord& g = got.installed[i];
    const storage::ManifestViewRecord& w = want.installed[i];
    EXPECT_EQ(g.epoch, w.epoch);
    EXPECT_EQ(g.pattern, w.pattern);
    EXPECT_EQ(g.page_count_after, w.page_count_after);
    EXPECT_EQ(g.list_lengths, w.list_lengths);
    ASSERT_EQ(g.lists.size(), w.lists.size());
    for (size_t l = 0; l < g.lists.size(); ++l) {
      EXPECT_EQ(g.lists[l].pages, w.lists[l].pages);
    }
  }
  EXPECT_EQ(got.quarantined, want.quarantined);
  EXPECT_EQ(got.replaced, want.replaced);
  EXPECT_EQ(got.rolled_back, want.rolled_back);
  EXPECT_EQ(got.durable_page_count, want.durable_page_count);
  EXPECT_EQ(got.valid_bytes, want.valid_bytes);
  EXPECT_EQ(got.tail_torn, want.tail_torn);
  EXPECT_EQ(got.epoch_regressions, want.epoch_regressions);
}

TEST(ManifestJournalTest, TornBatchAfterManyCommitsReplaysToThePreBatchState) {
  const std::string path = TempPath("manifest_many_batches.manifest");
  const std::string prefix = TempPath("manifest_many_batches_prefix.manifest");
  long begin_offset = 0;
  uint64_t last_epoch = 0;
  {
    auto journal = ManifestJournal::Create(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    uint64_t epoch = WriteCommittedBatches(journal->get(), 200);
    begin_offset = (*journal)->AppendOffset();
    // The torn batch: installs, replaces, drops, quarantines and opens a
    // materialization, but its commit record never lands.
    const uint64_t txn = epoch++;
    ASSERT_TRUE((*journal)->AppendUpdateBegin(txn, 2).ok());
    storage::ManifestViewRecord record;
    record.epoch = epoch++;
    record.pattern = "//c";
    record.page_count_after = 100000;
    ASSERT_TRUE((*journal)->AppendInstall(record).ok());
    ASSERT_TRUE((*journal)->AppendReplace(epoch++, 1, record.epoch).ok());
    ASSERT_TRUE((*journal)->AppendDrop(epoch++, 2).ok());
    ASSERT_TRUE((*journal)->AppendQuarantine(epoch++, 3).ok());
    ASSERT_TRUE((*journal)->AppendBegin(epoch, 0, "//d").ok());
    last_epoch = epoch;
  }
  // The pre-batch journal: the same bytes cut at the kUpdateBegin record.
  {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    std::FILE* out = std::fopen(prefix.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<char> bytes(static_cast<size_t>(begin_offset));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    std::fclose(in);
    std::fclose(out);
  }
  auto replayed = ManifestJournal::Replay(path);
  auto before = ManifestJournal::Replay(prefix);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->installed.size(), 2u);
  EXPECT_EQ(before->rolled_back_update_batches, 0u);
  EXPECT_EQ(before->valid_bytes, begin_offset);

  // Everything the torn batch did is undone; only the epoch counter keeps
  // its records' epochs, so a restart never reuses them.
  EXPECT_EQ(replayed->rolled_back_update_batches, 1u);
  EXPECT_EQ(replayed->last_epoch, last_epoch);
  EXPECT_LT(before->last_epoch, last_epoch);
  ExpectSameReplayState(*replayed, *before);
  std::remove(path.c_str());
  std::remove(prefix.c_str());
}

TEST(ManifestJournalTest, UndecodableRecordInATornBatchIsCorruption) {
  // A record that is fully present and passes its checksum but does not
  // decode is corruption, even inside a batch that never commits.
  const std::string path = TempPath("manifest_bad_in_batch.manifest");
  {
    auto journal = ManifestJournal::Create(path);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    uint64_t epoch = WriteCommittedBatches(journal->get(), 20);
    ASSERT_TRUE((*journal)->AppendUpdateBegin(epoch, 1).ok());
  }
  {
    // An install payload cut short after its epoch and scheme.
    std::vector<uint8_t> frame = {9, 0, 0, 0,
                                  static_cast<uint8_t>(
                                      storage::ManifestRecordType::kInstall)};
    for (int i = 0; i < 9; ++i) frame.push_back(i == 0 ? 200 : 0);
    const uint32_t crc = util::Crc32(frame.data() + 4, frame.size() - 4);
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    }
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
    std::fclose(f);
  }
  auto replayed = ManifestJournal::Replay(path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(replayed.status().ToString().find("does not decode"),
            std::string::npos)
      << replayed.status().ToString();
  std::remove(path.c_str());
}

// ---- Close-time flush surfacing --------------------------------------------

TEST(CloseTest, FlushFailureSurfacesThroughCatalogClose) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("close_flush.db");
  CleanupStore(path);
  ViewCatalog catalog(path, 64, /*persistent=*/true);
  catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
  ScopedFaultInjection fi;
  fi->ArmFlushFault(1);
  util::Status closed = catalog.Close();
  ASSERT_FALSE(closed.ok());
  EXPECT_NE(closed.message().find("flush"), std::string::npos)
      << closed.ToString();
  // The verdict is latched, not swallowed: repeat closes and the pager's own
  // accessor keep reporting it.
  EXPECT_FALSE(catalog.Close().ok());
  EXPECT_FALSE(catalog.pager()->LastFlushStatus().ok());
}

// ---- Directory sync of a checkpoint rename ---------------------------------

// A checkpoint is durable only once its rename is: the directory is fsynced
// after it, and a failure there fails the checkpoint. The compact journal is
// at the path by then, so the catalog must still switch its append handle to
// it; later batches appended to the unlinked old journal would vanish on
// reopen.
TEST(CheckpointTest, FailedDirectorySyncStillSwitchesTheJournalHandle) {
  xml::Document doc = CrashDoc();
  ASSERT_TRUE(doc.RelabelWithGap(64).ok());
  const std::string path = TempPath("ckpt_dirsync.db");
  CleanupStore(path);
  const xml::SubtreeSpec graft = xml::SpecFromDocument(MakeDoc("a(b(c))"));
  {
    core::EngineOptions options;
    options.persistent = true;
    Engine engine(&doc, path, options);
    engine.AddView("//a//b", Scheme::kElement);
    engine.AddView("//c", Scheme::kElement);
    {
      ScopedFaultInjection fi;
      // The checkpoint's one flush event: the directory sync after the
      // rename (the tmp file's own fsync is not an injectable flush).
      fi->ArmFlushFault(1);
      util::Status checkpointed = engine.catalog()->Checkpoint();
      ASSERT_FALSE(checkpointed.ok());
      EXPECT_NE(checkpointed.message().find("directory"), std::string::npos)
          << checkpointed.ToString();
    }
    for (int i = 0; i < 2; ++i) {
      core::UpdateOp op;
      op.kind = core::UpdateOp::Kind::kInsertSubtree;
      op.target_tag = "r";
      op.target_start = doc.NodeLabel(doc.Root()).start;
      op.subtree = graft;
      auto applied = engine.ApplyUpdates({op});
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ASSERT_EQ(applied->applied, 1u);
    }
  }
  FsckCatalogReport fsck = FsckCatalog(path);
  EXPECT_TRUE(fsck.clean()) << storage::ToJson(fsck);
  auto reopened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const MaterializedView* c =
      (*reopened)->FindView(MustParse("//c").ToString(), Scheme::kElement);
  ASSERT_NE(c, nullptr);
  // Both batches replayed: the view holds every c the grafts added.
  EXPECT_EQ(c->ListLength(0), doc.NodesOfTag(doc.FindTag("c")).size());
  CleanupStore(path);
}

// ---- Scrubber ---------------------------------------------------------------

TEST(ScrubberTest, DetectsQuarantinesAndHealsCorruptView) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("scrub_heal.db");
  Engine engine(&doc, path);
  const MaterializedView* ab =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  TreePattern query = MustParse("//a//b//c");
  core::RunResult clean = engine.Execute(query, {ab, c});
  ASSERT_TRUE(clean.ok) << clean.error;

  // Rot one of ab's pages behind the pool's back (checksum made stale by an
  // injected bit flip), then drop caches so nothing shields the disk state.
  {
    ScopedFaultInjection fi;
    fi->ArmWriteFault(WriteFault::kBitFlip, 1);
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(engine.catalog()
                    ->pager()
                    ->WritePage(ab->list(0).pages.front(), zeros.data())
                    .ok());
  }
  engine.catalog()->DropCaches();

  // One synchronous full pass: the scrubber (not a query) finds the rot,
  // quarantines the view and heals it through the engine's healer.
  uint32_t scanned = engine.scrubber()->Step(100000);
  EXPECT_GT(scanned, 0u);
  storage::ScrubStats stats = engine.scrubber()->stats();
  EXPECT_GE(stats.corrupt_pages, 1u);
  EXPECT_EQ(stats.views_quarantined, 1u);
  EXPECT_EQ(stats.views_healed, 1u);
  EXPECT_EQ(stats.heal_failures, 0u);
  EXPECT_TRUE(engine.catalog()->IsQuarantined(ab));
  ASSERT_NE(engine.catalog()->ReplacementFor(ab), nullptr);

  // Queries arriving after the proactive heal never see the bad pages: the
  // planner redirects to the replacement and the run is NOT degraded.
  core::RunResult result = engine.Execute(query, {ab, c});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.result_hash, clean.result_hash);
  EXPECT_EQ(result.match_count, clean.match_count);
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.quarantined_views.empty());
  // Scrub counters ride along in the result for --explain.
  EXPECT_EQ(result.scrub.views_healed, 1u);
  EXPECT_GE(result.scrub.pages_scanned, static_cast<uint64_t>(scanned));
}

TEST(ScrubberTest, StepResumesAcrossBudgetedCalls) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("scrub_budget.db");
  Engine engine(&doc, path);
  engine.AddView("//a//b", Scheme::kLinkedElement);
  engine.AddView("//c", Scheme::kLinkedElement);
  engine.AddView("//a//b//c", Scheme::kTuple);

  // Tiny budget: many steps per pass, with the cursor carrying across calls.
  uint64_t passes_before = engine.scrubber()->stats().full_passes;
  uint32_t total = 0;
  for (int i = 0; i < 1000 && engine.scrubber()->stats().full_passes ==
                                  passes_before;
       ++i) {
    total += engine.scrubber()->Step(1);
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(engine.scrubber()->stats().full_passes, passes_before + 1);
  EXPECT_EQ(engine.scrubber()->stats().corrupt_pages, 0u);
}

TEST(ScrubberTest, BackgroundScrubWithConcurrentBatchQueries) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("scrub_batch.db");
  core::EngineOptions options;
  Engine engine(&doc, path, options);
  const MaterializedView* ab =
      engine.AddView("//a//b", Scheme::kLinkedElement);
  const MaterializedView* c = engine.AddView("//c", Scheme::kLinkedElement);
  TreePattern query = MustParse("//a//b//c");
  core::RunResult clean = engine.Execute(query, {ab, c});
  ASSERT_TRUE(clean.ok);

  // A fast background scrubber races query traffic on four sessions over
  // healthy views: every query must stay clean and bit-identical (this is
  // the tsan target for scrubber-vs-query interleavings).
  engine.scrubber()->Start(std::chrono::milliseconds(1), 16);
  EXPECT_TRUE(engine.scrubber()->running());
  for (int round = 0; round < 5; ++round) {
    std::vector<bench::SessionQuery> batch(8, {&query, {ab, c}});
    // Each round starts cold, so its queries read the pager while the
    // scrubber verifies pages.
    engine.catalog()->DropCaches();
    std::vector<core::RunResult> results =
        bench::RunOnSessions(&engine, batch, 4);
    uint64_t pages_read = 0;
    for (const core::RunResult& r : results) {
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.result_hash, clean.result_hash);
      pages_read += r.io.pages_read;
    }
    EXPECT_GT(pages_read, 0u) << "round " << round << " never read the pager";
  }
  engine.scrubber()->Stop();
  EXPECT_FALSE(engine.scrubber()->running());
  EXPECT_EQ(engine.scrubber()->stats().views_quarantined, 0u);
}

// ---- fsck / repair ----------------------------------------------------------

TEST(FsckCatalogTest, CleanStoreReportsClean) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_clean.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kElement);
  }
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.clean()) << report.manifest_status.ToString();
  EXPECT_FALSE(report.corrupt());
  EXPECT_FALSE(report.repair_needed());
  EXPECT_EQ(report.view_count, 2u);
  EXPECT_EQ(report.quarantined_count, 0u);
  EXPECT_GE(report.last_epoch, 2u);
  EXPECT_GT(report.durable_page_count, 0u);
}

TEST(FsckCatalogTest, CrashArtifactsAreFlaggedAndRepaired) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_repair.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//c"), Scheme::kLinkedElement);
    ScopedFaultInjection fi;
    fi->ArmCrashPoint(CrashPoint::kCrashAfterDataSync);
    auto failed =
        catalog.TryMaterialize(doc, MustParse("//a//b"), Scheme::kElement);
    ASSERT_FALSE(failed.ok());
  }
  // A checkpoint cut short before its rename leaves its tmp file behind:
  // fsck flags it, repair sweeps it.
  WriteFile(path + ".manifest.tmp", "half a checkpoint");
  FsckCatalogReport before = FsckCatalog(path);
  EXPECT_FALSE(before.clean());
  EXPECT_FALSE(before.corrupt());
  EXPECT_TRUE(before.repair_needed());
  EXPECT_GT(before.orphan_pages, 0u);
  EXPECT_EQ(before.checkpoint_tmp, path + ".manifest.tmp");
  EXPECT_EQ(before.pending_rebuild, 1u);
  EXPECT_EQ(before.corrupt_durable_pages, 0u);

  auto repaired = RepairCatalog(path);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_GT(repaired->orphan_pages_truncated, 0u);
  EXPECT_TRUE(repaired->checkpoint_tmp_removed);
  ASSERT_EQ(repaired->pending_rebuild.size(), 1u);
  EXPECT_EQ(repaired->pending_rebuild[0].first, "//a//b");

  FsckCatalogReport after = FsckCatalog(path);
  EXPECT_TRUE(after.clean()) << after.manifest_status.ToString();
  EXPECT_EQ(after.view_count, 1u);
}

TEST(FsckCatalogTest, RottenDurablePageIsCorruptNotRepairable) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_rot.db");
  CleanupStore(path);
  storage::PageId victim_page = 0;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    const MaterializedView* view =
        catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    victim_page = view->list(0).pages.front();
    ScopedFaultInjection fi;
    fi->ArmWriteFault(WriteFault::kBitFlip, 1);
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(catalog.pager()->WritePage(victim_page, zeros.data()).ok());
  }
  FsckCatalogReport report = FsckCatalog(path);
  EXPECT_TRUE(report.corrupt());
  EXPECT_GE(report.corrupt_durable_pages, 1u);
  EXPECT_FALSE(report.clean());
}

// ---- Machine-readable fsck (vj_fsck --json) --------------------------------

TEST(FsckJsonTest, CatalogVerdictsTrackTheReport) {
  xml::Document doc = CrashDoc();
  std::string path = TempPath("fsck_json.db");
  CleanupStore(path);
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    ASSERT_TRUE(catalog.Close().ok());
  }
  std::string json = storage::ToJson(FsckCatalog(path));
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"corrupt\": false"), std::string::npos);
  EXPECT_NE(json.find("\"repair_needed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"view_count\": 1"), std::string::npos);

  // Tear the journal tail (crash artifact): the verdicts must flip to
  // repairable, and the specific finding must be named.
  {
    std::FILE* f = std::fopen((path + ".manifest").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t length = 100;
    std::fwrite(&length, sizeof(length), 1, f);
    std::fclose(f);
  }
  json = storage::ToJson(FsckCatalog(path));
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"corrupt\": false"), std::string::npos);
  EXPECT_NE(json.find("\"repair_needed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"journal_tail_torn\": true"), std::string::npos);
}

TEST(FsckJsonTest, BarePagerReportEscapesStringsAndListsBadPages) {
  storage::FsckReport report;
  report.file_status = util::Status::Ok();
  report.page_count = 3;
  report.bad_pages.push_back(
      {1, util::Status::Corruption("bad \"footer\"\n")});
  std::string json = storage::ToJson(report);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"page_count\": 3"), std::string::npos);
  EXPECT_NE(json.find("{\"page\": 1, \"error\": "), std::string::npos);
  // Quotes and newlines inside statuses arrive escaped, not raw.
  EXPECT_NE(json.find("\\\"footer\\\"\\n"), std::string::npos) << json;
}

}  // namespace
}  // namespace viewjoin
