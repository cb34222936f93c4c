// Out-of-core base document tests: the paged DocumentStore (build / spill /
// reopen / corruption surfacing), the streaming SAX parser it is fed by
// (identical errors and offsets to the DOM parser, clean mid-stream aborts),
// the vj_fsck doc-store report, and the strict VIEWJOIN_* environment knobs.
//
// The central safety property exercised throughout: the manifest checkpoint
// is the single atomic commit point. A failed or aborted build — parse
// error, truncated input, injected write fault — must leave NO files behind
// (no pager file, no manifest, no spill runs), and a pager file without a
// manifest is an orphan that Open refuses and fsck flags.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/engine.h"
#include "storage/document_store.h"
#include "storage/fsck.h"
#include "storage/manifest.h"
#include "storage/stored_list.h"
#include "tests/test_util.h"
#include "util/fault_injection.h"
#include "xml/parser.h"

namespace viewjoin {
namespace {

using storage::DocumentStore;
using storage::FsckDocStoreReport;
using storage::FsckDocumentStore;
using storage::ListCursor;
using storage::StoredList;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Asserts an aborted/failed build left no trace: no pager file, no
/// manifest, no spill runs.
void ExpectNoStoreFiles(const std::string& path) {
  EXPECT_FALSE(FileExists(path)) << path;
  EXPECT_FALSE(FileExists(path + ".manifest")) << path << ".manifest";
  for (int run = 0; run < 8; ++run) {
    const std::string run_path = path + ".run" + std::to_string(run);
    EXPECT_FALSE(FileExists(run_path)) << run_path;
  }
}

/// Synthetic document with enough elements (and repeated tags) to span many
/// pages and force spill runs under a tiny parse budget.
std::string BigXml(int sections) {
  std::string xml = "<root>";
  for (int i = 0; i < sections; ++i) {
    xml += "<section><head><title/></head>";
    for (int j = 0; j < 5; ++j) {
      xml += "<para><bold/><keyword/></para>";
    }
    xml += "</section>";
  }
  xml += "</root>";
  return xml;
}

/// All labels of one tag read back through a pooled cursor, in list order.
std::vector<xml::Label> ScanTag(const DocumentStore& store,
                                const std::string& tag) {
  std::vector<xml::Label> labels;
  const StoredList* list = store.ListOfTag(store.FindTag(tag));
  for (ListCursor cursor(list, store.pool()); !cursor.AtEnd(); cursor.Next()) {
    labels.push_back(cursor.LabelAt());
  }
  return labels;
}

/// Records over all of the store's tag lists: one per live element.
uint64_t StoredRecords(const DocumentStore& store) {
  uint64_t records = 0;
  for (xml::TagId t = 0; t < store.TagCount(); ++t) {
    records += store.ListOfTag(t)->count;
  }
  return records;
}

/// The same list taken from the in-memory document, sorted by start (the
/// order the store's element streams guarantee).
std::vector<xml::Label> DocTagLabels(const xml::Document& doc,
                                     const std::string& tag) {
  std::vector<xml::Label> labels;
  xml::TagId id = doc.FindTag(tag);
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (doc.NodeTag(n) == id) labels.push_back(doc.NodeLabel(n));
  }
  std::sort(labels.begin(), labels.end(),
            [](const xml::Label& a, const xml::Label& b) {
              return a.start < b.start;
            });
  return labels;
}

bool SameLabels(const std::vector<xml::Label>& a,
                const std::vector<xml::Label>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != b[i].start || a[i].end != b[i].end ||
        a[i].level != b[i].level) {
      return false;
    }
  }
  return true;
}

TEST(DocumentStoreTest, BuildRoundtripMatchesInMemoryParse) {
  const std::string xml = BigXml(40);
  xml::ParseResult parsed = xml::ParseDocument(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const xml::Document& doc = *parsed.document;

  const std::string path = TempPath("doc_roundtrip.doc");
  auto store = DocumentStore::BuildFromText(path, xml, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  EXPECT_EQ(StoredRecords(**store), doc.LiveNodeCount());
  ASSERT_EQ((*store)->TagCount(), doc.TagCount());
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    EXPECT_EQ((*store)->TagName(t), doc.TagName(t));
  }
  for (const char* tag :
       {"root", "section", "head", "title", "para", "bold", "keyword"}) {
    EXPECT_TRUE(SameLabels(ScanTag(**store, tag), DocTagLabels(doc, tag)))
        << tag;
  }
  // Unknown tags yield the shared empty list, not a crash.
  EXPECT_EQ((*store)->ListOfTag((*store)->FindTag("nosuchtag"))->count, 0u);
}

TEST(DocumentStoreTest, TinySpillBudgetBuildsIdenticalStore) {
  const std::string xml = BigXml(60);
  const std::string big_path = TempPath("doc_nospill.doc");
  const std::string tiny_path = TempPath("doc_spill.doc");
  auto big = DocumentStore::BuildFromText(big_path, xml, {});
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  // A 1-byte budget clamps to the floor (one page of records), forcing many
  // sorted runs and the k-way merge path.
  DocumentStore::Options tiny_options;
  tiny_options.parse_budget_bytes = 1;
  auto tiny = DocumentStore::BuildFromText(tiny_path, xml, tiny_options);
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();

  EXPECT_EQ(StoredRecords(**tiny), StoredRecords(**big));
  EXPECT_EQ((*tiny)->TagCount(), (*big)->TagCount());
  for (const char* tag : {"root", "section", "head", "title", "para", "bold",
                          "keyword"}) {
    EXPECT_TRUE(SameLabels(ScanTag(**tiny, tag), ScanTag(**big, tag))) << tag;
  }
  // A successful build sweeps its own spill runs.
  for (int run = 0; run < 8; ++run) {
    EXPECT_FALSE(FileExists(tiny_path + ".run" + std::to_string(run)));
  }
}

TEST(DocumentStoreTest, BuildFromDocumentMirrorsEveryLabel) {
  util::Rng rng(99);
  xml::Document doc =
      testing::RandomDoc(&rng, 1500, {"a", "b", "c", "d", "e"});
  const std::string path = TempPath("doc_snapshot.doc");
  auto store = DocumentStore::BuildFromDocument(path, doc, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(StoredRecords(**store), doc.LiveNodeCount());
  for (const char* tag : {"a", "b", "c", "d", "e"}) {
    EXPECT_TRUE(SameLabels(ScanTag(**store, tag), DocTagLabels(doc, tag)))
        << tag;
  }
}

TEST(DocumentStoreTest, OpenReopensWhatBuildWrote) {
  const std::string xml = BigXml(30);
  const std::string path = TempPath("doc_reopen.doc");
  uint64_t nodes = 0;
  size_t tags = 0;
  std::vector<xml::Label> paras;
  {
    auto store = DocumentStore::BuildFromText(path, xml, {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    nodes = StoredRecords(**store);
    tags = (*store)->TagCount();
    paras = ScanTag(**store, "para");
  }
  auto reopened = DocumentStore::Open(path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StoredRecords(**reopened), nodes);
  EXPECT_EQ((*reopened)->TagCount(), tags);
  EXPECT_TRUE(SameLabels(ScanTag(**reopened, "para"), paras));
}

TEST(DocumentStoreTest, OpenWithoutManifestIsNotFound) {
  const std::string path = TempPath("doc_orphan.doc");
  {
    auto store = DocumentStore::BuildFromText(path, BigXml(5), {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  ASSERT_EQ(std::remove((path + ".manifest").c_str()), 0);
  auto reopened = DocumentStore::Open(path, {});
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
}

TEST(DocumentStoreTest, RecordWithNoRecordSizeIsCorruptionNotACrash) {
  // A TOC record whose list layout has a zero-byte record (checksum-valid,
  // so only a buggy or hostile writer makes one) has no page span: Open and
  // fsck must reject it instead of dividing by the record size.
  const std::string path = TempPath("doc_zero_record.doc");
  {
    auto store = DocumentStore::BuildFromText(path, BigXml(5), {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  const std::string toc = storage::ManifestJournal::PathFor(path);
  auto replay = storage::ManifestJournal::Replay(toc);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  std::vector<storage::ManifestViewRecord> records = replay->installed;
  ASSERT_FALSE(records.empty());
  records[0].lists[0].layout.label_count = 0;
  ASSERT_TRUE(storage::ManifestJournal::WriteCheckpoint(toc, records, {},
                                                        replay->last_epoch)
                  .ok());
  auto reopened = DocumentStore::Open(path, {});
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  FsckDocStoreReport report = FsckDocumentStore(path);
  EXPECT_TRUE(report.corrupt()) << storage::ToJson(report);
}

TEST(DocumentStoreTest, CorruptPageSurfacesThroughErrorScope) {
  const std::string path = TempPath("doc_corrupt.doc");
  {
    auto store = DocumentStore::BuildFromText(path, BigXml(40), {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  // Flip bytes in the middle of the data region (past the 64-byte header);
  // some durable page now fails its checksum.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64 + 3 * 4112 + 1000, SEEK_SET), 0);
    const uint8_t garbage[8] = {0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE,
                                0xEF};
    ASSERT_EQ(std::fwrite(garbage, 1, sizeof garbage, f), sizeof garbage);
    std::fclose(f);
  }
  // The TOC still opens (corruption is per-page), but reading through the
  // bad page latches the fault in the enclosing ErrorScope.
  auto store = DocumentStore::Open(path, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  storage::BufferPool::ErrorScope guard((*store)->pool());
  for (size_t t = 0; t < (*store)->TagCount(); ++t) {
    ScanTag(**store, (*store)->TagName(static_cast<xml::TagId>(t)));
  }
  EXPECT_FALSE(guard.error().ok());
  EXPECT_EQ(guard.error().code(), StatusCode::kCorruption);
}

TEST(DocumentStoreTest, ParseErrorBuildLeavesNoFiles) {
  const std::string path = TempPath("doc_badxml.doc");
  auto store = DocumentStore::BuildFromText(path, "<a><b></a>", {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(store.status().ToString().find("parse error at offset"),
            std::string::npos)
      << store.status().ToString();
  ExpectNoStoreFiles(path);
}

TEST(DocumentStoreTest, TruncatedXmlBuildLeavesNoFiles) {
  // Same prefix the streaming parser accepts, cut mid-document — and cut
  // mid-tag. Both must abort with the DOM parser's message and offset and
  // sweep every staged file, even under a spill-forcing budget.
  DocumentStore::Options tiny;
  tiny.parse_budget_bytes = 1;
  for (const std::string& xml :
       {BigXml(20).substr(0, 500), BigXml(20).substr(0, 503)}) {
    const std::string path = TempPath("doc_truncated.doc");
    auto store = DocumentStore::BuildFromText(path, xml, tiny);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
    xml::ParseResult dom = xml::ParseDocument(xml);
    ASSERT_FALSE(dom.ok());
    EXPECT_NE(store.status().ToString().find(dom.error), std::string::npos)
        << store.status().ToString() << " vs " << dom.error;
    EXPECT_NE(store.status().ToString().find(std::to_string(dom.error_offset)),
              std::string::npos);
    ExpectNoStoreFiles(path);
  }
}

TEST(DocumentStoreTest, InjectedWriteFaultAbortsWithoutOrphans) {
  // Every page write fails, or the disk fills right after the pager header
  // so the first spill run is refused: the build aborts mid-stream exactly
  // where a full disk would stop it. The abort must remove the pager file
  // and all runs and never write a manifest.
  const std::string path = TempPath("doc_wfault.doc");
  for (const bool budget : {false, true}) {
    SCOPED_TRACE(budget ? "disk budget" : "short page writes");
    util::ScopedFaultInjection faults;
    if (budget) {
      faults->ArmDiskBudget(storage::Pager::kHeaderSize);
    } else {
      faults->ArmWriteFault(util::WriteFault::kShortWrite, 1, -1);
    }
    DocumentStore::Options tiny;
    tiny.parse_budget_bytes = 1;
    auto store = DocumentStore::BuildFromText(path, BigXml(40), tiny);
    ASSERT_FALSE(store.ok());
    if (budget) {
      EXPECT_EQ(store.status().code(), util::StatusCode::kResourceExhausted)
          << store.status().ToString();
    }
    faults->Reset();
    ExpectNoStoreFiles(path);
    // And the failure is invisible to a later build at the same path.
    auto retry = DocumentStore::BuildFromText(path, BigXml(40), tiny);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_GT(StoredRecords(**retry), 0u);
  }
}

// ---- fsck over document stores ---------------------------------------------

TEST(DocStoreFsckTest, AbsentStoreIsVacuouslyClean) {
  FsckDocStoreReport report =
      FsckDocumentStore(TempPath("no_such_store.doc"));
  EXPECT_FALSE(report.present);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.corrupt());
}

TEST(DocStoreFsckTest, CleanOrphanStrayAndCorruptVerdicts) {
  const std::string path = TempPath("doc_fsck.doc");
  {
    auto store = DocumentStore::BuildFromText(path, BigXml(25), {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  FsckDocStoreReport clean = FsckDocumentStore(path);
  EXPECT_TRUE(clean.present);
  EXPECT_TRUE(clean.clean()) << storage::ToJson(clean);
  EXPECT_GT(clean.tag_count, 0u);
  EXPECT_GT(clean.durable_page_count, 0u);

  // A stray spill run is a crash artifact, not corruption.
  const std::string stray = path + ".run0";
  {
    std::FILE* f = std::fopen(stray.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("leftover", f);
    std::fclose(f);
  }
  FsckDocStoreReport with_stray = FsckDocumentStore(path);
  ASSERT_EQ(with_stray.stray_runs.size(), 1u);
  EXPECT_FALSE(with_stray.clean());
  EXPECT_FALSE(with_stray.corrupt());
  ASSERT_EQ(std::remove(stray.c_str()), 0);

  // Rotten page inside the durable prefix: corruption.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64 + 4112 + 500, SEEK_SET), 0);
    std::fputc(0xFF, f);
    std::fputc(0xFF, f);
    std::fputc(0xFF, f);
    std::fputc(0xFF, f);
    std::fclose(f);
  }
  FsckDocStoreReport corrupt = FsckDocumentStore(path);
  EXPECT_GT(corrupt.corrupt_durable_pages, 0u);
  EXPECT_TRUE(corrupt.corrupt());
  EXPECT_FALSE(corrupt.clean());

  // Pager file without manifest: an aborted-build orphan.
  ASSERT_EQ(std::remove((path + ".manifest").c_str()), 0);
  FsckDocStoreReport orphan = FsckDocumentStore(path);
  EXPECT_TRUE(orphan.orphan);
  EXPECT_FALSE(orphan.clean());
}

TEST(DocStoreFsckTest, RepeatedRecordsFailTheDecodedOrderCheck) {
  // A TOC whose "para" list names its first page twice, with a directory
  // that agrees: every page decodes and matches its fence key, so only the
  // check that decoded starts strictly increase across the list sees that
  // the list holds each of those elements twice.
  const std::string path = TempPath("doc_fsck_order.doc");
  {
    auto store = DocumentStore::BuildFromText(path, BigXml(25), {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  ASSERT_TRUE(FsckDocumentStore(path).clean());
  const std::string toc = storage::ManifestJournal::PathFor(path);
  auto replay = storage::ManifestJournal::Replay(toc);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  std::vector<storage::ManifestViewRecord> records = replay->installed;
  bool doubled = false;
  for (storage::ManifestViewRecord& record : records) {
    if (record.pattern != "para") continue;
    StoredList& list = record.lists[0];
    const uint32_t first = list.RecordsOnPage(0);
    list.pages = {list.pages[0], list.pages[0]};
    list.page_first_entry = {0, first};
    list.page_first_start = {list.page_first_start[0],
                             list.page_first_start[0]};
    list.count = 2 * first;
    record.list_lengths = {list.count};
    doubled = true;
  }
  ASSERT_TRUE(doubled);
  ASSERT_TRUE(storage::ManifestJournal::WriteCheckpoint(toc, records, {},
                                                        replay->last_epoch)
                  .ok());
  FsckDocStoreReport report = FsckDocumentStore(path);
  EXPECT_TRUE(report.corrupt()) << storage::ToJson(report);
  ASSERT_EQ(report.bad_lists.size(), 1u) << storage::ToJson(report);
  EXPECT_NE(report.bad_lists[0].find("para: starts not strictly increasing"),
            std::string::npos)
      << report.bad_lists[0];
}

// ---- streaming parser ------------------------------------------------------

/// Handler that records the event sequence and optionally aborts after a
/// fixed number of StartElement events.
class RecordingHandler : public xml::ParseHandler {
 public:
  explicit RecordingHandler(int abort_after_starts = -1)
      : abort_after_(abort_after_starts) {}

  bool StartElement(std::string_view name) override {
    events.push_back("<" + std::string(name) + ">");
    ++starts;
    return abort_after_ < 0 || starts < abort_after_;
  }
  bool EndElement() override {
    events.push_back("</>");
    return true;
  }
  bool Text() override {
    ++texts;
    return true;
  }

  std::vector<std::string> events;
  int starts = 0;
  int texts = 0;

 private:
  int abort_after_;
};

TEST(ParseStreamTest, EventsMatchDomParse) {
  const std::string xml =
      "<?xml version='1.0'?><r a='1'><x>hi there</x><y/><!-- c --><z>"
      "<![CDATA[raw]]></z></r>";
  xml::ParseResult dom = xml::ParseDocument(xml);
  ASSERT_TRUE(dom.ok()) << dom.error;
  RecordingHandler handler;
  xml::StreamResult stream = xml::ParseStream(xml, &handler);
  ASSERT_TRUE(stream.ok) << stream.error;
  EXPECT_FALSE(stream.aborted);
  EXPECT_EQ(static_cast<size_t>(handler.starts), dom.document->NodeCount());
  // Balanced: every start is closed.
  EXPECT_EQ(handler.events.size(), 2 * static_cast<size_t>(handler.starts));
  EXPECT_EQ(handler.texts, 2);  // "hi there" is one run, "raw" the other
}

TEST(ParseStreamTest, MalformedInputsMatchDomErrorsAndOffsets) {
  // The streaming tokenizer must reject exactly what the DOM parser rejects,
  // with the same message at the same byte offset.
  const std::string cases[] = {
      "<a><b></a>",         // mismatched close
      "<a><b>",             // EOF with open tags
      "plain text",         // no root
      "<a></a><b></b>",     // second root
      "<a><b attr=></b>",   // broken attribute
      "< a></a>",           // space before name
      "<a></a",             // truncated close tag
  };
  for (const std::string& xml : cases) {
    xml::ParseResult dom = xml::ParseDocument(xml);
    ASSERT_FALSE(dom.ok()) << xml;
    RecordingHandler handler;
    xml::StreamResult stream = xml::ParseStream(xml, &handler);
    EXPECT_FALSE(stream.ok) << xml;
    EXPECT_FALSE(stream.aborted) << xml;
    EXPECT_EQ(stream.error, dom.error) << xml;
    EXPECT_EQ(stream.error_offset, dom.error_offset) << xml;
  }
}

TEST(ParseStreamTest, HandlerAbortStopsImmediately) {
  RecordingHandler handler(/*abort_after_starts=*/3);
  xml::StreamResult stream =
      xml::ParseStream("<a><b/><c/><d/><e/></a>", &handler);
  EXPECT_FALSE(stream.ok);
  EXPECT_TRUE(stream.aborted);
  EXPECT_EQ(handler.starts, 3);
}

TEST(ParseStreamTest, FileStreamWithTinyChunksMatchesStringStream) {
  const std::string xml = BigXml(10);
  const std::string path = TempPath("stream_chunks.xml");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(xml.data(), 1, xml.size(), f), xml.size());
    std::fclose(f);
  }
  RecordingHandler whole;
  ASSERT_TRUE(xml::ParseStream(xml, &whole).ok);
  // A 7-byte chunk splits every token across reads; the rolling buffer must
  // reassemble them without changing a single event.
  RecordingHandler chunked;
  xml::StreamResult stream =
      xml::ParseFileStream(path, &chunked, /*chunk_bytes=*/7);
  ASSERT_TRUE(stream.ok) << stream.error;
  EXPECT_EQ(chunked.events, whole.events);

  RecordingHandler missing;
  xml::StreamResult gone =
      xml::ParseFileStream(TempPath("no_such.xml"), &missing);
  EXPECT_FALSE(gone.ok);
  EXPECT_NE(gone.error.find("cannot open file"), std::string::npos);
}

// ---- environment knobs -----------------------------------------------------

/// Unsets every VIEWJOIN doc knob on entry and exit so tests cannot leak
/// environment into each other.
class ScopedDocEnv {
 public:
  ScopedDocEnv() { Clear(); }
  ~ScopedDocEnv() { Clear(); }
  static void Clear() {
    ::unsetenv("VIEWJOIN_DOC_MODE");
    ::unsetenv("VIEWJOIN_DOC_POOL_PAGES");
    ::unsetenv("VIEWJOIN_PARSE_BUDGET");
    ::unsetenv("VIEWJOIN_READAHEAD_PAGES");
  }
};

TEST(ApplyEnvOptionsTest, UnsetVariablesLeaveDefaultsUntouched) {
  ScopedDocEnv env;
  core::EngineOptions options;
  ASSERT_TRUE(core::ApplyEnvOptions(&options).ok());
  EXPECT_EQ(options.doc_mode, core::DocMode::kMemory);
  EXPECT_EQ(options.doc_pool_pages, 1024u);
  EXPECT_EQ(options.doc_parse_budget_bytes, size_t{64} << 20);
  EXPECT_EQ(options.readahead_pages, 0u);
}

TEST(ApplyEnvOptionsTest, WellFormedValuesApply) {
  ScopedDocEnv env;
  ::setenv("VIEWJOIN_DOC_MODE", "disk", 1);
  ::setenv("VIEWJOIN_DOC_POOL_PAGES", "64", 1);
  ::setenv("VIEWJOIN_PARSE_BUDGET", "4096", 1);
  ::setenv("VIEWJOIN_READAHEAD_PAGES", "8", 1);
  core::EngineOptions options;
  ASSERT_TRUE(core::ApplyEnvOptions(&options).ok());
  EXPECT_EQ(options.doc_mode, core::DocMode::kDisk);
  EXPECT_EQ(options.doc_pool_pages, 64u);
  EXPECT_EQ(options.doc_parse_budget_bytes, 4096u);
  EXPECT_EQ(options.readahead_pages, 8u);

  ::setenv("VIEWJOIN_DOC_MODE", "memory", 1);
  ASSERT_TRUE(core::ApplyEnvOptions(&options).ok());
  EXPECT_EQ(options.doc_mode, core::DocMode::kMemory);
}

TEST(ApplyEnvOptionsTest, MalformedValuesAreTypedErrors) {
  ScopedDocEnv env;
  struct Case {
    const char* name;
    const char* value;
  };
  // Strict parsing: no case folding, no suffixes, no signs, no garbage.
  const Case cases[] = {
      {"VIEWJOIN_DOC_MODE", "Disk"},
      {"VIEWJOIN_DOC_MODE", "paged"},
      // An empty value is treated as unset (the default applies), so it is
      // deliberately NOT in this table.
      {"VIEWJOIN_DOC_POOL_PAGES", "abc"},
      {"VIEWJOIN_DOC_POOL_PAGES", "-3"},
      {"VIEWJOIN_PARSE_BUDGET", "64MB"},
      {"VIEWJOIN_READAHEAD_PAGES", "1.5"},
      {"VIEWJOIN_READAHEAD_PAGES", " 4"},
  };
  for (const Case& c : cases) {
    ScopedDocEnv::Clear();
    ::setenv(c.name, c.value, 1);
    core::EngineOptions options;
    util::Status status = core::ApplyEnvOptions(&options);
    ASSERT_FALSE(status.ok()) << c.name << "=" << c.value;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.name << "=" << c.value;
    EXPECT_NE(status.ToString().find(c.name), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace viewjoin
