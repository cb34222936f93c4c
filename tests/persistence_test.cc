// Catalog persistence: materialize views into a persistent catalog, save the
// manifest, reopen in a fresh catalog, and verify both the metadata and the
// query answers survive the round trip — plus the format-v2 file header:
// garbage, pre-checksum, and truncated pager files must be rejected with a
// typed kCorruption status instead of aborting or serving bad pages.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "storage/manifest.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/status.h"

namespace viewjoin {
namespace {

using storage::ListCursor;
using storage::ManifestJournal;
using storage::MaterializedView;
using storage::Pager;
using storage::Scheme;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using tpq::TreePattern;
using util::StatusCode;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(PersistenceTest, ManifestRoundTripPreservesViews) {
  xml::Document doc = MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))");
  std::string path = TempPath("persist_rt.db");
  uint64_t fresh_hash = 0;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    const MaterializedView* ab =
        catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    const MaterializedView* c =
        catalog.Materialize(doc, MustParse("//c"), Scheme::kLinkedElement);
    catalog.Materialize(doc, MustParse("//a//b//c"), Scheme::kTuple);
    // Fingerprint the answer over the freshly materialized store.
    TreePattern query = MustParse("//a//b//c");
    auto qb = algo::QueryBinding::Bind(doc, query, {ab, c});
    ASSERT_TRUE(qb.has_value());
    algo::TwigStack ts(&*qb, catalog.pool());
    tpq::HashingSink fresh;
    ts.Evaluate(&fresh);
    fresh_hash = fresh.hash();
    ASSERT_TRUE(catalog.Checkpoint().ok());
  }
  auto opened = ViewCatalog::Open(path, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ViewCatalog> reopened = std::move(*opened);
  ASSERT_EQ(reopened->views().size(), 3u);
  const MaterializedView* ab = reopened->views()[0].get();
  EXPECT_EQ(ab->pattern().ToString(), "//a//b");
  EXPECT_EQ(ab->scheme(), Scheme::kLinkedElement);
  EXPECT_GT(ab->SizeBytes(), 0u);
  EXPECT_GT(ab->PointerCount(), 0u);
  const MaterializedView* tup = reopened->views()[2].get();
  EXPECT_EQ(tup->scheme(), Scheme::kTuple);
  EXPECT_GT(tup->MatchCount(), 0u);

  // The stored lists read back correctly (checksums verified on every page
  // read) and still answer the query with the identical match fingerprint.
  ListCursor cursor(&ab->list(0), reopened->pool());
  uint32_t prev = 0;
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    EXPECT_GT(cursor.LabelAt().start, prev);
    prev = cursor.LabelAt().start;
  }
  TreePattern query = MustParse("//a//b//c");
  auto binding = algo::QueryBinding::Bind(
      doc, query, {ab, reopened->views()[1].get()});
  ASSERT_TRUE(binding.has_value());
  algo::TwigStack ts(&*binding, reopened->pool());
  tpq::HashingSink sink;
  ts.Evaluate(&sink);
  EXPECT_EQ(sink.count(), tpq::NaiveEvaluator(doc, query).Count());
  EXPECT_EQ(sink.hash(), fresh_hash);
}

TEST(PersistenceTest, OpenFailsCleanlyWithoutManifest) {
  auto opened = ViewCatalog::Open(TempPath("no_such.db"), 16);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
  EXPECT_NE(opened.status().message().find("manifest"), std::string::npos);
}

TEST(PersistenceTest, OpenRejectsCorruptManifest) {
  xml::Document doc = MakeDoc("a(b)");
  std::string path = TempPath("persist_bad.db");
  {
    ViewCatalog catalog(path, 16, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kElement);
    ASSERT_TRUE(catalog.Checkpoint().ok());
  }
  // Truncate the manifest mid-way through its header.
  ASSERT_EQ(::truncate(ManifestJournal::PathFor(path).c_str(), 10), 0);
  auto opened = ViewCatalog::Open(path, 16);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("header"), std::string::npos);
}

TEST(PersistenceTest, OpenRejectsManifestPointingPastFile) {
  xml::Document doc = MakeDoc("a(b)");
  std::string path = TempPath("persist_oob.db");
  {
    ViewCatalog catalog(path, 16, /*persistent=*/true);
    catalog.Materialize(doc, MustParse("//a//b"), Scheme::kElement);
    ASSERT_TRUE(catalog.Checkpoint().ok());
  }
  // Rewrite the manifest so a list claims a first page beyond the pager file.
  {
    const std::string journal = ManifestJournal::PathFor(path);
    auto replayed = ManifestJournal::Replay(journal);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    ASSERT_EQ(replayed->installed.size(), 1u);
    replayed->installed[0].lists[0].AssignRun(999);
    ASSERT_TRUE(ManifestJournal::WriteCheckpoint(journal, replayed->installed,
                                                 {}, replayed->last_epoch)
                    .ok());
  }
  auto opened = ViewCatalog::Open(path, 16);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("beyond the pager file"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(PersistenceTest, ScratchCatalogRemovesItsFile) {
  std::string path = TempPath("persist_scratch.db");
  {
    xml::Document doc = MakeDoc("a(b)");
    ViewCatalog catalog(path, 16);  // non-persistent
    catalog.Materialize(doc, MustParse("//a"), Scheme::kElement);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

// ---- Format-v2 file header ----------------------------------------------

TEST(PagerHeaderTest, PersistedFileReopensAndServesPages) {
  std::string path = TempPath("hdr_rt.db");
  std::vector<uint8_t> page(Pager::kPageSize);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i);
  {
    Pager pager(path, Pager::Mode::kPersist);
    ASSERT_TRUE(pager.init_status().ok());
    storage::PageId id = *pager.AllocatePage();
    ASSERT_TRUE(pager.WritePage(id, page.data()).ok());
  }
  Pager reopened(path, Pager::Mode::kReopen);
  ASSERT_TRUE(reopened.init_status().ok()) << reopened.init_status().ToString();
  EXPECT_EQ(reopened.page_count(), 1u);
  std::vector<uint8_t> out(Pager::kPageSize);
  ASSERT_TRUE(reopened.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
  std::remove(path.c_str());
}

TEST(PagerHeaderTest, ReopenRejectsMissingFile) {
  Pager pager(TempPath("hdr_missing.db"), Pager::Mode::kReopen);
  EXPECT_EQ(pager.init_status().code(), StatusCode::kNotFound);
}

TEST(PagerHeaderTest, ReopenRejectsGarbageFile) {
  std::string path = TempPath("hdr_garbage.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 5000; ++i) std::fputc(i & 0xFF, f);
    std::fclose(f);
  }
  Pager pager(path, Pager::Mode::kReopen);
  EXPECT_EQ(pager.init_status().code(), StatusCode::kCorruption);
  // Page operations propagate the init failure instead of touching the file.
  std::vector<uint8_t> out(Pager::kPageSize);
  EXPECT_EQ(pager.ReadPage(0, out.data()).code(), StatusCode::kCorruption);
  EXPECT_FALSE(pager.AllocatePage().ok());
  std::remove(path.c_str());
}

TEST(PagerHeaderTest, ReopenRejectsPreChecksumFormat) {
  // A version-1 file was raw pages with no header: 4096 zero bytes look like
  // one old-format page and must not be interpreted as format 2.
  std::string path = TempPath("hdr_v1.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    std::fwrite(zeros.data(), 1, zeros.size(), f);
    std::fclose(f);
  }
  Pager pager(path, Pager::Mode::kReopen);
  EXPECT_EQ(pager.init_status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagerHeaderTest, ReopenRejectsTruncatedFile) {
  std::string path = TempPath("hdr_trunc.db");
  {
    Pager pager(path, Pager::Mode::kPersist);
    std::vector<uint8_t> page(Pager::kPageSize, 0x5A);
    ASSERT_TRUE(pager.WritePage(*pager.AllocatePage(), page.data()).ok());
    ASSERT_TRUE(pager.WritePage(*pager.AllocatePage(), page.data()).ok());
  }
  // Chop the file mid-page (simulated crash during append).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 100), 0);
  }
  Pager pager(path, Pager::Mode::kReopen);
  EXPECT_EQ(pager.init_status().code(), StatusCode::kCorruption);
  EXPECT_NE(pager.init_status().message().find("truncated"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(PagerHeaderTest, HeaderCrcDetectsHeaderTampering) {
  std::string path = TempPath("hdr_tamper.db");
  {
    Pager pager(path, Pager::Mode::kPersist);
    std::vector<uint8_t> page(Pager::kPageSize, 0x33);
    ASSERT_TRUE(pager.WritePage(*pager.AllocatePage(), page.data()).ok());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 13, SEEK_SET);  // inside the page-size field
    std::fputc(0x7F, f);
    std::fclose(f);
  }
  Pager pager(path, Pager::Mode::kReopen);
  EXPECT_EQ(pager.init_status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace viewjoin
