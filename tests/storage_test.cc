#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include "core/engine.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/stored_list.h"
#include "tests/test_util.h"
#include "tpq/evaluator.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using storage::BufferPool;
using storage::EntryIndex;
using storage::File;
using storage::kNullEntry;
using storage::ListCursor;
using storage::MaterializedView;
using storage::Pager;
using storage::Scheme;
using storage::StoredList;
using storage::ViewCatalog;
using testing::MakeDoc;
using testing::MustParse;
using testing::PageTag;
using xml::Label;
using xml::NodeId;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(PagerTest, WriteReadRoundTrip) {
  Pager pager(TempPath("pager_rt.db"));
  std::vector<uint8_t> page(Pager::kPageSize);
  storage::PageId a = *pager.AllocatePage();
  storage::PageId b = *pager.AllocatePage();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i);
  pager.WritePage(b, page.data());
  std::fill(page.begin(), page.end(), 0);
  pager.WritePage(a, page.data());
  std::vector<uint8_t> out(Pager::kPageSize);
  pager.ReadPage(b, out.data());
  EXPECT_EQ(out[7], 7);
  EXPECT_EQ(pager.stats().pages_read, 1u);
  EXPECT_EQ(pager.stats().pages_written, 2u);
}

/// Payload of page `page` in the pager tests below: every byte depends on
/// the page and the offset, so a misplaced or torn read cannot pass for
/// another page.
std::vector<uint8_t> PatternPage(uint32_t page) {
  std::vector<uint8_t> payload(Pager::kPageSize);
  for (size_t j = 0; j < payload.size(); ++j) {
    payload[j] = static_cast<uint8_t>(j * 31 + page * 17 + 5);
  }
  return payload;
}

/// Physical bytes of a pattern page, stamped for the final page id.
std::vector<uint8_t> PatternPhysicalPage(uint32_t page) {
  std::vector<uint8_t> phys(Pager::kPhysicalPageSize);
  Pager::EncodePhysicalPage(page, PatternPage(page).data(), phys.data());
  return phys;
}

// Readers take the pager lock only to snapshot the page count, so reads run
// concurrently with each other, with an appender growing the file, and with
// a stats poller. Every read must still return the verified bytes.
TEST(PagerTest, ConcurrentReadsDuringAppends) {
  Pager pager(TempPath("pager_conc.db"));
  constexpr uint32_t kInitial = 8;
  constexpr uint32_t kAppends = 24;
  std::vector<uint8_t> batch;
  for (uint32_t p = 0; p < kInitial; ++p) {
    std::vector<uint8_t> phys = PatternPhysicalPage(p);
    batch.insert(batch.end(), phys.begin(), phys.end());
  }
  ASSERT_TRUE(pager.AppendPhysicalPages(batch.data(), kInitial).ok());

  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> out(Pager::kPageSize);
      do {
        uint32_t count = pager.page_count();
        for (uint32_t i = 0; i < count; ++i) {
          uint32_t page = (i + static_cast<uint32_t>(t) * 5) % count;
          if (!pager.ReadPage(page, out.data()).ok() ||
              out != PatternPage(page)) {
            bad_reads.fetch_add(1);
          }
          reads.fetch_add(1);
        }
      } while (!done.load());
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      storage::IoStats stats = pager.stats();
      if (stats.pages_read > reads.load() + 4) bad_reads.fetch_add(1);
      (void)pager.page_count();
      std::this_thread::yield();
    }
  });
  bool appended = true;
  for (uint32_t p = kInitial; p < kInitial + kAppends && appended; ++p) {
    std::vector<uint8_t> phys = PatternPhysicalPage(p);
    appended = pager.AppendPhysicalPages(phys.data(), 1).ok();
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(appended);
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(pager.page_count(), kInitial + kAppends);
  EXPECT_EQ(pager.stats().pages_read, reads.load());
  EXPECT_EQ(pager.stats().read_retries, 0u);
  EXPECT_TRUE(pager.last_error().ok());
}

// Writes are positioned and unbuffered: a page is readable as soon as
// WritePage returns, with no flush or sync in between, and rewriting it is
// seen by the next read.
TEST(PagerTest, WrittenPageIsReadableWithoutFlush) {
  Pager pager(TempPath("pager_noflush.db"));
  storage::PageId id = *pager.AllocatePage();
  ASSERT_TRUE(pager.WritePage(id, PatternPage(3).data()).ok());
  std::vector<uint8_t> out(Pager::kPageSize);
  ASSERT_TRUE(pager.ReadPage(id, out.data()).ok());
  // The footer CRC is over the payload only, so page 0 may carry page 3's
  // pattern.
  EXPECT_EQ(out, PatternPage(3));
  ASSERT_TRUE(pager.WritePage(id, PatternPage(4).data()).ok());
  ASSERT_TRUE(pager.ReadPage(id, out.data()).ok());
  EXPECT_EQ(out, PatternPage(4));
}

/// A three-page store exactly as the FILE*-based pager wrote it (format
/// version 2): the 64-byte header, then per page the pattern payload and
/// the footer {magic "VJPG", page id, payload CRC32, 0}. The checksums are
/// literals captured from that writer, not recomputed here.
std::vector<uint8_t> LegacyStoreBytes() {
  const uint8_t header[Pager::kHeaderSize] = {
      0x56, 0x4A, 0x50, 0x41, 0x47, 0x45, 0x52, 0x46, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x10, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x3E, 0xB2, 0xCF, 0x74};
  const uint32_t page_crcs[3] = {0x2D1E12CDu, 0xBCC902B3u, 0x654AA357u};
  std::vector<uint8_t> bytes(header, header + Pager::kHeaderSize);
  for (uint32_t p = 0; p < 3; ++p) {
    std::vector<uint8_t> payload = PatternPage(p);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    const uint32_t footer[4] = {0x47504A56u, p, page_crcs[p], 0};
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(footer);
    bytes.insert(bytes.end(), raw, raw + sizeof(footer));
  }
  return bytes;
}

std::vector<uint8_t> ReadWholeFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

// The on-disk format did not move: a store written by the earlier stdio
// pager reopens and reads clean, and writing the same pages today produces
// the same bytes.
TEST(PagerTest, LegacyStoreReopensAndWritesIdenticalBytes) {
  const std::vector<uint8_t> legacy = LegacyStoreBytes();
  const std::string path = TempPath("pager_legacy.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(legacy.data(), 1, legacy.size(), f), legacy.size());
    std::fclose(f);
  }
  {
    Pager pager(path, Pager::Mode::kReadOnly);
    ASSERT_TRUE(pager.init_status().ok()) << pager.init_status().ToString();
    ASSERT_EQ(pager.page_count(), 3u);
    std::vector<uint8_t> out(Pager::kPageSize);
    for (uint32_t p = 0; p < 3; ++p) {
      ASSERT_TRUE(pager.ReadPage(p, out.data()).ok());
      EXPECT_EQ(out, PatternPage(p));
      EXPECT_TRUE(pager.VerifyPage(p, nullptr).ok());
    }
  }
  const std::string fresh = TempPath("pager_fresh.db");
  {
    Pager pager(fresh, Pager::Mode::kPersist);
    for (uint32_t p = 0; p < 3; ++p) {
      storage::PageId id = *pager.AllocatePage();
      ASSERT_TRUE(pager.WritePage(id, PatternPage(p).data()).ok());
    }
    ASSERT_TRUE(pager.Close().ok());
  }
  EXPECT_EQ(ReadWholeFile(fresh), legacy);
  std::remove(path.c_str());
  std::remove(fresh.c_str());
}

TEST(BufferPoolTest, CachesAndEvictsLru) {
  Pager pager(TempPath("pool_lru.db"));
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, 4);
  // One shard so the pool behaves as one exact global LRU.
  BufferPool pool(&pager, 2, /*shards=*/1);
  ASSERT_EQ(pool.shard_count(), 1u);
  EXPECT_EQ(PageTag(&pool, 0, key), 0u);
  EXPECT_EQ(PageTag(&pool, 1, key), 1u);
  EXPECT_EQ(PageTag(&pool, 0, key), 0u);  // hit
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
  PageTag(&pool, 2, key);  // evicts page 1 (LRU)
  uint64_t version = pool.eviction_version();
  EXPECT_GT(version, 0u);
  PageTag(&pool, 0, key);  // still cached
  EXPECT_EQ(pool.hits(), 2u);
  PageTag(&pool, 1, key);  // miss again
  EXPECT_EQ(pool.misses(), 4u);
}

TEST(BufferPoolTest, ShardCountRoundsToPowerOfTwoWithinCapacity) {
  Pager pager(TempPath("pool_shards.db"));
  testing::WriteTaggedPages(&pager, 1);
  BufferPool six(&pager, 64, /*shards=*/6);
  EXPECT_EQ(six.shard_count(), 4u);  // floor to a power of two
  BufferPool tiny(&pager, 3);        // default 8 shards, capped by capacity
  EXPECT_EQ(tiny.shard_count(), 2u);
  BufferPool one(&pager, 1);
  EXPECT_EQ(one.shard_count(), 1u);
}

TEST(BufferPoolTest, CapacityZeroIsRejected) {
  Pager pager(TempPath("pool_zero.db"));
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, 1);
  BufferPool pool(&pager, 0);
  // The read latches the error and hands back sentinels, caching nothing.
  std::vector<uint32_t> scratch;
  BufferPool::PinnedPage pin = pool.GetDecoded(0, key, &scratch);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.values()[0], 0xFFFFFFFFu);
  EXPECT_EQ(pool.error().code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(pool.Contains(0));
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, PinHeldPageSurvivesEvictionPressure) {
  Pager pager(TempPath("pool_pin.db"));
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, 16);
  BufferPool pool(&pager, 2, /*shards=*/1);
  std::vector<uint32_t> scratch;
  BufferPool::PinnedPage held = pool.GetDecoded(3, key, &scratch);
  ASSERT_TRUE(held.valid());
  const uint32_t* values = held.values();
  // Thrash far past capacity; the pinned frame must neither move nor vanish.
  for (int round = 0; round < 3; ++round) {
    for (storage::PageId p = 0; p < 16; ++p) {
      if (p != 3) {
        EXPECT_EQ(PageTag(&pool, p, key), p);
      }
    }
  }
  EXPECT_GT(pool.eviction_version(), 0u);
  EXPECT_EQ(held.values(), values);
  EXPECT_EQ(held.values()[0], 3u);
  // Copying re-pins: the copy keeps the frame alive after the original dies.
  BufferPool::PinnedPage copy = held;
  held.Release();
  for (storage::PageId p = 0; p < 16; ++p) PageTag(&pool, p, key);
  EXPECT_EQ(copy.values(), values);
  EXPECT_EQ(copy.values()[0], 3u);
}

TEST(BufferPoolTest, ConcurrentOverlappingFetches) {
  Pager pager(TempPath("pool_conc.db"));
  constexpr int kPages = 32;
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, kPages);
  // Tiny per-shard capacity so threads race on eviction constantly.
  BufferPool pool(&pager, 4, /*shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t> scratch;
      for (int i = 0; i < kIters; ++i) {
        storage::PageId page =
            static_cast<storage::PageId>((i * 7 + t * 13) % kPages);
        BufferPool::PinnedPage pin = pool.GetDecoded(page, key, &scratch);
        if (!pin.valid() || pin.values()[0] != page) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(pool.error().ok());
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(BufferPoolTest, ErrorScopeIsolatesLatchesPerThread) {
  Pager pager(TempPath("pool_scope.db"));
  const storage::DecodeKey key = testing::WriteTaggedPages(&pager, 4);
  BufferPool pool(&pager, 4);
  constexpr storage::PageId kBadPage = 999;  // beyond the file
  std::atomic<bool> faulting_saw_error{false};
  std::atomic<bool> clean_saw_error{false};
  std::thread faulting([&] {
    BufferPool::ErrorScope scope(&pool);
    for (int i = 0; i < 100; ++i) PageTag(&pool, i % 4, key);
    PageTag(&pool, kBadPage, key);
    faulting_saw_error =
        !scope.error().ok() && scope.error_page() == kBadPage;
  });
  std::thread clean([&] {
    BufferPool::ErrorScope scope(&pool);
    for (int i = 0; i < 100; ++i) PageTag(&pool, i % 4, key);
    clean_saw_error = !scope.error().ok();
  });
  faulting.join();
  clean.join();
  EXPECT_TRUE(faulting_saw_error.load());
  EXPECT_FALSE(clean_saw_error.load());
  // Scoped faults never leak into the pool-global latch.
  EXPECT_TRUE(pool.error().ok());
  // Without a scope the same fault latches globally; Clear() resets it.
  EXPECT_EQ(PageTag(&pool, kBadPage, key), 0xFFFFFFFFu);
  EXPECT_FALSE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), kBadPage);
  pool.Clear();
  EXPECT_TRUE(pool.error().ok());
  EXPECT_EQ(pool.error_page(), storage::kInvalidPage);
}

TEST(StoredListTest, PageDirectoryLocatesEntries) {
  // Three pages of 341, 300 and 359 records at pager pages 3, 4, 5.
  StoredList list;
  list.count = 1000;
  list.page_first_entry = {0, 341, 641};
  list.page_first_start = {10, 2000, 5000};
  list.AssignRun(3);
  EXPECT_EQ(list.PageSpan(), 3u);
  EXPECT_EQ(list.pages, (std::vector<storage::PageId>{3, 4, 5}));
  EXPECT_TRUE(list.DirectoryValid());
  EXPECT_EQ(list.PageIndexOf(0), 0u);
  EXPECT_EQ(list.PageIndexOf(340), 0u);
  EXPECT_EQ(list.PageIndexOf(341), 1u);
  EXPECT_EQ(list.PageIndexOf(999), 2u);
  EXPECT_EQ(list.RecordsOnPage(1), 300u);
  EXPECT_EQ(list.RecordsOnPage(2), 359u);
  EXPECT_EQ(list.DecodeKeyOf(1).first_entry, 341u);
  // A directory that would send cursors to arbitrary records is invalid.
  StoredList bad = list;
  bad.page_first_entry[1] = 0;
  EXPECT_FALSE(bad.DirectoryValid());
  bad = list;
  bad.page_first_start[2] = 5;
  EXPECT_FALSE(bad.DirectoryValid());
  bad = list;
  bad.page_first_entry.back() = 1000;
  EXPECT_FALSE(bad.DirectoryValid());
}

class MaterializeTest : public ::testing::Test {
 protected:
  // Document with recursive 'a' nesting and multi-match nodes.
  MaterializeTest()
      : doc_(MakeDoc("r(a(b(c) a(b(c c)) b) a(x(b(c))) b(c))")),
        catalog_(TempPath("mat.db"), 64) {}

  xml::Document doc_;
  ViewCatalog catalog_;
};

TEST_F(MaterializeTest, ElementSchemeListsAreSolutionNodes) {
  tpq::TreePattern v = MustParse("//a//b//c");
  const MaterializedView* view = catalog_.Materialize(doc_, v, Scheme::kElement);
  tpq::NaiveEvaluator eval(doc_, v);
  std::vector<std::vector<NodeId>> expected = eval.SolutionNodes();
  for (size_t q = 0; q < v.size(); ++q) {
    ListCursor cursor(&view->list(static_cast<int>(q)), catalog_.pool());
    ASSERT_EQ(cursor.size(), expected[q].size());
    for (size_t i = 0; !cursor.AtEnd(); cursor.Next(), ++i) {
      EXPECT_EQ(cursor.LabelAt(), doc_.NodeLabel(expected[q][i]));
    }
    EXPECT_EQ(view->ListLength(static_cast<int>(q)), expected[q].size());
  }
  EXPECT_EQ(view->PointerCount(), 0u);
  EXPECT_EQ(view->SizeBytes(), 12u * (view->ListLength(0) +
                                      view->ListLength(1) +
                                      view->ListLength(2)));
}

TEST_F(MaterializeTest, TupleSchemeMatchesSortedMatches) {
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* view = catalog_.Materialize(doc_, v, Scheme::kTuple);
  std::vector<tpq::Match> matches = tpq::NaiveEvaluator(doc_, v).Collect();
  tpq::SortMatches(&matches);
  ASSERT_EQ(view->MatchCount(), matches.size());
  ListCursor cursor(&view->tuple_list(), catalog_.pool());
  uint32_t prev_start = 0;
  for (size_t t = 0; !cursor.AtEnd(); cursor.Next(), ++t) {
    EXPECT_EQ(cursor.LabelAt(0), doc_.NodeLabel(matches[t][0]));
    EXPECT_EQ(cursor.LabelAt(1), doc_.NodeLabel(matches[t][1]));
    EXPECT_GE(cursor.LabelAt(0).start, prev_start);  // composite key order
    prev_start = cursor.LabelAt(0).start;
  }
}

TEST_F(MaterializeTest, TupleSchemeDuplicatesRecurringNodes) {
  // With recursive 'a's, one b can occur in several (a,b) tuples while the
  // element lists stay duplicate-free — the paper's core redundancy point.
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* tuple = catalog_.Materialize(doc_, v, Scheme::kTuple);
  const MaterializedView* element =
      catalog_.Materialize(doc_, v, Scheme::kElement);
  EXPECT_GT(tuple->MatchCount(),
            static_cast<uint64_t>(element->ListLength(1)));
}

TEST_F(MaterializeTest, LinkedElementPointersAreCorrect) {
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* view =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  ListCursor a_cursor(&view->list(0), catalog_.pool());
  ListCursor b_cursor(&view->list(1), catalog_.pool());

  std::vector<Label> a_labels;
  for (a_cursor.Reset(); !a_cursor.AtEnd(); a_cursor.Next()) {
    a_labels.push_back(a_cursor.LabelAt());
  }
  std::vector<Label> b_labels;
  for (b_cursor.Reset(); !b_cursor.AtEnd(); b_cursor.Next()) {
    b_labels.push_back(b_cursor.LabelAt());
  }

  for (EntryIndex i = 0; i < a_labels.size(); ++i) {
    a_cursor.Seek(i);
    // Following: first entry starting after this one ends.
    EntryIndex follow = a_cursor.Following();
    EntryIndex expect_follow = kNullEntry;
    for (EntryIndex j = i + 1; j < a_labels.size(); ++j) {
      if (a_labels[j].start > a_labels[i].end) {
        expect_follow = j;
        break;
      }
    }
    EXPECT_EQ(follow, expect_follow) << "entry " << i;
    // Descendant: next entry iff nested.
    EntryIndex desc = a_cursor.Descendant();
    if (i + 1 < a_labels.size() && a_labels[i + 1].start < a_labels[i].end) {
      EXPECT_EQ(desc, i + 1);
    } else {
      EXPECT_EQ(desc, kNullEntry);
    }
    // Child pointer: first b entry inside this a.
    EntryIndex child = a_cursor.Child(0);
    ASSERT_NE(child, kNullEntry);
    EXPECT_GT(b_labels[child].start, a_labels[i].start);
    EXPECT_LT(b_labels[child].end, a_labels[i].end);
    for (EntryIndex j = 0; j < child; ++j) {
      EXPECT_FALSE(b_labels[j].start > a_labels[i].start &&
                   b_labels[j].end < a_labels[i].end)
          << "child pointer skipped an earlier descendant";
    }
  }
}

TEST_F(MaterializeTest, PcChildPointerRespectsLevels) {
  tpq::TreePattern v = MustParse("//b/c");
  const MaterializedView* view =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  ListCursor b_cursor(&view->list(0), catalog_.pool());
  ListCursor c_cursor(&view->list(1), catalog_.pool());
  for (b_cursor.Reset(); !b_cursor.AtEnd(); b_cursor.Next()) {
    EntryIndex child = b_cursor.Child(0);
    ASSERT_NE(child, kNullEntry);
    c_cursor.Seek(child);
    EXPECT_EQ(c_cursor.LabelAt().level, b_cursor.LabelAt().level + 1);
  }
}

TEST_F(MaterializeTest, PartialSchemeDropsAdjacentPointers) {
  tpq::TreePattern v = MustParse("//a//b");
  const MaterializedView* full =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  const MaterializedView* partial =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElementPartial);
  EXPECT_LT(partial->PointerCount(), full->PointerCount());
  EXPECT_LT(partial->SizeBytes(), full->SizeBytes());
  // LE_p never materializes descendant pointers (always adjacent) and only
  // keeps following pointers that jump at least two entries.
  ListCursor cursor(&partial->list(0), catalog_.pool());
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    EXPECT_EQ(cursor.Descendant(), kNullEntry);
    EntryIndex follow = cursor.Following();
    if (follow != kNullEntry) {
      EXPECT_GT(follow, cursor.index() + 1);
    }
    // Child pointers always survive.
    EXPECT_NE(cursor.Child(0), kNullEntry);
  }
}

TEST_F(MaterializeTest, SchemeSizeOrdering) {
  // E is smallest; LE_p smaller than LE (paper Table IV).
  tpq::TreePattern v = MustParse("//a//b//c");
  uint64_t e = catalog_.Materialize(doc_, v, Scheme::kElement)->SizeBytes();
  uint64_t le = catalog_.Materialize(doc_, v, Scheme::kLinkedElement)->SizeBytes();
  uint64_t lep =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElementPartial)->SizeBytes();
  EXPECT_LT(e, lep);
  EXPECT_LE(lep, le);
}

TEST_F(MaterializeTest, EmptyViewHasEmptyLists) {
  tpq::TreePattern v = MustParse("//a//zzz");
  const MaterializedView* view =
      catalog_.Materialize(doc_, v, Scheme::kLinkedElement);
  EXPECT_EQ(view->ListLength(0), 0u);
  EXPECT_EQ(view->ListLength(1), 0u);
  ListCursor cursor(&view->list(0), catalog_.pool());
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(MaterializeLargeTest, MultiPageListsReadBackCorrectly) {
  // Enough nodes to span several pages per list.
  xml::Document doc;
  doc.StartElement("root");
  for (int i = 0; i < 2000; ++i) {
    doc.StartElement("a");
    doc.StartElement("b");
    doc.EndElement();
    doc.EndElement();
  }
  doc.EndElement();
  ViewCatalog catalog(TempPath("mat_large.db"), 4);  // tiny pool forces evictions
  tpq::TreePattern v = MustParse("//a/b");
  const MaterializedView* view =
      catalog.Materialize(doc, v, Scheme::kLinkedElement);
  ASSERT_EQ(view->ListLength(0), 2000u);
  ListCursor cursor(&view->list(0), catalog.pool());
  uint32_t prev = 0;
  ListCursor b_cursor(&view->list(1), catalog.pool());
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    Label label = cursor.LabelAt();
    EXPECT_GT(label.start, prev);
    prev = label.start;
    EntryIndex child = cursor.Child(0);
    b_cursor.Seek(child);
    EXPECT_EQ(b_cursor.LabelAt().level, label.level + 1);
  }
  EXPECT_GT(catalog.pool()->eviction_version(), 0u);
}

// A query's first run decodes each delta page it lands on once; a warm
// repeat finds every page decoded in the pool and decodes none. EXPLAIN's
// decoded column carries the count per step.
TEST(DecodedPoolTest, WarmRepeatOfAQueryDecodesNoPages) {
  util::Rng rng(29);
  xml::Document doc = testing::RandomDoc(&rng, 6000, {"a", "b", "c", "d"});
  core::Engine engine(&doc, TempPath("warm_decode.db"));
  tpq::TreePattern query = MustParse("//a//b[//c]//d");
  std::vector<const MaterializedView*> views = {
      engine.AddView("//a//b", Scheme::kLinkedElement),
      engine.AddView("//c", Scheme::kElement),
      engine.AddView("//d", Scheme::kLinkedElement),
  };
  for (core::Algorithm algorithm :
       {core::Algorithm::kTwigStack, core::Algorithm::kViewJoin}) {
    core::RunOptions cold;
    cold.algorithm = algorithm;
    cold.cold_cache = true;
    core::RunResult first = engine.Execute(query, views, cold);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_GT(first.io.pages_decoded, 0u);
    EXPECT_LE(first.io.pages_decoded, first.io.pool_misses);

    core::RunOptions warm = cold;
    warm.cold_cache = false;
    core::RunResult second = engine.Execute(query, views, warm);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.result_hash, first.result_hash);
    EXPECT_EQ(second.io.pages_decoded, 0u);
    EXPECT_EQ(second.io.pool_misses, 0u);
    EXPECT_GT(second.io.pool_hits, 0u);
    EXPECT_EQ(second.io.decode_mismatches, 0u);

    uint64_t step_decodes = 0;
    for (const plan::PlanStep& step : first.plan.steps) {
      step_decodes += step.stats.pages_decoded;
    }
    EXPECT_EQ(step_decodes, first.io.pages_decoded);
    EXPECT_NE(first.plan.ToString().find("decoded"), std::string::npos);
  }
}

// ---- The File layer ---------------------------------------------------------

std::string FileText(const std::string& path) {
  util::StatusOr<std::vector<uint8_t>> bytes = storage::ReadWholeFile(path);
  return bytes.ok() ? std::string(bytes->begin(), bytes->end()) : "<missing>";
}

// Every way a replacement can fail before its rename leaves the old file
// byte-identical and no tmp file; a failed directory sync after the rename
// reports failure with the new bytes in place and says it renamed.
TEST(FileTest, FailedReplaceLeavesTheOldFileAndNoTmp) {
  const std::string path = TempPath("file_replace.txt");
  ASSERT_TRUE(storage::WriteFile(path, "old bytes", 9).ok());
  auto write_new = [](File& file) { return file.Append("new bytes!", 10); };
  struct Case {
    const char* name;
    std::function<void(util::FaultInjector&)> arm;
    std::function<util::Status(File&)> write;
  };
  const Case failing[] = {
      {"writer error", [](util::FaultInjector&) {},
       [](File& file) {
         (void)file.Append("partial", 7);
         return util::Status::IoError("writer gave up");
       }},
      {"full disk", [](util::FaultInjector& fi) { fi.ArmDiskBudget(4); },
       write_new},
  };
  for (const Case& c : failing) {
    SCOPED_TRACE(c.name);
    util::ScopedFaultInjection fi;
    c.arm(*fi);
    bool renamed = true;
    util::Status replaced =
        storage::ReplaceFileDurably(path, c.write, &renamed);
    EXPECT_FALSE(replaced.ok());
    EXPECT_FALSE(renamed);
    EXPECT_EQ(FileText(path), "old bytes");
    EXPECT_FALSE(storage::FileExists(path + ".tmp"));
  }
  {
    util::ScopedFaultInjection fi;
    fi->ArmFlushFault(1);
    bool renamed = false;
    util::Status replaced =
        storage::ReplaceFileDurably(path, write_new, &renamed);
    EXPECT_FALSE(replaced.ok());
    EXPECT_NE(replaced.message().find("directory"), std::string::npos)
        << replaced.ToString();
    EXPECT_TRUE(renamed);
    EXPECT_EQ(FileText(path), "new bytes!");
    EXPECT_FALSE(storage::FileExists(path + ".tmp"));
  }
  storage::RemoveFile(path);
}

// A torn write at the armed crash point lands exactly the first half of the
// bytes and marks the handle crashed; a replacement torn that way keeps its
// tmp file, as a killed process would.
TEST(FileTest, TornWriteAtTheCrashPointLeavesExactlyHalf) {
  const std::string path = TempPath("file_torn.bin");
  util::ScopedFaultInjection fi;
  fi->ArmCrashPoint(util::CrashPoint::kCrashMidJournal);
  util::StatusOr<File> file = File::Open(path, File::Mode::kCreate);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(file->Append("head", 4).ok());
  util::Status torn = file->Append("0123456789", 10,
                                   util::CrashPoint::kCrashMidJournal);
  EXPECT_EQ(torn.code(), util::StatusCode::kIoError);
  EXPECT_NE(torn.message().find("injected crash"), std::string::npos);
  EXPECT_TRUE(file->crashed());
  EXPECT_EQ(fi->injected_crashes(), 1u);
  EXPECT_EQ(FileText(path), "head01234");

  fi->ArmCrashPoint(util::CrashPoint::kCrashMidCompaction);
  const std::string replaced = TempPath("file_torn_replace.bin");
  ASSERT_TRUE(storage::WriteFile(replaced, "kept", 4).ok());
  // The tmp file buffers its appends; the tear lands them first.
  util::Status status = storage::ReplaceFileDurably(replaced, [](File& tmp) {
    util::Status head = tmp.Append("xy", 2);
    if (!head.ok()) return head;
    return tmp.Append("abcdef", 6, util::CrashPoint::kCrashMidCompaction);
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(FileText(replaced), "kept");
  EXPECT_EQ(FileText(replaced + ".tmp"), "xyabc");
  for (const std::string& p : {path, replaced, replaced + ".tmp"}) {
    storage::RemoveFile(p);
  }
}

}  // namespace
}  // namespace viewjoin
