// Block-at-a-time cursor tests: the SIMD scan kernels against scalar
// references, the overflow-safe gallop helper, the delta codec round trip,
// the buffer pool's decoded frames (fill once, key checks, discard,
// read-ahead, sentinel pages, concurrent cold landings), randomized
// differential checks of stored-list cursors against the source label
// arrays and a memory-mode cursor over them, the wide-fan-out
// materialization guard, abort soundness of the skip primitives, and
// fsck's verification of list pages.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fsck.h"
#include "storage/list_codec.h"
#include "storage/list_search.h"
#include "storage/materialized_view.h"
#include "storage/pager.h"
#include "storage/simd_scan.h"
#include "storage/stored_list.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace viewjoin {
namespace {

using storage::BufferPool;
using storage::DecodeKey;
using storage::EntryIndex;
using storage::GallopLowerBound;
using storage::GallopResult;
using storage::kNullEntry;
using storage::ListCursor;
using storage::MaterializedView;
using storage::PageId;
using storage::Pager;
using storage::RecordLayout;
using storage::Scheme;
using storage::SeekOutcome;
using storage::StoredList;
using storage::ViewCatalog;
using testing::MustParse;
using xml::Label;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// ---- SIMD scan kernels ------------------------------------------------------

TEST(SimdScanTest, MatchesScalarReferenceOnRandomInputs) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Sizes straddle the vector width and its tail-handling boundaries.
    uint32_t n = rng.Uniform(70);
    std::vector<uint32_t> values(n);
    for (uint32_t& value : values) value = rng.Uniform(1000);
    uint32_t bound = rng.Uniform(1100);
    uint32_t first_ge = n;
    for (uint32_t i = 0; i < n; ++i) {
      if (values[i] >= bound) {
        first_ge = i;
        break;
      }
    }
    EXPECT_EQ(storage::simd::FirstGe(values.data(), n, bound), first_ge);

    std::sort(values.begin(), values.end());
    uint32_t lower = static_cast<uint32_t>(
        std::lower_bound(values.begin(), values.end(), bound) -
        values.begin());
    uint32_t upper = static_cast<uint32_t>(
        std::upper_bound(values.begin(), values.end(), bound) -
        values.begin());
    EXPECT_EQ(storage::simd::LowerBoundGe(values.data(), n, bound), lower);
    EXPECT_EQ(storage::simd::LowerBoundGt(values.data(), n, bound), upper);
  }
}

TEST(SimdScanTest, ExtremeValuesNeedNoSignedShortcuts) {
  // Values above INT32_MAX break sign-compare SIMD tricks unless the
  // unsigned bias is applied; sentinel bounds must also behave.
  std::vector<uint32_t> values = {5, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  EXPECT_EQ(storage::simd::FirstGe(values.data(), 5, 0x80000000u), 2u);
  EXPECT_EQ(storage::simd::FirstGe(values.data(), 5, 0xFFFFFFFFu), 4u);
  EXPECT_EQ(storage::simd::FirstGt(values.data(), 5, 0xFFFFFFFFu), 5u);
  EXPECT_EQ(storage::simd::FirstGt(values.data(), 5, 0u), 0u);
  EXPECT_EQ(storage::simd::LowerBoundGe(values.data(), 5, 0xFFFFFFFFu), 4u);
  EXPECT_EQ(storage::simd::LowerBoundGt(values.data(), 5, 0xFFFFFFFFu), 5u);
}

// ---- Overflow-safe gallop ---------------------------------------------------

TEST(GallopTest, ProbePositionsCannotOverflowNearUint32Max) {
  // A naive `lo + step` gallop wraps once step doubles past the uint32
  // range and either loops forever or probes garbage positions. The helper
  // must land exactly, in O(log) probes, over an index space this large.
  constexpr uint32_t kSize = 0xFFFFFFF0u;
  constexpr uint32_t kTarget = 0xFFFFFFE7u;
  auto below = [](uint32_t i) { return i < kTarget; };
  uint64_t probes = 0;
  auto count = [&probes] {
    ++probes;
    return false;
  };
  GallopResult r = GallopLowerBound(0, kSize, below, count);
  EXPECT_EQ(r.pos, kTarget);
  EXPECT_FALSE(r.aborted);
  EXPECT_LT(probes, 80u);

  // Starting just under the target: one doubling already overshoots kSize.
  probes = 0;
  r = GallopLowerBound(kTarget - 3, kSize, below, count);
  EXPECT_EQ(r.pos, kTarget);
  EXPECT_FALSE(r.aborted);

  // Target at the very end and past-the-end starts.
  auto all_below = [](uint32_t) { return true; };
  EXPECT_EQ(GallopLowerBound(0, kSize, all_below, count).pos, kSize);
  EXPECT_EQ(GallopLowerBound(kSize, kSize, all_below, count).pos, kSize);
}

TEST(GallopTest, AbortStopsImmediatelyWithAProvenBound) {
  constexpr uint32_t kTarget = 100000;
  auto below = [](uint32_t i) { return i < kTarget; };
  for (uint64_t budget : {1u, 2u, 3u, 5u, 9u}) {
    uint64_t probes = 0;
    auto limited = [&] { return ++probes > budget; };
    GallopResult r = GallopLowerBound(0, 1u << 20, below, limited);
    ASSERT_TRUE(r.aborted) << "budget " << budget;
    EXPECT_LE(probes, budget + 1);
    // The returned position must not skip past any entry >= the target:
    // every index below it tested (or provably is) below.
    EXPECT_LE(r.pos, kTarget);
  }
}

// ---- Delta codec ------------------------------------------------------------

/// Builds a random fixed-layout record blob with sorted label-0 starts,
/// occasional duplicate starts, and pointers mixing nulls, self-area
/// references, and far jumps — the shapes the zigzag encoder must survive.
std::vector<uint8_t> RandomRecords(util::Rng* rng, uint32_t count,
                                   const RecordLayout& layout) {
  std::vector<uint8_t> bytes;
  bytes.reserve(static_cast<size_t>(count) * layout.RecordSize());
  uint32_t start = rng->Uniform(100);
  for (uint32_t i = 0; i < count; ++i) {
    // Tuple records may open before the previous record's later labels:
    // go backwards sometimes to exercise negative deltas.
    uint32_t record_start = start;
    for (uint32_t k = 0; k < layout.label_count; ++k) {
      uint32_t s = record_start + rng->Uniform(50);
      uint32_t e = s + rng->Uniform(1000);
      uint32_t level = rng->Uniform(64);
      for (uint32_t field : {s, e, level}) {
        bytes.insert(bytes.end(), reinterpret_cast<uint8_t*>(&field),
                     reinterpret_cast<uint8_t*>(&field) + 4);
      }
    }
    for (uint32_t p = 0; p < layout.PointerSlots(); ++p) {
      uint32_t ptr = rng->Uniform(4) == 0 ? kNullEntry : rng->Uniform(count);
      bytes.insert(bytes.end(), reinterpret_cast<uint8_t*>(&ptr),
                   reinterpret_cast<uint8_t*>(&ptr) + 4);
    }
    start += rng->Uniform(30);
  }
  return bytes;
}

TEST(DeltaCodecTest, RoundTripsEveryLayout) {
  util::Rng rng(11);
  std::vector<RecordLayout> layouts(4);
  layouts[0] = {1, false, 0};  // E
  layouts[1] = {1, true, 0};   // LE, leaf (no child pointers)
  layouts[2] = {1, true, 3};   // LE, three pc/ad children
  layouts[3] = {4, false, 0};  // tuple, arity 4
  for (const RecordLayout& layout : layouts) {
    for (uint32_t count : {1u, 7u, 1000u, 5000u}) {
      std::vector<uint8_t> blob = RandomRecords(&rng, count, layout);
      auto encoded = storage::EncodeDeltaList(blob.data(), count, layout);
      ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
      ASSERT_EQ(encoded->page_first_entry.size(), encoded->pages.size());
      ASSERT_EQ(encoded->page_first_start.size(), encoded->pages.size());
      EXPECT_EQ(encoded->page_first_entry.front(), 0u);

      const uint32_t record_size = layout.RecordSize();
      for (size_t p = 0; p < encoded->pages.size(); ++p) {
        uint32_t first = encoded->page_first_entry[p];
        uint32_t next = p + 1 < encoded->pages.size()
                            ? encoded->page_first_entry[p + 1]
                            : count;
        uint32_t records = next - first;
        std::vector<uint32_t> starts(records * layout.label_count);
        std::vector<uint32_t> ends(starts.size());
        std::vector<uint32_t> levels(starts.size());
        std::vector<uint32_t> pointers(records * layout.PointerSlots());
        ASSERT_TRUE(storage::DecodeDeltaPage(
                        encoded->pages[p].data(), layout, first, records,
                        starts.data(), ends.data(), levels.data(),
                        layout.has_pointers ? pointers.data() : nullptr)
                        .ok());
        for (uint32_t r = 0; r < records; ++r) {
          const uint8_t* rec = blob.data() +
                               static_cast<size_t>(first + r) * record_size;
          for (uint32_t k = 0; k < layout.label_count; ++k) {
            uint32_t s, e, level;
            std::memcpy(&s, rec + 12 * k, 4);
            std::memcpy(&e, rec + 12 * k + 4, 4);
            std::memcpy(&level, rec + 12 * k + 8, 4);
            ASSERT_EQ(starts[r * layout.label_count + k], s);
            ASSERT_EQ(ends[r * layout.label_count + k], e);
            ASSERT_EQ(levels[r * layout.label_count + k], level);
          }
          for (uint32_t pt = 0; pt < layout.PointerSlots(); ++pt) {
            uint32_t expected;
            std::memcpy(&expected,
                        rec + 12 * layout.label_count + 4 * pt, 4);
            ASSERT_EQ(pointers[r * layout.PointerSlots() + pt], expected);
          }
        }
        if (records > 0) {
          EXPECT_EQ(encoded->page_first_start[p], starts[0]);
        }
      }
    }
  }
}

TEST(DeltaCodecTest, GarbagePageIsRejectedNotMisdecoded) {
  RecordLayout layout{1, true, 1};
  std::vector<uint8_t> page(Pager::kPageSize, 0);
  std::vector<uint32_t> scratch(4096);
  // All-zero page: record count 0 disagrees with any expected count.
  EXPECT_FALSE(storage::DecodeDeltaPage(page.data(), layout, 0, 5,
                                        scratch.data(), scratch.data(),
                                        scratch.data(), scratch.data())
                   .ok());
  // A varint whose continuation bits never end must be rejected, not read
  // past the page.
  std::fill(page.begin(), page.end(), 0x80);
  page[0] = 1;  // record_count = 1
  page[1] = 0;
  page[2] = 0;  // flags = 0
  page[3] = 0;
  EXPECT_FALSE(storage::DecodeDeltaPage(page.data(), layout, 0, 1,
                                        scratch.data(), scratch.data(),
                                        scratch.data(), scratch.data())
                   .ok());
}

/// Decodes `page` (exactly one heap-allocated page, so ASan flags any read
/// past it) as `expected` records of `layout`.
util::Status DecodeWholePage(const std::vector<uint8_t>& page,
                             const RecordLayout& layout, uint32_t expected,
                             std::vector<uint32_t>* levels = nullptr) {
  EXPECT_EQ(page.size(), Pager::kPageSize);
  size_t labels = static_cast<size_t>(expected) * layout.label_count;
  std::vector<uint32_t> starts(labels), ends(labels), own_levels(labels);
  std::vector<uint32_t> pointers(static_cast<size_t>(expected) *
                                 layout.PointerSlots());
  std::vector<uint32_t>* out_levels = levels != nullptr ? levels : &own_levels;
  out_levels->assign(labels, 0);
  return storage::DecodeDeltaPage(
      page.data(), layout, 0, expected, starts.data(), ends.data(),
      out_levels->data(), layout.has_pointers ? pointers.data() : nullptr);
}

std::vector<uint8_t> PageWithCount(uint16_t count, uint8_t fill) {
  std::vector<uint8_t> page(Pager::kPageSize, fill);
  std::memcpy(page.data(), &count, 2);
  page[2] = 0;
  page[3] = 0;
  return page;
}

TEST(DeltaCodecTest, VarintsAtThePageEdgeAreBoundsChecked) {
  const RecordLayout layout{1, false, 0};  // 3 varints per record
  const uint32_t body = Pager::kPageSize - 4;
  // 1362 one-byte records, then one whose level is a 4-byte varint ending
  // on the last byte of the page: valid.
  const uint32_t records = (body - 6) / 3 + 1;
  std::vector<uint8_t> page = PageWithCount(static_cast<uint16_t>(records), 0);
  const uint8_t last[6] = {0x02, 0x00, 0x81, 0x80, 0x80, 0x01};
  std::memcpy(page.data() + Pager::kPageSize - 6, last, 6);
  std::vector<uint32_t> levels;
  util::Status ok = DecodeWholePage(page, layout, records, &levels);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(levels.back(), 1u + (1u << 21));

  // The same varint still continuing at the page end runs past it.
  page[Pager::kPageSize - 1] = 0x81;
  EXPECT_EQ(DecodeWholePage(page, layout, records).code(),
            util::StatusCode::kCorruption);

  // One record more than the page holds starts exactly at kPageSize.
  page = PageWithCount(static_cast<uint16_t>(body / 3 + 1), 0);
  EXPECT_EQ(DecodeWholePage(page, layout, body / 3).code(),
            util::StatusCode::kCorruption);  // count mismatch
  EXPECT_EQ(DecodeWholePage(page, layout, body / 3 + 1).code(),
            util::StatusCode::kCorruption);  // truncated varint
}

TEST(DeltaCodecTest, AllContinuationBytesPageIsCorruption) {
  // Header included: the record count reads as 0x8080, and every varint
  // after it is longer than ten bytes.
  std::vector<uint8_t> page(Pager::kPageSize, 0x80);
  for (const RecordLayout& layout :
       {RecordLayout{1, false, 0}, RecordLayout{1, true, 2},
        RecordLayout{3, false, 0}}) {
    EXPECT_EQ(DecodeWholePage(page, layout, 0x8080).code(),
              util::StatusCode::kCorruption);
  }
}

TEST(DeltaCodecTest, TruncatedRecordsAreCorruption) {
  util::Rng rng(5);
  for (const RecordLayout& layout :
       {RecordLayout{1, false, 0}, RecordLayout{1, true, 3},
        RecordLayout{2, false, 0}}) {
    std::vector<uint8_t> blob = RandomRecords(&rng, 2000, layout);
    auto encoded = storage::EncodeDeltaList(blob.data(), 2000, layout);
    ASSERT_TRUE(encoded.ok());
    ASSERT_GE(encoded->pages.size(), 2u);
    const uint32_t records = encoded->page_first_entry[1];
    // Cut the first page's records at several points and fill the rest with
    // bytes whose continuation bit never clears.
    for (size_t cut : {5, 100, 1001, 2048, 4000}) {
      std::vector<uint8_t> page = encoded->pages[0];
      std::fill(page.begin() + static_cast<std::ptrdiff_t>(cut), page.end(),
                0xFF);
      EXPECT_EQ(DecodeWholePage(page, layout, records).code(),
                util::StatusCode::kCorruption)
          << "cut at " << cut;
    }
  }
}

// ---- Decoded frames in the buffer pool --------------------------------------

/// A random delta list written to a pager file, one pager page per list
/// page, with its source records and the decode key and reference decode of
/// every page.
struct DeltaFile {
  std::unique_ptr<Pager> pager;
  std::vector<uint8_t> blob;  // the source records (RandomRecords)
  StoredList list;
  std::vector<DecodeKey> keys;
  std::vector<std::vector<uint32_t>> decoded;
};

std::vector<uint32_t> ReferenceDecode(const uint8_t* page,
                                      const DecodeKey& key) {
  std::vector<uint32_t> out(storage::DecodedValues(key.layout, key.records));
  EXPECT_TRUE(storage::DecodeDeltaPage(page, key.layout, key.first_entry,
                                       key.records, out.data())
                  .ok());
  return out;
}

/// With `sorted_starts`, the records are reordered by their first start,
/// the order single-label lists keep and the seek primitives rely on.
DeltaFile WriteDeltaFile(const char* name, const RecordLayout& layout,
                         uint32_t count, uint64_t seed,
                         bool sorted_starts = false) {
  DeltaFile file;
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  file.pager = std::make_unique<Pager>(path);
  util::Rng rng(seed);
  file.blob = RandomRecords(&rng, count, layout);
  if (sorted_starts) {
    const size_t size = layout.RecordSize();
    std::vector<std::vector<uint8_t>> records;
    for (size_t at = 0; at < file.blob.size(); at += size) {
      records.emplace_back(file.blob.begin() + at,
                           file.blob.begin() + at + size);
    }
    auto start = [](const std::vector<uint8_t>& rec) {
      uint32_t s;
      std::memcpy(&s, rec.data(), 4);
      return s;
    };
    std::stable_sort(records.begin(), records.end(),
                     [&](const auto& a, const auto& b) {
                       return start(a) < start(b);
                     });
    file.blob.clear();
    for (const auto& rec : records) {
      file.blob.insert(file.blob.end(), rec.begin(), rec.end());
    }
  }
  auto encoded = storage::EncodeDeltaList(file.blob.data(), count, layout);
  EXPECT_TRUE(encoded.ok());
  file.list.count = count;
  file.list.layout = layout;
  file.list.page_first_entry = encoded->page_first_entry;
  file.list.page_first_start = encoded->page_first_start;
  for (uint32_t p = 0; p < encoded->pages.size(); ++p) {
    auto id = file.pager->AllocatePage();
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(file.pager->WritePage(*id, encoded->pages[p].data()).ok());
    file.list.pages.push_back(*id);
    DecodeKey key = file.list.DecodeKeyOf(p);
    file.keys.push_back(key);
    file.decoded.push_back(ReferenceDecode(encoded->pages[p].data(), key));
  }
  return file;
}

std::vector<uint32_t> Values(const BufferPool::PinnedPage& pin,
                             const DecodeKey& key) {
  EXPECT_NE(pin.values(), nullptr);
  return std::vector<uint32_t>(
      pin.values(),
      pin.values() + storage::DecodedValues(key.layout, key.records));
}

TEST(DecodedFrameTest, WarmFetchesReadTheFrameWithoutDecoding) {
  DeltaFile file = WriteDeltaFile("frame_warm.db", {1, true, 2}, 3000, 41);
  ASSERT_GE(file.list.pages.size(), 3u);
  BufferPool pool(file.pager.get(), 64);
  std::vector<uint32_t> scratch;
  for (size_t p = 0; p < file.list.pages.size(); ++p) {
    BufferPool::PinnedPage pin =
        pool.GetDecoded(file.list.pages[p], file.keys[p], &scratch);
    EXPECT_EQ(Values(pin, file.keys[p]), file.decoded[p]);
  }
  const uint64_t decoded = pool.pages_decoded();
  EXPECT_EQ(decoded, file.list.pages.size());
  EXPECT_EQ(pool.misses(), file.list.pages.size());
  for (int round = 0; round < 3; ++round) {
    for (size_t p = 0; p < file.list.pages.size(); ++p) {
      BufferPool::PinnedPage pin =
          pool.GetDecoded(file.list.pages[p], file.keys[p], &scratch);
      EXPECT_EQ(Values(pin, file.keys[p]), file.decoded[p]);
    }
  }
  EXPECT_EQ(pool.pages_decoded(), decoded) << "a hit must not decode";
  EXPECT_EQ(pool.hits(), 3 * file.list.pages.size());
  EXPECT_EQ(pool.decode_mismatches(), 0u);
  EXPECT_TRUE(scratch.empty()) << "every fetch was served from a frame";

  // A cursor over the list reads the same frames in place.
  BufferPool::StatsScope scope(&pool);
  ListCursor cursor(&file.list, &pool);
  uint64_t entries = 0;
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    const uint32_t p = file.list.PageIndexOf(cursor.index());
    const uint32_t r = cursor.index() - file.keys[p].first_entry;
    EXPECT_EQ(cursor.LabelAt().start, file.decoded[p][r]);
    ++entries;
  }
  EXPECT_EQ(entries, file.list.count);
  EXPECT_EQ(scope.pages_decoded(), 0u);
  EXPECT_EQ(scope.misses(), 0u);
}

// Reset() drops the cursor's pin, so it must drop the block that pin held
// up: a read after Reset on the same page pins the frame again instead of
// reading one nothing pins any more.
TEST(DecodedFrameTest, ResetDropsTheBlockWithItsPin) {
  DeltaFile file = WriteDeltaFile("frame_reset.db", {1, true, 2}, 3000, 47);
  BufferPool pool(file.pager.get(), 64);
  ListCursor cursor(&file.list, &pool);
  EXPECT_EQ(cursor.LabelAt().start, file.decoded[0][0]);
  EXPECT_EQ(pool.pinned_frames(), 1u);
  cursor.Reset();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(cursor.LabelAt().start, file.decoded[0][0]);
  EXPECT_EQ(pool.pinned_frames(), 1u);
}

TEST(DecodedFrameTest, DecodedFramesAreChargedTheirBytes) {
  DeltaFile file = WriteDeltaFile("frame_charge.db", {1, true, 3}, 6000, 43);
  const DecodeKey& key = file.keys.front();
  const size_t bytes =
      storage::DecodedValues(key.layout, key.records) * sizeof(uint32_t);
  const size_t charge = (bytes + Pager::kPageSize - 1) / Pager::kPageSize;
  ASSERT_GE(charge, 2u) << "decoded pages outgrow their raw bytes";
  constexpr size_t kCapacity = 8;
  BufferPool pool(file.pager.get(), kCapacity, /*shards=*/1);
  std::vector<uint32_t> scratch;
  for (size_t p = 0; p < file.list.pages.size(); ++p) {
    (void)pool.GetDecoded(file.list.pages[p], file.keys[p], &scratch);
  }
  size_t resident = 0;
  size_t resident_bytes = 0;
  for (size_t p = 0; p < file.list.pages.size(); ++p) {
    if (!pool.Contains(file.list.pages[p])) continue;
    ++resident;
    resident_bytes += storage::DecodedValues(file.keys[p].layout,
                                             file.keys[p].records) *
                      sizeof(uint32_t);
  }
  EXPECT_GE(resident, 1u);
  EXPECT_LT(resident, kCapacity) << "each frame takes more than one slot";
  EXPECT_LE(resident_bytes, kCapacity * Pager::kPageSize);
  EXPECT_GT(pool.eviction_version(), 0u);
}

TEST(DecodedFrameTest, DiscardAndClearDropDecodedFrames) {
  DeltaFile file = WriteDeltaFile("frame_discard.db", {1, false, 0}, 4000, 47);
  ASSERT_GE(file.list.pages.size(), 3u);
  BufferPool pool(file.pager.get(), 64);
  std::vector<uint32_t> scratch;
  const std::vector<PageId>& pages = file.list.pages;
  for (size_t p = 0; p < pages.size(); ++p) {
    (void)pool.GetDecoded(pages[p], file.keys[p], &scratch);
    ASSERT_TRUE(pool.Contains(pages[p]));
  }
  // A pinned frame survives Discard and is reported; the others go.
  BufferPool::PinnedPage held =
      pool.GetDecoded(pages[1], file.keys[1], &scratch);
  EXPECT_EQ(pool.Discard({pages[0], pages[1]}), std::vector<PageId>{pages[1]});
  EXPECT_FALSE(pool.Contains(pages[0]));
  EXPECT_TRUE(pool.Contains(pages[1]));
  EXPECT_EQ(Values(held, file.keys[1]), file.decoded[1]);
  uint64_t decoded = pool.pages_decoded();
  EXPECT_EQ(Values(pool.GetDecoded(pages[0], file.keys[0], &scratch),
                   file.keys[0]),
            file.decoded[0]);
  EXPECT_EQ(pool.pages_decoded(), decoded + 1) << "a discarded page re-decodes";
  held.Release();
  EXPECT_TRUE(pool.Discard({pages[1]}).empty());
  EXPECT_FALSE(pool.Contains(pages[1]));

  pool.Clear();
  for (PageId page : pages) EXPECT_FALSE(pool.Contains(page));
  decoded = pool.pages_decoded();
  for (size_t p = 0; p < pages.size(); ++p) {
    EXPECT_EQ(Values(pool.GetDecoded(pages[p], file.keys[p], &scratch),
                     file.keys[p]),
              file.decoded[p]);
  }
  EXPECT_EQ(pool.pages_decoded(), decoded + pages.size());
}

TEST(DecodedFrameTest, AnotherKeyNeverServesTheCachedDecode) {
  // Page id 0 first holds page 0 of an LE list, then (reclaimed and reused
  // while a reader still pins the old frame) page 0 of an E list.
  DeltaFile le = WriteDeltaFile("frame_key_le.db", {1, true, 1}, 2000, 53);
  DeltaFile e = WriteDeltaFile("frame_key_e.db", {1, false, 0}, 2000, 59);
  const PageId page = le.list.pages[0];
  BufferPool pool(le.pager.get(), 64);
  std::vector<uint32_t> scratch;
  BufferPool::PinnedPage old_frame =
      pool.GetDecoded(page, le.keys[0], &scratch);
  ASSERT_EQ(pool.Discard({page}), std::vector<PageId>{page});

  // Same bytes, another first entry: pointer deltas resolve differently.
  DecodeKey shifted = le.keys[0];
  shifted.first_entry += 5;
  BufferPool::PinnedPage other = pool.GetDecoded(page, shifted, &scratch);
  std::vector<uint8_t> raw(Pager::kPageSize);
  ASSERT_TRUE(le.pager->ReadPage(page, raw.data()).ok());
  EXPECT_EQ(Values(other, shifted), ReferenceDecode(raw.data(), shifted));
  EXPECT_NE(Values(other, shifted), le.decoded[0]);
  EXPECT_EQ(other.values(), scratch.data()) << "served privately";
  EXPECT_EQ(pool.decode_mismatches(), 1u);

  // New bytes under a new layout.
  std::vector<uint8_t> e_page(Pager::kPageSize);
  ASSERT_TRUE(e.pager->ReadPage(e.list.pages[0], e_page.data()).ok());
  ASSERT_TRUE(le.pager->WritePage(page, e_page.data()).ok());
  BufferPool::PinnedPage reused = pool.GetDecoded(page, e.keys[0], &scratch);
  EXPECT_EQ(Values(reused, e.keys[0]), e.decoded[0]);
  EXPECT_EQ(pool.decode_mismatches(), 2u);
  // The old reader still sees its own arrays.
  EXPECT_EQ(Values(old_frame, le.keys[0]), le.decoded[0]);

  // Once the old frame is released and discarded, the new key caches.
  old_frame.Release();
  EXPECT_TRUE(pool.Discard({page}).empty());
  BufferPool::PinnedPage cached = pool.GetDecoded(page, e.keys[0], &scratch);
  EXPECT_NE(cached.values(), scratch.data());
  EXPECT_EQ(Values(cached, e.keys[0]), e.decoded[0]);
  EXPECT_EQ(pool.decode_mismatches(), 2u);
}

TEST(DecodedFrameTest, ConcurrentColdLandingsReadIdenticalArrays) {
  DeltaFile file = WriteDeltaFile("frame_race.db", {1, true, 2}, 4000, 61);
  BufferPool pool(file.pager.get(), 256);
  constexpr int kThreads = 4;
  for (int round = 0; round < 20; ++round) {
    const size_t p = static_cast<size_t>(round) % file.list.pages.size();
    pool.Clear();
    std::atomic<int> ready{0};
    std::vector<std::vector<uint32_t>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<uint32_t> scratch;
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        BufferPool::PinnedPage pin =
            pool.GetDecoded(file.list.pages[p], file.keys[p], &scratch);
        seen[t] = Values(pin, file.keys[p]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], file.decoded[p]) << "round " << round << " thread "
                                          << t;
    }
    EXPECT_TRUE(pool.Contains(file.list.pages[p]));
    EXPECT_EQ(pool.pinned_frames(), 0u);
  }
  EXPECT_EQ(pool.decode_mismatches(), 0u);
  EXPECT_EQ(pool.hits() + pool.misses(), 20u * kThreads);
}

TEST(DecodedFrameTest, UndecodablePagesAreNotCachedAndReadAsSentinels) {
  DeltaFile file = WriteDeltaFile("frame_bad.db", {1, true, 1}, 1500, 67);
  // Page 0's payload claims one record too many: checksums pass, decode
  // fails.
  std::vector<uint8_t> page(Pager::kPageSize);
  ASSERT_TRUE(file.pager->ReadPage(file.list.pages[0], page.data()).ok());
  uint16_t n;
  std::memcpy(&n, page.data(), 2);
  ++n;
  std::memcpy(page.data(), &n, 2);
  ASSERT_TRUE(file.pager->WritePage(file.list.pages[0], page.data()).ok());

  BufferPool pool(file.pager.get(), 64);
  BufferPool::StatsScope scope(&pool);
  for (int landing = 0; landing < 3; ++landing) {
    ListCursor cursor(&file.list, &pool);
    cursor.Seek(1);
    EXPECT_EQ(cursor.LabelAt().start, 0xFFFFFFFFu);
    EXPECT_EQ(cursor.LabelAt().end, 0xFFFFFFFFu);
    EXPECT_EQ(cursor.LabelAt().level, 0u);
    EXPECT_EQ(cursor.Following(), kNullEntry);
    EXPECT_EQ(cursor.Child(0), kNullEntry);
    EXPECT_FALSE(pool.Contains(file.list.pages[0]));
    // The next page is intact and cached.
    cursor.Seek(file.keys[1].first_entry);
    EXPECT_EQ(cursor.LabelAt().start, file.decoded[1][0]);
  }
  EXPECT_EQ(scope.misses(), 3u + 1u) << "the bad page re-reads every landing";
  EXPECT_EQ(scope.pages_decoded(), 3u + 1u);
  EXPECT_TRUE(pool.error().ok()) << "a decode failure latches nothing";

  // A failed read (past the file's end) is poison: latched, not cached.
  StoredList missing = file.list;
  missing.pages[0] = 999;
  ListCursor cursor(&missing, &pool);
  EXPECT_EQ(cursor.LabelAt().start, 0xFFFFFFFFu);
  EXPECT_EQ(cursor.Following(), kNullEntry);
  EXPECT_FALSE(pool.Contains(999));
  EXPECT_EQ(pool.error_page(), 999u);
}

TEST(DecodedFrameTest, PrefetchFillsDecodedFrames) {
  DeltaFile file = WriteDeltaFile("frame_prefetch.db", {1, false, 0}, 6000, 71);
  ASSERT_GE(file.list.pages.size(), 4u);
  BufferPool pool(file.pager.get(), 256);
  pool.SetReadAhead(8);
  for (size_t p = 0; p < file.list.pages.size(); ++p) {
    pool.Prefetch(file.list.pages[p], file.keys[p]);
  }
  pool.DrainPrefetches();
  const uint64_t decoded = pool.pages_decoded();
  EXPECT_EQ(decoded, file.list.pages.size());
  std::vector<uint32_t> scratch;
  for (size_t p = 0; p < file.list.pages.size(); ++p) {
    ASSERT_TRUE(pool.Contains(file.list.pages[p]));
    EXPECT_EQ(Values(pool.GetDecoded(file.list.pages[p], file.keys[p],
                                     &scratch),
                     file.keys[p]),
              file.decoded[p]);
  }
  EXPECT_EQ(pool.prefetch_hits(), file.list.pages.size());
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(pool.pages_decoded(), decoded);

  // A cursor scan queues the decoded form of the pages ahead of it.
  pool.Clear();
  ListCursor cursor(&file.list, &pool);
  for (cursor.Reset(); !cursor.AtEnd(); cursor.Next()) {
    (void)cursor.LabelAt();
    if (cursor.index() == 0) pool.DrainPrefetches();
  }
  EXPECT_GT(pool.prefetch_hits(), file.list.pages.size());
  pool.SetReadAhead(0);
}

// ---- Differential: stored-list cursors against the source arrays ----------

/// Runs every cursor primitive over `cursor` at random positions and bounds
/// and checks it against `labels`, the list's source labels — and against a
/// memory-mode cursor over the same labels. `follows`, when given, are the
/// source following pointers. Bounds are drawn below `bound_limit`.
void ExpectCursorMatchesSource(ListCursor& cursor,
                               const std::vector<Label>& labels,
                               const std::vector<EntryIndex>* follows,
                               uint32_t bound_limit, util::Rng* rng) {
  const uint32_t n = static_cast<uint32_t>(labels.size());
  ASSERT_EQ(cursor.size(), n);
  ASSERT_GT(n, 0u);
  ListCursor mem(labels.data(), n);
  auto never = [](uint32_t) { return false; };

  // Sequential labels + pointers.
  cursor.Reset();
  for (uint32_t i = 0; i < n; ++i, cursor.Next()) {
    ASSERT_EQ(cursor.LabelAt(), labels[i]) << "entry " << i;
    if (follows != nullptr) {
      ASSERT_EQ(cursor.Following(), (*follows)[i]);
    }
  }

  // Random FindFirstStart probes, strict and non-strict, from random cursor
  // positions, with ck-charge units matching the probe count.
  for (int t = 0; t < 40; ++t) {
    uint32_t from = rng->Uniform(n + 1);
    uint32_t bound = t % 5 == 0 ? labels[rng->Uniform(n)].start
                                : static_cast<uint32_t>(
                                      rng->Uniform(bound_limit));
    bool strict = (t & 1) != 0;
    uint32_t expected = from;
    while (expected < n && (strict ? labels[expected].start <= bound
                                   : labels[expected].start < bound)) {
      ++expected;
    }
    cursor.Seek(from);
    uint64_t probes = 0;
    uint64_t charged = 0;
    SeekOutcome out =
        cursor.FindFirstStart(bound, strict, &probes, [&](uint32_t c) {
          charged += c;
          return false;
        });
    ASSERT_FALSE(out.aborted);
    ASSERT_EQ(out.pos, expected)
        << "from " << from << " bound " << bound << " strict " << strict;
    ASSERT_EQ(cursor.index(), from) << "FindFirstStart must not move";
    // Governance accounting pins: every probe charged, exactly once.
    ASSERT_EQ(charged, probes);
    mem.Seek(from);
    uint64_t mem_probes = 0;
    ASSERT_EQ(mem.FindFirstStart(bound, strict, &mem_probes, never).pos,
              expected);
  }

  // SkipEndsBelow / SkipStartsBelow land on the same entries.
  for (int t = 0; t < 40; ++t) {
    uint32_t from = rng->Uniform(n + 1);
    uint32_t bound = static_cast<uint32_t>(rng->Uniform(bound_limit));
    uint32_t expect_end = from;
    while (expect_end < n && labels[expect_end].end < bound) ++expect_end;
    cursor.Seek(from);
    uint64_t scanned = 0;
    ASSERT_FALSE(
        cursor.SkipEndsBelow(bound, /*one_block=*/false, &scanned, never));
    ASSERT_EQ(cursor.index(), expect_end);
    ASSERT_EQ(scanned, expect_end - from) << "every passed entry is counted";

    uint32_t expect_start = from;
    while (expect_start < n && labels[expect_start].start < bound) {
      ++expect_start;
    }
    cursor.Seek(from);
    scanned = 0;
    ASSERT_FALSE(
        cursor.SkipStartsBelow(bound, /*strict=*/false, /*one_block=*/false,
                               &scanned, never));
    ASSERT_EQ(cursor.index(), expect_start);
    ASSERT_EQ(scanned, expect_start - from);
  }
}

TEST(BlockCursorTest, EncodedListsAgreeWithTheirSourceRecords) {
  // Random records, duplicate starts and null/far pointers included, read
  // back through pooled cursors whose pool holds only a few of the pages.
  util::Rng rng(23);
  for (const RecordLayout& layout :
       {RecordLayout{1, false, 0}, RecordLayout{1, true, 0},
        RecordLayout{1, true, 3}}) {
    DeltaFile file = WriteDeltaFile("diff_records.db", layout, 6000, 29,
                                    /*sorted_starts=*/true);
    ASSERT_GE(file.list.PageSpan(), 3u);
    const uint32_t n = file.list.count;
    const uint32_t record_size = layout.RecordSize();
    std::vector<Label> labels(n);
    std::vector<EntryIndex> follows(n, kNullEntry);
    for (uint32_t i = 0; i < n; ++i) {
      const uint8_t* rec = file.blob.data() + size_t{i} * record_size;
      std::memcpy(&labels[i].start, rec, 4);
      std::memcpy(&labels[i].end, rec + 4, 4);
      std::memcpy(&labels[i].level, rec + 8, 4);
      if (layout.has_pointers) std::memcpy(&follows[i], rec + 12, 4);
    }
    BufferPool pool(file.pager.get(), 4);
    ListCursor cursor(&file.list, &pool);
    ExpectCursorMatchesSource(cursor, labels,
                              layout.has_pointers ? &follows : nullptr,
                              labels.back().start + 2000, &rng);
    if (HasFatalFailure()) return;
  }
}

struct CursorStore {
  std::unique_ptr<ViewCatalog> catalog;
  const MaterializedView* view = nullptr;
};

CursorStore BuildStore(const xml::Document& doc, const char* path,
                       Scheme scheme) {
  CursorStore store;
  store.catalog = std::make_unique<ViewCatalog>(TempPath(path), 128);
  store.view = store.catalog->Materialize(doc, MustParse("//a//b"), scheme);
  return store;
}

TEST(BlockCursorTest, MaterializedListsAgreeWithTheDocument) {
  util::Rng rng(23);
  for (uint64_t seed : {1u, 2u, 3u}) {
    util::Rng doc_rng(seed);
    xml::Document doc =
        testing::RandomDoc(&doc_rng, 3000, {"a", "b", "c"});
    // The b list of //a//b: every b with an a ancestor, in document order.
    const xml::TagId a = doc.FindTag("a");
    std::vector<Label> labels;
    for (xml::NodeId b : doc.NodesOfTag(doc.FindTag("b"))) {
      xml::NodeId up = doc.Parent(b);
      while (up != xml::kInvalidNode && doc.NodeTag(up) != a) {
        up = doc.Parent(up);
      }
      if (up != xml::kInvalidNode) labels.push_back(doc.NodeLabel(b));
    }
    for (Scheme scheme :
         {Scheme::kLinkedElement, Scheme::kLinkedElementPartial}) {
      CursorStore store = BuildStore(doc, "diff_view.db", scheme);
      ListCursor cursor(&store.view->list(1), store.catalog->pool());
      ExpectCursorMatchesSource(
          cursor, labels, nullptr,
          static_cast<uint32_t>(2 * doc.NodeCount() + 2), &rng);
      if (HasFatalFailure()) return;
    }
  }
}

// ---- Wide fan-out guard -----------------------------------------------------

TEST(FanOutGuardTest, RecordWiderThanPageIsATypedError) {
  // 1025 pc-children make an LE record 20 + 4*1025 = 4120 bytes — wider
  // than a page. 814 children fit 3276 bytes, but a worst-case encoded
  // record (5 bytes for each of 3 + 816 fields, behind the 4-byte page
  // header) does not. Both must surface as InvalidArgument at
  // materialization, not fail later in the encoder or a cursor.
  xml::Document doc = testing::MakeDoc("r(x)");
  for (int children : {1025, 814}) {
    tpq::TreePattern wide;
    int root = wide.AddNode("r", -1, tpq::Axis::kDescendant);
    for (int i = 0; i < children; ++i) {
      wide.AddNode("c" + std::to_string(i), root, tpq::Axis::kChild);
    }
    ViewCatalog catalog(TempPath("fanout.db"), 16);
    auto result =
        catalog.TryMaterialize(doc, wide, Scheme::kLinkedElement);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find("fan-out"), std::string::npos)
        << result.status().ToString();
  }
}

// ---- Abort soundness --------------------------------------------------------

TEST(FindFirstStartAbortTest, CutShortSeeksNeverSkipLiveEntries) {
  util::Rng doc_rng(31);
  xml::Document doc = testing::RandomDoc(&doc_rng, 4000, {"a", "b"});
  CursorStore store = BuildStore(doc, "abort_seek.db", Scheme::kLinkedElement);
  const StoredList* list = &store.view->list(1);
  const uint32_t n = list->count;
  ASSERT_GT(n, 100u);
  ListCursor probe(list, store.catalog->pool());
  std::vector<Label> labels(n);
  for (uint32_t i = 0; i < n; ++i, probe.Next()) labels[i] = probe.LabelAt();
  const uint32_t bound = labels[n - 2].start;
  uint32_t true_pos = 0;
  while (true_pos < n && labels[true_pos].start < bound) ++true_pos;

  // Probe count of the uncut search; any budget below it must abort.
  uint64_t total = 0;
  {
    ListCursor cursor(list, store.catalog->pool());
    SeekOutcome full = cursor.FindFirstStart(
        bound, /*strict=*/false, &total, [](uint32_t) { return false; });
    ASSERT_FALSE(full.aborted);
    ASSERT_EQ(full.pos, true_pos);
    ASSERT_GE(total, 2u) << "list too small to cut a search short";
  }
  for (uint64_t budget = 0; budget < total; ++budget) {
    ListCursor cursor(list, store.catalog->pool());
    uint64_t probes = 0;
    uint64_t charges = 0;
    SeekOutcome out =
        cursor.FindFirstStart(bound, /*strict=*/false, &probes,
                              [&](uint32_t) { return ++charges > budget; });
    ASSERT_TRUE(out.aborted) << "budget " << budget;
    // Sound: the conservative landing position never passes an entry the
    // full search would have returned.
    EXPECT_LE(out.pos, true_pos) << "budget " << budget;
  }
}

// ---- fsck of the compressed format -----------------------------------------

TEST(FsckDeltaTest, VerifiesCompressedListsAndFlagsLyingPayloads) {
  std::string path = TempPath("fsck_delta.db");
  util::Rng doc_rng(41);
  xml::Document doc = testing::RandomDoc(&doc_rng, 3000, {"a", "b"});
  storage::PageId victim;
  {
    ViewCatalog catalog(path, 64, /*persistent=*/true);
    const MaterializedView* view =
        catalog.Materialize(doc, MustParse("//a//b"), Scheme::kLinkedElement);
    victim = view->list(0).pages.front();
    ASSERT_TRUE(catalog.Close().ok());
  }
  storage::FsckCatalogReport clean = storage::FsckCatalog(path);
  EXPECT_TRUE(clean.clean()) << storage::ToJson(clean);
  EXPECT_GE(clean.compressed_lists_checked, 2u);  // both lists
  EXPECT_TRUE(clean.bad_compressed_lists.empty());

  // Overwrite one compressed page with checksum-valid zeros: the page scan
  // passes, only the varint-level verification can catch it.
  {
    Pager pager(path, Pager::Mode::kReopen);
    ASSERT_TRUE(pager.init_status().ok());
    std::vector<uint8_t> zeros(Pager::kPageSize, 0);
    ASSERT_TRUE(pager.WritePage(victim, zeros.data()).ok());
  }
  storage::FsckCatalogReport lying = storage::FsckCatalog(path);
  EXPECT_TRUE(lying.pager.bad_pages.empty())
      << "corruption must be below the checksum layer for this test";
  ASSERT_FALSE(lying.bad_compressed_lists.empty());
  EXPECT_TRUE(lying.corrupt()) << storage::ToJson(lying);
  EXPECT_NE(storage::ToJson(lying).find("bad_compressed_lists"),
            std::string::npos);
}

}  // namespace
}  // namespace viewjoin
