// Unit tests for the util layer: table printer, deterministic RNG, timers,
// CRC-32, and the CHECK macros' failure behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "storage/pager.h"
#include "util/backoff.h"
#include "util/check.h"
#include "util/env.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace viewjoin {
namespace {

TEST(TablePrinterTest, AlignsColumnsToWidestCell) {
  util::TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "223344"});
  std::string out = table.ToString();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("| name        | value  |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 223344 |"), std::string::npos);
  EXPECT_NE(out.find("|-------------|--------|"), std::string::npos);
}

TEST(TablePrinterTest, RejectsRaggedRows) {
  util::TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "CHECK failed");
}

TEST(FormatTest, DoublesAndMegabytes) {
  EXPECT_EQ(util::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(util::FormatDouble(1.5, 0), "2");
  EXPECT_EQ(util::FormatMegabytes(3 * 1024 * 1024), "3.00 MB");
  EXPECT_EQ(util::FormatMegabytes(512 * 1024), "0.50 MB");
}

TEST(RngTest, DeterministicPerSeed) {
  util::Rng a(42);
  util::Rng b(42);
  util::Rng c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformRangeIsInclusive) {
  util::Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  util::Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_GT(hits, 2500);
  EXPECT_LT(hits, 3500);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  util::Rng rng(13);
  int low = 0;
  int high = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t r = rng.Zipf(8, 1.2);
    EXPECT_LT(r, 8u);
    if (r == 0) ++low;
    if (r == 7) ++high;
  }
  EXPECT_GT(low, high * 2);
}

TEST(TimerTest, MeasuresElapsedTime) {
  util::Timer timer;
  volatile uint64_t sink = 0;
  while (timer.ElapsedMicros() < 1000) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
  }
  EXPECT_GE(timer.ElapsedMicros(), 1000);
  EXPECT_GT(timer.ElapsedMillis(), 0.9);
  timer.Reset();
  EXPECT_LT(timer.ElapsedMicros(), 1000);
}

TEST(AccumulatingTimerTest, SumsScopes) {
  util::AccumulatingTimer acc;
  for (int i = 0; i < 3; ++i) {
    util::AccumulatingTimer::Scope scope(&acc);
    util::Timer spin;
    while (spin.ElapsedMicros() < 200) {
    }
  }
  EXPECT_GE(acc.TotalMicros(), 600);
  acc.Reset();
  EXPECT_EQ(acc.TotalMicros(), 0);
}

TEST(CheckTest, PassingConditionIsSilent) {
  VJ_CHECK(1 + 1 == 2) << "never evaluated";
  VJ_CHECK_EQ(3, 3);
  VJ_CHECK_LT(1, 2);
  SUCCEED();
}

TEST(CheckTest, FailingConditionAbortsWithMessage) {
  EXPECT_DEATH(VJ_CHECK(false) << "context " << 42, "context 42");
  EXPECT_DEATH(VJ_CHECK_EQ(1, 2), "CHECK failed");
}

TEST(StatusTest, OkAndErrorStates) {
  util::Status ok = util::Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), util::StatusCode::kOk);
  util::Status err = util::Status::Corruption("bad page");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), util::StatusCode::kCorruption);
  EXPECT_EQ(err.message(), "bad page");
  EXPECT_NE(err.ToString().find("CORRUPTION"), std::string::npos);
  EXPECT_NE(err.ToString().find("bad page"), std::string::npos);
  EXPECT_EQ(util::Status::IoError("x").code(), util::StatusCode::kIoError);
  EXPECT_EQ(util::Status::NotFound("x").code(), util::StatusCode::kNotFound);
  EXPECT_EQ(util::Status::InvalidArgument("x").code(),
            util::StatusCode::kInvalidArgument);
}

TEST(StatusTest, StatusOrHoldsValueOrStatus) {
  util::StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  util::StatusOr<int> err = util::Status::IoError("disk gone");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), util::StatusCode::kIoError);
  EXPECT_DEATH({ int v = *err; (void)v; }, "");
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  // The standard CRC-32 ("check" value of the catalogue entry).
  EXPECT_EQ(util::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("", 0), 0x00000000u);
  uint8_t buf[64] = {};
  uint32_t clean = util::Crc32(buf, sizeof buf);
  buf[13] ^= 0x01;  // single bit flip must change the checksum
  EXPECT_NE(util::Crc32(buf, sizeof buf), clean);
}

/// The textbook byte-at-a-time CRC-32 (reflected IEEE polynomial, one
/// 256-entry table), kept independent of util::Crc32 so the two can be
/// compared.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::vector<uint8_t> PseudoRandomBytes(size_t size, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Uniform(256));
  return bytes;
}

// Every length up to a physical page plus change, from every alignment of
// a 16-byte block, so each tail length meets each block offset.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::vector<uint8_t> buf = PseudoRandomBytes(4112 + 16, 11);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 4112; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(util::Crc32(p, len), BytewiseCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
  // A non-zero seed goes through the same path.
  EXPECT_EQ(util::Crc32(buf.data(), 100, 0xDEADBEEFu),
            BytewiseCrc32(buf.data(), 100, 0xDEADBEEFu));
}

// Backup images checksum a file chunk by chunk, seeding each chunk with the
// CRC so far; that must equal the CRC of the whole file.
TEST(Crc32Test, ChainsAcrossSplits) {
  std::vector<uint8_t> buf = PseudoRandomBytes(3000, 12);
  const uint32_t whole = util::Crc32(buf.data(), buf.size());
  for (size_t split : {0, 1, 15, 16, 17, 64, 1000, 2999, 3000}) {
    uint32_t head = util::Crc32(buf.data(), split);
    EXPECT_EQ(util::Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

// The page footer's CRC is part of the on-disk format: a changed value means
// every existing store reads as corrupt.
TEST(Crc32Test, PageFooterChecksumIsPinned) {
  std::vector<uint8_t> payload(storage::Pager::kPageSize);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  uint8_t phys[storage::Pager::kPhysicalPageSize];
  storage::Pager::EncodePhysicalPage(42, payload.data(), phys);
  uint32_t magic = 0, id = 0, crc = 0;
  std::memcpy(&magic, phys + storage::Pager::kPageSize, 4);
  std::memcpy(&id, phys + storage::Pager::kPageSize + 4, 4);
  std::memcpy(&crc, phys + storage::Pager::kPageSize + 8, 4);
  EXPECT_EQ(magic, 0x47504A56u);  // "VJPG"
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(crc, 0xA3F5519Cu);
}

TEST(FaultInjectorTest, FailsExactlyTheArmedReads) {
  util::ScopedFaultInjection fi;
  fi->ArmReadFault(/*nth=*/2, /*count=*/2);
  EXPECT_FALSE(fi->OnReadAttempt());  // 1st
  EXPECT_TRUE(fi->OnReadAttempt());   // 2nd: fault
  EXPECT_TRUE(fi->OnReadAttempt());   // 3rd: fault
  EXPECT_FALSE(fi->OnReadAttempt());  // 4th: disarmed again
  EXPECT_EQ(fi->injected_read_faults(), 2u);
  EXPECT_EQ(fi->reads_seen(), 4u);
}

TEST(FaultInjectorTest, UnboundedWriteFaultPersists) {
  util::ScopedFaultInjection fi;
  fi->ArmWriteFault(util::WriteFault::kBitFlip, /*nth=*/1, /*count=*/-1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fi->OnWriteAttempt(), util::WriteFault::kBitFlip);
  }
  fi->Reset();
  EXPECT_EQ(fi->OnWriteAttempt(), util::WriteFault::kNone);
  EXPECT_FALSE(fi->armed());
}

TEST(BackoffTest, DelaysStayInsideBaseAndCap) {
  util::DecorrelatedJitterBackoff backoff(2.0, 50.0, /*seed=*/9);
  double prev = 2.0;
  for (int i = 0; i < 200; ++i) {
    double ms = backoff.NextDelayMs();
    EXPECT_GE(ms, 2.0);
    EXPECT_LE(ms, 50.0);
    // Decorrelated growth: each draw is bounded by 3x the previous delay.
    EXPECT_LE(ms, std::max(2.0, prev * 3.0) + 1e-9);
    prev = ms;
  }
}

TEST(BackoffTest, SequencesAreJitteredAndSeedDecorrelated) {
  util::DecorrelatedJitterBackoff a(1.0, 100.0, /*seed=*/1);
  util::DecorrelatedJitterBackoff b(1.0, 100.0, /*seed=*/2);
  util::DecorrelatedJitterBackoff a2(1.0, 100.0, /*seed=*/1);
  std::vector<double> sa, sb, sa2;
  for (int i = 0; i < 16; ++i) {
    sa.push_back(a.NextDelayMs());
    sb.push_back(b.NextDelayMs());
    sa2.push_back(a2.NextDelayMs());
  }
  EXPECT_EQ(sa, sa2);  // deterministic per seed (reproducible tests)
  EXPECT_NE(sa, sb);   // decorrelated across seeds (no thundering herd)
  // Jitter, not a ladder: the values do not repeat.
  std::vector<double> uniq = sa;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_GT(uniq.size(), sa.size() / 2);
}

TEST(BackoffTest, ResetRestartsFromBase) {
  util::DecorrelatedJitterBackoff backoff(1.0, 1000.0, /*seed=*/3);
  for (int i = 0; i < 10; ++i) backoff.NextDelayMs();
  backoff.Reset();
  EXPECT_LE(backoff.NextDelayMs(), 3.0);  // first post-reset draw: [1, 3]
}

TEST(BackoffTest, DegenerateConfigsAreClamped) {
  // cap below base: clamped up to base (constant delays, never negative).
  util::DecorrelatedJitterBackoff tight(5.0, 1.0, /*seed=*/4);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(tight.NextDelayMs(), 5.0);
  // zero/negative base: delays are zero, not NaN.
  util::DecorrelatedJitterBackoff zero(-1.0, 0.0, /*seed=*/5);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(zero.NextDelayMs(), 0.0);
}

class EnvParseTest : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "VIEWJOIN_ENV_PARSE_TEST_VAR";
  void TearDown() override { unsetenv(kVar); }
};

TEST_F(EnvParseTest, UnsetOrEmptyReturnsDefault) {
  unsetenv(kVar);
  EXPECT_EQ(*util::ParseNonNegativeIntEnv(kVar, 42), 42);
  EXPECT_EQ(*util::ParseBoolEnv(kVar, true), true);
  setenv(kVar, "", 1);
  EXPECT_EQ(*util::ParseNonNegativeIntEnv(kVar, 7), 7);
  EXPECT_EQ(*util::ParseBoolEnv(kVar, false), false);
}

TEST_F(EnvParseTest, ValidValuesParse) {
  setenv(kVar, "150", 1);
  EXPECT_EQ(*util::ParseNonNegativeIntEnv(kVar, 0), 150);
  setenv(kVar, "0", 1);
  EXPECT_EQ(*util::ParseNonNegativeIntEnv(kVar, 5), 0);
  EXPECT_EQ(*util::ParseBoolEnv(kVar, true), false);
  setenv(kVar, "true", 1);
  EXPECT_EQ(*util::ParseBoolEnv(kVar, false), true);
  setenv(kVar, "false", 1);
  EXPECT_EQ(*util::ParseBoolEnv(kVar, true), false);
  setenv(kVar, "1", 1);
  EXPECT_EQ(*util::ParseBoolEnv(kVar, false), true);
}

TEST_F(EnvParseTest, MalformedValuesAreTypedErrorsNamingTheVariable) {
  // A set-but-ignored tuning knob would silently invalidate measurements;
  // malformed values must fail loudly instead of coercing to the default.
  for (const char* bad : {"100ms", "abc", "12.5", "-3", " 7", "99x"}) {
    setenv(kVar, bad, 1);
    util::StatusOr<int64_t> parsed = util::ParseNonNegativeIntEnv(kVar, 0);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find(kVar), std::string::npos);
    EXPECT_NE(parsed.status().ToString().find(bad), std::string::npos);
  }
  for (const char* bad : {"yes", "no", "2", "TRUE", "ture"}) {
    setenv(kVar, bad, 1);
    util::StatusOr<bool> parsed = util::ParseBoolEnv(kVar, false);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find(kVar), std::string::npos);
  }
}

}  // namespace
}  // namespace viewjoin
