// Unit tests of the benchmark's measurement helpers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/probe.h"
#include "src/report.h"
#include "src/trace.h"

namespace viewjoin::perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(101 - i);  // unsorted
  EXPECT_EQ(Percentile(samples, 0.5), 50);
  EXPECT_EQ(Percentile(samples, 0.99), 99);
  EXPECT_EQ(Percentile(samples, 1.0), 100);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile({}, 0.5), 0);
}

TEST(PercentileTest, TenBeyondRule) {
  // 100 samples leave one beyond the p99; 1000 leave ten.
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesNeeded(0.99, 10), 1000u);
  EXPECT_EQ(SamplesNeeded(0.5, 10), 20u);
  for (uint64_t n = SamplesNeeded(0.99, 10); n < 5000; n += 37) {
    EXPECT_GE(SamplesBeyond(n, 0.99), 10u) << n;
  }
}

TEST(ClockTest, ThreadCpuAdvancesWithWorkNotSleep) {
  double cpu0 = ThreadCpuMs();
  double wall0 = WallMs();
  usleep(50 * 1000);
  double slept_cpu = ThreadCpuMs() - cpu0;
  EXPECT_GE(WallMs() - wall0, 45);
  EXPECT_LT(slept_cpu, 20);

  cpu0 = ThreadCpuMs();
  double process0 = ProcessCpuMs();
  volatile uint64_t sink = 0;
  while (ThreadCpuMs() - cpu0 < 30) sink = sink + 1;
  EXPECT_GE(ThreadCpuMs() - cpu0, 30);
  EXPECT_GE(ProcessCpuMs() - process0, 29);
}

TEST(ProcIoTest, ParsesKernelFormat) {
  const char* text =
      "rchar: 12345\nwchar: 678\nsyscr: 90\nsyscw: 12\n"
      "read_bytes: 4096\nwrite_bytes: 0\ncancelled_write_bytes: 0\n";
  ProcIo io;
  ASSERT_TRUE(ParseProcIo(text, &io));
  EXPECT_EQ(io.rchar, 12345u);
  EXPECT_EQ(io.wchar, 678u);
  EXPECT_EQ(io.syscr, 90u);
  EXPECT_EQ(io.syscw, 12u);
  EXPECT_FALSE(ParseProcIo("rchar: 1\nwchar: 2\n", &io));
}

TEST(ProcIoTest, CountsOwnWritesAndSubtractsOwnReads) {
  IoProbe probe;
  ProcIo before = probe.Sample();
  ProcIo idle = probe.Delta(before, probe.Sample());
  EXPECT_EQ(idle.syscr, 0u);
  // The file's own length moves by a byte when a counter gains a digit.
  EXPECT_LE(idle.rchar, 8u);

  std::string path = ::testing::TempDir() + "/perfbench_io_probe";
  before = probe.Sample();
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::string block(8192, 'x');
    std::fwrite(block.data(), 1, block.size(), out);
    std::fclose(out);
  }
  ProcIo wrote = probe.Delta(before, probe.Sample());
  EXPECT_GE(wrote.wchar, 8192u);
  EXPECT_GE(wrote.syscw, 1u);
  std::remove(path.c_str());
}

TEST(ProcStatTest, StealShare) {
  CpuJiffies a, b;
  ASSERT_TRUE(ParseProcStat("cpu  100 0 50 1000 10 0 0 50 0 0\ncpu0 1", &a));
  EXPECT_EQ(a.busy, 200u);
  EXPECT_EQ(a.steal, 50u);
  ASSERT_TRUE(ParseProcStat("cpu  200 0 100 1100 10 0 0 100 0 0\n", &b));
  EXPECT_DOUBLE_EQ(StealShare(a, b), 50.0 / 200.0);
  EXPECT_EQ(StealShare(a, a), 0);
  EXPECT_FALSE(ParseProcStat("intr 5\n", &a));
}

TEST(MetricNameTest, Validity) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("storage.pool_hit_ratio"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_hidden"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, CatalogueNamesAreValidAndUnique) {
  std::vector<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_FALSE(std::string(spec.unit).empty()) << spec.name;
      names.push_back(spec.name);
    }
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(TraceTest, SelfTimeSubtractsCoveredChildren) {
  Tracer tracer(true);
  int64_t root = tracer.Add("call", "core", -1, 1, 0, 10);
  tracer.Add("a", "plan", root, 1, 1, 4);
  tracer.Add("b", "join", root, 1, 3, 7);  // overlaps a by 1
  tracer.Add("outside", "join", root, 1, 9, 12);  // clipped to [9, 10]
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  EXPECT_DOUBLE_EQ(self["core"], 10 - (6 + 1));
  EXPECT_DOUBLE_EQ(self["plan"], 3);
  EXPECT_DOUBLE_EQ(self["join"], 4 + 3);

  Tracer off(false);
  EXPECT_EQ(off.Begin("x", "core", -1, 0), -1);
  off.End(-1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(TraceTest, CoveredLengthMergesIntervals) {
  EXPECT_DOUBLE_EQ(CoveredLength({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4);
  EXPECT_DOUBLE_EQ(CoveredLength({{-5, 20}}, 0, 10), 10);
  EXPECT_DOUBLE_EQ(CoveredLength({}, 0, 10), 0);
}

TEST(DirectoryBytesTest, SumsRegularFiles) {
  std::string dir = ::testing::TempDir() + "/perfbench_dir_bytes";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/sub");
  std::ofstream(dir + "/a") << std::string(100, 'a');
  std::ofstream(dir + "/b") << std::string(23, 'b');
  std::ofstream(dir + "/sub/c") << std::string(1000, 'c');
  EXPECT_EQ(DirectoryBytes(dir), 123u);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(DirectoryBytes(dir), 0u);
}

}  // namespace
}  // namespace viewjoin::perfbench
