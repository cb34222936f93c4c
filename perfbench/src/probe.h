#ifndef VIEWJOIN_PERFBENCH_PROBE_H_
#define VIEWJOIN_PERFBENCH_PROBE_H_

// Measurement helpers of the repository benchmark: CPU clocks, /proc
// readers, percentiles and metric-name validation. Everything here reads
// what the kernel already counts; nothing reaches into the engine.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace viewjoin::perfbench {

/// CPU time of the calling thread, in milliseconds (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuMs();

/// CPU time of the whole process (every thread), in milliseconds
/// (CLOCK_PROCESS_CPUTIME_ID).
double ProcessCpuMs();

/// Monotonic wall clock in milliseconds (arbitrary origin).
double WallMs();

/// The counters of /proc/<pid>/io. `rchar`/`wchar` count bytes passed to
/// read- and write-family syscalls (page-cache hits and sockets included);
/// `syscr`/`syscw` count those syscalls.
struct ProcIo {
  uint64_t rchar = 0;
  uint64_t wchar = 0;
  uint64_t syscr = 0;
  uint64_t syscw = 0;

  /// Field-wise difference `*this - since` (each field clamped at 0).
  ProcIo Minus(const ProcIo& since) const;
};

/// Parses the text of /proc/<pid>/io. False when a required field is missing.
bool ParseProcIo(std::string_view text, ProcIo* out);

/// Reads /proc/self/io (all zero when unreadable). Each call is itself one or
/// two read syscalls; IoProbe subtracts that cost.
ProcIo ReadProcIo();

/// /proc/self/io sampler that removes the reads it performs itself: the
/// constructor measures what one sample adds to rchar/syscr, and Delta()
/// subtracts it from every interval.
class IoProbe {
 public:
  IoProbe();
  ProcIo Sample() const { return ReadProcIo(); }
  /// Counters accrued between `before` and `after`, less one sample's cost
  /// (exact for syscalls; rchar may keep a few bytes, since the file grows
  /// when a counter gains a digit).
  ProcIo Delta(const ProcIo& before, const ProcIo& after) const;

 private:
  ProcIo self_cost_;
};

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t busy = 0;   // user + nice + system + irq + softirq + steal
  uint64_t steal = 0;
  uint64_t total = 0;  // busy + idle + iowait
};

/// Parses the "cpu " line of /proc/stat. False when it is absent.
bool ParseProcStat(std::string_view text, CpuJiffies* out);
CpuJiffies ReadProcStat();

/// Hypervisor steal as a share of busy CPU time between two samples (0 when
/// no busy time elapsed).
double StealShare(const CpuJiffies& before, const CpuJiffies& after);

/// One-minute load average from /proc/loadavg (-1 when unreadable).
double LoadAverage1();

/// Peak resident set of this process in MiB (VmHWM of /proc/self/status).
double PeakRssMb();

/// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
/// samples (q in (0, 1]). 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// How many samples lie strictly beyond the nearest-rank q-percentile of n
/// samples: n - ceil(q * n).
uint64_t SamplesBeyond(uint64_t n, double q);

/// Smallest sample count that leaves at least `beyond` samples past the
/// q-percentile (the benchmark reports a percentile only when ≥ 10 remain).
uint64_t SamplesNeeded(double q, uint64_t beyond);

/// Metric names are 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or a digit.
bool ValidMetricName(std::string_view name);

/// Sum of the sizes of every regular file directly inside `dir` (a view
/// store directory: pager file, manifest journal and sidecars).
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace viewjoin::perfbench

#endif  // VIEWJOIN_PERFBENCH_PROBE_H_
