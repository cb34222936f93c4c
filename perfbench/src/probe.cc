#include "src/probe.h"

#include <dirent.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace viewjoin::perfbench {
namespace {

double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string ReadWholeFile(const char* path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Value of the "key: <number>" line in `text`; false when absent.
bool FindField(std::string_view text, std::string_view key, uint64_t* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::string value(line.substr(key.size() + 1));
      char* end = nullptr;
      *out = std::strtoull(value.c_str(), &end, 10);
      return end != value.c_str();
    }
    pos = eol + 1;
  }
  return false;
}

uint64_t ClampedMinus(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcIo ProcIo::Minus(const ProcIo& since) const {
  ProcIo d;
  d.rchar = ClampedMinus(rchar, since.rchar);
  d.wchar = ClampedMinus(wchar, since.wchar);
  d.syscr = ClampedMinus(syscr, since.syscr);
  d.syscw = ClampedMinus(syscw, since.syscw);
  return d;
}

bool ParseProcIo(std::string_view text, ProcIo* out) {
  ProcIo io;
  if (!FindField(text, "rchar", &io.rchar) ||
      !FindField(text, "wchar", &io.wchar) ||
      !FindField(text, "syscr", &io.syscr) ||
      !FindField(text, "syscw", &io.syscw)) {
    return false;
  }
  *out = io;
  return true;
}

ProcIo ReadProcIo() {
  ProcIo io;
  ParseProcIo(ReadWholeFile("/proc/self/io"), &io);
  return io;
}

IoProbe::IoProbe() {
  // The second sample sees the first one's read syscalls and bytes.
  ProcIo first = ReadProcIo();
  ProcIo second = ReadProcIo();
  self_cost_ = second.Minus(first);
  self_cost_.wchar = 0;
  self_cost_.syscw = 0;
}

ProcIo IoProbe::Delta(const ProcIo& before, const ProcIo& after) const {
  return after.Minus(before).Minus(self_cost_);
}

bool ParseProcStat(std::string_view text, CpuJiffies* out) {
  if (text.substr(0, 4) != "cpu ") return false;
  std::string line(text.substr(0, text.find('\n')));
  std::istringstream in(line.substr(4));
  uint64_t f[8] = {};  // user nice system idle iowait irq softirq steal
  for (uint64_t& v : f) {
    if (!(in >> v)) return false;
  }
  out->busy = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
  out->steal = f[7];
  out->total = out->busy + f[3] + f[4];
  return true;
}

CpuJiffies ReadProcStat() {
  CpuJiffies jiffies;
  ParseProcStat(ReadWholeFile("/proc/stat"), &jiffies);
  return jiffies;
}

double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  uint64_t busy = ClampedMinus(after.busy, before.busy);
  if (busy == 0) return 0;
  return static_cast<double>(ClampedMinus(after.steal, before.steal)) /
         static_cast<double>(busy);
}

double LoadAverage1() {
  std::string text = ReadWholeFile("/proc/loadavg");
  if (text.empty()) return -1;
  return std::strtod(text.c_str(), nullptr);
}

double PeakRssMb() {
  uint64_t kib = 0;
  if (!FindField(ReadWholeFile("/proc/self/status"), "VmHWM", &kib)) return 0;
  return static_cast<double>(kib) / 1024.0;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  uint64_t n = samples.size();
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

uint64_t SamplesBeyond(uint64_t n, double q) {
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

uint64_t SamplesNeeded(double q, uint64_t beyond) {
  uint64_t n = beyond;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return 0;
  while (dirent* entry = readdir(handle)) {
    std::string path = dir + "/" + entry->d_name;
    struct stat st {};
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(handle);
  return total;
}

}  // namespace viewjoin::perfbench
