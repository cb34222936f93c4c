// Repository benchmark. One process runs one seeded workload:
//
//   perfbench --workload fig5-cold|serve-zipf|update-mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--small]
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics; the last stdout line is the JSON result. The exit code
// is 0 only when every answer was checked and correct.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/workloads.h"

namespace viewjoin::perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig5-cold|serve-zipf|update-mix --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--small]\n",
               why);
  std::exit(2);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--small") {
      config.small = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &config.seed)) Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0) Usage("bad --seconds");
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) Usage("bad --trace");
      config.trace = number == 1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.work_dir.empty()) Usage("--work-dir is required");

  RunReport report;
  report.Info("workload", workload);
  report.Info("seed", static_cast<double>(config.seed));
  if (workload == "fig5-cold") {
    RunFig5Cold(config, &report);
  } else if (workload == "serve-zipf") {
    RunServeZipf(config, &report);
  } else if (workload == "update-mix") {
    RunUpdateMix(config, &report);
  } else {
    Usage("unknown --workload");
  }
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("error_frac", report.ErrorFrac());
  report.Print(config.trace);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace viewjoin::perfbench

int main(int argc, char** argv) {
  return viewjoin::perfbench::Main(argc, argv);
}
