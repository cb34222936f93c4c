// Reproduces Fig. 5(a)/(b): total processing time of path queries over
// materialized views, for all seven algorithm × storage-scheme combinations
// (IJ+T, TS+E, TS+LE, TS+LE_p, VJ+E, VJ+LE, VJ+LE_p) on the XMark and
// NASA-like datasets. Every combo's match set is cross-checked against the
// others; a mismatch aborts the run.
//
// `--repeats N` (default 3) sets the cold runs per cell; each cell reports
// n, median and p95 (the JSON row's total_ms is the median).

#include <cstdio>

#include "bench/harness.h"
#include "bench/workloads.h"

namespace viewjoin::bench {
namespace {

void Main(int argc, char** argv) {
  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", 2.0);
  int64_t nasa_datasets =
      static_cast<int64_t>(EnvScale("VIEWJOIN_NASA_DATASETS", 800));
  int repeats = 3;
  JsonReport report("fig5_paths");
  report.ParseArgs(argc, argv, &repeats);
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("nasa_datasets", static_cast<uint64_t>(nasa_datasets));

  std::printf("Fig. 5(a)/(b) reproduction: path queries with path views\n");
  std::printf("(views per query: covering set of ~2-node subpattern views)\n\n");

  auto xmark = BenchContext::Xmark(xmark_scale);
  RunFig5Panel("XMark path queries (Fig. 5a)", "xmark", xmark.get(),
               XmarkPathQueries(), AllCombos(), repeats, &report);

  auto nasa = BenchContext::Nasa(nasa_datasets);
  RunFig5Panel("NASA path queries (Fig. 5b)", "nasa", nasa.get(), NasaPathQueries(),
               AllCombos(), repeats, &report);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
