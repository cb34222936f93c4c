// Reproduces Fig. 5(c)/(d): total processing time of twig queries over
// materialized views for the six list-scheme combinations (TS/VJ × E/LE/LE_p;
// InterJoin handles only path queries and is excluded, as in the paper).
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
  JsonReport report("fig5_twigs");
  report.ParseArgs(argc, argv, &repeats);
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("nasa_datasets", static_cast<uint64_t>(nasa_datasets));

  std::printf("Fig. 5(c)/(d) reproduction: twig queries with twig views\n\n");

  auto xmark = BenchContext::Xmark(xmark_scale);
  RunFig5Panel("XMark twig queries (Fig. 5c)", "xmark", xmark.get(),
               XmarkTwigQueries(), ListCombos(), repeats, &report);

  auto nasa = BenchContext::Nasa(nasa_datasets);
  RunFig5Panel("NASA twig queries (Fig. 5d)", "nasa", nasa.get(), NasaTwigQueries(),
               ListCombos(), repeats, &report);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
