// List-format ablation of the block-at-a-time cursors over the Fig. 5 path
// workloads: every pointer-heavy algorithm × scheme combination (TS/VJ ×
// LE/LE_p, plus the pointerless E baselines) is run two ways —
//
//   block_fixed  : whole-page SoA decode + galloping/SIMD skipping over
//                  fixed-size records
//   block_delta  : the same cursors over delta-varint compressed lists
//
// — and cross-checked to produce identical match sets. The summary reports
// the geometric-mean speedup of the compressed format (the shipped default)
// over the fixed one on the pointer-heavy combos, and its page-read
// reduction. Every repeat starts with a cleared buffer pool, but the OS page
// cache stays warm, so a page read is a copy, not a disk access: the speedup
// measures fewer page reads plus each delta page's one decode per run
// against the fixed format's lazy field reads, not saved I/O waits. Emits
// BENCH_simd.json via --json; `--smoke` shrinks the datasets for CI.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "storage/simd_scan.h"
#include "storage/stored_list.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace viewjoin::bench {
namespace {

using storage::ListFormat;

struct Variant {
  const char* name;
  ListFormat format;
};

const Variant kVariants[] = {
    {"block_fixed", ListFormat::kFixed},
    {"block_delta", ListFormat::kDelta},
};
constexpr int kNumVariants = 2;

bool PointerHeavy(const Combo& combo) {
  return combo.scheme == storage::Scheme::kLinkedElement ||
         combo.scheme == storage::Scheme::kLinkedElementPartial;
}

/// The list-scheme combos of Fig. 5 — IJ+T is excluded because the tuple
/// scan has no skip primitive to ablate.
std::vector<Combo> SimdCombos() {
  std::vector<Combo> combos;
  for (const Combo& combo : ListCombos()) combos.push_back(combo);
  return combos;
}

struct Accumulator {
  double log_speedup_sum = 0;  // block_delta vs block_fixed
  int speedup_n = 0;           // pointer-heavy combos only
  uint64_t fixed_pages = 0;    // block_fixed vs block_delta, all combos
  uint64_t delta_pages = 0;
};

void RunDataset(const std::string& title, const std::string& dataset,
                double scale_or_sets, bool nasa,
                const std::vector<QuerySpec>& queries, int repeats,
                JsonReport* report, Accumulator* acc) {
  // One context per variant: the list format is a property of the catalog
  // (every view it materializes), so the variants cannot share materialized
  // views. The document itself is regenerated per context from the same
  // seed, so both evaluate identical data.
  std::unique_ptr<BenchContext> contexts[kNumVariants];
  for (int v = 0; v < kNumVariants; ++v) {
    contexts[v] = nasa
                      ? BenchContext::Nasa(static_cast<int64_t>(scale_or_sets))
                      : BenchContext::Xmark(scale_or_sets);
    contexts[v]->engine().catalog()->set_list_format(kVariants[v].format);
  }
  PrintBanner(title, *contexts[0]);

  std::vector<Combo> combos = SimdCombos();
  std::vector<std::string> header = {"query", "combo", "matches"};
  for (const Variant& variant : kVariants) {
    header.push_back(std::string(variant.name) + " (ms)");
  }
  header.push_back("speedup");
  header.push_back("pages saved");
  util::TablePrinter table(header);

  for (const QuerySpec& spec : queries) {
    tpq::TreePattern query = ParseQuery(spec.xpath);
    std::vector<tpq::TreePattern> split = PairViews(query);
    for (const Combo& combo : combos) {
      double ms[kNumVariants] = {0, 0};
      uint64_t pages[kNumVariants] = {0, 0};
      uint64_t count = 0, hash = 0;
      for (int v = 0; v < kNumVariants; ++v) {
        core::RunResult result = contexts[v]->Run(
            query, contexts[v]->Views(split, combo.scheme), combo,
            algo::OutputMode::kMemory, repeats);
        VJ_CHECK(result.ok) << spec.name << " " << combo.Label() << " "
                            << kVariants[v].name << ": " << result.error;
        if (v == 0) {
          count = result.match_count;
          hash = result.result_hash;
        } else {
          VJ_CHECK(result.match_count == count && result.result_hash == hash)
              << spec.name << " " << combo.Label() << " "
              << kVariants[v].name << " diverged";
        }
        ms[v] = result.total_ms;
        pages[v] = result.io.pages_read;
        report->AddRow()
            .Set("dataset", dataset)
            .Set("query", spec.name)
            .Set("combo", combo.Label())
            .Set("variant", kVariants[v].name)
            .Set("pointer_heavy", PointerHeavy(combo))
            .Metrics(result);
      }
      double speedup = ms[1] > 0 ? ms[0] / ms[1] : 1.0;
      double saved =
          pages[0] > 0
              ? 1.0 - static_cast<double>(pages[1]) /
                          static_cast<double>(pages[0])
              : 0.0;
      if (PointerHeavy(combo)) {
        acc->log_speedup_sum += std::log(speedup);
        ++acc->speedup_n;
      }
      acc->fixed_pages += pages[0];
      acc->delta_pages += pages[1];
      table.AddRow({spec.name, combo.Label(), std::to_string(count),
                    util::FormatDouble(ms[0], 2), util::FormatDouble(ms[1], 2),
                    util::FormatDouble(speedup, 2) + "x",
                    util::FormatDouble(100.0 * saved, 1) + "%"});
    }
  }
  table.Print();
  std::printf("\n");
}

void Main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  double xmark_scale = EnvScale("VIEWJOIN_XMARK_SCALE", smoke ? 0.2 : 2.0);
  int64_t nasa_datasets = static_cast<int64_t>(
      EnvScale("VIEWJOIN_NASA_DATASETS", smoke ? 100 : 800));
  int repeats = smoke ? 2 : 3;

  JsonReport report("simd");
  report.ParseArgs(static_cast<int>(rest.size()), rest.data());
  report.SetMeta("xmark_scale", xmark_scale);
  report.SetMeta("nasa_datasets", static_cast<uint64_t>(nasa_datasets));
  report.SetMeta("repeats", repeats);
  report.SetMeta("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  report.SetMeta("simd_backend", storage::simd::BackendName());

  std::printf("Block cursor list-format ablation (SIMD backend: %s)\n",
              storage::simd::BackendName());
  std::printf("variants: block_fixed | block_delta\n\n");

  Accumulator acc;
  RunDataset("XMark path queries", "xmark", xmark_scale, /*nasa=*/false,
             XmarkPathQueries(), repeats, &report, &acc);
  RunDataset("NASA path queries", "nasa",
             static_cast<double>(nasa_datasets), /*nasa=*/true,
             NasaPathQueries(), repeats, &report, &acc);

  double geomean =
      acc.speedup_n > 0 ? std::exp(acc.log_speedup_sum / acc.speedup_n) : 1.0;
  double page_reduction =
      acc.fixed_pages > 0
          ? 1.0 - static_cast<double>(acc.delta_pages) /
                      static_cast<double>(acc.fixed_pages)
          : 0.0;
  report.SetMeta("geomean_delta_speedup_pointer_heavy", geomean);
  report.SetMeta("delta_page_read_reduction", page_reduction);
  std::printf(
      "geomean delta/fixed format speedup (pointer-heavy combos): %.2fx\n",
      geomean);
  std::printf(
      "page reads saved by delta compression (all combos):        %.1f%%\n",
      100.0 * page_reduction);
  report.Write();
}

}  // namespace
}  // namespace viewjoin::bench

int main(int argc, char** argv) {
  viewjoin::bench::Main(argc, argv);
  return 0;
}
