// Differential out-of-core tests: an engine whose base document lives in the
// paged DocumentStore (doc_mode = disk) must produce bit-identical solutions
// to the in-memory engine for every Fig. 5 workload query, across every
// algorithm × storage-scheme combination — cold caches, tiny doc pools,
// async read-ahead, and injected page-read faults included. Disk placement
// changes where label scans come from, never what they return.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/workloads.h"
#include "core/engine.h"
#include "storage/document_store.h"
#include "data/xmark_generator.h"
#include "storage/materialized_view.h"
#include "tests/test_util.h"
#include "tpq/pattern.h"
#include "util/fault_injection.h"

namespace viewjoin {
namespace {

using bench::Combo;
using bench::ParseQuery;
using bench::QuerySpec;
using core::Algorithm;
using core::DocMode;
using core::Engine;
using core::EngineOptions;
using core::RunOptions;
using core::RunResult;
using storage::MaterializedView;
using storage::Scheme;
using tpq::TreePattern;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

/// The four list/tuple schemes a view can be materialized under.
constexpr Scheme kAllSchemes[] = {Scheme::kElement, Scheme::kTuple,
                                  Scheme::kLinkedElement,
                                  Scheme::kLinkedElementPartial};

/// Memory-mode and disk-mode engines over the SAME document, with per-scheme
/// view caches so each workload query materializes its covering set once.
class TwinEngines {
 public:
  explicit TwinEngines(double xmark_scale)
      : doc_(data::GenerateXmark({.scale = xmark_scale})),
        memory_(&doc_, TempPath("ooc_memory.db")) {
    EngineOptions disk_options;
    disk_options.doc_mode = DocMode::kDisk;
    // A pool far smaller than the store forces real page traffic (the
    // out-of-core regime), and read-ahead keeps its background thread in
    // the loop for every scan.
    disk_options.doc_pool_pages = 32;
    disk_options.readahead_pages = 4;
    disk_ = std::make_unique<Engine>(&doc_, TempPath("ooc_disk.db"),
                                     disk_options);
  }

  const xml::Document& doc() const { return doc_; }
  Engine& memory() { return memory_; }
  Engine& disk() { return *disk_; }

  std::vector<const MaterializedView*> Views(
      Engine& engine, const std::vector<TreePattern>& patterns,
      Scheme scheme) {
    std::vector<const MaterializedView*> views;
    for (const TreePattern& pattern : patterns) {
      views.push_back(engine.AddView(pattern, scheme));
    }
    return views;
  }

 private:
  xml::Document doc_;
  Engine memory_;
  std::unique_ptr<Engine> disk_;
};

TEST(OutOfCoreDifferentialTest, DiskModeMatchesMemoryOnEveryXmarkCombo) {
  TwinEngines twins(/*xmark_scale=*/0.25);
  ASSERT_NE(twins.disk().doc_store(), nullptr)
      << twins.disk().doc_store_status().ToString();
  const storage::DocumentStore& store = *twins.disk().doc_store();
  uint64_t stored = 0;
  for (xml::TagId t = 0; t < store.TagCount(); ++t) {
    stored += store.ListOfTag(t)->count;
  }
  ASSERT_EQ(stored, twins.doc().LiveNodeCount());

  for (const QuerySpec& spec : bench::XmarkQueries()) {
    TreePattern query = ParseQuery(spec.xpath);
    std::vector<TreePattern> split = bench::PairViews(query);
    // IJ only binds path queries over tuple path views.
    const std::vector<Combo> combos =
        spec.is_path ? bench::AllCombos() : bench::ListCombos();
    for (const Combo& combo : combos) {
      RunOptions run;
      run.algorithm = combo.algorithm;
      run.cold_cache = true;
      RunResult reference = twins.memory().Execute(
          query, twins.Views(twins.memory(), split, combo.scheme), run);
      ASSERT_TRUE(reference.ok)
          << spec.name << " " << combo.Label() << ": " << reference.error;
      RunResult disk = twins.disk().Execute(
          query, twins.Views(twins.disk(), split, combo.scheme), run);
      ASSERT_TRUE(disk.ok)
          << spec.name << " " << combo.Label() << ": " << disk.error;
      EXPECT_EQ(disk.match_count, reference.match_count)
          << spec.name << " " << combo.Label();
      EXPECT_EQ(disk.result_hash, reference.result_hash)
          << spec.name << " " << combo.Label();
    }
  }
}

TEST(OutOfCoreDifferentialTest, DiskModeSurvivesInjectedPageFaults) {
  TwinEngines twins(/*xmark_scale=*/0.2);
  ASSERT_NE(twins.disk().doc_store(), nullptr)
      << twins.disk().doc_store_status().ToString();

  // One path and one twig query, under bursts of failing physical reads at
  // varying offsets. The quarantine -> re-materialize -> base-fallback
  // ladder (and read retries below it) must absorb every burst without
  // changing a single solution.
  const char* queries[] = {"//site//people//person//name",
                           "//item[//description//keyword]//mailbox//mail"};
  for (const char* xpath : queries) {
    TreePattern query = ParseQuery(xpath);
    std::vector<TreePattern> split = bench::PairViews(query);
    for (Scheme scheme : {Scheme::kLinkedElement, Scheme::kElement}) {
      RunOptions run;
      run.algorithm = Algorithm::kViewJoin;
      run.cold_cache = true;
      RunResult reference = twins.memory().Execute(
          query, twins.Views(twins.memory(), split, scheme), run);
      ASSERT_TRUE(reference.ok) << xpath << ": " << reference.error;
      std::vector<const MaterializedView*> disk_views =
          twins.Views(twins.disk(), split, scheme);
      for (uint64_t nth : {1, 3, 9}) {
        util::ScopedFaultInjection faults;
        faults->ArmReadFault(nth, /*count=*/4);
        RunResult faulted = twins.disk().Execute(query, disk_views, run);
        ASSERT_TRUE(faulted.ok)
            << xpath << " nth=" << nth << ": " << faulted.error;
        EXPECT_EQ(faulted.match_count, reference.match_count)
            << xpath << " nth=" << nth;
        EXPECT_EQ(faulted.result_hash, reference.result_hash)
            << xpath << " nth=" << nth;
      }
      // Faults cleared: the stores must have healed back to clean runs.
      RunResult after = twins.disk().Execute(query, disk_views, run);
      ASSERT_TRUE(after.ok) << after.error;
      EXPECT_EQ(after.result_hash, reference.result_hash);
    }
  }
}

TEST(OutOfCoreDifferentialTest, ReadAheadCountersSurfaceOnColdScans) {
  // Scale 1.0 pushes the hot tag lists (keyword: ~6 pages, bidder: 2) past a
  // single page — below that, read-ahead correctly has nothing to issue.
  TwinEngines twins(/*xmark_scale=*/1.0);
  TreePattern query = ParseQuery("//item[//description//keyword]//mailbox//mail");
  std::vector<TreePattern> split = bench::PairViews(query);
  RunOptions run;
  run.algorithm = Algorithm::kTwigStack;
  run.cold_cache = true;  // every list page is a miss -> read-ahead territory
  RunResult result = twins.disk().Execute(
      query, twins.Views(twins.disk(), split, Scheme::kLinkedElement), run);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.io.prefetch_issued, 0u);
  EXPECT_GE(result.io.prefetch_issued,
            result.io.prefetch_hits + result.io.prefetch_wasted);
  // The memory engine never speculates: no read-ahead configured.
  RunResult memory = twins.memory().Execute(
      query, twins.Views(twins.memory(), split, Scheme::kLinkedElement), run);
  ASSERT_TRUE(memory.ok) << memory.error;
  EXPECT_EQ(memory.io.prefetch_issued, 0u);
  EXPECT_EQ(memory.result_hash, result.result_hash);
}

// A non-persistent engine is scratch all the way down: its document store
// goes with it, like its view store, and no file under its path prefix
// outlives it.
TEST(OutOfCoreDifferentialTest, ScratchDiskEngineLeavesNoFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string prefix = "ooc_scratch_leftovers.db";
  auto leftovers = [&] {
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) found.push_back(name);
    }
    return found;
  };
  for (const std::string& name : leftovers()) {
    std::filesystem::remove(std::filesystem::path(dir) / name);
  }
  xml::Document doc = data::GenerateXmark({.scale = 0.05});
  {
    EngineOptions options;
    options.doc_mode = DocMode::kDisk;
    Engine engine(&doc, TempPath(prefix), options);
    ASSERT_NE(engine.doc_store(), nullptr)
        << engine.doc_store_status().ToString();
    EXPECT_FALSE(leftovers().empty());
  }
  const std::vector<std::string> left = leftovers();
  EXPECT_TRUE(left.empty()) << left.front();
}

}  // namespace
}  // namespace viewjoin
