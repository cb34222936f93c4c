#include "src/report.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "util/check.h"

namespace viewjoin::perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"query_cpu_ms", "ms"},
      {"query_cpu_p50_ms", "ms"},
      {"query_cpu_p99_ms", "ms"},
      {"store_bytes_per_doc_byte", "ratio"},
      {"space_amp", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"data.generate_s", "s"},
      {"storage.materialize_s", "s"},
      {"storage.view_pages", "count"},
      {"storage.pages_read_per_query", "count"},
      {"storage.io_share", "ratio"},
      {"storage.read_syscalls_per_query", "count"},
      {"storage.read_bytes_per_query", "B"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.first_pass_pool_misses", "count"},
      {"algo.entries_scanned_per_query", "count"},
      {"core.pointer_jumps_per_query", "count"},
      {"core.skip_ratio", "ratio"},
      {"plan.eval_segments_ms_p50", "ms"},
      {"plan.extend_output_ms_p50", "ms"},
      {"plan.resolve_cover_ms_p50", "ms"},
      {"plan.cache_hit_ratio", "ratio"},
      {"server.overhead_ms_p50", "ms"},
      {"server.engine_ms_p50", "ms"},
      {"server.engine_ms_p99", "ms"},
      {"server.wire_codec_us", "us"},
      {"server.frame_bytes_per_query", "B"},
      {"view.delta_views_per_batch", "count"},
      {"view.rebuilt_views_per_batch", "count"},
      {"view.relabels", "count"},
      {"update.cpu_p50_ms", "ms"},
      {"update.write_bytes_per_op", "B"},
      {"update.offcpu_ms_p50", "ms"},
      {"storage.write_syscalls_per_batch", "count"},
      {"storage.catalog_open_ms", "ms"},
      {"query_wall_p50_ms", "ms"},
      {"query_wall_p99_ms", "ms"},
      {"host.steal_share", "ratio"},
      {"host.loadavg_1m", "load"},
      {"error_frac", "ratio"},
      {"self.server_ms_per_op", "ms"},
      {"self.core_ms_per_op", "ms"},
      {"self.plan_ms_per_op", "ms"},
      {"self.join_ms_per_op", "ms"},
      {"self.view_ms_per_op", "ms"},
      {"trace.query_cpu_ms", "ms"},
      {"trace.untraced_query_cpu_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

namespace {

bool Catalogued(const std::vector<MetricSpec>& specs, const std::string& name) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& s) { return name == s.name; });
}

/// JSON number text with full precision (JSON has no NaN or infinity).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

void RunReport::Set(const std::string& name, double value) {
  VJ_CHECK(Catalogued(EndToEndMetrics(), name) ||
           Catalogued(PerLayerMetrics(), name))
      << "uncatalogued metric " << name;
  values_[name] = value;
}

void RunReport::Info(const std::string& key, double value) {
  Info(key, JsonNumber(value));
}

void RunReport::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void RunReport::Failed(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (errors_.size() < 10) errors_.push_back(what);
}

double RunReport::ErrorFrac() const {
  if (attempted_ == 0) return 0;
  return static_cast<double>(failed_ + mismatches_) /
         static_cast<double>(attempted_);
}

void RunReport::Mismatch(const std::string& what) {
  ++mismatches_;
  if (errors_.size() < 10) errors_.push_back("mismatch: " + what);
}

void RunReport::Print(bool trace) const {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : specs) {
    auto it = values_.find(spec.name);
    double value = it == values_.end() ? 0 : it->second;
    std::printf("metric %-36s %14s %s\n", spec.name, JsonNumber(value).c_str(),
                spec.unit);
  }
  for (const auto& [key, value] : info_) {
    std::printf("info   %-36s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& error : errors_) {
    std::printf("error  %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_ + mismatches_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = values_.find(spec.name);
    double value = it == values_.end() ? 0 : it->second;
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(spec.name).append("\": {\"value\": ");
    json.append(JsonNumber(value)).append(", \"unit\": \"");
    json.append(spec.unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string FreshDir(const RunConfig& config, const std::string& name) {
  std::filesystem::path dir = std::filesystem::path(config.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void RemoveDir(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

double MedianSetupSeconds(int runs, const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < runs; ++i) {
    teardown();
    double start = WallMs();
    setup();
    seconds.push_back((WallMs() - start) / 1000.0);
  }
  return Percentile(seconds, 0.5);
}

LiveViews LiveViewSpace(storage::ViewCatalog* catalog) {
  LiveViews live;
  for (const storage::MaterializedView* view : catalog->ViewsSnapshot()) {
    if (catalog->IsQuarantined(view) ||
        catalog->ReplacementFor(view) != nullptr) {
      continue;
    }
    ++live.count;
    live.size_bytes += view->SizeBytes();
    for (const storage::StoredList& list : view->lists()) {
      live.pages += list.PageSpan();
    }
    live.pages += view->tuple_list().PageSpan();
  }
  return live;
}

void QueryLayers::Add(const core::RunResult& result) {
  ++queries;
  pages_read += result.io.pages_read;
  io_ms += result.io_ms;
  total_ms += result.total_ms;
  pool_hits += result.io.pool_hits;
  pool_misses += result.io.pool_misses;
  entries_scanned += result.stats.entries_scanned;
  entries_skipped += result.stats.entries_skipped;
  pointer_jumps += result.stats.pointer_jumps;
  double resolve = 0, eval = 0, extend = 0;
  for (const plan::PlanStep& step : result.plan.steps) {
    switch (step.kind) {
      case plan::StepKind::kResolveCover:
        resolve += step.stats.elapsed_ms;
        break;
      case plan::StepKind::kEvalSegments:
        eval += step.stats.elapsed_ms;
        break;
      case plan::StepKind::kExtendOutput:
        extend += step.stats.elapsed_ms;
        break;
      default:
        break;
    }
  }
  resolve_cover_ms.push_back(resolve);
  eval_segments_ms.push_back(eval);
  extend_output_ms.push_back(extend);
}

void QueryLayers::Report(RunReport* report) const {
  if (queries == 0) return;
  double n = static_cast<double>(queries);
  report->Set("storage.pages_read_per_query", pages_read / n);
  report->Set("storage.io_share", total_ms > 0 ? io_ms / total_ms : 0);
  if (pool_hits + pool_misses > 0) {
    report->Set("storage.pool_hit_ratio",
                static_cast<double>(pool_hits) /
                    static_cast<double>(pool_hits + pool_misses));
  }
  report->Set("algo.entries_scanned_per_query", entries_scanned / n);
  report->Set("core.pointer_jumps_per_query", pointer_jumps / n);
  uint64_t touched = entries_scanned + entries_skipped;
  report->Set("core.skip_ratio",
              touched > 0 ? static_cast<double>(entries_skipped) /
                                static_cast<double>(touched)
                          : 0);
  report->Set("plan.resolve_cover_ms_p50", Percentile(resolve_cover_ms, 0.5));
  report->Set("plan.eval_segments_ms_p50", Percentile(eval_segments_ms, 0.5));
  report->Set("plan.extend_output_ms_p50", Percentile(extend_output_ms, 0.5));
}

namespace {

const char* StepLayer(plan::StepKind kind) {
  switch (kind) {
    case plan::StepKind::kResolveCover:
      return "plan";
    case plan::StepKind::kEvalSegments:
    case plan::StepKind::kExtendOutput:
      return "join";
    case plan::StepKind::kSpill:
      return "storage";
    case plan::StepKind::kVerifyFallback:
      return "core";
  }
  return "core";
}

}  // namespace

void TraceEngineCall(Tracer* tracer, const char* name, uint64_t request,
                     double start_ms, double end_ms,
                     const core::RunResult& result) {
  if (!tracer->enabled()) return;
  int64_t call = tracer->Add(name, "core", -1, request, start_ms, end_ms);
  double at = start_ms;
  for (const plan::PlanStep& step : result.plan.steps) {
    double end = std::min(end_ms, at + step.stats.elapsed_ms);
    tracer->Add(std::string("plan.") + plan::StepKindName(step.kind),
                StepLayer(step.kind), call, request, at, end);
    at = end;
  }
}

void ReportSelfTimes(const Tracer& tracer, uint64_t operations,
                     RunReport* report) {
  if (operations == 0) return;
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  for (const char* layer : {"server", "core", "plan", "join", "view"}) {
    report->Set(std::string("self.") + layer + "_ms_per_op",
                self[layer] / static_cast<double>(operations));
  }
  report->Set("trace.spans", static_cast<double>(tracer.spans().size()));
}

void HostNoise::Report(RunReport* report) const {
  double steal = StealShare(start_, ReadProcStat());
  double load = LoadAverage1();
  report->Set("host.steal_share", steal);
  report->Set("host.loadavg_1m", load);
  report->Info("host.steal_share", steal);
  report->Info("host.loadavg_1m", load);
}

}  // namespace viewjoin::perfbench
