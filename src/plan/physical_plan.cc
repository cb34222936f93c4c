#include "plan/physical_plan.h"

#include <cstdio>
#include <sstream>

namespace viewjoin::plan {

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kResolveCover:
      return "resolve-cover";
    case StepKind::kEvalSegments:
      return "eval-segments";
    case StepKind::kExtendOutput:
      return "extend-output";
    case StepKind::kSpill:
      return "spill";
    case StepKind::kVerifyFallback:
      return "verify-fallback";
  }
  return "?";
}

std::string PhysicalPlan::ToString() const {
  std::ostringstream out;
  out << "Plan [" << AlgorithmName(algorithm) << ", "
      << (mode == algo::OutputMode::kMemory ? "memory" : "disk") << "]";
  if (estimated_cost > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", estimated_cost);
    out << " cost=" << buf;
  }
  out << " views=" << views.size();
  if (from_cache) out << " (cached)";
  out << "\n";
  for (const PlanStep& step : steps) {
    out << "  -> " << StepKindName(step.kind);
    for (size_t pad = std::string(StepKindName(step.kind)).size(); pad < 16;
         ++pad) {
      out << ' ';
    }
    out << step.detail << "\n";
  }
  return out.str();
}

std::string ExplainResult::ToString() const {
  std::ostringstream out;
  out << text;
  if (!steps.empty()) {
    out << "  step              elapsed_ms  pages_read   decoded  entries     "
           "jumps\n";
    for (const PlanStep& step : steps) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-16s  %10.3f  %10llu  %8llu  %10llu  %8llu\n",
                    StepKindName(step.kind), step.stats.elapsed_ms,
                    static_cast<unsigned long long>(step.stats.pages_read),
                    static_cast<unsigned long long>(step.stats.pages_decoded),
                    static_cast<unsigned long long>(
                        step.stats.entries_advanced),
                    static_cast<unsigned long long>(step.stats.pointer_jumps));
      out << line;
    }
  }
  return out.str();
}

}  // namespace viewjoin::plan
