#ifndef VIEWJOIN_PERFBENCH_WORKLOADS_H_
#define VIEWJOIN_PERFBENCH_WORKLOADS_H_

#include "src/report.h"

namespace viewjoin::perfbench {

/// Fig. 5 grid, cold: every algorithm × scheme cell of the 14 XMark and 8
/// NASA queries through Engine::Execute with cold_cache, in seeded order.
void RunFig5Cold(const RunConfig& config, RunReport* report);

/// Served queries: one keep-alive Client against an in-process QueryServer,
/// Zipf-skewed request kinds, every view resident in the buffer pool.
void RunServeZipf(const RunConfig& config, RunReport* report);

/// Interleaved update batches and standing-query passes on a persistent
/// engine over a gap-relabelled XMark document.
void RunUpdateMix(const RunConfig& config, RunReport* report);

}  // namespace viewjoin::perfbench

#endif  // VIEWJOIN_PERFBENCH_WORKLOADS_H_
