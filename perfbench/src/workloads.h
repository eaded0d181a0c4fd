#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "core/index.h"
#include "harness.h"
#include "phase.h"
#include "storage/io_stats.h"

namespace perfbench {

/// Each returns 0 when the run completed (answers checked into
/// `report`), non-zero when it could not run at all.
int RunCold(const RunConfig& config, Report* report);
int RunMixed(const RunConfig& config, Report* report);

/// Declares every per-layer metric at 0 with its unit, in a fixed order,
/// so both workloads print the same set. A workload then overwrites what
/// it measures; a metric left at 0 has no such operation on that
/// workload (e.g. WAL counts on the read-only workload).
void DeclareLayerMetrics(Report* report);

/// serving.* metrics: server-side timings over the measured phase
/// (`before`/`after` stats snapshots), client round trips, and the codec
/// time per traced operation.
void SetServingMetrics(Report* report, const ServerTimings& before,
                       const ServerTimings& after, const PhaseResult& phase,
                       const Tracer& tracer);

/// index.*, btree.* and pool.* metrics from a traced replay: `costs`
/// and `io` are totals over `queries` KNN calls, `knn_seconds` their
/// summed call time, `corpus_vitris` the ViTris a query could scan.
void SetIndexMetrics(Report* report, const vitri::core::QueryCosts& costs,
                     const vitri::storage::IoSnapshot& io, double queries,
                     double knn_seconds, double corpus_vitris,
                     double tree_height);

/// trace.overhead_pct: traced time of what the server's worker runs per
/// request (the index call plus the response encode) against the
/// untraced worker time per request from the stats endpoint.
void SetTraceOverhead(Report* report, const Tracer& tracer,
                      const ServerTimings& before, const ServerTimings& after);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
