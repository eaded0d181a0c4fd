#include <algorithm>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

void DeclareLayerMetrics(Report* report) {
  static const char* const kMetrics[][2] = {
      {"serving.queue_wait_us_p50", "us"},
      {"serving.exec_us_p50", "us"},
      {"serving.transport_us_mean", "us"},
      {"serving.codec_us_p50", "us"},
      {"sharded.knn_ms_p50", "ms"},
      {"sharded.merge_us_p50", "us"},
      {"sharded.slowest_shard_ms_p50", "ms"},
      {"sharded.candidate_skew", "ratio"},
      {"index.knn_ms_p50", "ms"},
      {"index.candidates", "count"},
      {"index.similarity_evals", "count"},
      {"index.range_searches", "count"},
      {"index.pruned_ratio", "ratio"},
      {"index.evals_per_candidate", "ratio"},
      {"index.ns_per_candidate", "ns"},
      {"index.stage.transform_us_p50", "us"},
      {"index.stage.compose_us_p50", "us"},
      {"index.stage.scan_us_p50", "us"},
      {"index.stage.refine_us_p50", "us"},
      {"index.stage.rank_us_p50", "us"},
      {"index.insert_us_p50", "us"},
      {"ingest.us_per_video", "us"},
      {"btree.height", "count"},
      {"btree.pages_per_range", "count"},
      {"pool.logical_reads", "count"},
      {"pool.physical_reads", "count"},
      {"pool.evictions", "count"},
      {"pool.hit_ratio", "ratio"},
      {"pool.prefetch_hit_ratio", "ratio"},
      {"wal.commits", "count"},
      {"wal.durable_commits", "count"},
      {"wal.bytes_per_insert", "bytes"},
      {"recovery.records_replayed", "count"},
      {"recovery.snapshot_bytes", "bytes"},
      {"recovery.checkpoint_s", "s"},
      {"summarize.us_per_video", "us"},
      {"summarize.vitris_per_video", "count"},
      {"summarize.frames_per_s", "1/s"},
      {"knn_p99_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"insert_p50_ms", "ms"},
      {"insert_p99_ms", "ms"},
      {"recovery_s", "s"},
      {"disk_bytes_per_user_byte", "ratio"},
      {"failed_ratio", "ratio"},
      {"bench.synthesis_s", "s"},
      {"bench.oracle_s", "s"},
      {"host.steal_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& m : kMetrics) report->Set(m[0], 0.0, m[1]);
}

void SetServingMetrics(Report* report, const ServerTimings& before,
                       const ServerTimings& after, const PhaseResult& phase,
                       const Tracer& tracer) {
  const double exec_n = after.exec_count - before.exec_count;
  const double wait_n = after.wait_count - before.wait_count;
  const double exec_mean =
      exec_n > 0 ? (after.exec_sum_us - before.exec_sum_us) / exec_n : 0.0;
  const double wait_mean =
      wait_n > 0 ? (after.wait_sum_us - before.wait_sum_us) / wait_n : 0.0;
  double rtt_sum_us = 0.0;
  for (double ms : phase.knn_ms) rtt_sum_us += ms * 1e3;
  for (double ms : phase.insert_ms) rtt_sum_us += ms * 1e3;
  const double rtt_n =
      static_cast<double>(phase.knn_ms.size() + phase.insert_ms.size());
  report->Set("serving.queue_wait_us_p50", after.wait_p50_us, "us");
  report->Set("serving.exec_us_p50", after.exec_p50_us, "us");
  report->Set("serving.transport_us_mean",
              rtt_n > 0 ? rtt_sum_us / rtt_n - exec_mean - wait_mean : 0.0,
              "us");
  report->Set("serving.codec_us_p50", Percentile(CodecMicrosPerRoot(tracer), 50),
              "us");
}

void SetIndexMetrics(Report* report, const vitri::core::QueryCosts& costs,
                     const vitri::storage::IoSnapshot& io, double queries,
                     double knn_seconds, double corpus_vitris,
                     double tree_height) {
  const double q = std::max(1.0, queries);
  const double cand = static_cast<double>(costs.candidates);
  const double evals = static_cast<double>(costs.similarity_evals);
  const double ranges = static_cast<double>(costs.range_searches);
  const double logical = static_cast<double>(io.logical_reads);
  report->Set("index.candidates", cand / q, "count");
  report->Set("index.similarity_evals", evals / q, "count");
  report->Set("index.range_searches", ranges / q, "count");
  report->Set("index.pruned_ratio",
              corpus_vitris > 0 ? 1.0 - std::min(1.0, cand / q / corpus_vitris)
                                : 0.0,
              "ratio");
  report->Set("index.evals_per_candidate", cand > 0 ? evals / cand : 0.0,
              "ratio");
  report->Set("index.ns_per_candidate", cand > 0 ? knn_seconds * 1e9 / cand : 0.0,
              "ns");
  report->Set("btree.height", tree_height, "count");
  report->Set("btree.pages_per_range", ranges > 0 ? logical / ranges : 0.0,
              "count");
  report->Set("pool.logical_reads", logical / q, "count");
  report->Set("pool.physical_reads", static_cast<double>(io.physical_reads) / q,
              "count");
  report->Set("pool.evictions", static_cast<double>(io.evictions) / q, "count");
  report->Set("pool.hit_ratio",
              logical > 0 ? static_cast<double>(io.cache_hits) / logical : 0.0,
              "ratio");
  report->Set("pool.prefetch_hit_ratio",
              logical > 0 ? static_cast<double>(io.prefetch_hits) / logical : 0.0,
              "ratio");
}

void SetTraceOverhead(Report* report, const Tracer& tracer,
                      const ServerTimings& before, const ServerTimings& after) {
  // What the worker thread times per request: the index call and the
  // response encode (plus the socket write, which the replay lacks).
  double worker_ns = 0.0;
  double roots = 0.0;
  std::vector<bool> is_root(tracer.spans().size() + 1, false);
  for (const Span& s : tracer.spans()) {
    if (s.parent == 0) {
      is_root[s.id] = true;
      roots += 1.0;
    } else if (is_root[s.parent] && s.name != "serving.encode_request" &&
               s.name != "serving.decode_request" &&
               s.name != "serving.decode_response") {
      worker_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  const double exec_n = after.exec_count - before.exec_count;
  const double exec_mean_us =
      exec_n > 0 ? (after.exec_sum_us - before.exec_sum_us) / exec_n : 0.0;
  if (roots > 0 && exec_mean_us > 0) {
    report->Set("trace.overhead_pct",
                100.0 * (worker_ns * 1e-3 / roots) / exec_mean_us - 100.0, "%");
  }
}

}  // namespace perfbench
