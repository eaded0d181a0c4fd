// knn_cold_100k: read-only KNN at corpus scale. 10^5 two-second clips at
// dim 16 are summarized and streamed through ShardedIndexBuilder into 4
// hash-assigned shards with locally fitted reference points and the
// default 256-frame pool each, far below the ~18 MB leaf level, so almost
// every page fetch misses the pool. One client sends one near-duplicate
// query per request to a one-worker server with sequential scatter.
#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "phase.h"
#include "serving/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vitri::core::QueryCosts;
using vitri::core::ShardedIndexBuilder;
using vitri::core::ShardedIndexOptions;
using vitri::core::ShardedViTriIndex;
using vitri::core::VideoMatch;

struct ColdShape {
  size_t videos = 100000;
  size_t chunk_videos = 1024;
  int dimension = 16;
  double clip_seconds = 2.0;
  size_t shards = 4;
  /// One distinct query per measured request at the default length, so
  /// the median is not carried by a few recurring queries.
  size_t distinct_queries = 1024;
  /// Measured KNN requests per --seconds: fixed counts keep every run of
  /// a seed identical; the rate was set so a phase lasts about --seconds
  /// on a 4-vCPU VM.
  double ops_per_second = 34.0;
  size_t min_ops = 1000;  // knn_p99_ms needs ten samples beyond it.
  size_t warmup_ops = 48;
  size_t setup_reps = 3;
  /// Frames per shard pool (the index default).
  size_t pool_pages = 256;
};

ColdShape ShapeFor(const RunConfig& config) {
  ColdShape shape;
  if (config.small) {
    shape.videos = 3000;
    shape.chunk_videos = 256;
    shape.distinct_queries = 24;
    shape.min_ops = 60;
    shape.warmup_ops = 8;
    // Keep the tree far larger than the pool at the reduced size too.
    shape.pool_pages = 8;
  }
  if (config.trace) shape.setup_reps = 1;
  return shape;
}

/// Sum of the shards' pool counters.
vitri::storage::IoSnapshot PoolTotals(const ShardedViTriIndex& index) {
  vitri::storage::IoSnapshot total;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    if (const auto* shard = index.shard(s)) {
      total = total + shard->io_stats().Snapshot();
    }
  }
  return total;
}

}  // namespace

int RunCold(const RunConfig& config, Report* report) {
  const ColdShape shape = ShapeFor(config);
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  Fingerprint fp;

  SynthesisSpec spec;
  spec.seed = config.seed;
  spec.stream = 1;
  spec.num_videos = shape.videos;
  spec.chunk_videos = shape.chunk_videos;
  spec.duration = shape.clip_seconds;
  spec.dimension = shape.dimension;

  // Query sources: distinct corpus videos drawn from the seed.
  std::vector<uint32_t> sources;
  {
    vitri::Rng rng(Mix(config.seed, 2));
    std::set<uint32_t> picked;
    while (picked.size() < shape.distinct_queries) {
      picked.insert(static_cast<uint32_t>(rng.UniformU64(shape.videos)));
    }
    sources.assign(picked.begin(), picked.end());
  }
  std::vector<Query> queries(sources.size());

  vitri::core::ViTriBuilderOptions bo;
  bo.epsilon = kEpsilon;
  const vitri::core::ViTriBuilder builder(bo);

  // --- Synthesis (untimed) and summarization (timed, repeated) -------
  auto made = SummarizeCorpus(spec, shape.setup_reps, threads, builder,
                              sources, 3, &queries, &fp);
  if (!made.ok()) {
    report->Fail("summarize: " + made.status().ToString());
    return 1;
  }
  std::vector<Insertable>& corpus = made->videos;
  const std::vector<double>& summarize_s = made->summarize_s;
  const double synthesis_s = made->synthesis_s;
  const uint64_t frames = made->frames;
  size_t corpus_vitris = 0;
  for (const Insertable& v : corpus) corpus_vitris += v.vitris.size();
  double query_vitris = 0.0;
  for (const Query& q : queries) {
    query_vitris += static_cast<double>(q.vitris.size());
  }

  // --- Oracle (untimed): brute force over every summary -------------
  Clock::time_point t0 = Clock::now();
  std::vector<std::vector<VideoMatch>> oracle(queries.size());
  {
    vitri::ThreadPool pool(threads);
    pool.ParallelFor(queries.size(), [&](size_t qi) {
      TopK top(kTopK);
      for (const Insertable& v : corpus) {
        const double shared = SharedFrames(queries[qi].vitris, v.vitris);
        if (shared > 0.0) {
          top.Offer(v.video_id,
                    Similarity(shared, queries[qi].num_frames, v.num_frames));
        }
      }
      oracle[qi] = top.matches();
    });
  }
  const double oracle_s = SecondsSince(t0);

  // --- Setup (timed, repeated): ingest + server start ---------------
  ShardedIndexOptions io;
  io.num_shards = shape.shards;
  io.assignment = vitri::core::ShardAssignment::kHash;
  io.local_reference_points = true;
  io.shard_options.dimension = shape.dimension;
  io.shard_options.epsilon = kEpsilon;
  io.shard_options.buffer_pool_pages = shape.pool_pages;
  const std::string socket = config.workdir + "/cold.sock";
  serving::ServerOptions so;
  so.unix_socket_path = socket;
  so.num_workers = 1;
  so.knn_threads = 1;

  // The client and every server thread share one vCPU from here on, so
  // a request's thread hand-offs never wait for an idle vCPU to be
  // scheduled again by the host.
  report->Meta("pinned_cpu", std::to_string(PinToCurrentCpu()));
  std::vector<double> setup_s(shape.setup_reps, 0.0);
  std::vector<double> ingest_s(shape.setup_reps, 0.0);
  std::unique_ptr<ShardedViTriIndex> index;
  std::unique_ptr<serving::Server> server;
  for (size_t r = 0; r < shape.setup_reps; ++r) {
    server.reset();
    index.reset();
    TrimHeap();
    const bool last = r + 1 == shape.setup_reps;
    std::vector<Insertable> copy;
    if (!last) copy = corpus;
    std::vector<Insertable>& feed = last ? corpus : copy;
    t0 = Clock::now();
    ShardedIndexBuilder ingest(io);
    for (Insertable& v : feed) {
      const vitri::Status st =
          ingest.Add(v.video_id, v.num_frames, std::move(v.vitris));
      if (!st.ok()) {
        report->Fail("ingest: " + st.ToString());
        return 1;
      }
    }
    auto built = std::move(ingest).Finish();
    if (!built.ok()) {
      report->Fail("ingest: " + built.status().ToString());
      return 1;
    }
    index = std::make_unique<ShardedViTriIndex>(std::move(*built));
    ingest_s[r] = SecondsSince(t0);
    server = std::make_unique<serving::Server>(index.get(), so);
    const vitri::Status st = server->Start();
    if (!st.ok()) {
      report->Fail("server start: " + st.ToString());
      return 1;
    }
    setup_s[r] = SecondsSince(t0) + summarize_s[r];
  }
  corpus.clear();
  corpus.shrink_to_fit();
  TrimHeap();

  // --- Schedule: a seeded order over the distinct queries -----------
  const size_t measured_ops = std::max(
      shape.min_ops,
      static_cast<size_t>(config.seconds * shape.ops_per_second));
  std::vector<uint32_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  {
    vitri::Rng rng(Mix(config.seed, 4));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformU64(i)]);
    }
  }
  std::vector<Op> warmup;
  std::vector<Op> ops;
  for (size_t i = 0; i < shape.warmup_ops; ++i) {
    warmup.push_back(Op{false, order[(order.size() / 2 + i) % order.size()]});
  }
  for (size_t i = 0; i < measured_ops; ++i) {
    ops.push_back(Op{false, order[i % order.size()]});
  }

  auto client = serving::Client::ConnectUnix(socket);
  if (!client.ok()) {
    report->Fail("connect: " + client.status().ToString());
    return 1;
  }
  const PhaseResult warm =
      RunPhase(&*client, warmup, queries, {}, shape.dimension, 1);
  ServerTimings before;
  ServerTimings after;
  bool stats_ok = ReadServerTimings(&*client, 900000000, &before);
  const vitri::storage::IoSnapshot io_before = PoolTotals(*index);
  const CpuTimes cpu_before = ReadCpuTimes();
  const PhaseResult phase =
      RunPhase(&*client, ops, queries, {}, shape.dimension, 1000000);
  const CpuTimes cpu_after = ReadCpuTimes();
  const vitri::storage::IoSnapshot io_phase = PoolTotals(*index) - io_before;
  TrimHeap();
  const double rss_mb = ResidentMegabytes();
  stats_ok = ReadServerTimings(&*client, 900000001, &after) && stats_ok;
  if (!server->Shutdown().ok()) report->Fail("server shutdown");

  // --- Checks ----------------------------------------------------------
  report->attempted = phase.attempted;
  report->failed = phase.failed + warm.failed;
  for (const std::string& e : phase.errors) report->Fail("request: " + e);
  for (const std::string& e : warm.errors) report->Fail("warm-up: " + e);
  auto check = [&](const PhaseResult& p, const std::vector<Op>& sched,
                   const char* what) {
    for (size_t i = 0; i < sched.size() && i < p.answers.size(); ++i) {
      std::string why;
      if (!SameAnswer(p.answers[i], oracle[sched[i].index], &why)) {
        report->Fail(std::string(what) + " op " + std::to_string(i) +
                     " query " + std::to_string(sched[i].index) + ": " + why);
      }
    }
  };
  check(warm, warmup, "warm-up");
  check(phase, ops, "measured");
  for (const Query& q : queries) {
    if (q.vitris.empty()) report->Fail("empty query summary");
  }
  const double hit_ratio =
      io_phase.logical_reads == 0
          ? 0.0
          : static_cast<double>(io_phase.cache_hits) /
                static_cast<double>(io_phase.logical_reads);
  if (hit_ratio > 0.1) {
    report->Fail("cold workload served " + std::to_string(hit_ratio) +
                 " of page fetches from the pool (expected near zero)");
  }
  if (!stats_ok) report->Fail("server stats endpoint unreadable");
  for (const std::vector<VideoMatch>& got : phase.answers) {
    report->HashAnswers(got);
  }

  // --- Metadata --------------------------------------------------------
  report->Meta("corpus.videos", std::to_string(shape.videos));
  report->Meta("corpus.vitris", std::to_string(corpus_vitris));
  report->Meta("corpus.dimension", std::to_string(shape.dimension));
  report->Meta("corpus.frames", std::to_string(frames));
  report->Meta("queries.distinct", std::to_string(queries.size()));
  report->Meta("queries.vitris_mean",
               query_vitris / static_cast<double>(queries.size()));
  report->Meta("ops.measured", std::to_string(ops.size()));
  report->Meta("ops.warmup", std::to_string(warmup.size()));
  report->Meta("index.shards", std::to_string(index->num_shards()));
  report->Meta("index.assignment", "hash, local reference points");
  std::string pages;
  for (size_t s = 0; s < index->num_shards(); ++s) {
    const auto* shard = index->shard(s);
    if (shard == nullptr) continue;
    const auto io_all = shard->io_stats().Snapshot();
    pages += (pages.empty() ? "" : ", ") + std::to_string(s) + ": " +
             std::to_string(io_all.allocations) + " pages allocated vs " +
             std::to_string(shard->options().buffer_pool_pages) + " frames";
  }
  report->Meta("index.pages_vs_frames", pages);
  report->Meta("wal.sync_mode", "none (in-memory, not durable)");
  report->Meta("workdir.filesystem", FilesystemName(config.workdir));
  report->Meta("host.steal_pct", StealPct(cpu_before, cpu_after));
  report->Meta("input.fingerprint", std::to_string(fp.value()));
  report->Meta("knn_ms.window_p50", WindowMedians(phase.knn_ms, 5));
  report->Meta("setup_s.reps", Join(setup_s));
  const double tail = SupportedTailPercentile(phase.knn_ms.size());
  if (tail < 99.0) {
    report->Meta("knn_p99_ms.note", "fewer than 1000 samples; reports p" +
                                        std::to_string(static_cast<int>(tail)));
  }
  const double knn_p99 = Percentile(phase.knn_ms, tail);
  const double ops_per_s =
      static_cast<double>(phase.knn_ms.size()) / phase.seconds;
  report->Meta("knn_p99_ms", knn_p99);
  report->Meta("ops_per_s", ops_per_s);

  if (!config.trace) {
    report->Set("knn_p50_ms", Percentile(phase.knn_ms, 50), "ms");
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("rss_mb", rss_mb, "MB");
    return 0;
  }

  // --- Traced replay: the same schedule through the layers directly --
  DeclareLayerMetrics(report);
  report->Set("knn_p99_ms", knn_p99, "ms");
  report->Set("ops_per_s", ops_per_s, "1/s");
  Tracer tracer;
  std::vector<double> knn_ms;
  std::vector<double> merge_us;
  std::vector<double> slowest_ms;
  std::vector<uint64_t> shard_candidates(index->num_shards(), 0);
  QueryCosts totals;
  double knn_seconds = 0.0;
  const vitri::storage::IoSnapshot trace_io_before = PoolTotals(*index);
  std::vector<QueryCosts> shard_costs;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Query& q = queries[ops[i].index];
    const uint64_t rid = 2000000 + i;
    const uint32_t root = tracer.Open("op.knn", "bench", 0, rid);
    std::vector<VideoMatch> answer;
    QueryCosts costs;
    const uint32_t call = TraceKnn(
        &tracer, root, rid, q, shape.dimension, "sharded.knn",
        "core.sharded.merge",
        [&](const serving::KnnRequest& req) {
          auto r = index->Knn(req.queries[0].vitris, req.queries[0].num_frames,
                              req.k, req.method, &costs, &shard_costs);
          return r.ok() ? *r : std::vector<VideoMatch>{};
        },
        &answer);
    tracer.Close(root);
    const Span& cs = tracer.span(call);
    const int64_t call_start = cs.start_ns;
    const double call_s = static_cast<double>(cs.end_ns - cs.start_ns) * 1e-9;
    // Per-shard KNN time as the sharded index reports it; scatter is
    // sequential, so the shard intervals are laid end to end.
    int64_t at = call_start;
    double shard_sum = 0.0;
    double slowest = 0.0;
    for (size_t s = 0; s < shard_costs.size(); ++s) {
      const double sec = shard_costs[s].cpu_seconds;
      if (sec <= 0.0) continue;
      const auto ns = static_cast<int64_t>(sec * 1e9);
      tracer.Add("index.knn", "core.index.knn", call, rid, at, at + ns, true);
      at += ns;
      shard_sum += sec;
      slowest = std::max(slowest, sec);
      shard_candidates[s] += shard_costs[s].candidates;
    }
    knn_ms.push_back(call_s * 1e3);
    knn_seconds += call_s;
    merge_us.push_back(std::max(0.0, call_s - shard_sum) * 1e6);
    slowest_ms.push_back(slowest * 1e3);
    totals += costs;
    std::string why;
    if (!SameAnswer(answer, oracle[ops[i].index], &why)) {
      report->Fail("traced op " + std::to_string(i) + ": " + why);
    }
  }
  const vitri::storage::IoSnapshot trace_io =
      PoolTotals(*index) - trace_io_before;
  const std::string span_file = config.workdir + "/spans.jsonl";
  if (!tracer.WriteJsonLines(span_file)) report->Fail("cannot write spans");
  report->Meta("trace.span_file", span_file);
  SummarizeLayers(tracer, ops.size(), report);

  const double n = static_cast<double>(ops.size());
  SetServingMetrics(report, before, after, phase, tracer);
  report->Set("sharded.knn_ms_p50", Percentile(knn_ms, 50), "ms");
  report->Set("sharded.merge_us_p50", Percentile(merge_us, 50), "us");
  report->Set("sharded.slowest_shard_ms_p50", Percentile(slowest_ms, 50), "ms");
  double cand_sum = 0.0;
  double cand_max = 0.0;
  for (uint64_t c : shard_candidates) {
    cand_sum += static_cast<double>(c);
    cand_max = std::max(cand_max, static_cast<double>(c));
  }
  report->Set("sharded.candidate_skew",
              cand_sum > 0 ? cand_max * static_cast<double>(
                                            shard_candidates.size()) /
                                 cand_sum
                           : 0.0,
              "ratio");
  SetIndexMetrics(report, totals, trace_io, n, knn_seconds,
                  static_cast<double>(corpus_vitris),
                  static_cast<double>(index->tree_height()));
  report->Set("ingest.us_per_video",
              Median(ingest_s) * 1e6 / static_cast<double>(shape.videos), "us");
  const double summarize = Median(summarize_s);
  report->Set("summarize.us_per_video",
              summarize * 1e6 / static_cast<double>(shape.videos), "us");
  report->Set("summarize.vitris_per_video",
              static_cast<double>(corpus_vitris) /
                  static_cast<double>(shape.videos),
              "count");
  report->Set("summarize.frames_per_s",
              summarize > 0 ? static_cast<double>(frames) / summarize : 0.0,
              "1/s");
  report->Set("failed_ratio",
              phase.attempted ? static_cast<double>(phase.failed) /
                                    static_cast<double>(phase.attempted)
                              : 0.0,
              "ratio");
  report->Set("bench.synthesis_s", synthesis_s, "s");
  report->Set("bench.oracle_s", oracle_s, "s");
  report->Set("host.steal_pct", StealPct(cpu_before, cpu_after), "%");
  SetTraceOverhead(report, tracer, before, after);

  report->Count("pool.logical_reads", trace_io.logical_reads);
  report->Count("pool.physical_reads", trace_io.physical_reads);
  report->Count("pool.evictions", trace_io.evictions);
  report->Count("index.candidates", totals.candidates);
  report->Count("index.similarity_evals", totals.similarity_evals);
  report->Count("index.range_searches", totals.range_searches);
  report->Count("corpus.vitris", corpus_vitris);
  return 0;
}

}  // namespace perfbench
