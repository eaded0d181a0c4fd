// mixed_hot_durable: writes beside reads on a hot, durable index. About
// 1.5k Table-2-mix clips (10/15/30 s) at dim 64 live in one ViTriIndex
// with a WAL synced on every commit (fdatasync) in a fresh directory, and
// a pool larger than the final tree. One client sends a fixed interleave
// of 4 near-duplicate KNN requests to 1 insert of a pre-summarized clip.
// At the end the server stops without a checkpoint and the directory is
// reopened, which replays every insert of the run.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/vitri_builder.h"
#include "phase.h"
#include "serving/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using vitri::core::QueryCosts;
using vitri::core::QueryTrace;
using vitri::core::VideoMatch;
using vitri::core::ViTri;
using vitri::core::ViTriIndex;

struct MixedShape {
  size_t videos = 1500;
  size_t chunk_videos = 16;
  int dimension = 64;
  size_t distinct_queries = 256;
  /// Operations per --seconds (fixed counts, as on the cold workload).
  double ops_per_second = 200.0;
  /// Schedule group: this many KNN requests, then one insert.
  size_t knn_per_insert = 4;
  /// Passes per run. Each pass sets up a fresh index and serves the whole
  /// schedule, so the tree grows by about a quarter in a pass rather than
  /// doubling over the run; a traced run makes one pass.
  size_t passes = 3;
};

/// The untraced pass count, which sizes every pass (traced runs too).
constexpr size_t kPassesPerRun = 3;

MixedShape ShapeFor(const RunConfig& config) {
  MixedShape shape;
  if (config.small) {
    shape.videos = 120;
    shape.distinct_queries = 12;
    shape.ops_per_second = 60.0;
  }
  if (config.trace) shape.passes = 1;
  return shape;
}

/// The per-query brute-force state: estimated shared frames with every
/// video present so far.
struct OracleState {
  std::vector<std::vector<double>> shared;  // [query][video id]
  std::vector<uint32_t> frames;             // [video id], 0 = absent

  void AddVideo(const std::vector<Query>& queries, const Insertable& v) {
    if (frames.size() <= v.video_id) frames.resize(v.video_id + 1, 0);
    frames[v.video_id] = v.num_frames;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (shared[q].size() <= v.video_id) shared[q].resize(v.video_id + 1, 0.0);
      shared[q][v.video_id] = SharedFrames(queries[q].vitris, v.vitris);
    }
  }

  std::vector<VideoMatch> Answer(const Query& query, size_t q) const {
    TopK top(kTopK);
    for (uint32_t vid = 0; vid < shared[q].size(); ++vid) {
      if (shared[q][vid] <= 0.0 || frames[vid] == 0) continue;
      top.Offer(vid, Similarity(shared[q][vid], query.num_frames, frames[vid]));
    }
    return top.matches();
  }
};

uint64_t HistogramSum(const char* name) {
  return vitri::metrics::Registry::Instance()
      .GetHistogram(name)
      ->TakeSnapshot()
      .sum;
}

}  // namespace

int RunMixed(const RunConfig& config, Report* report) {
  const MixedShape shape = ShapeFor(config);
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  Fingerprint fp;

  const size_t groups = std::max<size_t>(
      1, static_cast<size_t>(config.seconds * shape.ops_per_second) /
             (shape.knn_per_insert + 1) / kPassesPerRun);
  const size_t num_inserts = groups;

  SynthesisSpec corpus_spec;
  corpus_spec.seed = config.seed;
  corpus_spec.stream = 11;
  corpus_spec.num_videos = shape.videos;
  corpus_spec.chunk_videos = shape.chunk_videos;
  corpus_spec.dimension = shape.dimension;
  SynthesisSpec insert_spec = corpus_spec;
  insert_spec.stream = 12;
  insert_spec.first_id = static_cast<uint32_t>(shape.videos);
  insert_spec.num_videos = num_inserts;

  // Query sources: three quarters from the corpus, one quarter from clips
  // inserted during the first half of the run, so answers change as
  // inserts land.
  std::set<uint32_t> picked;
  {
    vitri::Rng rng(Mix(config.seed, 13));
    const size_t span = std::max<size_t>(1, num_inserts / 2);
    const size_t from_inserts = std::min(shape.distinct_queries / 4, span);
    while (picked.size() < shape.distinct_queries - from_inserts) {
      picked.insert(static_cast<uint32_t>(rng.UniformU64(shape.videos)));
    }
    while (picked.size() < shape.distinct_queries) {
      picked.insert(static_cast<uint32_t>(shape.videos + rng.UniformU64(span)));
    }
  }
  const std::vector<uint32_t> sources(picked.begin(), picked.end());
  std::vector<Query> queries(sources.size());

  vitri::core::ViTriBuilderOptions bo;
  bo.epsilon = kEpsilon;
  const vitri::core::ViTriBuilder builder(bo);

  // --- Corpus: synthesis untimed, summarization timed and repeated ---
  auto made = SummarizeCorpus(corpus_spec, shape.passes, threads, builder,
                              sources, 14, &queries, &fp);
  if (!made.ok()) {
    report->Fail("summarize: " + made.status().ToString());
    return 1;
  }
  std::vector<Insertable>& corpus = made->videos;
  const std::vector<double>& summarize_s = made->summarize_s;
  double synthesis_s = made->synthesis_s;
  const uint64_t frames = made->frames;
  vitri::core::ViTriSet base;
  base.dimension = shape.dimension;
  base.frame_counts.assign(shape.videos, 0);
  for (const Insertable& v : corpus) {
    base.frame_counts[v.video_id] = v.num_frames;
    base.vitris.insert(base.vitris.end(), v.vitris.begin(), v.vitris.end());
  }

  // --- Clips to insert: synthesized and summarized before the phase --
  Clock::time_point t0 = Clock::now();
  std::vector<Insertable> inserts(num_inserts);
  {
    auto clips = SynthesizeChunks(insert_spec, 0, NumChunks(insert_spec),
                                  threads, &fp);
    TakeQueries(clips, sources, config.seed, 14, builder, &queries, &fp);
    vitri::ThreadPool pool(threads);
    pool.ParallelFor(clips.size(), [&](size_t i) {
      auto vitris = builder.Build(clips[i]);
      inserts[i] = Insertable{clips[i].id,
                              static_cast<uint32_t>(clips[i].num_frames()),
                              vitris.ok() ? std::move(*vitris)
                                          : std::vector<ViTri>{}};
    });
  }
  // Insert in id order, so the query sources among the inserted clips
  // (the lowest ids) land in the first half of a pass.
  std::sort(inserts.begin(), inserts.end(),
            [](const Insertable& a, const Insertable& b) {
              return a.video_id < b.video_id;
            });
  synthesis_s += SecondsSince(t0);
  TrimHeap();
  size_t insert_vitris = 0;
  for (const Insertable& v : inserts) insert_vitris += v.vitris.size();
  double query_vitris = 0.0;
  for (const Query& q : queries) {
    query_vitris += static_cast<double>(q.vitris.size());
    if (q.vitris.empty()) report->Fail("empty query summary");
  }

  // --- Schedule and its expected answers (untimed) -------------------
  std::vector<Op> ops;
  std::vector<Op> warmup;
  {
    vitri::Rng rng(Mix(config.seed, 15));
    for (size_t g = 0; g < groups; ++g) {
      for (size_t i = 0; i < shape.knn_per_insert; ++i) {
        ops.push_back(Op{false, static_cast<uint32_t>(
                                    rng.UniformU64(queries.size()))});
      }
      ops.push_back(Op{true, static_cast<uint32_t>(g)});
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      warmup.push_back(Op{false, static_cast<uint32_t>(q)});
    }
  }
  t0 = Clock::now();
  OracleState oracle;
  oracle.shared.assign(queries.size(), {});
  {
    // Corpus contributions in parallel over queries, then the schedule.
    oracle.frames = base.frame_counts;
    vitri::ThreadPool pool(threads);
    pool.ParallelFor(queries.size(), [&](size_t q) {
      oracle.shared[q].assign(shape.videos, 0.0);
      for (const Insertable& v : corpus) {
        oracle.shared[q][v.video_id] = SharedFrames(queries[q].vitris, v.vitris);
      }
    });
  }
  std::vector<std::vector<VideoMatch>> warm_expected;
  for (const Op& op : warmup) {
    warm_expected.push_back(oracle.Answer(queries[op.index], op.index));
  }
  std::vector<std::vector<VideoMatch>> expected;
  for (const Op& op : ops) {
    if (op.insert) {
      oracle.AddVideo(queries, inserts[op.index]);
    } else {
      expected.push_back(oracle.Answer(queries[op.index], op.index));
    }
  }
  std::vector<std::vector<VideoMatch>> final_expected;
  for (size_t q = 0; q < queries.size(); ++q) {
    final_expected.push_back(oracle.Answer(queries[q], q));
  }
  const double oracle_s = SecondsSince(t0);
  corpus.clear();
  corpus.shrink_to_fit();

  // --- Index and server configuration -------------------------------
  const size_t record_bytes = ViTri::SerializedSize(shape.dimension);
  vitri::core::ViTriIndexOptions opts;
  opts.dimension = shape.dimension;
  opts.epsilon = kEpsilon;
  // Above the final tree: every record twice over, plus interior slack.
  opts.buffer_pool_pages =
      2 * ((base.vitris.size() + insert_vitris) * (record_bytes + 32) /
           opts.page_size) +
      512;
  const std::string socket = config.workdir + "/mixed.sock";
  serving::ServerOptions so;
  so.unix_socket_path = socket;
  so.num_workers = 1;
  so.knn_threads = 1;
  so.checkpoint_on_shutdown = false;

  // --- Passes: set-up (timed) + warm-up + measured phase + reopen ----
  // Each pass serves the same schedule from a freshly built durable
  // index; the end-to-end metrics are medians over passes.
  struct PassOutcome {
    double setup_s = 0.0;
    double build_s = 0.0;
    double recovery_s = 0.0;
    double rss_mb = 0.0;
    PhaseResult phase;
    ServerTimings before;
    ServerTimings after;
    uint64_t disk_bytes = 0;
    uint64_t acked = 0;
  };
  // The client and every server thread share one vCPU from here on (see
  // the cold workload).
  report->Meta("pinned_cpu", std::to_string(PinToCurrentCpu()));
  std::vector<PassOutcome> passes(shape.passes);
  CpuTimes steal_before;
  CpuTimes steal_after;
  auto check = [&](const std::vector<std::vector<VideoMatch>>& got,
                   const std::vector<std::vector<VideoMatch>>& want,
                   const std::string& what) {
    for (size_t i = 0; i < want.size(); ++i) {
      std::string why;
      if (i >= got.size() || !SameAnswer(got[i], want[i], &why)) {
        report->Fail(what + " knn " + std::to_string(i) + ": " + why);
      }
    }
  };
  for (size_t r = 0; r < passes.size(); ++r) {
    PassOutcome& pass = passes[r];
    const std::string tag = "pass " + std::to_string(r) + " ";
    const std::string dir = config.workdir + "/db-" + std::to_string(r);
    if (!FreshDirectory(dir)) {
      report->Fail("cannot create " + dir);
      return 1;
    }
    t0 = Clock::now();
    auto built = ViTriIndex::Build(base, opts);
    if (!built.ok()) {
      report->Fail("build: " + built.status().ToString());
      return 1;
    }
    auto index = std::make_unique<ViTriIndex>(std::move(*built));
    pass.build_s = SecondsSince(t0);
    std::unique_ptr<serving::Server> server;
    vitri::Status st = index->EnableDurability(dir);
    if (st.ok()) {
      server = std::make_unique<serving::Server>(index.get(), so);
      st = server->Start();
    }
    if (!st.ok()) {
      report->Fail("setup: " + st.ToString());
      return 1;
    }
    pass.setup_s = SecondsSince(t0) + summarize_s[r];

    auto client = serving::Client::ConnectUnix(socket);
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return 1;
    }
    const PhaseResult warm =
        RunPhase(&*client, warmup, queries, inserts, shape.dimension, 1);
    bool stats_ok = ReadServerTimings(&*client, 900000000, &pass.before);
    const vitri::storage::IoSnapshot io_before = index->io_stats().Snapshot();
    const CpuTimes cpu_before = ReadCpuTimes();
    pass.phase =
        RunPhase(&*client, ops, queries, inserts, shape.dimension, 1000000);
    const CpuTimes cpu_after = ReadCpuTimes();
    const vitri::storage::IoSnapshot io_phase =
        index->io_stats().Snapshot() - io_before;
    TrimHeap();
    pass.rss_mb = ResidentMegabytes();
    stats_ok = ReadServerTimings(&*client, 900000001, &pass.after) && stats_ok;
    // The warm-up schedule asks every distinct query once.
    const PhaseResult final_pass = RunPhase(&*client, warmup, queries,
                                            inserts, shape.dimension, 3000000);
    pass.acked = pass.phase.insert_ms.size();
    const uint64_t wal_commits = index->wal_commits();
    if (!server->Shutdown().ok()) report->Fail(tag + "server shutdown");
    server.reset();
    index.reset();
    steal_before.total += cpu_before.total;
    steal_before.steal += cpu_before.steal;
    steal_after.total += cpu_after.total;
    steal_after.steal += cpu_after.steal;

    // Checks.
    report->attempted += pass.phase.attempted;
    report->failed += pass.phase.failed + warm.failed + final_pass.failed;
    for (const std::string& e : pass.phase.errors) report->Fail(tag + e);
    for (const std::string& e : warm.errors) report->Fail(tag + "warm-up " + e);
    for (const std::string& e : final_pass.errors) report->Fail(tag + "final " + e);
    check(warm.answers, warm_expected, tag + "warm-up");
    check(pass.phase.answers, expected, tag + "measured");
    check(final_pass.answers, final_expected, tag + "end of phase");
    if (io_phase.physical_reads != 0 || io_phase.evictions != 0) {
      report->Fail(tag + "read " + std::to_string(io_phase.physical_reads) +
                   " pages from the pager after warm-up");
    }
    if (wal_commits != pass.acked) {
      report->Fail(tag + "wal commits " + std::to_string(wal_commits) +
                   " != acked inserts " + std::to_string(pass.acked));
    }
    if (!stats_ok) report->Fail(tag + "server stats endpoint unreadable");

    // Disk footprint of the stopped directory: generation-1 snapshot + WAL.
    pass.disk_bytes =
        FileSize(dir + "/snapshot-1.vsnp") + FileSize(dir + "/wal-1.vlog");

    // Reopen: replays every acked insert; answers are checked again.
    vitri::core::RecoveryStats rstats;
    t0 = Clock::now();
    auto reopened = ViTriIndex::Open(dir, opts, {}, &rstats);
    pass.recovery_s = SecondsSince(t0);
    if (!reopened.ok()) {
      report->Fail(tag + "reopen: " + reopened.status().ToString());
      continue;
    }
    if (rstats.wal_records_applied != pass.acked ||
        reopened->stored_videos() != shape.videos + pass.acked) {
      report->Fail(tag + "reopened index holds " +
                   std::to_string(rstats.wal_records_applied) +
                   " replayed inserts, " +
                   std::to_string(reopened->stored_videos()) +
                   " videos; expected " + std::to_string(pass.acked) +
                   " acked");
    }
    std::vector<std::vector<VideoMatch>> got;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto knn = reopened->Knn(queries[q].vitris, queries[q].num_frames, kTopK,
                               vitri::core::KnnMethod::kComposed);
      got.push_back(knn.ok() ? *knn : std::vector<VideoMatch>{});
    }
    check(got, final_expected, tag + "after reopen");
  }
  for (const auto& got : passes.back().phase.answers) report->HashAnswers(got);
  const PassOutcome& last = passes.back();
  auto over_passes = [&](const std::function<double(const PassOutcome&)>& f) {
    std::vector<double> v;
    for (const PassOutcome& p : passes) v.push_back(f(p));
    return v;
  };
  size_t stored_vitris = base.vitris.size();
  for (size_t i = 0; i < last.acked && i < inserts.size(); ++i) {
    stored_vitris += inserts[i].vitris.size();
  }

  // --- Metadata --------------------------------------------------------
  report->Meta("corpus.videos", std::to_string(shape.videos));
  report->Meta("corpus.vitris", std::to_string(base.vitris.size()));
  report->Meta("corpus.dimension", std::to_string(shape.dimension));
  report->Meta("corpus.frames", std::to_string(frames));
  report->Meta("inserts.scheduled", std::to_string(num_inserts));
  report->Meta("inserts.vitris", std::to_string(insert_vitris));
  report->Meta("queries.distinct", std::to_string(queries.size()));
  report->Meta("queries.vitris_mean",
               query_vitris / static_cast<double>(queries.size()));
  report->Meta("ops.measured", std::to_string(ops.size()));
  report->Meta("ops.warmup", std::to_string(warmup.size()));
  report->Meta("index.pool_frames", std::to_string(opts.buffer_pool_pages));
  report->Meta("wal.sync_mode", "kEveryCommit, fdatasync");
  report->Meta("workdir.filesystem", FilesystemName(config.workdir));
  report->Meta("host.steal_pct", StealPct(steal_before, steal_after));
  report->Meta("input.fingerprint", std::to_string(fp.value()));
  const double tail = SupportedTailPercentile(last.phase.knn_ms.size());
  const std::vector<double> p50s = over_passes(
      [](const PassOutcome& p) { return Percentile(p.phase.knn_ms, 50); });
  const std::vector<double> tails = over_passes(
      [&](const PassOutcome& p) { return Percentile(p.phase.knn_ms, tail); });
  const std::vector<double> rates = over_passes([](const PassOutcome& p) {
    return static_cast<double>(p.phase.knn_ms.size() +
                               p.phase.insert_ms.size()) /
           p.phase.seconds;
  });
  const std::vector<double> setups =
      over_passes([](const PassOutcome& p) { return p.setup_s; });
  report->Meta("knn_p50_ms.passes", Join(p50s));
  report->Meta("knn_p99_ms.passes", Join(tails));
  report->Meta("ops_per_s.passes", Join(rates));
  report->Meta("setup_s.reps", Join(setups));
  if (tail < 99.0) {
    report->Meta("knn_p99_ms.note", "fewer than 1000 samples a pass; reports p" +
                                        std::to_string(static_cast<int>(tail)));
  }

  report->Meta("knn_p99_ms", Median(tails));
  report->Meta("ops_per_s", Median(rates));

  if (!config.trace) {
    report->Set("knn_p50_ms", Median(p50s), "ms");
    report->Set("setup_s", Median(setups), "s");
    report->Set("rss_mb", last.rss_mb, "MB");
    return 0;
  }

  // --- Traced replay on a fresh durable index ------------------------
  DeclareLayerMetrics(report);
  report->Set("knn_p99_ms", Median(tails), "ms");
  report->Set("ops_per_s", Median(rates), "1/s");
  const std::string trace_dir = config.workdir + "/db-trace";
  if (!FreshDirectory(trace_dir)) {
    report->Fail("cannot create " + trace_dir);
    return 1;
  }
  std::unique_ptr<ViTriIndex> index;
  {
    auto built = ViTriIndex::Build(base, opts);
    if (!built.ok() || !built->EnableDurability(trace_dir).ok()) {
      report->Fail("traced index setup failed");
      return 1;
    }
    index = std::make_unique<ViTriIndex>(std::move(*built));
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    (void)index->Knn(queries[q].vitris, queries[q].num_frames, kTopK,
                     vitri::core::KnnMethod::kComposed);
  }
  Tracer tracer;
  QueryCosts totals;
  double knn_seconds = 0.0;
  std::vector<double> knn_ms;
  std::vector<double> insert_us;
  std::map<std::string, std::vector<double>> stage_us;
  const vitri::storage::IoSnapshot trace_io_before = index->io_stats().Snapshot();
  size_t knn_slot = 0;
  // ViTris a query could scan, summed over the KNN ops (the tree grows).
  double scannable = 0.0;
  size_t present_vitris = base.vitris.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const uint64_t rid = 2000000 + i;
    if (op.insert) {
      const uint32_t root = tracer.Open("op.insert", "bench", 0, rid);
      const uint64_t wal_before = HistogramSum("wal.append_latency_us") +
                                  HistogramSum("wal.fsync_latency_us");
      const uint32_t call = TraceInsert(
          &tracer, root, rid, inserts[op.index], shape.dimension,
          "index.insert", "core.index.insert",
          [&](const serving::InsertRequest& req) {
            return index->Insert(req.video_id, req.num_frames, req.vitris).ok();
          });
      const uint64_t wal_us = HistogramSum("wal.append_latency_us") +
                              HistogramSum("wal.fsync_latency_us") - wal_before;
      tracer.Close(root);
      const Span& cs = tracer.span(call);
      tracer.Add("wal.append_sync", "storage.wal", call, rid, cs.start_ns,
                 std::min(cs.end_ns,
                          cs.start_ns + static_cast<int64_t>(wal_us) * 1000),
                 true);
      insert_us.push_back(static_cast<double>(cs.end_ns - cs.start_ns) * 1e-3);
      present_vitris += inserts[op.index].vitris.size();
      continue;
    }
    const uint32_t root = tracer.Open("op.knn", "bench", 0, rid);
    QueryCosts costs;
    QueryTrace qtrace;
    std::vector<VideoMatch> answer;
    const uint32_t call = TraceKnn(
        &tracer, root, rid, queries[op.index], shape.dimension, "index.knn",
        "core.index.knn",
        [&](const serving::KnnRequest& req) {
          auto r = index->Knn(req.queries[0].vitris, req.queries[0].num_frames,
                              req.k, req.method, &costs, &qtrace);
          return r.ok() ? *r : std::vector<VideoMatch>{};
        },
        &answer);
    tracer.Close(root);
    const Span& cs = tracer.span(call);
    const int64_t call_start = cs.start_ns;
    const double call_s = static_cast<double>(cs.end_ns - cs.start_ns) * 1e-9;
    for (const auto& st : qtrace.spans()) {
      const std::string stage = st.name;
      const auto begin =
          call_start + static_cast<int64_t>(st.start_seconds * 1e9);
      tracer.Add("index.stage." + stage,
                 stage == "scan" ? "btree.scan" : "core.index." + stage, call,
                 rid, begin,
                 begin + static_cast<int64_t>(st.duration_seconds * 1e9), true);
      stage_us[stage].push_back(st.duration_seconds * 1e6);
    }
    knn_ms.push_back(call_s * 1e3);
    knn_seconds += call_s;
    scannable += static_cast<double>(present_vitris);
    totals += costs;
    std::string why;
    if (!SameAnswer(answer, expected[knn_slot], &why)) {
      report->Fail("traced knn " + std::to_string(knn_slot) + ": " + why);
    }
    ++knn_slot;
  }
  const vitri::storage::IoSnapshot trace_io =
      index->io_stats().Snapshot() - trace_io_before;
  const uint64_t trace_commits = index->wal_commits();
  const uint64_t trace_durable = index->wal_durable_commits();
  const uint64_t trace_height = index->tree_height();
  index.reset();
  const uint64_t trace_wal_bytes = FileSize(trace_dir + "/wal-1.vlog");
  const uint64_t trace_snapshot_bytes = FileSize(trace_dir + "/snapshot-1.vsnp");
  vitri::core::RecoveryStats trace_rstats;
  double checkpoint_s = 0.0;
  {
    auto again = ViTriIndex::Open(trace_dir, opts, {}, &trace_rstats);
    if (!again.ok()) {
      report->Fail("traced reopen: " + again.status().ToString());
    } else {
      t0 = Clock::now();
      if (!again->Checkpoint().ok()) report->Fail("checkpoint failed");
      checkpoint_s = SecondsSince(t0);
    }
  }
  const std::string span_file = config.workdir + "/spans.jsonl";
  if (!tracer.WriteJsonLines(span_file)) report->Fail("cannot write spans");
  report->Meta("trace.span_file", span_file);
  SummarizeLayers(tracer, ops.size(), report);

  const double knn_ops = static_cast<double>(knn_ms.size());
  SetServingMetrics(report, last.before, last.after, last.phase, tracer);
  report->Set("index.knn_ms_p50", Percentile(knn_ms, 50), "ms");
  SetIndexMetrics(report, totals, trace_io, knn_ops, knn_seconds,
                  knn_ops > 0 ? scannable / knn_ops : 0.0,
                  static_cast<double>(trace_height));
  for (const char* stage : {"transform", "compose", "scan", "refine", "rank"}) {
    report->Set(std::string("index.stage.") + stage + "_us_p50",
                Percentile(stage_us[stage], 50), "us");
  }
  report->Set("index.insert_us_p50", Percentile(insert_us, 50), "us");
  report->Set("ingest.us_per_video",
              Median(over_passes(
                  [](const PassOutcome& p) { return p.build_s; })) *
                  1e6 / static_cast<double>(shape.videos),
              "us");
  const double summarize = Median(summarize_s);
  report->Set("summarize.us_per_video",
              summarize * 1e6 / static_cast<double>(shape.videos), "us");
  report->Set("summarize.vitris_per_video",
              static_cast<double>(base.vitris.size()) /
                  static_cast<double>(shape.videos),
              "count");
  report->Set("summarize.frames_per_s",
              summarize > 0 ? static_cast<double>(frames) / summarize : 0.0,
              "1/s");
  report->Set("wal.commits", static_cast<double>(trace_commits), "count");
  report->Set("wal.durable_commits", static_cast<double>(trace_durable),
              "count");
  report->Set("wal.bytes_per_insert",
              num_inserts ? static_cast<double>(trace_wal_bytes) /
                                static_cast<double>(num_inserts)
                          : 0.0,
              "bytes");
  report->Set("recovery.records_replayed",
              static_cast<double>(trace_rstats.wal_records_applied), "count");
  report->Set("recovery.snapshot_bytes",
              static_cast<double>(trace_snapshot_bytes), "bytes");
  report->Set("recovery.checkpoint_s", checkpoint_s, "s");
  report->Set("insert_p50_ms", Percentile(last.phase.insert_ms, 50), "ms");
  report->Set("insert_p99_ms",
              Percentile(last.phase.insert_ms,
                         SupportedTailPercentile(last.phase.insert_ms.size())),
              "ms");
  report->Set("recovery_s",
              Median(over_passes(
                  [](const PassOutcome& p) { return p.recovery_s; })),
              "s");
  report->Set("disk_bytes_per_user_byte",
              static_cast<double>(last.disk_bytes) /
                  static_cast<double>(stored_vitris * record_bytes),
              "ratio");
  report->Set("failed_ratio",
              static_cast<double>(report->failed) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted)),
              "ratio");
  report->Set("bench.synthesis_s", synthesis_s, "s");
  report->Set("bench.oracle_s", oracle_s, "s");
  report->Set("host.steal_pct", StealPct(steal_before, steal_after), "%");
  SetTraceOverhead(report, tracer, last.before, last.after);

  report->Count("pool.logical_reads", trace_io.logical_reads);
  report->Count("pool.physical_reads", trace_io.physical_reads);
  report->Count("index.candidates", totals.candidates);
  report->Count("index.similarity_evals", totals.similarity_evals);
  report->Count("index.range_searches", totals.range_searches);
  report->Count("wal.bytes", trace_wal_bytes);
  report->Count("wal.commits", trace_commits);
  report->Count("recovery.records_replayed", trace_rstats.wal_records_applied);
  report->Count("disk.bytes", last.disk_bytes);
  return 0;
}

}  // namespace perfbench
