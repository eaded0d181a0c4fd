// vitri — command-line front end of the library.
//
//   vitri generate  --out db.vvdb [--scale 0.01] [--dim 64] [--seed N]
//   vitri summarize --db db.vvdb --out summary.vsnp [--epsilon 0.15]
//                   [--threads N] [--index-shards N]
//   vitri stats     [--summary summary.vsnp] [--exercise] [--json]
//   vitri query     --db db.vvdb --summary summary.vsnp --video ID
//                   [--k 10] [--epsilon 0.15] [--method composed|naive]
//                   [--threads N] [--trace] [--json]
//                   [--pool-shards N] [--index-shards N]
//   vitri verify    [--summary summary.vsnp] [--pages tree.vpag
//                   [--page-size 4096]]
//   vitri check     [--summary summary.vsnp [--epsilon E] [--deep]
//                   [--strict-frames 0|1]] [--pages tree.vpag
//                   [--page-size 4096]]
//   vitri recover   --dir index_dir [--epsilon E] [--checkpoint] [--json]
//
// `generate` writes a synthetic TV-ad database; `summarize` builds the
// ViTri snapshot; `stats` reports snapshot statistics plus the
// process-wide metrics registry (DESIGN.md §12) — `--exercise` runs a
// small built-in workload first so the registry has data to show;
// `query` indexes the snapshot and searches with a near-duplicate of
// the named database video (`--trace` prints the per-stage spans);
// `verify` checks snapshot and page-file checksums offline; `check`
// runs the deep invariant validators (core/validate.h and the
// structural self-checks) on a snapshot and/or a B+-tree page file;
// `recover` opens a durable index directory (DESIGN.md §13), replays
// its WAL, repairs any torn tail, validates invariants, and with
// `--checkpoint` folds the log into a fresh snapshot generation.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/simd_policy.h"
#include "core/ground_truth.h"
#include "core/query_trace.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "core/snapshot.h"
#include "core/validate.h"
#include "core/vitri_builder.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "video/serialization.h"
#include "video/synthesizer.h"

namespace {

using namespace vitri;

// Tiny flag parser: --name value pairs after the subcommand.
struct Args {
  int argc;
  char** argv;

  /// Presence of a bare (valueless) flag like --deep.
  bool Has(const char* name) const {
    for (int i = 0; i < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return true;
    }
    return false;
  }
  const char* Get(const char* name, const char* fallback) const {
    for (int i = 0; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return fallback;
  }
  double GetDouble(const char* name, double fallback) const {
    const char* v = Get(name, nullptr);
    return v != nullptr ? std::atof(v) : fallback;
  }
  long GetLong(const char* name, long fallback) const {
    const char* v = Get(name, nullptr);
    return v != nullptr ? std::atol(v) : fallback;
  }
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(const Args& args) {
  const char* out = args.Get("--out", nullptr);
  if (out == nullptr) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  video::SynthesizerOptions so;
  so.dimension = static_cast<int>(args.GetLong("--dim", 64));
  so.seed = static_cast<uint64_t>(args.GetLong("--seed", 2005));
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db =
      synth.GenerateDatabase(args.GetDouble("--scale", 0.01));
  const Status s = video::SaveDatabase(db, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu videos (%zu frames, dim %d) to %s\n",
              db.num_videos(), db.total_frames(), db.dimension, out);
  return 0;
}

int CmdSummarize(const Args& args) {
  const char* db_path = args.Get("--db", nullptr);
  const char* out = args.Get("--out", nullptr);
  if (db_path == nullptr || out == nullptr) {
    std::fprintf(stderr, "summarize: --db and --out are required\n");
    return 2;
  }
  auto db = video::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  core::ViTriBuilderOptions bo;
  bo.epsilon = args.GetDouble("--epsilon", 0.15);
  bo.num_threads = static_cast<int>(args.GetLong("--threads", 1));
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(*db);
  if (!set.ok()) return Fail(set.status());
  const Status s = core::SaveViTriSet(*set, out);
  if (!s.ok()) return Fail(s);
  const auto stats = core::ViTriBuilder::Summarize(*set, bo.epsilon);
  std::printf("wrote %zu ViTris (avg cluster %.1f frames, epsilon %.2f) "
              "to %s\n",
              stats.num_clusters, stats.average_cluster_size, bo.epsilon,
              out);
  // With sharding configured (flag > VITRI_INDEX_SHARDS > 1), preview
  // the shard distribution the snapshot would index into.
  const size_t index_shards = core::ResolveIndexShards(
      static_cast<size_t>(std::max(args.GetLong("--index-shards", 0), 0L)));
  if (index_shards > 1) {
    const auto assignment = core::ShardAssignment::kHash;
    std::vector<size_t> videos(index_shards, 0);
    std::vector<size_t> vitris(index_shards, 0);
    for (uint32_t vid = 0; vid < set->frame_counts.size(); ++vid) {
      if (set->frame_counts[vid] > 0) {
        ++videos[core::ShardedViTriIndex::ShardOf(vid, index_shards,
                                                  assignment)];
      }
    }
    for (const core::ViTri& v : set->vitris) {
      ++vitris[core::ShardedViTriIndex::ShardOf(v.video_id, index_shards,
                                                assignment)];
    }
    std::printf("index shards: %zu (%s assignment)\n", index_shards,
                core::ShardAssignmentName(assignment));
    for (size_t shard = 0; shard < index_shards; ++shard) {
      std::printf("  shard %zu: %zu videos, %zu ViTris\n", shard,
                  videos[shard], vitris[shard]);
    }
  }
  return 0;
}

// Populates the metrics registry with a small end-to-end workload
// (synthetic database → summaries → index build → single and batched
// KNN), so `vitri stats --exercise` has live counters to report.
int ExerciseMetrics() {
  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  core::ViTriBuilder builder;
  auto set = builder.BuildDatabase(db);
  if (!set.ok()) return Fail(set.status());
  core::ViTriIndexOptions io;
  io.dimension = db.dimension;
  auto index = core::ViTriIndex::Build(*set, io);
  if (!index.ok()) return Fail(index.status());
  std::vector<core::BatchQuery> batch;
  const size_t num_queries = std::min<size_t>(4, db.num_videos());
  for (size_t q = 0; q < num_queries; ++q) {
    const video::VideoSequence dup = synth.MakeNearDuplicate(
        db.videos[q], static_cast<uint32_t>(db.num_videos() + q));
    auto summary = builder.Build(dup);
    if (!summary.ok()) return Fail(summary.status());
    auto result =
        index->Knn(*summary, static_cast<uint32_t>(dup.num_frames()), 10,
                   core::KnnMethod::kComposed);
    if (!result.ok()) return Fail(result.status());
    batch.push_back(core::BatchQuery{
        std::move(*summary), static_cast<uint32_t>(dup.num_frames())});
  }
  auto batched = index->BatchKnn(batch, 10, core::KnnMethod::kComposed, 2);
  if (!batched.ok()) return Fail(batched.status());
  // The same corpus behind a sharded index (count resolved via
  // VITRI_INDEX_SHARDS, >= 1), so the index.shard.<i>.* gauges report
  // live data too.
  core::ShardedIndexOptions sharded_opts;
  sharded_opts.shard_options = io;
  auto sharded = core::ShardedViTriIndex::Build(*set, sharded_opts);
  if (!sharded.ok()) return Fail(sharded.status());
  auto sharded_batch =
      sharded->BatchKnn(batch, 10, core::KnnMethod::kComposed, 2);
  if (!sharded_batch.ok()) return Fail(sharded_batch.status());
  return 0;
}

int CmdStats(const Args& args) {
  const char* snapshot = args.Get("--summary", nullptr);
  const bool as_json = args.Has("--json");
  const bool exercise = args.Has("--exercise");
  if (snapshot == nullptr && !exercise) {
    std::fprintf(stderr,
                 "stats: --summary and/or --exercise is required\n");
    return 2;
  }
  if (exercise) {
    const int rc = ExerciseMetrics();
    if (rc != 0) return rc;
  }

  bool have_set = false;
  core::ViTriSet set;
  double total_frames = 0.0;
  double total_radius = 0.0;
  uint32_t max_size = 0;
  if (snapshot != nullptr) {
    auto loaded = core::LoadViTriSet(snapshot);
    if (!loaded.ok()) return Fail(loaded.status());
    set = std::move(*loaded);
    have_set = true;
    for (const core::ViTri& v : set.vitris) {
      total_frames += v.cluster_size;
      total_radius += v.radius;
      max_size = std::max(max_size, v.cluster_size);
    }
  }

  if (as_json) {
    json::JsonWriter w;
    w.BeginObject();
    w.Key("snapshot");
    if (have_set) {
      w.BeginObject();
      w.Key("num_vitris");
      w.Uint(set.size());
      w.Key("num_videos");
      w.Uint(set.frame_counts.size());
      w.Key("dimension");
      w.Int(set.dimension);
      w.Key("frames_summarized");
      w.Double(total_frames);
      w.Key("average_cluster_size");
      w.Double(total_frames / static_cast<double>(set.size()));
      w.Key("largest_cluster");
      w.Uint(max_size);
      w.Key("average_radius");
      w.Double(total_radius / static_cast<double>(set.size()));
      w.EndObject();
    } else {
      w.Null();
    }
    w.Key("metrics");
    w.RawValue(metrics::Registry::Instance().ToJson());
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  if (have_set) {
    std::printf("snapshot: %zu ViTris over %zu videos, dim %d\n",
                set.size(), set.frame_counts.size(), set.dimension);
    std::printf("frames summarized: %.0f (avg cluster %.1f, largest %u)\n",
                total_frames,
                total_frames / static_cast<double>(set.size()), max_size);
    std::printf("average radius: %.4f\n",
                total_radius / static_cast<double>(set.size()));
  }
  std::printf("%s", metrics::Registry::Instance().ToText().c_str());
  return 0;
}

int CmdQuery(const Args& args) {
  const char* db_path = args.Get("--db", nullptr);
  const char* snapshot = args.Get("--summary", nullptr);
  const char* video_str = args.Get("--video", nullptr);
  if (db_path == nullptr || snapshot == nullptr || video_str == nullptr) {
    std::fprintf(stderr,
                 "query: --db, --summary and --video are required\n");
    return 2;
  }
  auto db = video::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  const uint32_t target = static_cast<uint32_t>(std::atol(video_str));
  if (target >= db->num_videos()) {
    std::fprintf(stderr, "query: video %u out of range (0..%zu)\n",
                 target, db->num_videos() - 1);
    return 2;
  }

  core::ViTriIndexOptions io;
  io.epsilon = args.GetDouble("--epsilon", 0.15);
  io.dimension = db->dimension;
  // Buffer-pool tuning: 0 shards = auto (VITRI_POOL_SHARDS overrides
  // auto; an explicit flag here wins over both).
  io.buffer_pool_options.shards =
      static_cast<size_t>(std::max(args.GetLong("--pool-shards", 0), 0L));

  video::VideoSynthesizer synth;
  const video::VideoSequence query =
      synth.MakeNearDuplicate(db->videos[target], 1u << 30);
  core::ViTriBuilderOptions bo;
  bo.epsilon = io.epsilon;
  core::ViTriBuilder builder(bo);
  auto summary = builder.Build(query);
  if (!summary.ok()) return Fail(summary.status());

  const core::KnnMethod method =
      std::strcmp(args.Get("--method", "composed"), "naive") == 0
          ? core::KnnMethod::kNaive
          : core::KnnMethod::kComposed;
  const size_t k = static_cast<size_t>(args.GetLong("--k", 10));
  const size_t threads =
      static_cast<size_t>(std::max(args.GetLong("--threads", 1), 1L));
  core::QueryCosts costs;
  // The batched path is the one production uses; a single query simply
  // forms a batch of one (results are identical either way).
  std::vector<core::BatchQuery> batch(1);
  batch[0].vitris = std::move(*summary);
  batch[0].num_frames = static_cast<uint32_t>(query.num_frames());
  const bool traced = args.Has("--trace");
  std::vector<core::QueryTrace> traces;
  // Sharding: flag > VITRI_INDEX_SHARDS > 1. More than one shard routes
  // the query through the scatter-gather index (results are identical
  // to the single-shard path — the merge contract of DESIGN.md §17).
  const size_t index_shards = core::ResolveIndexShards(
      static_cast<size_t>(std::max(args.GetLong("--index-shards", 0), 0L)));
  std::vector<std::vector<core::VideoMatch>> batch_results;
  if (index_shards > 1) {
    if (traced) {
      std::fprintf(stderr,
                   "query: --trace is single-shard only; ignoring it with "
                   "--index-shards %zu\n",
                   index_shards);
    }
    auto set = core::LoadViTriSet(snapshot);
    if (!set.ok()) return Fail(set.status());
    core::ShardedIndexOptions sharded_opts;
    sharded_opts.num_shards = index_shards;
    sharded_opts.shard_options = io;
    auto sharded = core::ShardedViTriIndex::Build(*set, sharded_opts);
    if (!sharded.ok()) return Fail(sharded.status());
    std::printf("index shards: %zu (%zu live, %s assignment)\n",
                sharded->num_shards(), sharded->live_shards(),
                core::ShardAssignmentName(sharded->assignment()));
    auto r = sharded->BatchKnn(batch, k, method, threads, &costs);
    if (!r.ok()) return Fail(r.status());
    batch_results = std::move(*r);
  } else {
    auto index = core::LoadIndexSnapshot(snapshot, io);
    if (!index.ok()) return Fail(index.status());
    auto r = index->BatchKnn(batch, k, method, threads, &costs,
                             traced ? &traces : nullptr);
    if (!r.ok()) return Fail(r.status());
    batch_results = std::move(*r);
  }
  const std::vector<core::VideoMatch>& results = batch_results[0];

  std::printf("query: near-duplicate of video %u (%zu frames, %zu "
              "ViTris)\n",
              target, query.num_frames(), batch[0].vitris.size());
  for (const core::VideoMatch& m : results) {
    std::printf("  video %-6u similarity %.4f%s\n", m.video_id,
                m.similarity, m.video_id == target ? "   <-- source" : "");
  }
  std::printf("cost: %llu page accesses, %llu candidates, %llu "
              "similarity evals, %.2f ms\n",
              static_cast<unsigned long long>(costs.page_accesses),
              static_cast<unsigned long long>(costs.candidates),
              static_cast<unsigned long long>(costs.similarity_evals),
              costs.cpu_seconds * 1e3);
  if (traced && !traces.empty()) {
    if (args.Has("--json")) {
      std::printf("%s\n", traces[0].ToJson().c_str());
    } else {
      std::printf("%s", traces[0].ToString().c_str());
    }
  }
  return 0;
}

int CmdVerify(const Args& args) {
  const char* snapshot = args.Get("--summary", nullptr);
  const char* pages = args.Get("--pages", nullptr);
  if (snapshot == nullptr && pages == nullptr) {
    std::fprintf(stderr,
                 "verify: at least one of --summary or --pages is "
                 "required\n");
    return 2;
  }
  int rc = 0;
  if (snapshot != nullptr) {
    auto set = core::LoadViTriSet(snapshot);
    if (set.ok()) {
      std::printf("%s: OK (%zu ViTris over %zu videos)\n", snapshot,
                  set->size(), set->frame_counts.size());
    } else {
      std::fprintf(stderr, "%s: %s\n", snapshot,
                   set.status().ToString().c_str());
      rc = 1;
    }
  }
  if (pages != nullptr) {
    const size_t page_size =
        static_cast<size_t>(args.GetLong("--page-size", 4096));
    auto pager = storage::FilePager::Open(pages, page_size);
    if (!pager.ok()) return Fail(pager.status());
    auto report = storage::VerifyAllPages(pager->get());
    if (!report.ok()) return Fail(report.status());
    std::printf("%s: %llu pages scanned, %zu corrupt, %llu unstamped\n",
                pages,
                static_cast<unsigned long long>(report->pages_scanned),
                report->corrupt.size(),
                static_cast<unsigned long long>(report->unstamped));
    for (storage::PageId id : report->corrupt) {
      std::printf("  corrupt page %llu\n",
                  static_cast<unsigned long long>(id));
    }
    if (!report->clean()) rc = 1;
  }
  return rc;
}

// Deep invariant audit: every validator the library runs as a debug
// self-check, applied offline to persisted artifacts.
int CmdCheck(const Args& args) {
  const char* snapshot = args.Get("--summary", nullptr);
  const char* pages = args.Get("--pages", nullptr);
  if (snapshot == nullptr && pages == nullptr) {
    std::fprintf(stderr,
                 "check: at least one of --summary or --pages is "
                 "required\n");
    return 2;
  }
  int rc = 0;
  if (snapshot != nullptr) {
    auto set = core::LoadViTriSet(snapshot);
    if (!set.ok()) return Fail(set.status());
    core::ViTriCheckOptions co;
    // <= 0 skips the radius-cap check; pass the build-time epsilon to
    // also prove every refined radius obeys R <= epsilon / 2.
    co.epsilon = args.GetDouble("--epsilon", 0.0);
    co.check_frame_accounting = args.GetLong("--strict-frames", 1) != 0;
    Status s = core::ValidateViTriSet(*set, co);
    if (s.ok()) s = core::ValidateSnapshotRoundTrip(*set);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", snapshot, s.ToString().c_str());
      rc = 1;
    } else {
      std::printf("%s: summary invariants OK (%zu ViTris over %zu "
                  "videos)\n",
                  snapshot, set->size(), set->frame_counts.size());
      if (args.Has("--deep")) {
        // Rebuild the index from the snapshot and run the full
        // structural audit: B+-tree, buffer pool, and record-level
        // agreement between tree and summary.
        core::ViTriIndexOptions io;
        io.dimension = set->dimension;
        if (co.epsilon > 0.0) io.epsilon = co.epsilon;
        auto index = core::ViTriIndex::Build(*set, io);
        if (!index.ok()) return Fail(index.status());
        const Status deep = index->ValidateInvariants();
        if (!deep.ok()) {
          std::fprintf(stderr, "%s: %s\n", snapshot,
                       deep.ToString().c_str());
          rc = 1;
        } else {
          std::printf("%s: index invariants OK (height %u, %llu "
                      "records)\n",
                      snapshot, index->tree_height(),
                      static_cast<unsigned long long>(index->num_vitris()));
        }
      }
    }
  }
  if (pages != nullptr) {
    const size_t page_size =
        static_cast<size_t>(args.GetLong("--page-size", 4096));
    auto pager = storage::FilePager::Open(pages, page_size);
    if (!pager.ok()) return Fail(pager.status());
    storage::BufferPool pool(pager->get(), 256);
    auto tree = btree::BPlusTree::Open(&pool);
    if (!tree.ok()) return Fail(tree.status());
    btree::TreeCheckOptions to;
    to.verify_checksums = true;
    const Status s = tree->ValidateInvariants(to);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", pages, s.ToString().c_str());
      rc = 1;
    } else {
      std::printf("%s: tree invariants OK (height %u, %llu records)\n",
                  pages, tree->height(),
                  static_cast<unsigned long long>(tree->num_entries()));
    }
  }
  return rc;
}

int CmdRecover(const Args& args) {
  const char* dir = args.Get("--dir", nullptr);
  if (dir == nullptr) {
    std::fprintf(stderr, "recover: --dir is required\n");
    return 2;
  }
  core::ViTriIndexOptions io;
  io.epsilon = args.GetDouble("--epsilon", io.epsilon);
  core::RecoveryStats stats;
  auto index = core::ViTriIndex::Open(dir, io, {}, &stats);
  if (!index.ok()) return Fail(index.status());
  const Status valid = index->ValidateInvariants();
  if (!valid.ok()) return Fail(valid);
  bool checkpointed = false;
  if (args.Has("--checkpoint")) {
    const Status s = index->Checkpoint();
    if (!s.ok()) return Fail(s);
    checkpointed = true;
  }
  if (args.Has("--json")) {
    json::JsonWriter w;
    w.BeginObject();
    w.Key("dir");
    w.String(dir);
    w.Key("generation");
    w.Uint(index->generation());
    w.Key("snapshot_vitris");
    w.Uint(stats.snapshot_vitris);
    w.Key("snapshot_videos");
    w.Uint(stats.snapshot_videos);
    w.Key("wal_commits_replayed");
    w.Uint(stats.wal_commits_replayed);
    w.Key("wal_records_applied");
    w.Uint(stats.wal_records_applied);
    w.Key("wal_records_discarded");
    w.Uint(stats.wal_records_discarded);
    w.Key("wal_bytes_discarded");
    w.Uint(stats.wal_bytes_discarded);
    w.Key("wal_torn_tail");
    w.Bool(stats.wal_torn_tail);
    w.Key("recovered_vitris");
    w.Uint(stats.recovered_vitris);
    w.Key("recovered_videos");
    w.Uint(stats.recovered_videos);
    w.Key("checkpointed");
    w.Bool(checkpointed);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("recovered %s: generation %llu, snapshot %zu ViTris / %zu "
              "videos\n",
              dir, static_cast<unsigned long long>(stats.generation),
              stats.snapshot_vitris, stats.snapshot_videos);
  std::printf("WAL: %llu commits replayed (%llu records), %llu records / "
              "%llu bytes discarded%s\n",
              static_cast<unsigned long long>(stats.wal_commits_replayed),
              static_cast<unsigned long long>(stats.wal_records_applied),
              static_cast<unsigned long long>(stats.wal_records_discarded),
              static_cast<unsigned long long>(stats.wal_bytes_discarded),
              stats.wal_torn_tail ? " (torn tail repaired)" : "");
  std::printf("now: %zu ViTris over %zu videos, invariants OK%s\n",
              stats.recovered_vitris, stats.recovered_videos,
              checkpointed ? ", checkpointed" : "");
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: vitri "
               "<generate|summarize|stats|query|verify|check|recover> "
               "[flags]\n"
               "  generate  --out db.vvdb [--scale S] [--dim N] [--seed X]\n"
               "  summarize --db db.vvdb --out s.vsnp [--epsilon E] "
               "[--threads N] [--index-shards N]\n"
               "  stats     [--summary s.vsnp] [--exercise] [--json]\n"
               "  query     --db db.vvdb --summary s.vsnp --video ID\n"
               "            [--k K] [--epsilon E] [--method composed|naive]\n"
               "            [--threads N] [--trace] [--json]\n"
               "            [--pool-shards N]\n"
               "            [--index-shards N  scatter-gather across N "
               "index shards]\n"
               "  verify    [--summary s.vsnp] [--pages tree.vpag "
               "[--page-size N]]\n"
               "  check     [--summary s.vsnp [--epsilon E] [--deep] "
               "[--strict-frames 0|1]]\n"
               "            [--pages tree.vpag [--page-size N]]\n"
               "  recover   --dir index_dir [--epsilon E] [--checkpoint] "
               "[--json]\n"
               "global flags:\n"
               "  --no-simd  pin the scalar distance kernels and the "
               "table CRC-32C\n"
               "             (reproduces pre-SIMD results bit-for-bit; "
               "same as VITRI_DISABLE_SIMD=1)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const Args args{argc - 2, argv + 2};
  // Backend dispatch is fixed per process, so the override must land
  // before any distance or checksum work: pin the scalar kernels and the
  // table CRC now if asked (equivalent to VITRI_DISABLE_SIMD=1).
  if (args.Has("--no-simd")) DisableSimd();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(args);
  if (command == "summarize") return CmdSummarize(args);
  if (command == "stats") return CmdStats(args);
  if (command == "query") return CmdQuery(args);
  if (command == "verify") return CmdVerify(args);
  if (command == "check") return CmdCheck(args);
  if (command == "recover") return CmdRecover(args);
  Usage();
  return 2;
}
