// vitrid — long-lived serving daemon around one ViTriIndex (DESIGN.md
// §15), speaking the length-prefixed binary protocol of
// src/serving/protocol.h over a unix-domain socket or loopback TCP.
//
//   vitrid serve    (--socket PATH | --port N)
//                   (--synthetic [--scale S] | --summary summary.vsnp |
//                    --dir index_dir)
//                   [--dir index_dir] [--epsilon 0.15] [--queue 256]
//                   [--workers 4] [--knn-threads 1] [--trace-every 0]
//                   [--exercise] [--no-checkpoint] [--index-shards N]
//   vitrid ping     (--socket PATH | --host 127.0.0.1 --port N)
//   vitrid stats    (--socket PATH | --host 127.0.0.1 --port N)
//   vitrid shutdown (--socket PATH | --host 127.0.0.1 --port N)
//
// `serve` builds or recovers an index and serves it until SIGINT/SIGTERM
// or an in-band shutdown request; with `--dir` plus a build source the
// index is made durable there (WAL + checkpoint on shutdown), with
// `--dir` alone it is recovered from there. `--exercise` runs a small
// built-in workload before serving so the metrics registry has live
// query (and, when durable, wal.*) series for `stats` to report.
// `stats` prints the server's JSON stats document (server block, metrics
// registry, recent query traces) to stdout. `shutdown` asks the server
// to drain and stop; the ack returns before the drain completes.
// `--index-shards N` (or VITRI_INDEX_SHARDS when the flag is absent and
// the index is not durable) serves a sharded scatter-gather index built
// from --synthetic/--summary; it is incompatible with --dir because
// durability is single-index-only (DESIGN.md §17).

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "core/snapshot.h"
#include "core/vitri_builder.h"
#include "serving/client.h"
#include "serving/server.h"
#include "storage/buffer_pool.h"
#include "video/synthesizer.h"

namespace {

using namespace vitri;

struct Args {
  int argc;
  char** argv;

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

void Usage() {
  std::printf(
      "vitrid — ViTri index server\n"
      "\n"
      "  vitrid serve    (--socket PATH | --port N)\n"
      "                  (--synthetic [--scale S] | --summary FILE |\n"
      "                   --dir DIR)\n"
      "                  [--dir DIR] [--epsilon E] [--queue N]\n"
      "                  [--workers N] [--knn-threads N]\n"
      "                  [--trace-every N] [--exercise]\n"
      "                  [--no-checkpoint] [--index-shards N]\n"
      "                  [--pool-shards N]\n"
      "  vitrid ping     (--socket PATH | --host IP --port N)\n"
      "  vitrid stats    (--socket PATH | --host IP --port N)\n"
      "  vitrid shutdown (--socket PATH | --host IP --port N)\n"
      "\n"
      "serve runs until SIGINT/SIGTERM or an in-band shutdown request,\n"
      "answers Overloaded when its request queue is full, enforces\n"
      "per-request deadlines, and drains every admitted request before\n"
      "stopping (checkpointing a durable index on the way out).\n"
      "stats prints the server's JSON stats document to stdout.\n");
}

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

/// Builds the small synthetic summary set (the vitri CLI's --exercise
/// world) that both the single-index and sharded serve paths index.
Result<core::ViTriSet> BuildSyntheticSet(double scale, double epsilon) {
  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(scale);
  core::ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  core::ViTriBuilder builder(bo);
  return builder.BuildDatabase(db);
}

/// Buffer-pool tuning shared by every index source: 0 shards = auto
/// (VITRI_POOL_SHARDS overrides auto; an explicit flag wins over both).
storage::BufferPoolOptions PoolOptionsFromFlags(const Args& args) {
  storage::BufferPoolOptions pool;
  pool.shards =
      static_cast<size_t>(std::max(args.GetLong("--pool-shards", 0), 0L));
  return pool;
}

/// Pre-serving warm-up: a few queries (query.knn.* series) and, on a
/// durable index, one insert (wal.* series), so `vitrid stats` has live
/// metrics straight after startup.
Status FirstVideoQuery(const core::ViTriSet& snapshot,
                       std::vector<core::ViTri>* query, uint32_t* frames) {
  if (snapshot.vitris.empty()) {
    return Status::InvalidArgument("cannot exercise an empty index");
  }
  // The index's own first video's summary makes a guaranteed-hit query.
  const uint32_t video = snapshot.vitris.front().video_id;
  *frames = 0;
  for (const core::ViTri& v : snapshot.vitris) {
    if (v.video_id == video) {
      query->push_back(v);
      *frames += v.cluster_size;
    }
  }
  return Status::OK();
}

Status Exercise(core::ViTriIndex* index) {
  core::ViTriSet snapshot = index->Snapshot();
  std::vector<core::ViTri> query;
  uint32_t frames = 0;
  VITRI_RETURN_IF_ERROR(FirstVideoQuery(snapshot, &query, &frames));
  VITRI_ASSIGN_OR_RETURN(
      std::vector<core::VideoMatch> matches,
      index->Knn(query, frames, 10, core::KnnMethod::kComposed));
  (void)matches;
  if (index->durable()) {
    uint32_t next_id = 0;
    for (const core::ViTri& v : snapshot.vitris) {
      next_id = std::max(next_id, v.video_id);
    }
    ++next_id;
    std::vector<core::ViTri> vitris = query;
    for (core::ViTri& v : vitris) v.video_id = next_id;
    VITRI_RETURN_IF_ERROR(index->Insert(next_id, frames, vitris));
  }
  return Status::OK();
}

/// Sharded warm-up: a scatter-gather query so query.knn.* and the
/// index.shard.<i>.* gauges are live before the first stats request.
Status ExerciseSharded(core::ShardedViTriIndex* index) {
  core::ViTriSet snapshot = index->Snapshot();
  std::vector<core::ViTri> query;
  uint32_t frames = 0;
  VITRI_RETURN_IF_ERROR(FirstVideoQuery(snapshot, &query, &frames));
  VITRI_ASSIGN_OR_RETURN(
      std::vector<core::VideoMatch> matches,
      index->Knn(query, frames, 10, core::KnnMethod::kComposed));
  (void)matches;
  return Status::OK();
}

serving::ServerOptions ServerOptionsFromFlags(const Args& args,
                                              const char* socket_path,
                                              long port) {
  serving::ServerOptions so;
  if (socket_path != nullptr) so.unix_socket_path = socket_path;
  if (port >= 0) so.tcp_port = static_cast<int>(port);
  so.queue_capacity = static_cast<size_t>(args.GetLong("--queue", 256));
  so.num_workers = static_cast<size_t>(args.GetLong("--workers", 4));
  so.knn_threads = static_cast<size_t>(args.GetLong("--knn-threads", 1));
  so.trace_every = static_cast<size_t>(args.GetLong("--trace-every", 0));
  so.checkpoint_on_shutdown = !args.Has("--no-checkpoint");
  return so;
}

/// Start, announce, block until SIGINT/SIGTERM or an in-band shutdown
/// request, then drain. Shared by the single-index and sharded paths.
int ServeLoop(serving::Server* server, const char* socket_path,
              const std::string& what) {
  const Status st = server->Start();
  if (!st.ok()) return Fail(st);
  if (socket_path != nullptr) {
    std::printf("vitrid: listening on %s (%s)\n", socket_path, what.c_str());
  } else {
    std::printf("vitrid: listening on 127.0.0.1:%d (%s)\n",
                server->tcp_port(), what.c_str());
  }
  std::fflush(stdout);

  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (!server->WaitForShutdownRequest(200)) {
    if (g_stop != 0) break;
  }
  std::printf("vitrid: draining\n");
  std::fflush(stdout);
  const Status down = server->Shutdown();
  if (!down.ok()) return Fail(down);
  std::printf("vitrid: stopped\n");
  return 0;
}

int CmdServe(const Args& args) {
  const char* socket_path = args.Get("--socket", nullptr);
  const long port = args.GetLong("--port", -1);
  if ((socket_path == nullptr) == (port < 0)) {
    std::fprintf(stderr, "serve: exactly one of --socket/--port required\n");
    return 2;
  }
  // ServerOptionsFromFlags casts these to size_t: -1 would reserve
  // SIZE_MAX workers (an abort) or switch admission control off.
  for (const char* flag :
       {"--queue", "--workers", "--knn-threads", "--trace-every"}) {
    if (args.GetLong(flag, 0) < 0) {
      std::fprintf(stderr, "serve: %s must not be negative\n", flag);
      return 2;
    }
  }
  const char* summary = args.Get("--summary", nullptr);
  const char* dir = args.Get("--dir", nullptr);
  const bool synthetic = args.Has("--synthetic");
  const double epsilon = args.GetDouble("--epsilon", 0.15);
  if ((synthetic ? 1 : 0) + (summary != nullptr ? 1 : 0) == 0 &&
      dir == nullptr) {
    std::fprintf(stderr,
                 "serve: an index source is required "
                 "(--synthetic, --summary, or --dir)\n");
    return 2;
  }
  if (synthetic && summary != nullptr) {
    std::fprintf(stderr, "serve: --synthetic and --summary conflict\n");
    return 2;
  }

  // Shard-count resolution: flag > VITRI_INDEX_SHARDS > 1. The env
  // never hijacks a durable (--dir) index — durability is
  // single-index-only, and the sharded CI leg exports the env for the
  // whole suite. An explicit flag plus --dir is a hard conflict.
  const long shards_flag = std::max(args.GetLong("--index-shards", 0), 0L);
  if (shards_flag > 1 && dir != nullptr) {
    std::fprintf(stderr,
                 "serve: --index-shards is incompatible with --dir "
                 "(durability is single-index-only)\n");
    return 2;
  }
  const size_t index_shards =
      dir != nullptr
          ? 1
          : core::ResolveIndexShards(static_cast<size_t>(shards_flag));

  const storage::BufferPoolOptions pool_options = PoolOptionsFromFlags(args);

  if (index_shards > 1) {
    Result<core::ViTriSet> set =
        synthetic ? BuildSyntheticSet(args.GetDouble("--scale", 0.004),
                                      epsilon)
                  : core::LoadViTriSet(summary);
    if (!set.ok()) return Fail(set.status());
    core::ShardedIndexOptions sharded_options;
    sharded_options.num_shards = index_shards;
    sharded_options.shard_options.dimension = set->dimension;
    sharded_options.shard_options.epsilon = epsilon;
    sharded_options.shard_options.buffer_pool_options = pool_options;
    Result<core::ShardedViTriIndex> index =
        core::ShardedViTriIndex::Build(*set, sharded_options);
    if (!index.ok()) return Fail(index.status());
    if (args.Has("--exercise")) {
      const Status st = ExerciseSharded(&*index);
      if (!st.ok()) return Fail(st);
    }
    serving::Server server(&*index,
                           ServerOptionsFromFlags(args, socket_path, port));
    return ServeLoop(&server, socket_path,
                     std::to_string(index->num_videos()) + " videos, " +
                         std::to_string(index->num_shards()) + " shards");
  }

  Result<core::ViTriIndex> index = [&]() -> Result<core::ViTriIndex> {
    if (synthetic) {
      VITRI_ASSIGN_OR_RETURN(
          core::ViTriSet set,
          BuildSyntheticSet(args.GetDouble("--scale", 0.004), epsilon));
      core::ViTriIndexOptions io;
      io.dimension = set.dimension;
      io.epsilon = epsilon;
      io.buffer_pool_options = pool_options;
      return core::ViTriIndex::Build(set, io);
    }
    if (summary != nullptr) {
      VITRI_ASSIGN_OR_RETURN(core::ViTriSet set,
                             core::LoadViTriSet(summary));
      core::ViTriIndexOptions io;
      io.dimension = set.dimension;
      io.epsilon = epsilon;
      io.buffer_pool_options = pool_options;
      return core::ViTriIndex::Build(set, io);
    }
    // --dir alone: recover a durable index.
    core::ViTriIndexOptions io;
    io.epsilon = epsilon;
    io.buffer_pool_options = pool_options;
    return core::ViTriIndex::Open(dir, io);
  }();
  if (!index.ok()) return Fail(index.status());
  // A build source plus --dir: make the fresh index durable there.
  if (dir != nullptr && (synthetic || summary != nullptr)) {
    const Status st = index->EnableDurability(dir);
    if (!st.ok()) return Fail(st);
  }
  if (args.Has("--exercise")) {
    const Status st = Exercise(&*index);
    if (!st.ok()) return Fail(st);
  }

  serving::Server server(&*index,
                         ServerOptionsFromFlags(args, socket_path, port));
  return ServeLoop(&server, socket_path,
                   std::to_string(index->num_videos()) + " videos");
}

Result<serving::Client> ConnectFromArgs(const Args& args) {
  const char* socket_path = args.Get("--socket", nullptr);
  const long port = args.GetLong("--port", -1);
  if ((socket_path == nullptr) == (port < 0)) {
    return Status::InvalidArgument(
        "exactly one of --socket/--port is required");
  }
  if (socket_path != nullptr) {
    return serving::Client::ConnectUnix(socket_path);
  }
  return serving::Client::ConnectTcp(args.Get("--host", "127.0.0.1"),
                                     static_cast<int>(port));
}

int CmdPing(const Args& args) {
  Result<serving::Client> client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status());
  Result<serving::SimpleResponse> resp = client->Ping(1);
  if (!resp.ok()) return Fail(resp.status());
  if (resp->head.status != serving::WireStatus::kOk) {
    std::fprintf(stderr, "ping: %s: %s\n",
                 serving::WireStatusName(resp->head.status),
                 resp->error.c_str());
    return 1;
  }
  std::printf("pong\n");
  return 0;
}

int CmdStats(const Args& args) {
  Result<serving::Client> client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status());
  Result<serving::StatsResponse> resp = client->Stats(1);
  if (!resp.ok()) return Fail(resp.status());
  if (resp->head.status != serving::WireStatus::kOk) {
    std::fprintf(stderr, "stats: %s: %s\n",
                 serving::WireStatusName(resp->head.status),
                 resp->error.c_str());
    return 1;
  }
  std::printf("%s\n", resp->json.c_str());
  return 0;
}

int CmdShutdown(const Args& args) {
  Result<serving::Client> client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status());
  Result<serving::SimpleResponse> resp = client->Shutdown(1);
  if (!resp.ok()) return Fail(resp.status());
  if (resp->head.status != serving::WireStatus::kOk) {
    std::fprintf(stderr, "shutdown: %s: %s\n",
                 serving::WireStatusName(resp->head.status),
                 resp->error.c_str());
    return 1;
  }
  std::printf("shutdown requested\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    Usage();
    return argc < 2 ? 2 : 0;
  }
  const Args args{argc - 2, argv + 2};
  if (std::strcmp(argv[1], "serve") == 0) return CmdServe(args);
  if (std::strcmp(argv[1], "ping") == 0) return CmdPing(args);
  if (std::strcmp(argv[1], "stats") == 0) return CmdStats(args);
  if (std::strcmp(argv[1], "shutdown") == 0) return CmdShutdown(args);
  std::fprintf(stderr, "unknown command: %s\n", argv[1]);
  Usage();
  return 2;
}
