// End-to-end contract of the `vitrid` binary's client plane, following
// the cli_stats_test pattern: a real Server runs in this test process
// (so its stats document serializes *this* process's metrics registry,
// which the test pre-populates with WAL and query activity), and the
// real vitrid binary (path baked in via VITRID_PATH) talks to it over a
// unix socket. Asserts the stats JSON parses and carries the documented
// shape: server block, wal.* counters, query latency histograms.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "serving/server.h"
#include "video/synthesizer.h"

namespace vitri {
namespace {

std::string RunAndCapture(const std::string& command, int* exit_code) {
  // The server threads in this process never touch the environment, so
  // popen's mt-unsafety is moot.
  FILE* pipe = popen(command.c_str(), "r");  // NOLINT(concurrency-mt-unsafe)
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  *exit_code = pclose(pipe);
  return out;
}

TEST(VitridSmokeTest, HelpDocumentsEverySubcommand) {
  int rc = -1;
  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " --help", &rc);
  EXPECT_EQ(rc, 0) << out;
  for (const char* token : {"serve", "ping", "stats", "shutdown",
                            "--socket", "Overloaded", "deadline"}) {
    EXPECT_NE(out.find(token), std::string::npos) << token << "\n" << out;
  }
}

TEST(VitridSmokeTest, ServeRejectsNegativeCounts) {
  // Each of these is cast to size_t: --workers -1 used to reserve
  // SIZE_MAX workers and abort, --queue -1 to switch admission control
  // off. serve must refuse them (exit 2) before building the index. The
  // socket's directory does not exist, so a serve that got further
  // fails to bind instead of running.
  for (const char* flag :
       {"--workers", "--queue", "--knn-threads", "--trace-every"}) {
    int rc = -1;
    const std::string out = RunAndCapture(
        std::string(VITRID_PATH) +
            " serve --synthetic --socket /nonexistent/vitrid.sock " + flag +
            " -1 2>&1",
        &rc);
    ASSERT_TRUE(WIFEXITED(rc)) << flag << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << flag << "\n" << out;
    EXPECT_NE(out.find(std::string(flag) + " must not be negative"),
              std::string::npos)
        << out;
  }
}

TEST(VitridSmokeTest, StatsSubcommandReportsWalAndQueryMetrics) {
  // Build a small durable index and run one insert + one query so the
  // process registry holds wal.* counters and query histograms before
  // the stats document is rendered.
  char tmpl[] = "/tmp/vitrid_smoke_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string db_dir = dir + "/db";
  const std::string socket = dir + "/vitrid.sock";

  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  core::ViTriBuilderOptions bo;
  bo.epsilon = 0.15;
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(db);
  ASSERT_TRUE(set.ok());
  core::ViTriIndexOptions io;
  io.dimension = db.dimension;
  io.epsilon = 0.15;
  auto index = core::ViTriIndex::Build(*set, io);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->EnableDurability(db_dir).ok());

  auto query = builder.Build(db.videos[0]);
  ASSERT_TRUE(query.ok());
  const auto frames = static_cast<uint32_t>(db.videos[0].num_frames());
  ASSERT_TRUE(index->Knn(*query, frames, 3, core::KnnMethod::kComposed).ok());
  uint32_t next_id = 0;
  for (const auto& v : set->vitris) next_id = std::max(next_id, v.video_id);
  std::vector<core::ViTri> inserted = *query;
  for (core::ViTri& v : inserted) v.video_id = next_id + 1;
  ASSERT_TRUE(index->Insert(next_id + 1, frames, inserted).ok());

  serving::ServerOptions opts;
  opts.unix_socket_path = socket;
  opts.checkpoint_on_shutdown = false;
  serving::Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  int rc = -1;
  const std::string pong =
      RunAndCapture(std::string(VITRID_PATH) + " ping --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << pong;
  EXPECT_NE(pong.find("pong"), std::string::npos) << pong;

  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " stats --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
  ASSERT_TRUE(parsed->is_object());

  // Server block: admission/drain counters plus the index's shape.
  const json::JsonValue* srv = parsed->Find("server");
  ASSERT_NE(srv, nullptr) << out;
  ASSERT_TRUE(srv->is_object());
  for (const char* key :
       {"state", "queue_depth", "queue_capacity", "connections", "admitted",
        "rejected_overloaded", "deadline_exceeded"}) {
    EXPECT_NE(srv->Find(key), nullptr) << key << "\n" << out;
  }
  const json::JsonValue* idx = srv->Find("index");
  ASSERT_NE(idx, nullptr) << out;
  const json::JsonValue* durable = idx->Find("durable");
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(durable->kind, json::JsonValue::Kind::kBool);
  EXPECT_TRUE(durable->bool_value);

  // Metrics registry: the durable insert left wal.* counters behind.
  const json::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr) << out;
  const json::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name : {"wal.appends", "wal.commits", "wal.append_bytes"}) {
    const json::JsonValue* c = counters->Find(name);
    ASSERT_NE(c, nullptr) << name << "\n" << out;
    EXPECT_GT(c->number, 0.0) << name;
  }

  // The sharded buffer pool registered per-shard counters at index
  // construction; the query bumped shard 0's fetch counter (whatever
  // the shard count, shard 0 always exists).
  for (const char* name :
       {"buffer_pool.shard.0.fetches", "buffer_pool.shard.0.hits",
        "buffer_pool.shard.0.evictions"}) {
    EXPECT_NE(counters->Find(name), nullptr) << name << "\n" << out;
  }
  const json::JsonValue* shard_fetches =
      counters->Find("buffer_pool.shard.0.fetches");
  ASSERT_NE(shard_fetches, nullptr);
  EXPECT_GT(shard_fetches->number, 0.0) << out;

  // ... and the query ran through the histograms.
  const json::JsonValue* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::JsonValue* latency = histograms->Find("query.knn.latency_us");
  ASSERT_NE(latency, nullptr) << out;
  for (const char* field : {"count", "p50", "p95", "p99"}) {
    EXPECT_NE(latency->Find(field), nullptr) << field;
  }

  // In-band shutdown through the binary signals the owner loop.
  const std::string ack = RunAndCapture(
      std::string(VITRID_PATH) + " shutdown --socket " + socket, &rc);
  EXPECT_EQ(rc, 0) << ack;
  EXPECT_NE(ack.find("shutdown requested"), std::string::npos) << ack;
  EXPECT_TRUE(server.WaitForShutdownRequest(10'000));
  EXPECT_TRUE(server.Shutdown().ok());

  // Best-effort cleanup of the temp tree (db dir contents + socket).
  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

TEST(VitridSmokeTest, StatsReportsShardedIndexBlock) {
  // An in-process Server over a 4-shard scatter-gather index: the stats
  // document must carry the sharded index block (shards, live_shards,
  // assignment, durable=false) and the per-shard index.shard.<i>.*
  // gauges registered at build time (DESIGN.md §17).
  char tmpl[] = "/tmp/vitrid_sharded_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string socket = dir + "/vitrid.sock";

  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  core::ViTriBuilderOptions bo;
  bo.epsilon = 0.15;
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(db);
  ASSERT_TRUE(set.ok());
  core::ShardedIndexOptions sio;
  sio.num_shards = 4;
  sio.shard_options.dimension = db.dimension;
  sio.shard_options.epsilon = 0.15;
  auto index = core::ShardedViTriIndex::Build(*set, sio);
  ASSERT_TRUE(index.ok());

  serving::ServerOptions opts;
  opts.unix_socket_path = socket;
  serving::Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  int rc = -1;
  const std::string pong =
      RunAndCapture(std::string(VITRID_PATH) + " ping --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << pong;
  EXPECT_NE(pong.find("pong"), std::string::npos) << pong;

  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " stats --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;

  const json::JsonValue* srv = parsed->Find("server");
  ASSERT_NE(srv, nullptr) << out;
  const json::JsonValue* idx = srv->Find("index");
  ASSERT_NE(idx, nullptr) << out;
  const json::JsonValue* shards = idx->Find("shards");
  ASSERT_NE(shards, nullptr) << out;
  EXPECT_EQ(shards->number, 4.0) << out;
  const json::JsonValue* live = idx->Find("live_shards");
  ASSERT_NE(live, nullptr) << out;
  EXPECT_GE(live->number, 1.0) << out;
  EXPECT_LE(live->number, 4.0) << out;
  const json::JsonValue* assignment = idx->Find("assignment");
  ASSERT_NE(assignment, nullptr) << out;
  ASSERT_TRUE(assignment->is_string()) << out;
  EXPECT_EQ(assignment->string_value, "hash") << out;
  const json::JsonValue* durable = idx->Find("durable");
  ASSERT_NE(durable, nullptr) << out;
  EXPECT_FALSE(durable->bool_value) << out;
  const json::JsonValue* videos = idx->Find("videos");
  ASSERT_NE(videos, nullptr) << out;
  EXPECT_EQ(videos->number, static_cast<double>(index->num_videos())) << out;

  const json::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr) << out;
  const json::JsonValue* gauges = metrics->Find("gauges");
  ASSERT_NE(gauges, nullptr) << out;
  double gauge_videos = 0.0;
  for (size_t s = 0; s < 4; ++s) {
    for (const char* suffix : {"videos", "vitris", "height"}) {
      const std::string name =
          "index.shard." + std::to_string(s) + "." + suffix;
      const json::JsonValue* g = gauges->Find(name);
      ASSERT_NE(g, nullptr) << name << "\n" << out;
      if (std::string(suffix) == "videos") gauge_videos += g->number;
    }
  }
  // The per-shard gauges tile the corpus exactly.
  EXPECT_EQ(gauge_videos, static_cast<double>(index->num_videos())) << out;

  const std::string ack = RunAndCapture(
      std::string(VITRID_PATH) + " shutdown --socket " + socket, &rc);
  EXPECT_EQ(rc, 0) << ack;
  EXPECT_TRUE(server.WaitForShutdownRequest(10'000));
  EXPECT_TRUE(server.Shutdown().ok());

  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

TEST(VitridSmokeTest, ServeIndexShardsFlagRoundTrip) {
  // The full binary surface: `vitrid serve --synthetic --index-shards 4`
  // must come up, report a 4-shard index over the wire, and drain on an
  // in-band shutdown.
  char tmpl[] = "/tmp/vitrid_shardserve_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string socket = dir + "/vitrid.sock";

  FILE* serve = popen((std::string(VITRID_PATH) +  // NOLINT
                       " serve --synthetic --index-shards 4 --socket " +
                       socket + " 2>&1")
                          .c_str(),
                      "r");
  ASSERT_NE(serve, nullptr);

  // Wait for the listening socket (synthetic build takes a moment).
  bool up = false;
  for (int i = 0; i < 300 && !up; ++i) {
    up = access(socket.c_str(), F_OK) == 0;
    if (!up) usleep(100 * 1000);
  }
  ASSERT_TRUE(up) << "server socket never appeared";

  int rc = -1;
  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " stats --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
  const json::JsonValue* srv = parsed->Find("server");
  ASSERT_NE(srv, nullptr) << out;
  const json::JsonValue* idx = srv->Find("index");
  ASSERT_NE(idx, nullptr) << out;
  const json::JsonValue* shards = idx->Find("shards");
  ASSERT_NE(shards, nullptr) << out;
  EXPECT_EQ(shards->number, 4.0) << out;

  const std::string ack = RunAndCapture(
      std::string(VITRID_PATH) + " shutdown --socket " + socket, &rc);
  EXPECT_EQ(rc, 0) << ack;

  // The serve process drains and exits 0; its transcript carries the
  // announce line with the shard count.
  std::string transcript;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), serve)) > 0) transcript.append(buf, n);
  const int serve_rc = pclose(serve);
  EXPECT_EQ(serve_rc, 0) << transcript;
  EXPECT_NE(transcript.find("listening on"), std::string::npos) << transcript;
  EXPECT_NE(transcript.find("4 shards"), std::string::npos) << transcript;

  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace
}  // namespace vitri
