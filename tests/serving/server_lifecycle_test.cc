// Request-lifecycle guarantees of the vitrid server (src/serving/server.h),
// written to run clean under TSan (the tsan-stress CI lane runs this suite
// with halt_on_error=1):
//
//   * admission control — a full bounded queue answers kOverloaded, and
//     requests admitted before the queue filled are still answered kOk;
//   * deadlines — a request whose deadline lapses while queued is answered
//     kDeadlineExceeded at dequeue without touching the index, and the
//     deadline is re-checked before each per-query stage of execution;
//   * graceful shutdown — Shutdown() stops admission (kShuttingDown) but
//     drains every queued and in-flight request, so no admitted request
//     ever loses its ack.
//
// Determinism comes from ServerOptions::stage_hook: a Gate parks worker
// threads at a named point ("worker.dequeue" / "worker.execute") so tests
// can fill the queue, lapse a deadline, or start a shutdown while the
// server is pinned in a known state, then release it and observe the
// typed responses.

#include "serving/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "serving/client.h"
#include "video/synthesizer.h"

namespace vitri::serving {
namespace {

using namespace std::chrono_literals;

struct World {
  video::VideoDatabase db;
  core::ViTriSet set;
};

World MakeWorld(double scale = 0.004, double epsilon = 0.15,
                uint64_t seed = 2005) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  World w;
  w.db = synth.GenerateDatabase(scale);
  core::ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  return w;
}

core::ViTriIndexOptions DefaultOptions(double epsilon = 0.15) {
  core::ViTriIndexOptions options;
  options.epsilon = epsilon;
  options.dimension = 64;
  return options;
}

std::vector<core::ViTri> QuerySummary(const video::VideoSequence& seq,
                                      double epsilon = 0.15) {
  core::ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  core::ViTriBuilder builder(bo);
  auto result = builder.Build(seq);
  EXPECT_TRUE(result.ok());
  return *result;
}

/// Parks every thread that calls Arrive() until Open(); the test thread
/// uses AwaitWaiting() to know exactly how many workers are pinned.
/// Open() is sticky — late arrivals (after release) pass straight
/// through, so the hook can stay installed for the whole server life.
class Gate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  /// True once `n` threads are parked (or have passed through); false if
  /// that doesn't happen within `timeout`.
  bool AwaitWaiting(int n, std::chrono::milliseconds timeout = 30s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return waiting_ >= n; });
  }

  void Open() {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

/// Temp dir holding the unix socket; removed on scope exit.
class ScopedDir {
 public:
  ScopedDir() {
    char tmpl[] = "/tmp/vitri_lifecycle_XXXXXX";
    if (mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~ScopedDir() {
    if (!path_.empty()) {
      unlink((path_ + "/vitrid.sock").c_str());
      rmdir(path_.c_str());
    }
  }
  std::string socket_path() const { return path_ + "/vitrid.sock"; }
  bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
};

KnnRequest MakeKnn(const std::vector<core::ViTri>& query,
                   uint32_t query_frames, uint64_t request_id,
                   uint32_t deadline_ms = 0, size_t num_queries = 1) {
  KnnRequest req;
  req.request_id = request_id;
  req.deadline_ms = deadline_ms;
  req.k = 3;
  req.method = core::KnnMethod::kComposed;
  req.dimension = query.empty()
                      ? 0
                      : static_cast<uint32_t>(query.front().dimension());
  core::BatchQuery q;
  q.vitris = query;
  q.num_frames = query_frames;
  req.queries.assign(num_queries, q);
  return req;
}

/// One request issued from its own thread through its own Client; the
/// response (or transport error) is captured for the test to join on.
struct AsyncKnn {
  std::thread thread;
  Status transport = Status::OK();
  KnnResponse response;

  void Start(const std::string& socket, KnnRequest request) {
    thread = std::thread([this, socket, request = std::move(request)] {
      auto client = Client::ConnectUnix(socket);
      if (!client.ok()) {
        transport = client.status();
        return;
      }
      auto resp = client->Knn(request);
      if (!resp.ok()) {
        transport = resp.status();
        return;
      }
      response = std::move(*resp);
    });
  }
  void Join() { thread.join(); }
};

/// A number from the stats document's "server" block, or from its
/// "index" sub-block when `in_index` is set.
double ServerStat(Server& server, const std::string& key,
                  bool in_index = false) {
  auto stats = json::ParseJson(server.BuildStatsJson());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return -1.0;
  const json::JsonValue* block = stats->Find("server");
  if (block != nullptr && in_index) block = block->Find("index");
  const json::JsonValue* value =
      block == nullptr ? nullptr : block->Find(key);
  EXPECT_NE(value, nullptr) << key;
  return value == nullptr ? -1.0 : value->number;
}

/// An insert of video 0's ViTris under a new id.
InsertRequest MakeInsert(const World& w, uint32_t video_id,
                         uint64_t request_id) {
  InsertRequest req;
  req.request_id = request_id;
  req.video_id = video_id;
  req.num_frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  req.vitris = QuerySummary(w.db.videos[0]);
  for (core::ViTri& v : req.vitris) v.video_id = video_id;
  req.dimension = static_cast<uint32_t>(req.vitris.front().dimension());
  return req;
}

bool PollUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(ServingLifecycleTest, PingAndShutdownRequestRoundTrip) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  auto pong = client->Ping(1);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->head.request_id, 1u);
  EXPECT_EQ(pong->head.status, WireStatus::kOk);

  // An in-band shutdown request is acked, then signals the owner loop —
  // it must not stop the server from inside a session thread.
  EXPECT_FALSE(server.WaitForShutdownRequest(0));
  auto ack = client->Shutdown(2);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->head.status, WireStatus::kOk);
  EXPECT_TRUE(server.WaitForShutdownRequest(10'000));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, InsertOfAnotherVideosViTrisIsAnInvalidRequest) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const size_t vitris = index->num_vitris();

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());

  InsertRequest req;
  req.request_id = 7;
  req.video_id = 100;
  req.num_frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  req.vitris = QuerySummary(w.db.videos[0]);
  ASSERT_FALSE(req.vitris.empty());
  for (core::ViTri& v : req.vitris) v.video_id = 1;
  req.dimension = static_cast<uint32_t>(req.vitris.front().dimension());
  auto resp = client->Insert(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->head.request_id, 7u);
  EXPECT_EQ(resp->head.status, WireStatus::kInvalidRequest);
  EXPECT_EQ(index->num_vitris(), vitris);
  EXPECT_TRUE(server.Shutdown().ok());
}

// The wire decoder bounds a query's dimension only by kMaxDimension; the
// index rejects one that differs from its own before reading the
// position, and the server keeps serving.
TEST(ServingLifecycleTest, KnnOfWrongDimensionIsAnInvalidRequest) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());

  std::vector<core::ViTri> wide = query;
  for (core::ViTri& v : wide) v.position.assign(512, 0.5);
  auto resp = client->Knn(MakeKnn(wide, frames, 7));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->head.request_id, 7u);
  EXPECT_EQ(resp->head.status, WireStatus::kInvalidRequest);
  EXPECT_TRUE(resp->results.empty());

  auto next = client->Knn(MakeKnn(query, frames, 8));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->head.request_id, 8u);
  EXPECT_EQ(next->head.status, WireStatus::kOk);
  ASSERT_EQ(next->results.size(), 1u);
  ASSERT_FALSE(next->results[0].empty());
  EXPECT_EQ(next->results[0][0].video_id, 0u);
  EXPECT_TRUE(server.Shutdown().ok());
}

// With trace_every = 1 every request is sampled, and each of its queries
// leaves one trace in the stats document — from the one stage a request
// without a deadline runs, and from the one-query stages of a request
// with a deadline.
void ExpectOneTracePerQuery(uint32_t deadline_ms) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.trace_every = 1;
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  constexpr size_t kQueries = 2;
  auto resp = client->Knn(MakeKnn(query, frames, 60, deadline_ms, kQueries));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->head.status, WireStatus::kOk);
  EXPECT_EQ(resp->results.size(), kQueries);

  auto stats = json::ParseJson(server.BuildStatsJson());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const json::JsonValue* traces = stats->Find("recent_traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  ASSERT_EQ(traces->array.size(), kQueries);
  for (const json::JsonValue& trace : traces->array) {
    const json::JsonValue* spans = trace.Find("spans");
    ASSERT_NE(spans, nullptr);
    EXPECT_FALSE(spans->array.empty());
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, SampledRequestKeepsOneTracePerQuery) {
  ExpectOneTracePerQuery(/*deadline_ms=*/0);
}

TEST(ServingLifecycleTest, SampledRequestWithADeadlineKeepsItsTraces) {
  ExpectOneTracePerQuery(/*deadline_ms=*/60'000);
}

// With knn_threads = 4 every request scatters its queries on the
// server's one pool. A multi-query request still answers each query
// bitwise like Knn() run alone, and keeps one trace per query holding
// that query's own page reads.
TEST(ServingLifecycleTest, PooledRequestMatchesSequentialKnnBitwise) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());

  KnnRequest req;
  req.request_id = 70;
  req.k = 3;
  req.method = core::KnnMethod::kComposed;
  req.dimension = static_cast<uint32_t>(w.db.dimension);
  std::vector<std::vector<core::VideoMatch>> alone;
  std::vector<uint64_t> alone_reads;
  for (size_t v = 0; v < 4; ++v) {
    core::BatchQuery q;
    q.vitris = QuerySummary(w.db.videos[v]);
    q.num_frames = static_cast<uint32_t>(w.db.videos[v].num_frames());
    core::QueryCosts costs;
    auto result = index->Knn(q.vitris, q.num_frames, req.k, req.method,
                             &costs);
    ASSERT_TRUE(result.ok());
    alone.push_back(std::move(*result));
    alone_reads.push_back(costs.page_accesses);
    req.queries.push_back(std::move(q));
  }

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.knn_threads = 4;
  opts.trace_every = 1;
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  auto resp = client->Knn(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->head.status, WireStatus::kOk) << resp->error;
  ASSERT_EQ(resp->results.size(), alone.size());
  for (size_t q = 0; q < alone.size(); ++q) {
    ASSERT_EQ(resp->results[q].size(), alone[q].size()) << "query " << q;
    for (size_t i = 0; i < alone[q].size(); ++i) {
      EXPECT_EQ(resp->results[q][i].video_id, alone[q][i].video_id);
      EXPECT_EQ(std::memcmp(&resp->results[q][i].similarity,
                            &alone[q][i].similarity, sizeof(double)),
                0)
          << "query " << q << " rank " << i;
    }
  }

  auto stats = json::ParseJson(server.BuildStatsJson());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const json::JsonValue* traces = stats->Find("recent_traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), alone.size());
  for (size_t q = 0; q < alone.size(); ++q) {
    const json::JsonValue* spans = traces->array[q].Find("spans");
    ASSERT_NE(spans, nullptr);
    double reads = 0.0;
    for (const json::JsonValue& span : spans->array) {
      const json::JsonValue* io = span.Find("io");
      ASSERT_NE(io, nullptr);
      reads += io->Find("logical_reads")->number;
    }
    EXPECT_EQ(reads, static_cast<double>(alone_reads[q])) << "query " << q;
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

// Every OK response counts once in responses_ok, an acked insert
// included.
TEST(ServingLifecycleTest, ResponsesOkCountsEachOkResponseOnce) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  auto knn = client->Knn(MakeKnn(query, frames, 80));
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->head.status, WireStatus::kOk);
  auto insert = client->Insert(MakeInsert(w, 500, 81));
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->head.status, WireStatus::kOk);
  auto pong = client->Ping(82);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->head.status, WireStatus::kOk);
  EXPECT_EQ(ServerStat(server, "responses_ok"), 3.0);
  EXPECT_TRUE(server.Shutdown().ok());
}

// "videos" in the stats document counts stored videos on both index
// types, not the single index's id extent: an insert far past the last
// id adds one video to either.
TEST(ServingLifecycleTest, StatsCountStoredVideosOnBothIndexTypes) {
  World w = MakeWorld();
  const double stored = static_cast<double>(
      std::count_if(w.set.frame_counts.begin(), w.set.frame_counts.end(),
                    [](uint32_t frames) { return frames > 0; }));
  auto single = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(single.ok());
  core::ShardedIndexOptions sharded_options;
  sharded_options.num_shards = 1;
  sharded_options.shard_options = DefaultOptions();
  auto sharded = core::ShardedViTriIndex::Build(w.set, sharded_options);
  ASSERT_TRUE(sharded.ok());

  const auto videos_after_insert = [&](Server& server,
                                       const std::string& socket) {
    EXPECT_TRUE(server.Start().ok());
    auto client = Client::ConnectUnix(socket);
    EXPECT_TRUE(client.ok());
    if (!client.ok()) return -1.0;
    auto insert = client->Insert(MakeInsert(w, 100000, 90));
    EXPECT_TRUE(insert.ok() && insert->head.status == WireStatus::kOk);
    const double videos = ServerStat(server, "videos", /*in_index=*/true);
    EXPECT_TRUE(server.Shutdown().ok());
    return videos;
  };
  ScopedDir single_dir;
  ScopedDir sharded_dir;
  ASSERT_TRUE(single_dir.ok() && sharded_dir.ok());
  ServerOptions opts;
  opts.unix_socket_path = single_dir.socket_path();
  Server single_server(&*single, opts);
  EXPECT_EQ(videos_after_insert(single_server, single_dir.socket_path()),
            stored + 1);
  opts.unix_socket_path = sharded_dir.socket_path();
  Server sharded_server(&*sharded, opts);
  EXPECT_EQ(videos_after_insert(sharded_server, sharded_dir.socket_path()),
            stored + 1);
}

TEST(ServingLifecycleTest, AdmissionRejectsWithOverloadedWhenQueueIsFull) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.queue_capacity = 1;
  opts.num_workers = 1;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.dequeue") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // First request: dequeued immediately, worker parks at the gate.
  AsyncKnn held;
  held.Start(dir.socket_path(), MakeKnn(query, frames, 10));
  EXPECT_TRUE(gate.AwaitWaiting(1));

  // Second request: admitted, fills the only queue slot.
  AsyncKnn queued;
  queued.Start(dir.socket_path(), MakeKnn(query, frames, 11));
  EXPECT_TRUE(PollUntil([&] { return server.queue_depth() == 1; }));

  // Third request: typed rejection, answered inline while the worker is
  // still parked — admission control never blocks the session reader.
  {
    auto client = Client::ConnectUnix(dir.socket_path());
    EXPECT_TRUE(client.ok());
    auto resp = client->Knn(MakeKnn(query, frames, 12));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->head.request_id, 12u);
    EXPECT_EQ(resp->head.status, WireStatus::kOverloaded);
    EXPECT_FALSE(resp->error.empty());
  }

  // Releasing the worker answers both admitted requests with kOk.
  gate.Open();
  held.Join();
  queued.Join();
  EXPECT_TRUE(held.transport.ok()) << held.transport.ToString();
  EXPECT_TRUE(queued.transport.ok()) << queued.transport.ToString();
  EXPECT_EQ(held.response.head.status, WireStatus::kOk);
  EXPECT_EQ(queued.response.head.status, WireStatus::kOk);
  EXPECT_FALSE(held.response.results.empty());

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, DeadlineLapsedInQueueIsAnsweredAtDequeue) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.queue_capacity = 4;
  opts.num_workers = 1;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.dequeue") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // Plug request (no deadline) parks the only worker at its dequeue
  // hook, so the deadlined request below must wait in the queue.
  AsyncKnn plug;
  plug.Start(dir.socket_path(), MakeKnn(query, frames, 20));
  EXPECT_TRUE(gate.AwaitWaiting(1));

  AsyncKnn late;
  late.Start(dir.socket_path(), MakeKnn(query, frames, 21,
                                        /*deadline_ms=*/50));
  EXPECT_TRUE(PollUntil([&] { return server.queue_depth() == 1; }));

  // Let the deadline lapse while the request is queued, then release the
  // worker: the dequeue-time check must answer without running the query.
  std::this_thread::sleep_for(150ms);
  gate.Open();

  plug.Join();
  late.Join();
  EXPECT_TRUE(plug.transport.ok()) << plug.transport.ToString();
  EXPECT_TRUE(late.transport.ok()) << late.transport.ToString();
  EXPECT_EQ(plug.response.head.status, WireStatus::kOk);
  EXPECT_EQ(late.response.head.request_id, 21u);
  EXPECT_EQ(late.response.head.status, WireStatus::kDeadlineExceeded);
  EXPECT_NE(late.response.error.find("deadline"), std::string::npos);
  EXPECT_TRUE(late.response.results.empty());

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, DeadlineIsRecheckedBetweenExecutionStages) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.num_workers = 1;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.execute") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // The request passes the dequeue-time check (the deadline is still
  // comfortably in the future), parks at the execute hook, and the
  // deadline lapses there — the check before the first stage must catch
  // it.
  AsyncKnn stalled;
  stalled.Start(dir.socket_path(),
                MakeKnn(query, frames, 30, /*deadline_ms=*/300,
                        /*num_queries=*/3));
  // If the scheduler was pathologically slow the dequeue check itself
  // answers DeadlineExceeded and the worker never reaches the gate;
  // either way the client must see the typed status below.
  gate.AwaitWaiting(1, 2s);
  std::this_thread::sleep_for(400ms);
  gate.Open();

  stalled.Join();
  EXPECT_TRUE(stalled.transport.ok()) << stalled.transport.ToString();
  EXPECT_EQ(stalled.response.head.status, WireStatus::kDeadlineExceeded);
  EXPECT_NE(stalled.response.error.find("deadline"), std::string::npos);
  EXPECT_TRUE(stalled.response.results.empty());

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, GracefulShutdownDrainsInFlightWithoutDroppedAcks) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.queue_capacity = 4;
  opts.num_workers = 2;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.dequeue") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // Pin both workers, then fill the queue: 6 admitted requests in
  // flight (2 held by workers, 4 queued), with the queue exactly full so
  // the pre-shutdown state is deterministic.
  std::vector<std::unique_ptr<AsyncKnn>> inflight;
  for (uint64_t i = 0; i < 2; ++i) {
    inflight.push_back(std::make_unique<AsyncKnn>());
    inflight.back()->Start(dir.socket_path(),
                           MakeKnn(query, frames, 40 + i));
  }
  EXPECT_TRUE(gate.AwaitWaiting(2));
  for (uint64_t i = 2; i < 6; ++i) {
    inflight.push_back(std::make_unique<AsyncKnn>());
    inflight.back()->Start(dir.socket_path(),
                           MakeKnn(query, frames, 40 + i));
  }
  EXPECT_TRUE(PollUntil([&] { return server.queue_depth() == 4; }));

  // A connection opened before the shutdown begins, used to probe the
  // admission plane while the drain is in progress. connect() returns
  // once the kernel queues the connection, so round-trip a ping to
  // prove the listener accepted it — Shutdown() stops accepting, and a
  // merely-queued probe would hang below.
  auto probe = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(probe.ok());
  {
    auto pong = probe->Ping(89);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->head.status, WireStatus::kOk);
  }

  Status shutdown_status = Status::Internal("not run");
  std::thread closer([&] { shutdown_status = server.Shutdown(); });

  // Shutdown() closes admission before draining. With both workers
  // pinned and the queue full, a probe can only see kOverloaded (queue
  // still open, full) and then kShuttingDown (queue closed) — never kOk.
  bool saw_shutting_down = false;
  for (int i = 0; i < 100'000 && !saw_shutting_down; ++i) {
    auto resp = probe->Knn(MakeKnn(query, frames, 90));
    if (!resp.ok()) break;  // Session torn down later in the drain.
    EXPECT_NE(resp->head.status, WireStatus::kOk);
    saw_shutting_down = resp->head.status == WireStatus::kShuttingDown;
  }
  EXPECT_TRUE(saw_shutting_down);

  // Release the workers: the drain must answer all six admitted
  // requests with kOk before the server stops.
  gate.Open();
  closer.join();
  EXPECT_TRUE(shutdown_status.ok()) << shutdown_status.ToString();
  for (auto& req : inflight) {
    req->Join();
    EXPECT_TRUE(req->transport.ok()) << req->transport.ToString();
    EXPECT_EQ(req->response.head.status, WireStatus::kOk);
    EXPECT_FALSE(req->response.results.empty());
  }

  // The drained server rejects late connections outright.
  EXPECT_FALSE(Client::ConnectUnix(dir.socket_path()).ok());
}

}  // namespace
}  // namespace vitri::serving
