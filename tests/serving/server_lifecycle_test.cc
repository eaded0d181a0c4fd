// Request-lifecycle guarantees of the vitrid server (src/serving/server.h),
// written to run clean under TSan (the tsan-stress CI lane runs this suite
// with halt_on_error=1):
//
//   * admission control — a full bounded queue answers kOverloaded, and
//     requests admitted before the queue filled are still answered kOk;
//   * deadlines — a request whose deadline lapses while queued is answered
//     kDeadlineExceeded at dequeue without touching the index, and the
//     deadline is re-checked between the per-query stages of execution;
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

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/index.h"
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
// leaves one trace in the stats document — on the batched path a request
// without a deadline takes, and on the per-query path one with a
// deadline takes.
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
  // deadline lapses there — the between-stages check must catch it.
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
