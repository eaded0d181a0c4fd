// Concurrency stress for the read path: many threads issuing KNN
// queries (plain and batched) against one shared index. Run under the
// tsan preset; the assertions double-check that races, if any, did not
// corrupt results or pool invariants.

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/index.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

struct SharedWorld {
  video::VideoDatabase db;
  ViTriSet set;
  std::vector<BatchQuery> queries;
};

SharedWorld MakeSharedWorld(int num_queries) {
  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  SharedWorld w;
  w.db = synth.GenerateDatabase(0.004);
  ViTriBuilder builder;
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  for (int q = 0; q < num_queries; ++q) {
    const auto src = static_cast<size_t>(q) % w.db.num_videos();
    auto summary = builder.Build(w.db.videos[src]);
    EXPECT_TRUE(summary.ok());
    w.queries.push_back(BatchQuery{
        std::move(*summary),
        static_cast<uint32_t>(w.db.videos[src].num_frames())});
  }
  return w;
}

bool SameMatches(const std::vector<VideoMatch>& a,
                 const std::vector<VideoMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].video_id != b[i].video_id) return false;
    if (std::memcmp(&a[i].similarity, &b[i].similarity, sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

// Several threads each run a read-only query workload against the same
// index; every thread's answers must match the sequential baseline, and
// the buffer pool must come out of the stampede with clean invariants.
TEST(IndexConcurrencyTest, ParallelKnnReadersSeeConsistentResults) {
  SharedWorld w = MakeSharedWorld(8);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto built = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(built.ok());
  ViTriIndex& index = *built;

  // Sequential baseline, one per query.
  std::vector<std::vector<VideoMatch>> baseline;
  for (const BatchQuery& q : w.queries) {
    auto r = index.Knn(q.vitris, q.num_frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(r.ok());
    baseline.push_back(std::move(*r));
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const size_t qi =
            (static_cast<size_t>(t) + static_cast<size_t>(round)) %
            w.queries.size();
        const BatchQuery& q = w.queries[qi];
        auto r =
            index.Knn(q.vitris, q.num_frames, 10, KnnMethod::kComposed);
        if (!r.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!SameMatches(baseline[qi], *r)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(index.ValidateInvariants().ok());
  EXPECT_TRUE(index.quarantined_pages().empty());
}

// BatchKnn itself called concurrently from several threads, all of them
// scattering on one shared executor over the same read-only index.
TEST(IndexConcurrencyTest, ConcurrentBatchKnnCallsAgree) {
  SharedWorld w = MakeSharedWorld(6);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto built = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(built.ok());
  ViTriIndex& index = *built;

  auto baseline =
      index.BatchKnn(w.queries, 5, KnnMethod::kComposed, nullptr);
  ASSERT_TRUE(baseline.ok());

  ThreadPool pool(4);
  constexpr int kCallers = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      auto batch = index.BatchKnn(w.queries, 5, KnnMethod::kComposed, &pool);
      if (!batch.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (size_t qi = 0; qi < baseline->size(); ++qi) {
        if (!SameMatches((*baseline)[qi], (*batch)[qi])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : callers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(index.ValidateInvariants().ok());
}

// Mixed methods under contention: naive range-scans and composed scans
// share the buffer pool and must not disturb each other.
TEST(IndexConcurrencyTest, MixedMethodReadersShareThePool) {
  SharedWorld w = MakeSharedWorld(4);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  // A small pool so readers continuously evict each other's pages.
  io.buffer_pool_pages = 8;
  auto built = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(built.ok());
  ViTriIndex& index = *built;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      const KnnMethod method =
          (t % 2 == 0) ? KnnMethod::kComposed : KnnMethod::kNaive;
      for (int round = 0; round < 4; ++round) {
        const BatchQuery& q = w.queries[static_cast<size_t>(t) %
                                        w.queries.size()];
        auto r = index.Knn(q.vitris, q.num_frames, 3, method);
        if (!r.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(index.ValidateInvariants().ok());
  EXPECT_TRUE(index.quarantined_pages().empty());
}

}  // namespace
}  // namespace vitri::core
