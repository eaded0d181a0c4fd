// Exact per-query I/O accounting under concurrency (DESIGN.md §12): a
// query's page counts come from its own IoTally, which BufferPool::Fetch
// bumps next to the pool's cumulative counters. So every call reports
// the same page accesses as the same query run alone, however many
// other queries share the pool, and the calls' physical reads add up to
// the pool's. Runs in the tsan-stress CI lane (suite name matches
// "Concurrency").

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/query_trace.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

constexpr int kThreads = 4;
constexpr int kRounds = 50;
constexpr int kQueries = 12;
// Far below the tree, so the concurrent queries keep evicting each
// other's pages.
constexpr size_t kPoolPages = 16;

struct World {
  video::VideoDatabase db;
  ViTriSet set;
  std::vector<BatchQuery> queries;
};

World MakeWorld(int num_queries) {
  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  World w;
  w.db = synth.GenerateDatabase(0.004);
  ViTriBuilder builder;
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  for (int q = 0; q < num_queries; ++q) {
    const auto src = static_cast<size_t>(q) % w.db.num_videos();
    const video::VideoSequence dup = synth.MakeNearDuplicate(
        w.db.videos[src],
        static_cast<uint32_t>(w.db.num_videos() + static_cast<size_t>(q)));
    auto summary = builder.Build(dup);
    EXPECT_TRUE(summary.ok());
    w.queries.push_back(BatchQuery{
        std::move(*summary), static_cast<uint32_t>(dup.num_frames())});
  }
  return w;
}

// Runs `call(query index, thread)` kRounds times per thread over the
// whole query set from kThreads threads at once.
template <typename Call>
void RunConcurrently(Call call) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&call, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < static_cast<size_t>(kQueries); ++i) {
          // Each thread walks the set from its own offset, so different
          // queries overlap in time.
          call((i + static_cast<size_t>(t) * 3) % kQueries, t);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(QueryAccountingConcurrencyTest, ConcurrentKnnCountsOnlyItsOwnPages) {
  World w = MakeWorld(kQueries);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  io.buffer_pool_pages = kPoolPages;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  std::vector<uint64_t> alone(kQueries);
  for (size_t i = 0; i < alone.size(); ++i) {
    QueryCosts costs;
    ASSERT_TRUE(index
                    ->Knn(w.queries[i].vitris, w.queries[i].num_frames, 10,
                          KnnMethod::kComposed, &costs)
                    .ok());
    ASSERT_GT(costs.page_accesses, 0u);
    alone[i] = costs.page_accesses;
  }

  const uint64_t physical_before = index->io_stats().physical_reads;
  std::atomic<int> failures{0};
  std::atomic<int> differing{0};
  std::atomic<uint64_t> physical{0};
  RunConcurrently([&](size_t i, int /*thread*/) {
    QueryCosts costs;
    auto r = index->Knn(w.queries[i].vitris, w.queries[i].num_frames, 10,
                        KnnMethod::kComposed, &costs);
    if (!r.ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (costs.page_accesses != alone[i]) {
      differing.fetch_add(1, std::memory_order_relaxed);
    }
    physical.fetch_add(costs.physical_reads, std::memory_order_relaxed);
  });

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(differing.load(), 0)
      << "of " << kThreads * kRounds * kQueries << " calls";
  const uint64_t pool_physical =
      index->io_stats().physical_reads - physical_before;
  EXPECT_GT(pool_physical, 0u) << "the pool never missed";
  EXPECT_EQ(physical.load(), pool_physical);
}

TEST(QueryAccountingConcurrencyTest, ConcurrentShardedKnnCountsEachShard) {
  World w = MakeWorld(kQueries);
  ShardedIndexOptions options;
  options.num_shards = 4;
  options.shard_options.dimension = w.db.dimension;
  options.shard_options.buffer_pool_pages = kPoolPages / 2;
  auto index = ShardedViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());

  std::vector<std::vector<QueryCosts>> alone(kQueries);
  for (size_t i = 0; i < alone.size(); ++i) {
    ASSERT_TRUE(index
                    ->Knn(w.queries[i].vitris, w.queries[i].num_frames, 10,
                          KnnMethod::kComposed, nullptr, &alone[i])
                    .ok());
  }

  auto pool_physical = [&] {
    uint64_t total = 0;
    for (size_t s = 0; s < index->num_shards(); ++s) {
      if (const ViTriIndex* shard = index->shard(s)) {
        total += shard->io_stats().physical_reads;
      }
    }
    return total;
  };
  const uint64_t physical_before = pool_physical();
  std::atomic<int> failures{0};
  std::atomic<int> differing{0};
  std::atomic<uint64_t> physical{0};
  RunConcurrently([&](size_t i, int /*thread*/) {
    QueryCosts costs;
    std::vector<QueryCosts> shard_costs;
    auto r = index->Knn(w.queries[i].vitris, w.queries[i].num_frames, 10,
                        KnnMethod::kComposed, &costs, &shard_costs);
    if (!r.ok() || shard_costs.size() != alone[i].size()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    uint64_t pages = 0;
    for (size_t s = 0; s < shard_costs.size(); ++s) {
      pages += alone[i][s].page_accesses;
      if (shard_costs[s].page_accesses != alone[i][s].page_accesses) {
        differing.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (costs.page_accesses != pages) {
      differing.fetch_add(1, std::memory_order_relaxed);
    }
    physical.fetch_add(costs.physical_reads, std::memory_order_relaxed);
  });

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(differing.load(), 0);
  const uint64_t pool_delta = pool_physical() - physical_before;
  EXPECT_GT(pool_delta, 0u) << "the shard pools never missed";
  EXPECT_EQ(physical.load(), pool_delta);
}

// On this corpus the batch's queries rarely overlap in time, so this
// checks how traces and batch costs are wired more than it stresses
// isolation; the two tests above do that.
TEST(QueryAccountingConcurrencyTest, BatchKnnTracesHoldEachQuerysOwnPages) {
  World w = MakeWorld(16);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  io.buffer_pool_pages = kPoolPages;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  std::vector<uint64_t> alone;
  uint64_t alone_total = 0;
  for (const BatchQuery& q : w.queries) {
    QueryCosts costs;
    ASSERT_TRUE(index->Knn(q.vitris, q.num_frames, 10, KnnMethod::kComposed,
                           &costs)
                    .ok());
    alone.push_back(costs.page_accesses);
    alone_total += costs.page_accesses;
  }

  std::vector<QueryTrace> traces;
  QueryCosts batch_costs;
  auto batch = index->BatchKnn(w.queries, 10, KnnMethod::kComposed, 8,
                               &batch_costs, &traces);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(traces.size(), w.queries.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].TotalIo().logical_reads, alone[i]) << "query " << i;
  }
  EXPECT_EQ(batch_costs.page_accesses, alone_total);
}

}  // namespace
}  // namespace vitri::core
