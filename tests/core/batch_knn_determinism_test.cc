// BatchKnn must be a pure parallelization: on both index types, with no
// executor and on a pool of any size, the results are byte-identical
// (video ids and bitwise-equal similarity doubles, in the same order) to
// running Knn() sequentially per query.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

struct BatchWorld {
  video::VideoDatabase db;
  ViTriSet set;
  std::vector<BatchQuery> queries;
};

BatchWorld MakeBatchWorld(int num_queries, uint64_t seed = 2005) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  BatchWorld w;
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

// Bitwise double equality — EXPECT_DOUBLE_EQ tolerates 4 ULPs, which
// would mask an accumulation-order change.
bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdenticalBatches(
    const std::vector<std::vector<VideoMatch>>& expected,
    const std::vector<std::vector<VideoMatch>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), actual[q].size()) << "query " << q;
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].video_id, actual[q][i].video_id)
          << "query " << q << " rank " << i;
      EXPECT_TRUE(BitIdentical(expected[q][i].similarity,
                               actual[q][i].similarity))
          << "query " << q << " rank " << i;
    }
  }
}

// Both methods, inline and on pools of 1, 2, 4 and 8 threads: every
// batch equals Knn() run query by query, bitwise.
template <typename Index>
void ExpectBatchesMatchSequentialKnn(Index& index,
                                     const std::vector<BatchQuery>& queries) {
  for (const KnnMethod method :
       {KnnMethod::kComposed, KnnMethod::kNaive}) {
    std::vector<std::vector<VideoMatch>> sequential;
    for (const BatchQuery& q : queries) {
      auto result = index.Knn(q.vitris, q.num_frames, 10, method);
      ASSERT_TRUE(result.ok());
      sequential.push_back(std::move(*result));
    }
    auto inline_batch = index.BatchKnn(queries, 10, method, nullptr);
    ASSERT_TRUE(inline_batch.ok());
    ExpectIdenticalBatches(sequential, *inline_batch);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4},
                                 size_t{8}}) {
      ThreadPool pool(threads);
      auto batch = index.BatchKnn(queries, 10, method, &pool);
      ASSERT_TRUE(batch.ok()) << "threads=" << threads;
      ExpectIdenticalBatches(sequential, *batch);
    }
  }
}

TEST(BatchKnnDeterminismTest, MatchesSequentialKnnForEveryThreadCount) {
  BatchWorld w = MakeBatchWorld(12);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());
  ExpectBatchesMatchSequentialKnn(*index, w.queries);
}

// The same scatter over (query x shard) tasks: same shards, same
// per-shard accumulation order, so batch and per-query results are
// bitwise equal, not just equal to 6 decimals.
TEST(BatchKnnDeterminismTest, ShardedMatchesSequentialKnnForEveryThreadCount) {
  BatchWorld w = MakeBatchWorld(8);
  ShardedIndexOptions so;
  so.num_shards = 4;
  so.shard_options.dimension = w.db.dimension;
  auto index = ShardedViTriIndex::Build(w.set, so);
  ASSERT_TRUE(index.ok());
  ASSERT_GT(index->live_shards(), 1u);
  ExpectBatchesMatchSequentialKnn(*index, w.queries);
}

TEST(BatchKnnDeterminismTest, RepeatedParallelRunsAreIdentical) {
  BatchWorld w = MakeBatchWorld(8);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  ThreadPool pool(8);
  auto first = index->BatchKnn(w.queries, 5, KnnMethod::kComposed, &pool);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = index->BatchKnn(w.queries, 5, KnnMethod::kComposed, &pool);
    ASSERT_TRUE(again.ok());
    ExpectIdenticalBatches(*first, *again);
  }
}

TEST(BatchKnnDeterminismTest, AggregatedCostsCoverTheBatch) {
  BatchWorld w = MakeBatchWorld(6);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  QueryCosts costs;
  ThreadPool pool(4);
  auto batch =
      index->BatchKnn(w.queries, 10, KnnMethod::kComposed, &pool, &costs);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(costs.range_searches >= w.queries.size(), true);
  EXPECT_GT(costs.candidates, 0u);
  EXPECT_GT(costs.similarity_evals, 0u);
  EXPECT_GT(costs.page_accesses, 0u);
  EXPECT_FALSE(costs.degraded);
}

TEST(BatchKnnDeterminismTest, EmptyBatchAndEmptyQuery) {
  BatchWorld w = MakeBatchWorld(1);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  ThreadPool pool(4);
  auto empty = index->BatchKnn({}, 10, KnnMethod::kComposed, &pool);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // A batch containing an empty summary fails like Knn() does.
  std::vector<BatchQuery> bad(2);
  bad[0] = w.queries[0];
  auto result = index->BatchKnn(bad, 10, KnnMethod::kComposed, &pool);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// Parallel ingest determinism rides along here: summarizing the same
// database with 1 and with 8 builder threads must produce identical
// ViTri sets (same order, same bytes).
TEST(BatchKnnDeterminismTest, ParallelSummarizationMatchesSequential) {
  video::SynthesizerOptions so;
  so.seed = 77;
  video::VideoSynthesizer synth(so);
  video::VideoDatabase db = synth.GenerateDatabase(0.004);

  ViTriBuilderOptions sequential_options;
  ViTriBuilder sequential(sequential_options);
  auto expected = sequential.BuildDatabase(db);
  ASSERT_TRUE(expected.ok());

  ViTriBuilderOptions parallel_options;
  parallel_options.num_threads = 8;
  ViTriBuilder parallel(parallel_options);
  auto actual = parallel.BuildDatabase(db);
  ASSERT_TRUE(actual.ok());

  ASSERT_EQ(expected->vitris.size(), actual->vitris.size());
  EXPECT_EQ(expected->frame_counts, actual->frame_counts);
  for (size_t i = 0; i < expected->vitris.size(); ++i) {
    const ViTri& e = expected->vitris[i];
    const ViTri& a = actual->vitris[i];
    EXPECT_EQ(e.video_id, a.video_id) << "vitri " << i;
    EXPECT_EQ(e.cluster_size, a.cluster_size) << "vitri " << i;
    EXPECT_TRUE(BitIdentical(e.radius, a.radius)) << "vitri " << i;
    ASSERT_EQ(e.position.size(), a.position.size()) << "vitri " << i;
    for (size_t d = 0; d < e.position.size(); ++d) {
      EXPECT_TRUE(BitIdentical(e.position[d], a.position[d]))
          << "vitri " << i << " dim " << d;
    }
  }
}

}  // namespace
}  // namespace vitri::core
