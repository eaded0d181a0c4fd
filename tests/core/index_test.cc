#include "core/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

struct World {
  video::VideoDatabase db;
  ViTriSet set;
};

World MakeWorld(double scale = 0.004, double epsilon = 0.15,
                uint64_t seed = 2005) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  World w;
  w.db = synth.GenerateDatabase(scale);
  ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  return w;
}

ViTriIndexOptions DefaultOptions(double epsilon = 0.15) {
  ViTriIndexOptions options;
  options.epsilon = epsilon;
  options.dimension = 64;
  return options;
}

std::vector<ViTri> QuerySummary(const video::VideoSequence& seq,
                                double epsilon = 0.15) {
  ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  ViTriBuilder builder(bo);
  auto result = builder.Build(seq);
  EXPECT_TRUE(result.ok());
  return *result;
}

TEST(ViTriIndexTest, BuildRejectsEmptySet) {
  EXPECT_FALSE(ViTriIndex::Build(ViTriSet{}, DefaultOptions()).ok());
}

TEST(ViTriIndexTest, BuildRejectsDimensionMismatch) {
  World w = MakeWorld();
  ViTriIndexOptions options = DefaultOptions();
  options.dimension = 32;
  EXPECT_FALSE(ViTriIndex::Build(w.set, options).ok());
}

TEST(ViTriIndexTest, KnnFindsExactCopy) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  // Query with video 3's own summary: it must rank first with sim ~1.
  const auto query = QuerySummary(w.db.videos[3]);
  auto results = index->Knn(
      query, static_cast<uint32_t>(w.db.videos[3].num_frames()), 5,
      KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].video_id, 3u);
  EXPECT_GT((*results)[0].similarity, 0.9);
}

TEST(ViTriIndexTest, KnnFindsNearDuplicate) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  video::VideoSynthesizer synth;
  const video::VideoSequence dup = synth.MakeNearDuplicate(
      w.db.videos[5], static_cast<uint32_t>(w.db.num_videos()));
  const auto query = QuerySummary(dup);
  auto results =
      index->Knn(query, static_cast<uint32_t>(dup.num_frames()), 5,
                 KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // The source must be near the very top; shared-footage videos can
  // legitimately rank close to it in this reuse-heavy corpus.
  bool found = false;
  for (const VideoMatch& m : *results) {
    found = found || m.video_id == 5u;
  }
  EXPECT_TRUE(found);
}

TEST(ViTriIndexTest, NaiveAndComposedReturnSameResults) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  for (uint32_t q : {0u, 7u, 11u}) {
    const auto query = QuerySummary(w.db.videos[q]);
    const uint32_t frames =
        static_cast<uint32_t>(w.db.videos[q].num_frames());
    auto naive = index->Knn(query, frames, 10, KnnMethod::kNaive);
    auto composed = index->Knn(query, frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(naive.ok() && composed.ok());
    ASSERT_EQ(naive->size(), composed->size());
    for (size_t i = 0; i < naive->size(); ++i) {
      EXPECT_EQ((*naive)[i].video_id, (*composed)[i].video_id) << i;
      EXPECT_NEAR((*naive)[i].similarity, (*composed)[i].similarity, 1e-9);
    }
  }
}

TEST(ViTriIndexTest, CompositionNeverCostsMorePages) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  uint64_t naive_total = 0;
  uint64_t composed_total = 0;
  uint64_t max_merged = 0;
  for (uint32_t q = 0; q < 8; ++q) {
    const auto query = QuerySummary(w.db.videos[q]);
    const uint32_t frames =
        static_cast<uint32_t>(w.db.videos[q].num_frames());
    QueryCosts naive_costs;
    QueryCosts composed_costs;
    ASSERT_TRUE(index->Knn(query, frames, 10, KnnMethod::kNaive,
                           &naive_costs)
                    .ok());
    ASSERT_TRUE(index->Knn(query, frames, 10, KnnMethod::kComposed,
                           &composed_costs)
                    .ok());
    EXPECT_LE(composed_costs.range_searches, naive_costs.range_searches);
    EXPECT_LE(composed_costs.candidates, naive_costs.candidates);
    // Both methods evaluate the same (candidate, query ViTri) pairs: the
    // naive scan of query range i evaluates each candidate against
    // query ViTri i only, and a composed scan evaluates each candidate
    // against every query range holding its key.
    EXPECT_EQ(naive_costs.similarity_evals, naive_costs.candidates) << q;
    EXPECT_EQ(composed_costs.similarity_evals, naive_costs.similarity_evals)
        << q;
    max_merged = std::max(max_merged, composed_costs.range_searches);
    naive_total += naive_costs.page_accesses;
    composed_total += composed_costs.page_accesses;
  }
  EXPECT_LT(composed_total, naive_total);
  // Some query composes into several range searches, so the identity
  // above also covers query ranges carried by different scans.
  EXPECT_GE(max_merged, 2u);
}

TEST(ViTriIndexTest, SequentialScanAgreesOnTopResult) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[2]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[2].num_frames());
  auto indexed = index->Knn(query, frames, 5, KnnMethod::kComposed);
  auto scanned = index->SequentialScan(query, frames, 5);
  ASSERT_TRUE(indexed.ok() && scanned.ok());
  ASSERT_FALSE(indexed->empty());
  ASSERT_FALSE(scanned->empty());
  EXPECT_EQ((*indexed)[0].video_id, (*scanned)[0].video_id);
  EXPECT_NEAR((*indexed)[0].similarity, (*scanned)[0].similarity, 1e-9);
}

TEST(ViTriIndexTest, IndexPrunesComparedToSequentialScan) {
  World w = MakeWorld(0.008);
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[0].num_frames());
  QueryCosts knn_costs;
  QueryCosts scan_costs;
  ASSERT_TRUE(
      index->Knn(query, frames, 10, KnnMethod::kComposed, &knn_costs).ok());
  ASSERT_TRUE(index->SequentialScan(query, frames, 10, &scan_costs).ok());
  EXPECT_LT(knn_costs.candidates, scan_costs.candidates);
  EXPECT_LT(knn_costs.similarity_evals, scan_costs.similarity_evals);
}

TEST(ViTriIndexTest, AllReferenceKindsReturnIdenticalResults) {
  // The transform affects cost, never correctness.
  World w = MakeWorld();
  const auto query = QuerySummary(w.db.videos[4]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[4].num_frames());
  std::vector<std::vector<VideoMatch>> all;
  for (ReferencePointKind kind :
       {ReferencePointKind::kSpaceCenter, ReferencePointKind::kDataCenter,
        ReferencePointKind::kOptimal}) {
    ViTriIndexOptions options = DefaultOptions();
    options.reference = kind;
    auto index = ViTriIndex::Build(w.set, options);
    ASSERT_TRUE(index.ok());
    auto results = index->Knn(query, frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(results.ok());
    all.push_back(*results);
  }
  for (size_t k = 1; k < all.size(); ++k) {
    ASSERT_EQ(all[k].size(), all[0].size());
    for (size_t i = 0; i < all[0].size(); ++i) {
      EXPECT_EQ(all[k][i].video_id, all[0][i].video_id);
      EXPECT_NEAR(all[k][i].similarity, all[0][i].similarity, 1e-9);
    }
  }
}

TEST(ViTriIndexTest, DynamicInsertThenQuery) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const size_t before = index->num_vitris();

  video::VideoSynthesizer synth;
  video::VideoSequence fresh =
      synth.GenerateClip(static_cast<uint32_t>(w.db.num_videos()), 15.0);
  const auto summary = QuerySummary(fresh);
  ASSERT_TRUE(index
                  ->Insert(fresh.id,
                           static_cast<uint32_t>(fresh.num_frames()),
                           summary)
                  .ok());
  EXPECT_EQ(index->num_vitris(), before + summary.size());

  auto results = index->Knn(
      summary, static_cast<uint32_t>(fresh.num_frames()), 3,
      KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].video_id, fresh.id);
  EXPECT_GT((*results)[0].similarity, 0.9);
}

// ViTris tagged with another video's id would add their estimates to
// that video's answers, so such an insert is rejected before anything
// is applied.
TEST(ViTriIndexTest, InsertRejectsViTrisOfAnotherVideo) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  auto before = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(before.ok());
  const size_t vitris = index->num_vitris();
  const size_t videos = index->stored_videos();

  std::vector<ViTri> retagged = query;
  for (ViTri& v : retagged) v.video_id = 1;
  const Status status = index->Insert(100, frames, retagged);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();

  EXPECT_EQ(index->num_vitris(), vitris);
  EXPECT_EQ(index->stored_videos(), videos);
  auto after = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*after)[i].video_id, (*before)[i].video_id);
    EXPECT_EQ((*after)[i].similarity, (*before)[i].similarity);
  }
  EXPECT_TRUE(index->ValidateInvariants().ok());
}

TEST(ViTriIndexTest, StoredVideosIsKeptCurrentByInserts) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->stored_videos(), w.db.num_videos());

  // A new id past a gap of unused ids counts once; the gap does not.
  const auto id = static_cast<uint32_t>(w.db.num_videos() + 5);
  video::VideoSynthesizer synth;
  const video::VideoSequence fresh = synth.GenerateClip(id, 15.0);
  const auto summary = QuerySummary(fresh);
  const auto frames = static_cast<uint32_t>(fresh.num_frames());
  ASSERT_TRUE(index->Insert(id, frames, summary).ok());
  EXPECT_EQ(index->stored_videos(), w.db.num_videos() + 1);
  EXPECT_EQ(index->num_videos(), static_cast<size_t>(id) + 1);
  // More ViTris for a stored video do not count it again.
  ASSERT_TRUE(index->Insert(id, frames, summary).ok());
  EXPECT_EQ(index->stored_videos(), w.db.num_videos() + 1);
  EXPECT_TRUE(index->ValidateInvariants().ok());
}

// Similarity is 2 * shared / (query frames + video frames); the two u32
// frame counts must not wrap when summed.
TEST(ViTriIndexTest, HugeQueryFrameCountDoesNotWrapTheDenominator) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const uint32_t frames = std::numeric_limits<uint32_t>::max() - 100;
  auto results = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const VideoMatch& m : *results) {
    EXPECT_LT(m.similarity, 1e-6) << "video " << m.video_id;
  }
}

TEST(ViTriIndexTest, RebuildPreservesResults) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[6]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[6].num_frames());
  auto before = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(index->Rebuild().ok());
  auto after = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].video_id, (*after)[i].video_id);
    EXPECT_NEAR((*before)[i].similarity, (*after)[i].similarity, 1e-9);
  }
}

TEST(ViTriIndexTest, DriftAngleStartsAtZero) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  auto angle = index->DriftAngle();
  ASSERT_TRUE(angle.ok());
  EXPECT_NEAR(*angle, 0.0, 1e-6);
  auto needs = index->NeedsRebuild();
  ASSERT_TRUE(needs.ok());
  EXPECT_FALSE(*needs);
}

TEST(ViTriIndexTest, QueryCostCountersPopulated) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[1]);
  QueryCosts costs;
  ASSERT_TRUE(index
                  ->Knn(query,
                        static_cast<uint32_t>(
                            w.db.videos[1].num_frames()),
                        10, KnnMethod::kComposed, &costs)
                  .ok());
  EXPECT_GT(costs.page_accesses, 0u);
  EXPECT_GT(costs.candidates, 0u);
  EXPECT_GT(costs.similarity_evals, 0u);
  EXPECT_GE(costs.range_searches, 1u);
  EXPECT_GT(costs.cpu_seconds, 0.0);
}

TEST(ViTriIndexTest, EmptyQueryRejected) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Knn({}, 100, 5, KnnMethod::kNaive).ok());
  EXPECT_FALSE(index->SequentialScan({}, 100, 5).ok());
}

// A NaN radius makes a key range no scan stops in: naive KNN walked
// from its descent point to the end of the leaf chain (1 match) while
// composed KNN dropped the range (0 matches). Both must reject it.
TEST(ViTriIndexTest, KnnRejectsNanRadiusByBothMethods) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  std::vector<ViTri> query = {QuerySummary(w.db.videos[0]).front()};
  query[0].radius = std::numeric_limits<double>::quiet_NaN();
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  for (const KnnMethod method : {KnnMethod::kNaive, KnnMethod::kComposed}) {
    auto result = index->Knn(query, frames, 5, method);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << "method " << static_cast<int>(method) << ": "
        << (result.ok() ? std::to_string(result->size()) + " matches"
                        : result.status().ToString());
  }
}

// A position longer than the index's dimension would be read past the
// end of the reference point, so every query entry point rejects it
// before computing a key; the index keeps answering valid queries.
TEST(ViTriIndexTest, QueryOfWrongDimensionIsRejected) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const std::vector<ViTri> good = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  std::vector<ViTri> wide = good;
  wide[0].position.assign(512, 0.5);

  for (const KnnMethod method : {KnnMethod::kNaive, KnnMethod::kComposed}) {
    EXPECT_TRUE(index->Knn(wide, frames, 5, method)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(index
                    ->BatchKnn(std::vector<BatchQuery>{{good, frames},
                                                       {wide, frames}},
                               5, method, nullptr)
                    .status()
                    .IsInvalidArgument());
  }
  EXPECT_TRUE(index->SequentialScan(wide, frames, 5).status()
                  .IsInvalidArgument());
  auto results = index->Knn(good, frames, 5, KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].video_id, 0u);
}

TEST(ViTriIndexTest, QueryWithNonFiniteOrNegativeGeometryIsRejected) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const std::vector<ViTri> good = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<ViTri>> bad(4, good);
  bad[0].back().radius = kInf;
  bad[1].back().radius = -0.01;
  bad[2].back().position[3] = std::numeric_limits<double>::quiet_NaN();
  bad[3].back().position[0] = -kInf;
  for (size_t i = 0; i < bad.size(); ++i) {
    for (const KnnMethod method : {KnnMethod::kNaive, KnnMethod::kComposed}) {
      EXPECT_TRUE(index->Knn(bad[i], frames, 5, method)
                      .status()
                      .IsInvalidArgument())
          << "query " << i;
    }
    EXPECT_TRUE(index->SequentialScan(bad[i], frames, 5).status()
                    .IsInvalidArgument())
        << "query " << i;
  }
}

TEST(ViTriIndexTest, KLimitsResultCount) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  auto results = index->Knn(
      query, static_cast<uint32_t>(w.db.videos[0].num_frames()), 2,
      KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  EXPECT_LE(results->size(), 2u);
}

// An insert pins the root-to-leaf path and the split siblings at once,
// so a pool shard of fewer than kMinPoolShardFrames frames runs out
// mid-split and leaves the tree half-updated. Build() rejects such a
// pool before building any tree: 3 frames in one shard, and 64 frames
// in 64 shards (one frame each).
TEST(ViTriIndexTest, BuildRejectsAPoolShardOfFewerThanEightFrames) {
  World w = MakeWorld();
  ViTriIndexOptions three = DefaultOptions();
  three.buffer_pool_pages = 3;
  EXPECT_TRUE(ViTriIndex::Build(w.set, three).status().IsInvalidArgument());
  ViTriIndexOptions single_frames = DefaultOptions();
  single_frames.buffer_pool_pages = 64;
  single_frames.buffer_pool_options.shards = 64;
  EXPECT_TRUE(
      ViTriIndex::Build(w.set, single_frames).status().IsInvalidArgument());
}

TEST(ViTriIndexTest, EightFramePoolSurvivesSplittingInserts) {
  World w = MakeWorld();
  ViTriIndexOptions options = DefaultOptions();
  options.buffer_pool_pages = kMinPoolShardFrames;
  auto index = ViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());
  const uint32_t height = index->tree_height();
  std::vector<std::vector<ViTri>> per_video(w.set.frame_counts.size());
  for (const ViTri& v : w.set.vitris) per_video[v.video_id].push_back(v);
  // 200 copies of stored videos under fresh ids: enough leaf splits to
  // grow the tree, every one of them inside the pool's one 8-frame
  // shard.
  uint32_t inserted = 0;
  for (uint32_t source = 0; inserted < 200;
       source = (source + 1) % per_video.size()) {
    if (per_video[source].empty()) continue;
    const uint32_t id = 1000 + inserted;
    std::vector<ViTri> vitris = per_video[source];
    for (ViTri& v : vitris) v.video_id = id;
    ASSERT_TRUE(
        index->Insert(id, w.set.frame_counts[source], vitris).ok())
        << "insert " << inserted;
    ++inserted;
  }
  EXPECT_GT(index->tree_height(), height);
  EXPECT_TRUE(index->ValidateInvariants().ok());
}

// Each query a BatchKnn answers is one served query: it lands in the
// query.knn.* metrics like a Knn() call does, with its own pages.
TEST(ViTriIndexTest, BatchKnnRecordsEachQueryInTheKnnMetrics) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  std::vector<BatchQuery> batch;
  for (size_t v = 0; v < 5; ++v) {
    batch.push_back(BatchQuery{
        QuerySummary(w.db.videos[v]),
        static_cast<uint32_t>(w.db.videos[v].num_frames())});
  }
  metrics::Registry& registry = metrics::Registry::Instance();
  metrics::Counter* count = registry.GetCounter("query.knn.count");
  metrics::Histogram* latency = registry.GetHistogram("query.knn.latency_us");
  metrics::Histogram* pages = registry.GetHistogram("query.knn.pages");
  const uint64_t count_before = count->Value();
  const uint64_t latency_before = latency->Count();
  const uint64_t pages_before = pages->Count();

  ThreadPool pool(4);
  ASSERT_TRUE(index->BatchKnn(batch, 5, KnnMethod::kComposed, &pool).ok());
  EXPECT_EQ(count->Value() - count_before, batch.size());
  EXPECT_EQ(latency->Count() - latency_before, batch.size());
  EXPECT_EQ(pages->Count() - pages_before, batch.size());
}

}  // namespace
}  // namespace vitri::core
