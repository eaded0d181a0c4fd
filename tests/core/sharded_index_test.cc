// Sharded scatter-gather index (DESIGN.md §17). The heart of the suite
// is the merge-determinism contract: a sharded index must be
// *result-identical* to a single-shard index over the same corpus —
// same video ids, same similarities at the repo-wide 6-decimal
// precision, same (similarity desc, video id asc) tie-break — for any
// shard count, either assignment, local or global reference points, and
// batch or per-query execution (batch-vs-per-query bitwise equality is
// in BatchKnnDeterminismTest). Around that: shard routing, lazy shard
// creation, env resolution, the out-of-core builder, the clustered
// local-vs-global pruning regression, seeded-corruption validator
// checks, and the tsan scatter-gather stress fixture
// (ShardedConcurrencyTest, run in the tsan-stress CI lane).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/out_of_core.h"
#include "core/sharded_index.h"
#include "core/transform.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

/// The repo-wide similarity comparison precision.
std::string Format6(double similarity) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", similarity);
  return buf;
}

void ExpectSameResults(const std::vector<VideoMatch>& expected,
                       const std::vector<VideoMatch>& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].video_id, actual[i].video_id)
        << label << " rank " << i;
    EXPECT_EQ(Format6(expected[i].similarity), Format6(actual[i].similarity))
        << label << " rank " << i;
  }
}

struct World {
  video::VideoDatabase db;
  ViTriSet set;
  std::vector<BatchQuery> queries;
};

World MakeWorld(int num_queries, uint64_t seed = 2005,
                double scale = 0.004) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  World w;
  w.db = synth.GenerateDatabase(scale);
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

ShardedIndexOptions Sharded(const World& w, size_t num_shards,
                            ShardAssignment assignment =
                                ShardAssignment::kHash) {
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.assignment = assignment;
  options.shard_options.dimension = w.db.dimension;
  return options;
}

TEST(ShardedIndexTest, BuildPartitionsEveryVideoToItsOwnerShard) {
  World w = MakeWorld(0);
  for (const ShardAssignment assignment :
       {ShardAssignment::kHash, ShardAssignment::kRoundRobin}) {
    auto index = ShardedViTriIndex::Build(w.set, Sharded(w, 4, assignment));
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->num_shards(), 4u);
    EXPECT_EQ(index->num_vitris(), w.set.vitris.size());
    size_t videos = 0;
    for (size_t s = 0; s < index->num_shards(); ++s) {
      videos += index->shard_videos(s);
      const ViTriIndex* shard = index->shard(s);
      if (shard == nullptr) continue;
      const ViTriSet snapshot = shard->Snapshot();
      for (const ViTri& v : snapshot.vitris) {
        EXPECT_EQ(ShardedViTriIndex::ShardOf(v.video_id, 4, assignment), s)
            << "video " << v.video_id;
      }
    }
    EXPECT_EQ(videos, index->num_videos());
    EXPECT_EQ(videos, w.db.num_videos());
    EXPECT_TRUE(index->ValidateInvariants().ok());
  }
}

TEST(ShardedIndexTest, KnnMatchesSingleShardForEveryShardCount) {
  World w = MakeWorld(6);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto single = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(single.ok());

  for (const KnnMethod method :
       {KnnMethod::kComposed, KnnMethod::kNaive}) {
    std::vector<std::vector<VideoMatch>> expected;
    for (const BatchQuery& q : w.queries) {
      auto result = single->Knn(q.vitris, q.num_frames, 10, method);
      ASSERT_TRUE(result.ok());
      expected.push_back(std::move(*result));
    }
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4},
                                size_t{7}}) {
      auto index = ShardedViTriIndex::Build(w.set, Sharded(w, shards));
      ASSERT_TRUE(index.ok());
      for (size_t q = 0; q < w.queries.size(); ++q) {
        auto result = index->Knn(w.queries[q].vitris,
                                 w.queries[q].num_frames, 10, method);
        ASSERT_TRUE(result.ok());
        ExpectSameResults(expected[q], *result,
                          "shards=" + std::to_string(shards) + " query " +
                              std::to_string(q));
      }
    }
  }
}

TEST(ShardedIndexTest, TieBreakIsSimilarityDescThenVideoIdAsc) {
  // Eight videos share one identical ViTri, so their similarities to a
  // query over that ViTri are exactly equal doubles; a handful of
  // distinct noise videos keeps every shard's PCA fit non-degenerate.
  const int dim = 8;
  ViTriSet set;
  set.dimension = dim;
  Rng rng(11);
  ViTri shared;
  shared.cluster_size = 40;
  shared.radius = 0.02;
  shared.position.assign(dim, 0.25);
  const uint32_t kTied = 8;
  std::vector<uint32_t> ids;
  for (uint32_t vid = 0; vid < kTied; ++vid) {
    ViTri v = shared;
    v.video_id = vid;
    set.vitris.push_back(std::move(v));
    ids.push_back(vid);
  }
  for (uint32_t vid = 100; vid < 114; ++vid) {
    ViTri v;
    v.video_id = vid;
    v.cluster_size = 40;
    v.radius = 0.02;
    v.position.assign(dim, 0.0);
    for (int d = 0; d < dim; ++d) {
      v.position[static_cast<size_t>(d)] = rng.NextDouble();
    }
    set.vitris.push_back(std::move(v));
    ids.push_back(vid);
  }
  set.frame_counts.assign(114, 0);
  for (const uint32_t vid : ids) set.frame_counts[vid] = 40;

  std::vector<ViTri> query = {shared};
  ShardedIndexOptions options;
  options.num_shards = 7;
  options.assignment = ShardAssignment::kRoundRobin;
  options.shard_options.dimension = dim;
  auto index = ShardedViTriIndex::Build(set, options);
  ASSERT_TRUE(index.ok());

  auto result = index->Knn(query, 40, 5, KnnMethod::kComposed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 5u);
  for (size_t i = 0; i < result->size(); ++i) {
    // All five winners are tied videos; the merge must pin ascending id.
    EXPECT_EQ((*result)[i].video_id, static_cast<uint32_t>(i)) << i;
    EXPECT_EQ(Format6((*result)[i].similarity),
              Format6((*result)[0].similarity));
  }

  ViTriIndexOptions io;
  io.dimension = dim;
  auto single = ViTriIndex::Build(set, io);
  ASSERT_TRUE(single.ok());
  auto expected = single->Knn(query, 40, 5, KnnMethod::kComposed);
  ASSERT_TRUE(expected.ok());
  ExpectSameResults(*expected, *result, "tied");
}

TEST(ShardedIndexTest, EmptyShardsAreInertAndQueriesStillMatch) {
  // Two videos spread over seven round-robin shards: five shards stay
  // empty (null) and must contribute nothing.
  World w = MakeWorld(2);
  ViTriSet tiny;
  tiny.dimension = w.set.dimension;
  tiny.frame_counts.assign(2, 0);
  for (const ViTri& v : w.set.vitris) {
    if (v.video_id < 2) tiny.vitris.push_back(v);
  }
  for (uint32_t vid = 0; vid < 2; ++vid) {
    tiny.frame_counts[vid] = w.set.frame_counts[vid];
  }

  auto index = ShardedViTriIndex::Build(
      tiny, Sharded(w, 7, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->live_shards(), 2u);
  EXPECT_EQ(index->num_videos(), 2u);
  EXPECT_EQ(index->shard(3), nullptr);
  EXPECT_TRUE(index->ValidateInvariants().ok());

  ViTriIndexOptions io;
  io.dimension = tiny.dimension;
  auto single = ViTriIndex::Build(tiny, io);
  ASSERT_TRUE(single.ok());
  for (const BatchQuery& q : w.queries) {
    auto expected = single->Knn(q.vitris, q.num_frames, 10,
                                KnnMethod::kComposed);
    auto actual = index->Knn(q.vitris, q.num_frames, 10,
                             KnnMethod::kComposed);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ExpectSameResults(*expected, *actual, "sparse");
  }
}

TEST(ShardedIndexTest, OneVideoPerShard) {
  World w = MakeWorld(1);
  const size_t num_videos = w.db.num_videos();
  auto index = ShardedViTriIndex::Build(
      w.set, Sharded(w, num_videos, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->live_shards(), num_videos);
  for (size_t s = 0; s < num_videos; ++s) {
    EXPECT_EQ(index->shard_videos(s), 1u) << s;
  }
  EXPECT_TRUE(index->ValidateInvariants().ok());

  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto single = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(single.ok());
  auto expected = single->Knn(w.queries[0].vitris, w.queries[0].num_frames,
                              10, KnnMethod::kComposed);
  auto actual = index->Knn(w.queries[0].vitris, w.queries[0].num_frames,
                           10, KnnMethod::kComposed);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ExpectSameResults(*expected, *actual, "one-per-shard");
}

TEST(ShardedIndexTest, InsertRoutesToOwnerShardAndCreatesItLazily) {
  World w = MakeWorld(0);
  // Keep only videos owned by shard 0 under round-robin/4, so shards
  // 1..3 start null.
  ViTriSet part;
  part.dimension = w.set.dimension;
  part.frame_counts.assign(w.set.frame_counts.size(), 0);
  for (const ViTri& v : w.set.vitris) {
    if (v.video_id % 4 == 0) part.vitris.push_back(v);
  }
  for (uint32_t vid = 0; vid < w.set.frame_counts.size(); vid += 4) {
    part.frame_counts[vid] = w.set.frame_counts[vid];
  }
  auto index = ShardedViTriIndex::Build(
      part, Sharded(w, 4, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->live_shards(), 1u);

  // Insert the remaining videos; each lands in (and lazily creates) its
  // owner shard.
  for (uint32_t vid = 0; vid < w.set.frame_counts.size(); ++vid) {
    if (vid % 4 == 0 || w.set.frame_counts[vid] == 0) continue;
    std::vector<ViTri> vitris;
    for (const ViTri& v : w.set.vitris) {
      if (v.video_id == vid) vitris.push_back(v);
    }
    ASSERT_TRUE(
        index->Insert(vid, w.set.frame_counts[vid], vitris).ok())
        << vid;
  }
  EXPECT_EQ(index->live_shards(), 4u);
  EXPECT_EQ(index->num_vitris(), w.set.vitris.size());
  EXPECT_TRUE(index->ValidateInvariants().ok());

  // After the inserts the contents equal the bulk build; queries must
  // match a single-shard index built over the full set.
  World wq = MakeWorld(3);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto single = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(single.ok());
  for (const BatchQuery& q : wq.queries) {
    auto expected = single->Knn(q.vitris, q.num_frames, 10,
                                KnnMethod::kComposed);
    auto actual = index->Knn(q.vitris, q.num_frames, 10,
                             KnnMethod::kComposed);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ExpectSameResults(*expected, *actual, "post-insert");
  }
}

// Every sharded insert path runs the shared video-id check: an existing
// owner shard, a shard the insert would create, and the streaming
// builder before it goes live.
TEST(ShardedIndexTest, InsertRejectsViTrisOfAnotherVideo) {
  World w = MakeWorld(1);
  std::vector<ViTri> retagged;
  for (const ViTri& v : w.set.vitris) {
    if (v.video_id == 0) retagged.push_back(v);
  }
  ASSERT_FALSE(retagged.empty());
  for (ViTri& v : retagged) v.video_id = 1;
  const uint32_t frames = w.set.frame_counts[0];
  const BatchQuery& q = w.queries[0];

  // Video 100's owner shard (100 % 4 == 0) exists.
  auto index = ShardedViTriIndex::Build(
      w.set, Sharded(w, 4, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());
  auto before = index->Knn(q.vitris, q.num_frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(before.ok());
  const size_t vitris = index->num_vitris();
  Status status = index->Insert(100, frames, retagged);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(index->num_vitris(), vitris);
  auto after = index->Knn(q.vitris, q.num_frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(after.ok());
  ExpectSameResults(*before, *after, "existing shard");
  EXPECT_TRUE(index->ValidateInvariants().ok());

  // Only shard 0 is live, so an insert of video 101 would create shard 1.
  ViTriSet part;
  part.dimension = w.set.dimension;
  part.frame_counts.assign(w.set.frame_counts.size(), 0);
  for (const ViTri& v : w.set.vitris) {
    if (v.video_id % 4 == 0) part.vitris.push_back(v);
  }
  for (uint32_t vid = 0; vid < w.set.frame_counts.size(); vid += 4) {
    part.frame_counts[vid] = w.set.frame_counts[vid];
  }
  auto partial = ShardedViTriIndex::Build(
      part, Sharded(w, 4, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(partial.ok());
  status = partial->Insert(101, frames, retagged);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(partial->live_shards(), 1u);
  EXPECT_EQ(partial->num_vitris(), part.vitris.size());
  EXPECT_TRUE(partial->ValidateInvariants().ok());

  ShardedIndexBuilder builder(Sharded(w, 4, ShardAssignment::kRoundRobin));
  status = builder.Add(100, frames, retagged);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_EQ(builder.videos_added(), 0u);
}

// Every shard would read a too-long position past its reference point,
// so the sharded entry points reject the query before the scatter.
TEST(ShardedIndexTest, QueryOfWrongDimensionIsRejected) {
  World w = MakeWorld(1);
  auto index = ShardedViTriIndex::Build(w.set, Sharded(w, 4));
  ASSERT_TRUE(index.ok());
  const BatchQuery& good = w.queries[0];
  BatchQuery wide = good;
  wide.vitris[0].position.assign(512, 0.5);
  for (const KnnMethod method : {KnnMethod::kNaive, KnnMethod::kComposed}) {
    EXPECT_TRUE(index->Knn(wide.vitris, wide.num_frames, 5, method)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(index
                    ->BatchKnn(std::vector<BatchQuery>{good, wide}, 5, method,
                               nullptr)
                    .status()
                    .IsInvalidArgument());
  }
  std::vector<ViTri> nan_radius = good.vitris;
  nan_radius[0].radius = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(index->Knn(nan_radius, good.num_frames, 5, KnnMethod::kNaive)
                  .status()
                  .IsInvalidArgument());
  auto results =
      index->Knn(good.vitris, good.num_frames, 5, KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->empty());
}

// A sharded query is one served query: the merged result lands in the
// query.knn.* metrics once, however many shards it scattered to, and so
// does each query of a sharded batch.
TEST(ShardedIndexTest, EachQueryIsRecordedOnceInTheKnnMetrics) {
  World w = MakeWorld(3);
  auto index = ShardedViTriIndex::Build(w.set, Sharded(w, 4));
  ASSERT_TRUE(index.ok());
  ASSERT_GT(index->live_shards(), 1u);
  metrics::Registry& registry = metrics::Registry::Instance();
  metrics::Counter* count = registry.GetCounter("query.knn.count");
  metrics::Histogram* latency = registry.GetHistogram("query.knn.latency_us");
  metrics::Histogram* pages = registry.GetHistogram("query.knn.pages");

  uint64_t count_before = count->Value();
  uint64_t latency_before = latency->Count();
  const BatchQuery& q = w.queries[0];
  ASSERT_TRUE(
      index->Knn(q.vitris, q.num_frames, 5, KnnMethod::kComposed).ok());
  EXPECT_EQ(count->Value() - count_before, 1u);
  EXPECT_EQ(latency->Count() - latency_before, 1u);

  count_before = count->Value();
  const uint64_t pages_before = pages->Count();
  ThreadPool pool(4);
  ASSERT_TRUE(
      index->BatchKnn(w.queries, 5, KnnMethod::kComposed, &pool).ok());
  EXPECT_EQ(count->Value() - count_before, w.queries.size());
  EXPECT_EQ(pages->Count() - pages_before, w.queries.size());
}

TEST(ShardedIndexTest, ResolveIndexShardsFlagBeatsEnvBeatsOne) {
  const char* saved = std::getenv("VITRI_INDEX_SHARDS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("VITRI_INDEX_SHARDS");
  EXPECT_EQ(ResolveIndexShards(0), 1u);
  EXPECT_EQ(ResolveIndexShards(7), 7u);

  ::setenv("VITRI_INDEX_SHARDS", "4", 1);
  EXPECT_EQ(ResolveIndexShards(0), 4u);
  EXPECT_EQ(ResolveIndexShards(2), 2u);  // Explicit request wins.

  ::setenv("VITRI_INDEX_SHARDS", "bogus", 1);
  EXPECT_EQ(ResolveIndexShards(0), 1u);
  // A sign is malformed too: "-1" must not wrap to the maximum.
  ::setenv("VITRI_INDEX_SHARDS", "-1", 1);
  EXPECT_EQ(ResolveIndexShards(0), 1u);
  ::setenv("VITRI_INDEX_SHARDS", "0", 1);
  EXPECT_EQ(ResolveIndexShards(0), 1u);
  ::setenv("VITRI_INDEX_SHARDS", "999999", 1);
  EXPECT_EQ(ResolveIndexShards(0), kMaxIndexShards);

  if (saved != nullptr) {
    ::setenv("VITRI_INDEX_SHARDS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("VITRI_INDEX_SHARDS");
  }
}

TEST(ShardedIndexTest, GlobalReferenceModeIsPinnedAndResultIdentical) {
  World w = MakeWorld(4);
  ShardedIndexOptions options = Sharded(w, 4);
  options.local_reference_points = false;
  auto index = ShardedViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->ValidateInvariants().ok());

  // Every live shard carries the same pinned reference point.
  const ViTriIndex* first = nullptr;
  for (size_t s = 0; s < index->num_shards(); ++s) {
    const ViTriIndex* shard = index->shard(s);
    if (shard == nullptr) continue;
    if (first == nullptr) {
      first = shard;
      continue;
    }
    EXPECT_EQ(shard->transform().reference_point(),
              first->transform().reference_point());
  }
  ASSERT_NE(first, nullptr);

  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto single = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(single.ok());
  for (const BatchQuery& q : w.queries) {
    auto expected = single->Knn(q.vitris, q.num_frames, 10,
                                KnnMethod::kComposed);
    auto actual = index->Knn(q.vitris, q.num_frames, 10,
                             KnnMethod::kComposed);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ExpectSameResults(*expected, *actual, "global-ref");
  }
}

/// The engineered corpus of the pruning regression: shard s (round
/// robin) holds one cluster at 100*s along axis 0, elongated along axis
/// 1+s. A global reference point on the inter-center axis sees every
/// shard's keys collapse (the elongation is orthogonal to it, so it
/// contributes only quadratically to the distance); a per-shard fit
/// spreads the keys along the elongation.
/// The shards must be large enough that per-shard trees span many leaf
/// pages — at toy sizes every shard fits in a page or two and the extra
/// root descents of the wider local key ranges swamp the pruning win.
/// These parameters mirror bench/micro_sharded_query.cc's clustered
/// section, where the gap is decisive.
ViTriSet ClusteredCorpus(size_t num_shards, size_t videos_per_shard,
                         size_t vitris_per_video, int dim) {
  ViTriSet set;
  set.dimension = dim;
  const size_t num_videos = num_shards * videos_per_shard;
  set.frame_counts.assign(num_videos, 100);
  Rng rng(7);
  for (uint32_t vid = 0; vid < num_videos; ++vid) {
    const size_t s = vid % num_shards;
    for (size_t i = 0; i < vitris_per_video; ++i) {
      ViTri v;
      v.video_id = vid;
      v.cluster_size = 100 / static_cast<uint32_t>(vitris_per_video);
      v.radius = 0.05;
      v.position.assign(static_cast<size_t>(dim), 0.0);
      v.position[0] = 100.0 * static_cast<double>(s) +
                      0.01 * (rng.NextDouble() - 0.5);
      v.position[1 + s] = 5.0 * (2.0 * rng.NextDouble() - 1.0);
      set.vitris.push_back(std::move(v));
    }
  }
  return set;
}

TEST(ShardedIndexTest, LocalReferencePointsNeverScanMorePagesOnClusters) {
  const size_t shards = 4;
  const int dim = 16;
  ViTriSet set = ClusteredCorpus(shards, /*videos_per_shard=*/64,
                                 /*vitris_per_video=*/4, dim);

  ShardedIndexOptions local_opts;
  local_opts.num_shards = shards;
  local_opts.assignment = ShardAssignment::kRoundRobin;
  local_opts.shard_options.dimension = dim;
  ShardedIndexOptions global_opts = local_opts;
  global_opts.local_reference_points = false;

  auto local = ShardedViTriIndex::Build(set, local_opts);
  auto global = ShardedViTriIndex::Build(set, global_opts);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(global.ok());

  uint64_t local_pages = 0;
  uint64_t global_pages = 0;
  for (uint32_t vid = 0; vid < 16; ++vid) {
    std::vector<ViTri> query;
    for (const ViTri& v : set.vitris) {
      if (v.video_id == vid) query.push_back(v);
    }
    QueryCosts lc;
    QueryCosts gc;
    auto lr = local->Knn(query, set.frame_counts[vid], 10,
                         KnnMethod::kComposed, &lc);
    auto gr = global->Knn(query, set.frame_counts[vid], 10,
                          KnnMethod::kComposed, &gc);
    ASSERT_TRUE(lr.ok());
    ASSERT_TRUE(gr.ok());
    ExpectSameResults(*gr, *lr, "clustered query " + std::to_string(vid));
    local_pages += lc.page_accesses;
    global_pages += gc.page_accesses;
  }
  // The satellite contract: on shard-aligned clusters the local fits
  // are never worse, and here they are strictly better.
  EXPECT_LE(local_pages, global_pages);
  EXPECT_GT(global_pages, 0u);
}

// --- Seeded corruption (PR 2 validator pattern) ---------------------

TEST(ShardedIndexValidateTest, DetectsVideoStoredInTheWrongShard) {
  World w = MakeWorld(0);
  auto index = ShardedViTriIndex::Build(
      w.set, Sharded(w, 4, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->ValidateInvariants().ok());

  // Plant a fresh video whose owner is shard 1 directly into shard 2,
  // bypassing routing via the test seam.
  const uint32_t rogue = static_cast<uint32_t>(
      ((w.set.frame_counts.size() + 4) / 4) * 4 + 1);  // rogue % 4 == 1
  std::vector<ViTri> vitris;
  ViTri v = w.set.vitris.front();
  v.video_id = rogue;
  // The planted video must be internally consistent (cluster_size <=
  // num_frames) so only the sharded ownership invariant fires.
  const uint32_t rogue_frames = v.cluster_size;
  vitris.push_back(std::move(v));
  ViTriIndex* shard2 = index->shard_for_testing(2);
  ASSERT_NE(shard2, nullptr);
  ASSERT_TRUE(shard2->Insert(rogue, rogue_frames, vitris).ok());

  const Status status = index->ValidateInvariants();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("maps to shard"), std::string::npos)
      << status.ToString();
}

TEST(ShardedIndexValidateTest, DetectsVideoPresentInTwoShards) {
  World w = MakeWorld(0);
  auto index = ShardedViTriIndex::Build(
      w.set, Sharded(w, 4, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());

  // Duplicate an existing shard-1 video into shard 3: the duplicate
  // check must fire (before the wrong-shard check, so both paths are
  // independently testable).
  uint32_t victim = 1;
  while (victim < w.set.frame_counts.size() &&
         (victim % 4 != 1 || w.set.frame_counts[victim] == 0)) {
    ++victim;
  }
  ASSERT_LT(victim, w.set.frame_counts.size());
  std::vector<ViTri> vitris;
  for (const ViTri& v : w.set.vitris) {
    if (v.video_id == victim) vitris.push_back(v);
  }
  ASSERT_FALSE(vitris.empty());
  ViTriIndex* shard3 = index->shard_for_testing(3);
  ASSERT_NE(shard3, nullptr);
  ASSERT_TRUE(
      shard3->Insert(victim, w.set.frame_counts[victim], vitris).ok());

  const Status status = index->ValidateInvariants();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("present in shards"), std::string::npos)
      << status.ToString();
}

TEST(ShardedIndexValidateTest, DetectsNonFiniteShardReferencePoint) {
  World w = MakeWorld(0);
  ShardedIndexOptions options = Sharded(w, 2);
  // Seed the corruption at the source: a transform factory handing every
  // shard an infinite reference point. (+inf, not NaN: inf keys are
  // self-consistent under the shard-level key checks — inf == inf — so
  // only the sharded finiteness invariant can catch this.)
  options.shard_options.transform_factory =
      [&](const std::vector<linalg::Vec>&)
      -> Result<OneDimensionalTransform> {
    // The data center of one all-infinite point is that point.
    const std::vector<linalg::Vec> points = {
        linalg::Vec(static_cast<size_t>(w.db.dimension),
                    std::numeric_limits<double>::infinity())};
    return OneDimensionalTransform::Fit(points,
                                        ReferencePointKind::kDataCenter);
  };
  auto index = ShardedViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());

  const Status status = index->ValidateInvariants();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("reference point is not finite"),
            std::string::npos)
      << status.ToString();
}

// --- Out-of-core ingest ---------------------------------------------

TEST(OutOfCoreTest, StreamChunksCoverTheCorpusExactlyOnce) {
  SummaryStreamOptions so;
  so.num_videos = 100;
  so.chunk_videos = 32;
  so.clip_seconds = 2.0;
  so.synthesizer.dimension = 16;
  SyntheticSummaryStream stream(so);

  std::vector<size_t> chunk_sizes;
  uint32_t next_expected = 0;
  while (!stream.Done()) {
    auto chunk = stream.NextChunk();
    ASSERT_TRUE(chunk.ok());
    chunk_sizes.push_back(chunk->size());
    for (const SummarizedVideo& v : *chunk) {
      EXPECT_EQ(v.video_id, next_expected++);
      EXPECT_GT(v.num_frames, 0u);
      EXPECT_FALSE(v.vitris.empty());
    }
    EXPECT_EQ(stream.videos_emitted(), next_expected);
  }
  EXPECT_EQ(next_expected, 100u);
  EXPECT_EQ(chunk_sizes, (std::vector<size_t>{32, 32, 32, 4}));
  auto empty = stream.NextChunk();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(OutOfCoreTest, ProgressIsMonotonicAndComplete) {
  SummaryStreamOptions so;
  so.num_videos = 100;
  so.chunk_videos = 32;
  so.summarize_threads = 4;
  so.clip_seconds = 2.0;
  so.synthesizer.dimension = 16;
  ShardedIndexOptions io;
  io.num_shards = 4;
  io.shard_options.dimension = 16;

  std::vector<OutOfCoreProgress> reports;
  auto index = BuildShardedIndexOutOfCore(
      so, io,
      [&](const OutOfCoreProgress& p) { reports.push_back(p); });
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(reports.size(), 4u);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].chunks_done, i + 1);
    EXPECT_EQ(reports[i].total_videos, 100u);
    EXPECT_GT(reports[i].chunk_frames, 0u);
    if (i > 0) {
      EXPECT_GT(reports[i].videos_done, reports[i - 1].videos_done);
      EXPECT_GE(reports[i].vitris_indexed, reports[i - 1].vitris_indexed);
      EXPECT_GE(reports[i].elapsed_seconds,
                reports[i - 1].elapsed_seconds);
    }
  }
  EXPECT_EQ(reports.back().videos_done, 100u);
  EXPECT_EQ(index->num_videos(), 100u);
  EXPECT_EQ(index->num_vitris(), reports.back().vitris_indexed);
  EXPECT_TRUE(index->ValidateInvariants().ok());
}

TEST(OutOfCoreTest, OutOfCoreBuildMatchesInMemoryBuild) {
  // The streamed build (seed bulk build + inserted tail, reference
  // points fitted on the seed sample only) must answer queries
  // identically to a one-shot build over the same corpus: pruning is
  // lossless whatever O' each shard ended up with.
  SummaryStreamOptions so;
  so.num_videos = 300;
  so.chunk_videos = 50;  // Seed = 200 videos, tail = 100 inserts.
  so.clip_seconds = 2.0;
  so.synthesizer.dimension = 16;
  ShardedIndexOptions io;
  io.num_shards = 4;
  io.shard_options.dimension = 16;

  ViTriSet full;
  full.dimension = 16;
  full.frame_counts.assign(so.num_videos, 0);
  auto streamed = BuildShardedIndexOutOfCore(
      so, io, nullptr,
      [&](const std::vector<SummarizedVideo>& chunk) -> Status {
        for (const SummarizedVideo& v : chunk) {
          full.frame_counts[v.video_id] = v.num_frames;
          full.vitris.insert(full.vitris.end(), v.vitris.begin(),
                             v.vitris.end());
        }
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->num_videos(), 300u);
  EXPECT_TRUE(streamed->ValidateInvariants().ok());

  auto bulk = ShardedViTriIndex::Build(full, io);
  ASSERT_TRUE(bulk.ok());
  EXPECT_EQ(streamed->num_vitris(), bulk->num_vitris());

  for (uint32_t vid = 0; vid < 300; vid += 37) {
    std::vector<ViTri> query;
    for (const ViTri& v : full.vitris) {
      if (v.video_id == vid) query.push_back(v);
    }
    auto expected = bulk->Knn(query, full.frame_counts[vid], 10,
                              KnnMethod::kComposed);
    auto actual = streamed->Knn(query, full.frame_counts[vid], 10,
                                KnnMethod::kComposed);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ExpectSameResults(*expected, *actual,
                      "ooc query " + std::to_string(vid));
  }
}

TEST(OutOfCoreTest, FinishingAnEmptyBuilderFails) {
  ShardedIndexOptions io;
  io.shard_options.dimension = 16;
  ShardedIndexBuilder builder(io);
  auto result = std::move(builder).Finish();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// --- Scatter-gather concurrency (tsan-stress CI lane) ---------------

TEST(ShardedConcurrencyTest, ConcurrentBatchKnnAndInsertIsSafe) {
  World w = MakeWorld(6);
  // Start with shards {0,1} populated; shards 2 and 3 are created
  // lazily by the insert threads while queries are in flight, covering
  // the wrapper-latch writer path under contention.
  ViTriSet part;
  part.dimension = w.set.dimension;
  part.frame_counts.assign(w.set.frame_counts.size(), 0);
  for (const ViTri& v : w.set.vitris) {
    if (v.video_id % 4 < 2) part.vitris.push_back(v);
  }
  for (uint32_t vid = 0; vid < w.set.frame_counts.size(); ++vid) {
    if (vid % 4 < 2) part.frame_counts[vid] = w.set.frame_counts[vid];
  }
  auto index = ShardedViTriIndex::Build(
      part, Sharded(w, 4, ShardAssignment::kRoundRobin));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->live_shards(), 2u);

  std::atomic<bool> stop{false};
  std::atomic<int> query_failures{0};
  // Both readers scatter on one shared executor, as a server's workers
  // do.
  ThreadPool pool(2);
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&index, &w, &stop, &query_failures, &pool] {
      // The pause between batches matters: each task holds its shard's
      // latch shared, and the platform rwlock may prefer readers —
      // back-to-back batches from several readers would starve the
      // writers' exclusive acquisition indefinitely. Draining the
      // shared count between iterations keeps the stress honest
      // without the livelock.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!stop.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < deadline) {
        auto batch =
            index->BatchKnn(w.queries, 10, KnnMethod::kComposed, &pool);
        if (!batch.ok() || batch->size() != w.queries.size()) {
          query_failures.fetch_add(1);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::thread> writers;
  std::atomic<int> insert_failures{0};
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&index, &w, &stop, &insert_failures, t] {
      for (uint32_t vid = 0; vid < w.set.frame_counts.size(); ++vid) {
        if (static_cast<int>(vid % 4) != 2 + t) continue;
        if (w.set.frame_counts[vid] == 0) continue;
        std::vector<ViTri> vitris;
        for (const ViTri& v : w.set.vitris) {
          if (v.video_id == vid) vitris.push_back(v);
        }
        if (vitris.empty()) continue;
        if (!index->Insert(vid, w.set.frame_counts[vid], vitris).ok()) {
          insert_failures.fetch_add(1);
          return;
        }
      }
      (void)stop;
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(query_failures.load(), 0);
  EXPECT_EQ(insert_failures.load(), 0);
  EXPECT_EQ(index->live_shards(), 4u);
  EXPECT_EQ(index->num_vitris(), w.set.vitris.size());
  EXPECT_TRUE(index->ValidateInvariants().ok());

  // Quiesced, the index answers exactly like a single-shard build over
  // the full corpus — the concurrent phase corrupted nothing.
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto single = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(single.ok());
  for (const BatchQuery& q : w.queries) {
    auto expected = single->Knn(q.vitris, q.num_frames, 10,
                                KnnMethod::kComposed);
    auto actual = index->Knn(q.vitris, q.num_frames, 10,
                             KnnMethod::kComposed);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ExpectSameResults(*expected, *actual, "post-stress");
  }
}

}  // namespace
}  // namespace vitri::core
