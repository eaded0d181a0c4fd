// End-to-end fault tolerance: the index built over a faulty pager must
// fail a query cleanly on a read error (nothing retries it), degrade
// (but stay correct) on persistent corruption, and heal through
// Rebuild().

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/index.h"
#include "core/similarity.h"
#include "core/vitri_builder.h"
#include "storage/fault_pager.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

using storage::FaultInjectingPager;
using storage::FaultKind;
using storage::FaultOp;
using storage::FaultRule;
using storage::kAnyPage;
using storage::MemPager;

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

/// The stored summary of one video, used as a self-query.
std::vector<ViTri> VideoSummary(const ViTriSet& set, uint32_t video_id) {
  std::vector<ViTri> out;
  for (const ViTri& v : set.vitris) {
    if (v.video_id == video_id) out.push_back(v);
  }
  return out;
}

/// Brute-force oracle: the query's estimated similarity to every
/// stored video, ranked as the index ranks (similarity descending, then
/// video id), top k.
std::vector<VideoMatch> BruteForceKnn(const ViTriSet& set,
                                      const std::vector<ViTri>& query,
                                      uint32_t query_frames, size_t k) {
  std::vector<VideoMatch> all;
  for (uint32_t video = 0; video < set.frame_counts.size(); ++video) {
    if (set.frame_counts[video] == 0) continue;
    const double sim =
        EstimatedVideoSimilarity(query, VideoSummary(set, video),
                                 query_frames, set.frame_counts[video]);
    if (sim > 0.0) all.push_back(VideoMatch{video, sim});
  }
  std::sort(all.begin(), all.end(),
            [](const VideoMatch& a, const VideoMatch& b) {
              return a.similarity > b.similarity ||
                     (a.similarity == b.similarity &&
                      a.video_id < b.video_id);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameMatches(const std::vector<VideoMatch>& a,
                       const std::vector<VideoMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].video_id, b[i].video_id) << "rank " << i;
    EXPECT_NEAR(a[i].similarity, b[i].similarity, 1e-9) << "rank " << i;
  }
}

TEST(IndexFaultToleranceTest, TransientReadErrorFailsTheQueryCleanly) {
  // No pager layer retries: a read error surfaces from Knn as IoError.
  // It is not corruption, so the query does not degrade, no page is
  // quarantined and the index does not ask for a rebuild; the next
  // query, with the fault gone, answers exactly.
  World w = MakeWorld();
  ViTriIndexOptions options;
  options.dimension = 64;
  // A small pool forces physical reads for the fault to act on.
  options.buffer_pool_pages = 8;
  FaultInjectingPager* fault_handle = nullptr;
  options.pager_factory = [&fault_handle](size_t page_size) {
    auto faulty = std::make_unique<FaultInjectingPager>(
        std::make_unique<MemPager>(page_size));
    fault_handle = faulty.get();
    return faulty;
  };
  auto index = ViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());
  ASSERT_NE(fault_handle, nullptr);

  const uint32_t video = 0;
  const std::vector<ViTri> query = VideoSummary(w.set, video);
  ASSERT_FALSE(query.empty());
  const uint32_t frames = w.set.frame_counts[video];
  const std::vector<VideoMatch> oracle =
      BruteForceKnn(w.set, query, frames, 5);
  ASSERT_FALSE(oracle.empty());

  // One transient error on the first page the query reads from the
  // pager.
  ASSERT_TRUE(index->DropCaches().ok());
  fault_handle->AddRule(FaultRule{FaultKind::kTransientIoError,
                                  FaultOp::kRead, kAnyPage, /*after=*/0,
                                  /*every=*/1, /*limit=*/1});
  QueryCosts costs;
  auto failed = index->Knn(query, frames, 5, KnnMethod::kComposed, &costs);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIoError()) << failed.status().ToString();
  EXPECT_FALSE(costs.degraded);
  EXPECT_EQ(fault_handle->fault_stats().transient_io_errors, 1u);
  EXPECT_TRUE(index->quarantined_pages().empty());
  EXPECT_EQ(index->io_stats().checksum_failures, 0u);
  auto needs_rebuild = index->NeedsRebuild();
  ASSERT_TRUE(needs_rebuild.ok());
  EXPECT_FALSE(*needs_rebuild);

  fault_handle->ClearRules();
  auto answered = index->Knn(query, frames, 5, KnnMethod::kComposed, &costs);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_FALSE(costs.degraded);
  ExpectSameMatches(oracle, *answered);
}

TEST(IndexFaultToleranceTest, CorruptionDegradesToCorrectAnswersAndHeals) {
  World w = MakeWorld();
  ViTriIndexOptions options;
  options.dimension = 64;
  options.buffer_pool_pages = 8;
  FaultInjectingPager* fault_handle = nullptr;
  options.pager_factory = [&fault_handle](size_t page_size) {
    auto faulty = std::make_unique<FaultInjectingPager>(
        std::make_unique<MemPager>(page_size));
    fault_handle = faulty.get();
    return faulty;
  };
  auto index = ViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());
  ASSERT_NE(fault_handle, nullptr);

  const uint32_t video = 0;
  const std::vector<ViTri> query = VideoSummary(w.set, video);
  ASSERT_FALSE(query.empty());
  const uint32_t frames = w.set.frame_counts[video];

  auto healthy = index->Knn(query, frames, 5, KnnMethod::kComposed);
  ASSERT_TRUE(healthy.ok());
  ASSERT_FALSE(healthy->empty());

  // Persistently bit-flip every page read from disk, then drop the
  // cache so queries must go through the rot.
  fault_handle->AddRule(
      FaultRule{FaultKind::kBitFlip, FaultOp::kRead, kAnyPage});
  ASSERT_TRUE(index->DropCaches().ok());

  QueryCosts costs;
  auto degraded = index->Knn(query, frames, 5, KnnMethod::kComposed,
                             &costs);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(costs.degraded);
  ExpectSameMatches(*healthy, *degraded);
  EXPECT_GT(index->io_stats().checksum_failures, 0u);
  EXPECT_FALSE(index->quarantined_pages().empty());

  // Quarantined pages flag the index for rebuild even with zero drift.
  auto needs_rebuild = index->NeedsRebuild();
  ASSERT_TRUE(needs_rebuild.ok());
  EXPECT_TRUE(*needs_rebuild);

  // Rebuild reloads the tree from the in-memory copy into a fresh
  // store (the factory runs again, without fault rules this time).
  ASSERT_TRUE(index->Rebuild().ok());
  EXPECT_TRUE(index->quarantined_pages().empty());
  QueryCosts healed_costs;
  auto healed = index->Knn(query, frames, 5, KnnMethod::kComposed,
                           &healed_costs);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed_costs.degraded);
  ExpectSameMatches(*healthy, *healed);
  needs_rebuild = index->NeedsRebuild();
  ASSERT_TRUE(needs_rebuild.ok());
  EXPECT_FALSE(*needs_rebuild);
}

TEST(IndexFaultToleranceTest, SequentialScanAndFrameSearchDegrade) {
  World w = MakeWorld();
  ViTriIndexOptions options;
  options.dimension = 64;
  options.buffer_pool_pages = 8;
  FaultInjectingPager* fault_handle = nullptr;
  options.pager_factory = [&fault_handle](size_t page_size) {
    auto faulty = std::make_unique<FaultInjectingPager>(
        std::make_unique<MemPager>(page_size));
    fault_handle = faulty.get();
    return faulty;
  };
  auto index = ViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());

  const std::vector<ViTri> query = VideoSummary(w.set, 0);
  ASSERT_FALSE(query.empty());
  const uint32_t frames = w.set.frame_counts[0];

  auto seq_healthy = index->SequentialScan(query, frames, 5);
  ASSERT_TRUE(seq_healthy.ok());

  fault_handle->AddRule(
      FaultRule{FaultKind::kBitFlip, FaultOp::kRead, kAnyPage});
  ASSERT_TRUE(index->DropCaches().ok());

  QueryCosts seq_costs;
  auto seq_degraded = index->SequentialScan(query, frames, 5, &seq_costs);
  ASSERT_TRUE(seq_degraded.ok());
  EXPECT_TRUE(seq_costs.degraded);
  ExpectSameMatches(*seq_healthy, *seq_degraded);
}

}  // namespace
}  // namespace vitri::core
