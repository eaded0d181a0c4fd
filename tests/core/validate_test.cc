#include "core/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/vitri.h"

namespace vitri::core {
namespace {

constexpr int kDim = 4;
constexpr double kEpsilon = 0.15;

ViTri MakeViTri(uint32_t video_id, uint32_t cluster_size, double radius,
                double coordinate) {
  ViTri v;
  v.video_id = video_id;
  v.cluster_size = cluster_size;
  v.radius = radius;
  v.position.assign(kDim, coordinate);
  return v;
}

// Two videos, two clusters each, frame counts exactly accounted for.
ViTriSet MakeValidSet() {
  ViTriSet set;
  set.dimension = kDim;
  set.vitris = {
      MakeViTri(0, 10, 0.05, 0.2),
      MakeViTri(0, 5, 0.07, 0.4),
      MakeViTri(1, 8, 0.0, 0.6),
      MakeViTri(1, 12, 0.06, 0.8),
  };
  set.frame_counts = {15, 20};
  return set;
}

void ExpectViolation(const Status& status, const std::string& fragment) {
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.ToString().find("ViTri invariant violated"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find(fragment), std::string::npos)
      << status.ToString();
}

TEST(ValidateViTriTest, AcceptsWellFormedTriplets) {
  EXPECT_TRUE(ValidateViTri(MakeViTri(0, 10, 0.05, 0.2), kDim, kEpsilon)
                  .ok());
  // A point cluster (radius 0, infinite density) is legal.
  EXPECT_TRUE(ValidateViTri(MakeViTri(0, 1, 0.0, 0.2), kDim, kEpsilon)
                  .ok());
  // Radius exactly at the epsilon/2 cap is legal.
  EXPECT_TRUE(
      ValidateViTri(MakeViTri(0, 3, kEpsilon / 2.0, 0.2), kDim, kEpsilon)
          .ok());
}

TEST(ValidateViTriTest, CatchesDimensionMismatch) {
  ExpectViolation(ValidateViTri(MakeViTri(0, 10, 0.05, 0.2), kDim + 1,
                                kEpsilon),
                  "dimension");
}

TEST(ValidateViTriTest, CatchesEmptyCluster) {
  ExpectViolation(ValidateViTri(MakeViTri(0, 0, 0.05, 0.2), kDim, kEpsilon),
                  "empty cluster");
}

TEST(ValidateViTriTest, CatchesBrokenRadius) {
  ExpectViolation(
      ValidateViTri(MakeViTri(0, 10, -0.01, 0.2), kDim, kEpsilon),
      "negative radius");
  ExpectViolation(
      ValidateViTri(
          MakeViTri(0, 10, std::numeric_limits<double>::quiet_NaN(), 0.2),
          kDim, kEpsilon),
      "radius");
  // Above the refinement cap R <= epsilon / 2.
  ExpectViolation(
      ValidateViTri(MakeViTri(0, 10, kEpsilon, 0.2), kDim, kEpsilon),
      "refinement cap");
  // With epsilon unknown (<= 0) the cap is not enforced.
  EXPECT_TRUE(ValidateViTri(MakeViTri(0, 10, kEpsilon, 0.2), kDim, 0.0)
                  .ok());
}

TEST(ValidateViTriTest, CatchesNonFinitePosition) {
  ViTri v = MakeViTri(0, 10, 0.05, 0.2);
  v.position[2] = std::numeric_limits<double>::infinity();
  ExpectViolation(ValidateViTri(v, kDim, kEpsilon), "non-finite position");
}

TEST(CheckQueryViTrisTest, RejectsEachMalformedField) {
  const std::vector<ViTri> good = MakeValidSet().vitris;
  EXPECT_TRUE(CheckQueryViTris(good, kDim).ok());
  // Query ViTris carry no epsilon cap: any finite radius is a query.
  EXPECT_TRUE(CheckQueryViTris({MakeViTri(0, 1, 5.0, 0.2)}, kDim).ok());

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<ViTri>> bad = {{}, good, good, good, good, good};
  bad[1][1].position.push_back(0.5);
  bad[2][2].radius = kNan;
  bad[3][3].radius = kInf;
  bad[4][0].radius = -0.01;
  bad[5][1].position[2] = kNan;
  for (size_t i = 0; i < bad.size(); ++i) {
    const Status status = CheckQueryViTris(bad[i], kDim);
    EXPECT_TRUE(status.IsInvalidArgument())
        << "case " << i << ": " << status.ToString();
  }
}

TEST(ValidateViTriSetTest, AcceptsValidSet) {
  ViTriCheckOptions options;
  options.epsilon = kEpsilon;
  options.check_frame_accounting = true;
  EXPECT_TRUE(ValidateViTriSet(MakeValidSet(), options).ok());
}

TEST(ValidateViTriSetTest, CatchesVideoIdBeyondFrameTable) {
  ViTriSet set = MakeValidSet();
  set.vitris[1].video_id = 7;
  ExpectViolation(ValidateViTriSet(set), "beyond the frame-count table");
}

TEST(ValidateViTriSetTest, CatchesClusterLargerThanVideo) {
  ViTriSet set = MakeValidSet();
  set.vitris[0].cluster_size = 100;
  ExpectViolation(ValidateViTriSet(set), "in total");
}

TEST(ValidateViTriSetTest, CatchesFrameAccountingMismatch) {
  ViTriSet set = MakeValidSet();
  set.frame_counts[1] = 19;  // Clusters of video 1 account for 20.
  ViTriCheckOptions strict;
  strict.check_frame_accounting = true;
  // Lenient mode tolerates unsummarized frames; strict mode must not.
  // (19 < cluster 12 is still fine per-cluster.)
  EXPECT_TRUE(ValidateViTriSet(set).ok());
  ExpectViolation(ValidateViTriSet(set, strict), "account");
}

TEST(ValidateSnapshotRoundTripTest, AcceptsLosslessSet) {
  EXPECT_TRUE(ValidateSnapshotRoundTrip(MakeValidSet()).ok());
}

TEST(ValidateSnapshotRoundTripTest, SurvivesExtremeValues) {
  ViTriSet set = MakeValidSet();
  set.vitris[0].position[0] = std::numeric_limits<double>::denorm_min();
  set.vitris[1].position[3] = -0.0;
  EXPECT_TRUE(ValidateSnapshotRoundTrip(set).ok());
}

TEST(IndexValidateTest, BuildAndInsertKeepEveryInvariant) {
  ViTriIndexOptions options;
  options.dimension = kDim;
  options.epsilon = kEpsilon;
  options.page_size = 512;
  auto index = ViTriIndex::Build(MakeValidSet(), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(index->ValidateInvariants().ok());

  ASSERT_TRUE(index
                  ->Insert(2, 9,
                           {MakeViTri(2, 4, 0.03, 0.35),
                            MakeViTri(2, 5, 0.05, 0.55)})
                  .ok());
  EXPECT_TRUE(index->ValidateInvariants().ok());

  ASSERT_TRUE(index->Rebuild().ok());
  EXPECT_TRUE(index->ValidateInvariants().ok());

  // Validation reads pages through the pool, but no query's costs count
  // them: the same query reports the same page accesses before and
  // after the check.
  const std::vector<ViTri> query = {MakeViTri(2, 4, 0.03, 0.35)};
  QueryCosts before;
  ASSERT_TRUE(index->Knn(query, 4, 5, KnnMethod::kComposed, &before).ok());
  EXPECT_TRUE(index->ValidateInvariants().ok());
  QueryCosts after;
  ASSERT_TRUE(index->Knn(query, 4, 5, KnnMethod::kComposed, &after).ok());
  EXPECT_GT(before.page_accesses, 0u);
  EXPECT_EQ(before.page_accesses, after.page_accesses);
}

}  // namespace
}  // namespace vitri::core
