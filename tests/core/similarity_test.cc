#include "core/similarity.h"

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "core/vitri_builder.h"
#include "geometry/hypersphere.h"
#include "geometry/paper_series.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

ViTri MakeViTri(uint32_t size, double radius, linalg::Vec position,
                uint32_t video = 0) {
  ViTri v;
  v.video_id = video;
  v.cluster_size = size;
  v.radius = radius;
  v.position = std::move(position);
  return v;
}

linalg::Vec At(double x, size_t dim = 4) {
  linalg::Vec v(dim, 0.0);
  v[0] = x;
  return v;
}

TEST(ClassifyOverlapTest, AllFourCases) {
  EXPECT_EQ(ClassifyOverlap(3.0, 1.0, 1.0), OverlapCase::kDisjoint);
  EXPECT_EQ(ClassifyOverlap(2.0, 1.0, 1.0), OverlapCase::kDisjoint);
  EXPECT_EQ(ClassifyOverlap(1.5, 1.0, 1.0), OverlapCase::kPartialShallow);
  EXPECT_EQ(ClassifyOverlap(0.5, 1.0, 0.7), OverlapCase::kPartialDeep);
  EXPECT_EQ(ClassifyOverlap(0.1, 1.0, 0.5), OverlapCase::kContained);
}

TEST(ClassifyOverlapTest, SymmetricInRadii) {
  EXPECT_EQ(ClassifyOverlap(0.5, 1.0, 0.7), ClassifyOverlap(0.5, 0.7, 1.0));
}

TEST(EstimatedSharedFramesTest, DisjointIsZero) {
  const ViTri a = MakeViTri(50, 0.1, At(0.0));
  const ViTri b = MakeViTri(50, 0.1, At(1.0));
  EXPECT_EQ(EstimatedSharedFrames(a, b), 0.0);
}

TEST(EstimatedSharedFramesTest, IdenticalClustersShareSparserCount) {
  // Same sphere, same density: estimate = |C| (min density x volume).
  const ViTri a = MakeViTri(80, 0.1, At(0.0));
  const ViTri b = MakeViTri(80, 0.1, At(0.0));
  EXPECT_NEAR(EstimatedSharedFrames(a, b), 80.0, 1e-9);
}

TEST(EstimatedSharedFramesTest, CoincidentSpheresDifferentCounts) {
  const ViTri a = MakeViTri(200, 0.1, At(0.0));
  const ViTri b = MakeViTri(50, 0.1, At(0.0));
  // min density is b's: estimate = 50.
  EXPECT_NEAR(EstimatedSharedFrames(a, b), 50.0, 1e-9);
}

TEST(EstimatedSharedFramesTest, ContainedSparseSmallBall) {
  // Small sparse ball fully inside a dense big one: all of the smaller,
  // sparser cluster's frames are shared.
  const ViTri big = MakeViTri(100000, 0.2, At(0.0));
  const ViTri small = MakeViTri(10, 0.05, At(0.01));
  const double est = EstimatedSharedFrames(big, small);
  EXPECT_NEAR(est, 10.0, 1e-6);
}

TEST(EstimatedSharedFramesTest, SymmetricInArguments) {
  const ViTri a = MakeViTri(60, 0.12, At(0.0));
  const ViTri b = MakeViTri(40, 0.09, At(0.15));
  EXPECT_NEAR(EstimatedSharedFrames(a, b), EstimatedSharedFrames(b, a),
              1e-12);
}

TEST(EstimatedSharedFramesTest, DecreasesWithDistance) {
  const ViTri a = MakeViTri(100, 0.1, At(0.0));
  double prev = 1e300;
  for (double d = 0.0; d < 0.25; d += 0.02) {
    const ViTri b = MakeViTri(100, 0.1, At(d));
    const double est = EstimatedSharedFrames(a, b);
    EXPECT_LE(est, prev + 1e-9) << "d=" << d;
    prev = est;
  }
}

TEST(EstimatedSharedFramesTest, NeverExceedsSparserClusterSize) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const ViTri a = MakeViTri(1 + rng.Index(500), rng.Uniform(0.01, 0.2),
                              At(rng.Uniform(0.0, 0.3), 8));
    const ViTri b = MakeViTri(1 + rng.Index(500), rng.Uniform(0.01, 0.2),
                              At(rng.Uniform(0.0, 0.3), 8));
    const double est = EstimatedSharedFrames(a, b);
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est,
              std::max(a.cluster_size, b.cluster_size) + 1e-9);
  }
}

TEST(EstimatedSharedFramesTest, PointClusterInsideBallIsBounded) {
  const ViTri ball = MakeViTri(100, 0.15, At(0.0));
  const ViTri point = MakeViTri(3, 0.0, At(0.05));
  const double est = EstimatedSharedFrames(ball, point);
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 100.0);
}

TEST(EstimatedSharedFramesTest, TwoCoincidentPointClusters) {
  const ViTri a = MakeViTri(5, 0.0, At(0.0));
  const ViTri b = MakeViTri(3, 0.0, At(0.0));
  EXPECT_NEAR(EstimatedSharedFrames(a, b), 3.0, 1e-12);
}

TEST(EstimatedSharedFramesTest, HighDimensionalStability) {
  const ViTri a = MakeViTri(500, 0.15, At(0.0, 128));
  const ViTri b = MakeViTri(400, 0.14, At(0.05, 128));
  const double est = EstimatedSharedFrames(a, b);
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, 400.0);
}

// Fidelity check: the production kernel must equal the PAPER'S literal
// Section 4.2 formula — V_int as the sum of two angle-parameterized
// hypercaps (angles by the law of cosines) times min(D1, D2) — across
// the partial-overlap cases, in dimensions where raw volumes are
// representable.
class PaperFormulaFidelityTest
    : public ::testing::TestWithParam<
          std::tuple<int, double, double, double>> {};

TEST_P(PaperFormulaFidelityTest, KernelMatchesSection42) {
  const auto [n, d, r1, r2] = GetParam();
  ViTri a = MakeViTri(120, r1, At(0.0, n));
  ViTri b = MakeViTri(80, r2, At(d, n));

  const OverlapCase overlap = ClassifyOverlap(d, r1, r2);
  ASSERT_TRUE(overlap == OverlapCase::kPartialShallow ||
              overlap == OverlapCase::kPartialDeep)
      << "parameters must exercise the cap-sum cases";

  // The paper's construction: the intersection hyperplane sits at
  // signed distance c1 from O1; the two caps have colatitude angles
  // alpha = acos(c1 / r1), beta = acos(c2 / r2) (obtuse in case 3).
  const double c1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d);
  const double c2 = d - c1;
  const double alpha = std::acos(std::clamp(c1 / r1, -1.0, 1.0));
  const double beta = std::acos(std::clamp(c2 / r2, -1.0, 1.0));
  const double v_int = geometry::PaperCapVolume(n, r1, alpha) +
                       geometry::PaperCapVolume(n, r2, beta);
  const double d1 = a.cluster_size / geometry::BallVolume(n, r1);
  const double d2 = b.cluster_size / geometry::BallVolume(n, r2);
  const double paper_estimate = v_int * std::min(d1, d2);

  const double kernel = EstimatedSharedFrames(a, b);
  EXPECT_NEAR(kernel, paper_estimate,
              1e-6 * std::max(1.0, paper_estimate))
      << "n=" << n << " d=" << d << " r1=" << r1 << " r2=" << r2;
}

INSTANTIATE_TEST_SUITE_P(
    Section42, PaperFormulaFidelityTest,
    ::testing::Values(
        // Case 2 (shallow): r2 <= d < r1 + r2.
        std::make_tuple(2, 0.15, 0.10, 0.08),
        std::make_tuple(3, 0.12, 0.09, 0.07),
        std::make_tuple(8, 0.10, 0.08, 0.06),
        std::make_tuple(16, 0.09, 0.07, 0.06),
        // Case 3 (deep): r1 - r2 <= d < r2.
        std::make_tuple(2, 0.05, 0.10, 0.08),
        std::make_tuple(3, 0.04, 0.09, 0.08),
        std::make_tuple(8, 0.05, 0.08, 0.07),
        std::make_tuple(16, 0.04, 0.07, 0.065)));

TEST(EstimatedVideoSimilarityTest, IdenticalSummariesNearOne) {
  std::vector<ViTri> summary = {MakeViTri(100, 0.1, At(0.0)),
                                MakeViTri(150, 0.1, At(0.5))};
  const double sim = EstimatedVideoSimilarity(summary, summary, 250, 250);
  EXPECT_NEAR(sim, 1.0, 1e-9);
}

TEST(EstimatedVideoSimilarityTest, DisjointSummariesZero) {
  std::vector<ViTri> a = {MakeViTri(100, 0.1, At(0.0))};
  std::vector<ViTri> b = {MakeViTri(100, 0.1, At(5.0))};
  EXPECT_EQ(EstimatedVideoSimilarity(a, b, 100, 100), 0.0);
}

TEST(EstimatedVideoSimilarityTest, ClampedToOne) {
  // Overlapping pairs can double count; the similarity must stay <= 1.
  std::vector<ViTri> a = {MakeViTri(100, 0.1, At(0.0)),
                          MakeViTri(100, 0.1, At(0.001))};
  std::vector<ViTri> b = a;
  const double sim = EstimatedVideoSimilarity(a, b, 200, 200);
  EXPECT_LE(sim, 1.0);
  EXPECT_GT(sim, 0.9);
}

TEST(EstimatedVideoSimilarityTest, HugeFrameCountsDoNotWrap) {
  // Summed as u32, 2^32 - 11 + 20 frames would wrap to 9 and clamp the
  // similarity to 1.
  std::vector<ViTri> summary = {MakeViTri(100, 0.1, At(0.0))};
  const double sim = EstimatedVideoSimilarity(
      summary, summary, std::numeric_limits<uint32_t>::max() - 10, 20);
  EXPECT_LT(sim, 1e-6);
}

TEST(ExactVideoSimilarityTest, SelfSimilarityIsOne) {
  video::VideoSynthesizer synth;
  const video::VideoSequence clip = synth.GenerateClip(0, 3.0);
  EXPECT_DOUBLE_EQ(ExactVideoSimilarity(clip, clip, 0.2), 1.0);
}

TEST(ExactVideoSimilarityTest, EmptySequencesAreZero) {
  video::VideoSequence empty;
  video::VideoSequence one;
  one.frames.push_back(linalg::Vec(4, 0.0));
  EXPECT_EQ(ExactVideoSimilarity(empty, one, 0.2), 0.0);
}

TEST(ExactVideoSimilarityTest, WithinRange) {
  video::VideoSynthesizer synth;
  const video::VideoSequence a = synth.GenerateClip(0, 4.0);
  const video::VideoSequence b = synth.GenerateClip(1, 4.0);
  const double sim = ExactVideoSimilarity(a, b, 0.3);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
}

TEST(ExactVideoSimilarityTest, SymmetricMeasure) {
  video::VideoSynthesizer synth;
  const video::VideoSequence a = synth.GenerateClip(2, 3.0);
  const video::VideoSequence b = synth.MakeNearDuplicate(a, 3);
  EXPECT_DOUBLE_EQ(ExactVideoSimilarity(a, b, 0.25),
                   ExactVideoSimilarity(b, a, 0.25));
}

TEST(ExactVideoSimilarityTest, MonotoneInEpsilon) {
  video::VideoSynthesizer synth;
  const video::VideoSequence a = synth.GenerateClip(4, 3.0);
  const video::VideoSequence b = synth.GenerateClip(5, 3.0);
  double prev = 0.0;
  for (double eps : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    const double sim = ExactVideoSimilarity(a, b, eps);
    EXPECT_GE(sim, prev - 1e-12);
    prev = sim;
  }
}

// The headline property behind the paper: the ViTri estimate tracks the
// exact similarity — near-duplicates score far above unrelated clips.
TEST(SimilarityAgreementTest, EstimateSeparatesDuplicatesFromNoise) {
  video::SynthesizerOptions so;
  so.shot_reuse_probability = 0.0;  // "other" must be unrelated.
  video::VideoSynthesizer synth(so);
  video::VideoSequence base = synth.GenerateClip(0, 6.0);
  video::VideoSequence dup = synth.MakeNearDuplicate(base, 1);
  video::VideoSequence other = synth.GenerateClip(2, 6.0);

  ViTriBuilder builder;
  auto s_base = builder.Build(base);
  auto s_dup = builder.Build(dup);
  auto s_other = builder.Build(other);
  ASSERT_TRUE(s_base.ok() && s_dup.ok() && s_other.ok());

  const double est_dup = EstimatedVideoSimilarity(
      *s_base, *s_dup, static_cast<uint32_t>(base.num_frames()),
      static_cast<uint32_t>(dup.num_frames()));
  const double est_other = EstimatedVideoSimilarity(
      *s_base, *s_other, static_cast<uint32_t>(base.num_frames()),
      static_cast<uint32_t>(other.num_frames()));
  // In 64 dimensions the paper's V_int * min(D) estimate is a strong
  // under-estimate in absolute terms (volume concentration makes it
  // hypersensitive to small radius mismatches), but it must separate
  // near-duplicates from unrelated clips by a wide relative margin.
  EXPECT_GT(est_dup, 1e-4);
  EXPECT_LT(est_other, est_dup / 5.0);
}

}  // namespace
}  // namespace vitri::core
