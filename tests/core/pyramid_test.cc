#include "core/pyramid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

using linalg::Vec;

TEST(PyramidTransformTest, RejectsEmptyInput) {
  EXPECT_FALSE(PyramidTransform::Fit({}).ok());
}

TEST(PyramidTransformTest, ValueRangePerPyramid) {
  // Without warping (extended=false), hand-checkable assignments.
  auto t = PyramidTransform::Fit({{0.5, 0.5}}, /*extended=*/false);
  ASSERT_TRUE(t.ok());
  // (0.1, 0.5): deviation (-0.4, 0.0) -> pyramid 0 (dim 0, negative),
  // height 0.4.
  EXPECT_NEAR(t->Value(Vec{0.1, 0.5}), 0.4, 1e-12);
  // (0.9, 0.5): pyramid 0 + d = 2, height 0.4.
  EXPECT_NEAR(t->Value(Vec{0.9, 0.5}), 2.4, 1e-12);
  // (0.5, 0.2): pyramid 1, height 0.3.
  EXPECT_NEAR(t->Value(Vec{0.5, 0.2}), 1.3, 1e-12);
  // (0.5, 0.8): pyramid 3, height 0.3.
  EXPECT_NEAR(t->Value(Vec{0.5, 0.8}), 3.3, 1e-12);
}

TEST(PyramidTransformTest, ValueAlwaysInPyramidBand) {
  Rng rng(7);
  std::vector<Vec> pts;
  for (int i = 0; i < 50; ++i) {
    Vec p(8);
    for (double& x : p) x = rng.NextDouble();
    pts.push_back(std::move(p));
  }
  auto t = PyramidTransform::Fit(pts);
  ASSERT_TRUE(t.ok());
  for (const Vec& p : pts) {
    const double value = t->Value(p);
    const double pyramid = std::floor(value);
    EXPECT_GE(pyramid, 0.0);
    EXPECT_LT(pyramid, 16.0);  // 2d pyramids.
    EXPECT_LE(value - pyramid, 0.5 + 1e-12);  // height <= 0.5.
  }
}

TEST(PyramidTransformTest, ExtendedWarpCentersMedian) {
  // Points concentrated near 0.1 in every dimension: after the extended
  // warp the median must land at height ~0 (near the cube center).
  Rng rng(9);
  std::vector<Vec> pts;
  for (int i = 0; i < 201; ++i) {
    Vec p(4);
    for (double& x : p) x = 0.1 + rng.Uniform(-0.05, 0.05);
    pts.push_back(std::move(p));
  }
  auto t = PyramidTransform::Fit(pts, /*extended=*/true);
  ASSERT_TRUE(t.ok());
  // Heights of the warped points should be small (median maps to 0.5
  // per dimension).
  double total_height = 0.0;
  for (const Vec& p : pts) {
    const double value = t->Value(p);
    total_height += value - std::floor(value);
  }
  EXPECT_LT(total_height / pts.size(), 0.25);
}

TEST(PyramidTransformTest, QueryIntervalsNoFalseDismissals) {
  // Property: every point inside a query box must have its pyramid
  // value covered by one of the returned intervals.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t dim = 2 + rng.Index(6);
    std::vector<Vec> pts;
    for (int i = 0; i < 60; ++i) {
      Vec p(dim);
      for (double& x : p) x = rng.NextDouble();
      pts.push_back(std::move(p));
    }
    auto t = PyramidTransform::Fit(pts, trial % 2 == 0);
    ASSERT_TRUE(t.ok());

    Vec lo(dim), hi(dim);
    for (size_t j = 0; j < dim; ++j) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    const auto intervals = t->QueryIntervals(lo, hi);

    for (const Vec& p : pts) {
      bool inside = true;
      for (size_t j = 0; j < dim; ++j) {
        inside = inside && p[j] >= lo[j] && p[j] <= hi[j];
      }
      if (!inside) continue;
      const double value = t->Value(p);
      bool covered = false;
      for (const auto& iv : intervals) {
        covered = covered || (value >= iv.lo - 1e-9 &&
                              value <= iv.hi + 1e-9);
      }
      EXPECT_TRUE(covered)
          << "trial " << trial << ": point value " << value
          << " not covered by " << intervals.size() << " intervals";
    }
  }
}

TEST(PyramidTransformTest, CenterQueryTouchesAllPyramids) {
  auto t = PyramidTransform::Fit({{0.5, 0.5, 0.5}}, /*extended=*/false);
  ASSERT_TRUE(t.ok());
  const auto intervals = t->QueryIntervals(Vec{0.4, 0.4, 0.4},
                                           Vec{0.6, 0.6, 0.6});
  EXPECT_EQ(intervals.size(), 6u);  // 2d pyramids, d = 3.
  for (const auto& iv : intervals) {
    EXPECT_NEAR(iv.lo - std::floor(iv.lo), 0.0, 1e-12);
    EXPECT_NEAR(iv.hi - std::floor(iv.lo), 0.1, 1e-9);
  }
}

TEST(PyramidTransformTest, OffsetQueryPrunesPyramids) {
  auto t = PyramidTransform::Fit({{0.5, 0.5}}, /*extended=*/false);
  ASSERT_TRUE(t.ok());
  // A box deep in the "x high" corner with y near center: only some
  // pyramids can contain it.
  const auto intervals = t->QueryIntervals(Vec{0.9, 0.45},
                                           Vec{0.95, 0.55});
  // Pyramid 2 (x positive) must be present; pyramid 0 (x negative)
  // must not.
  bool has_positive_x = false;
  bool has_negative_x = false;
  for (const auto& iv : intervals) {
    const int pyramid = static_cast<int>(std::floor(iv.lo));
    has_positive_x = has_positive_x || pyramid == 2;
    has_negative_x = has_negative_x || pyramid == 0;
  }
  EXPECT_TRUE(has_positive_x);
  EXPECT_FALSE(has_negative_x);
}

struct PyramidWorld {
  video::VideoDatabase db;
  ViTriSet set;
};

PyramidWorld MakePyramidWorld() {
  video::VideoSynthesizer synth;
  PyramidWorld w;
  w.db = synth.GenerateDatabase(0.004);
  ViTriBuilder builder;
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  return w;
}

TEST(PyramidIndexTest, BuildRejectsEmptySet) {
  EXPECT_FALSE(PyramidIndex::Build(ViTriSet{}, ViTriIndexOptions{}).ok());
}

TEST(PyramidIndexTest, AgreesWithViTriIndexResults) {
  PyramidWorld w = MakePyramidWorld();
  ViTriIndexOptions options;
  auto pyramid = PyramidIndex::Build(w.set, options);
  auto reference = ViTriIndex::Build(w.set, options);
  ASSERT_TRUE(pyramid.ok());
  ASSERT_TRUE(reference.ok());

  ViTriBuilder builder;
  for (uint32_t q : {1u, 6u, 12u}) {
    auto summary = builder.Build(w.db.videos[q]);
    ASSERT_TRUE(summary.ok());
    const uint32_t frames =
        static_cast<uint32_t>(w.db.videos[q].num_frames());
    auto from_pyramid = pyramid->Knn(*summary, frames, 10);
    auto from_reference =
        reference->Knn(*summary, frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(from_pyramid.ok());
    ASSERT_TRUE(from_reference.ok());
    ASSERT_EQ(from_pyramid->size(), from_reference->size()) << "q=" << q;
    for (size_t i = 0; i < from_pyramid->size(); ++i) {
      EXPECT_EQ((*from_pyramid)[i].video_id,
                (*from_reference)[i].video_id);
      EXPECT_NEAR((*from_pyramid)[i].similarity,
                  (*from_reference)[i].similarity, 1e-9);
    }
  }
}

TEST(PyramidIndexTest, ReportsCosts) {
  PyramidWorld w = MakePyramidWorld();
  auto pyramid = PyramidIndex::Build(w.set, ViTriIndexOptions{});
  ASSERT_TRUE(pyramid.ok());
  ViTriBuilder builder;
  auto summary = builder.Build(w.db.videos[0]);
  ASSERT_TRUE(summary.ok());
  QueryCosts costs;
  auto results = pyramid->Knn(
      *summary, static_cast<uint32_t>(w.db.videos[0].num_frames()), 10,
      &costs);
  ASSERT_TRUE(results.ok());
  EXPECT_GT(costs.page_accesses, 0u);
  EXPECT_GT(costs.range_searches, 0u);
  EXPECT_GT(costs.similarity_evals, 0u);
}

TEST(PyramidIndexTest, HugeQueryFrameCountDoesNotWrapTheDenominator) {
  PyramidWorld w = MakePyramidWorld();
  auto pyramid = PyramidIndex::Build(w.set, ViTriIndexOptions{});
  ASSERT_TRUE(pyramid.ok());
  ViTriBuilder builder;
  auto summary = builder.Build(w.db.videos[0]);
  ASSERT_TRUE(summary.ok());
  auto results = pyramid->Knn(
      *summary, std::numeric_limits<uint32_t>::max() - 100, 10);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const VideoMatch& m : *results) {
    EXPECT_LT(m.similarity, 1e-6) << "video " << m.video_id;
  }
}

TEST(PyramidIndexTest, EmptyQueryRejected) {
  PyramidWorld w = MakePyramidWorld();
  auto pyramid = PyramidIndex::Build(w.set, ViTriIndexOptions{});
  ASSERT_TRUE(pyramid.ok());
  EXPECT_FALSE(pyramid->Knn({}, 100, 5).ok());
}

// The query is checked like ViTriIndex::Knn's: the interval loop reads
// every one of the index's coordinates of each query position, and a
// NaN radius makes NaN intervals that match nothing.
TEST(PyramidIndexTest, InvalidQueryViTrisAreRejected) {
  PyramidWorld w = MakePyramidWorld();
  auto pyramid = PyramidIndex::Build(w.set, ViTriIndexOptions{});
  ASSERT_TRUE(pyramid.ok());
  ViTriBuilder builder;
  auto summary = builder.Build(w.db.videos[0]);
  ASSERT_TRUE(summary.ok());
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  std::vector<ViTri> narrow = *summary;
  for (ViTri& v : narrow) v.position.resize(4);
  EXPECT_TRUE(pyramid->Knn(narrow, frames, 5).status().IsInvalidArgument());
  std::vector<ViTri> nan_radius = *summary;
  nan_radius[0].radius = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      pyramid->Knn(nan_radius, frames, 5).status().IsInvalidArgument());
}

}  // namespace
}  // namespace vitri::core
