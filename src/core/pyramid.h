#ifndef VITRI_CORE_PYRAMID_H_
#define VITRI_CORE_PYRAMID_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "btree/bplus_tree.h"
#include "common/result.h"
#include "core/index.h"
#include "core/vitri.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace vitri::core {

/// The Pyramid technique (Berchtold/Boehm/Kriegel, SIGMOD 1998) — the
/// other high-to-one-dimensional mapping family the paper's related
/// work cites. The [0,1]^d cube is cut into 2d pyramids meeting at the
/// center; a point maps to `pyramid_index + height`, and a range query
/// becomes at most 2d one-dimensional interval scans.
///
/// Implemented with the *extended* pyramid option: per-dimension
/// power-law warping t_j(x) = x^{r_j} moves the data median to the cube
/// center, which the original authors recommend for skewed data (our
/// normalized histograms are heavily skewed toward 0).
class PyramidTransform {
 public:
  /// Fits the transform over `points` in [0,1]^d. When `extended` is
  /// true the per-dimension medians define the warping exponents.
  static Result<PyramidTransform> Fit(
      const std::vector<linalg::Vec>& points, bool extended = true);

  int dimension() const { return static_cast<int>(exponents_.size()); }

  /// The pyramid value: i + h, where i in [0, 2d) identifies the
  /// pyramid and h in [0, 0.5] is the height within it.
  double Value(linalg::VecView point) const;

  /// One candidate interval of pyramid values.
  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
  };

  /// The pyramid-value intervals that a rectangular query
  /// [lo_j, hi_j]^d (in the *original* space) can touch. Guarantees no
  /// false dismissals: every point inside the rectangle has a value in
  /// one of the returned intervals. Points outside may be included
  /// (candidates must be filtered exactly).
  std::vector<Interval> QueryIntervals(const linalg::Vec& lo,
                                       const linalg::Vec& hi) const;

 private:
  PyramidTransform() = default;

  /// Per-dimension warp t_j(x) = clamp(x,0,1)^{r_j}.
  double Warp(size_t j, double x) const;

  std::vector<double> exponents_;
};

/// A ViTri index built on the Pyramid technique instead of the paper's
/// reference-point transformation: same B+-tree substrate, same KNN
/// semantics and cost accounting, so the two mappings are directly
/// comparable (the Figure 17/18 comparison axis).
class PyramidIndex {
 public:
  PyramidIndex(PyramidIndex&&) noexcept = default;
  PyramidIndex& operator=(PyramidIndex&&) noexcept = default;
  PyramidIndex(const PyramidIndex&) = delete;
  PyramidIndex& operator=(const PyramidIndex&) = delete;

  /// Builds over a summarized database. Options' reference/margin
  /// fields are ignored (the mapping is the pyramid value).
  static Result<PyramidIndex> Build(const ViTriSet& set,
                                    const ViTriIndexOptions& options);

  /// Top-k most similar videos; identical semantics to ViTriIndex::Knn
  /// with composed ranges (the per-ViTri pyramid intervals are merged
  /// before scanning), including its query check (CheckQueryViTris) and
  /// page counts from the query's own IoTally.
  Result<std::vector<VideoMatch>> Knn(const std::vector<ViTri>& query,
                                      uint32_t query_frames, size_t k,
                                      QueryCosts* costs = nullptr);

  size_t num_vitris() const { return num_vitris_; }
  const PyramidTransform& transform() const { return *transform_; }

 private:
  PyramidIndex() = default;

  ViTriIndexOptions options_;
  // Heap-allocated for delayed construction (Build fills them in after
  // the object exists) without optional-engagement hazards — same
  // pattern as ViTriIndex, and what lets clang-tidy's
  // bugprone-unchecked-optional-access stay enabled repo-wide.
  std::unique_ptr<PyramidTransform> transform_;
  std::unique_ptr<storage::MemPager> pager_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<btree::BPlusTree> tree_;
  std::vector<uint32_t> frame_counts_;
  size_t num_vitris_ = 0;
};

}  // namespace vitri::core

#endif  // VITRI_CORE_PYRAMID_H_
