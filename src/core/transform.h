#ifndef VITRI_CORE_TRANSFORM_H_
#define VITRI_CORE_TRANSFORM_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "linalg/pca.h"
#include "linalg/vec.h"

namespace vitri::core {

/// Which reference point the one-dimensional transformation uses
/// (the paper's Section 6.3.2 comparison axes).
enum class ReferencePointKind {
  /// Center of the domain hypercube [0,1]^n (iDistance-style baseline).
  kSpaceCenter,
  /// Mean of the indexed points (iDistance-style baseline).
  kDataCenter,
  /// The paper's contribution: on the first principal component's line,
  /// shifted outside its variance segment (Theorem 1).
  kOptimal,
};

const char* ReferencePointKindName(ReferencePointKind kind);

/// A closed interval [lo, hi] on the one-dimensional key axis — the key
/// range one query ViTri's range search covers.
struct KeyRange {
  double lo = 0.0;
  double hi = 0.0;
};

/// Query composition (Section 5.2): merges every overlapping or touching
/// pair of ranges, returning disjoint ranges in ascending order whose
/// union is exactly the input union. Composed KNN scans each merged
/// range once, so no leaf is visited twice for overlapping query ViTris.
/// Empty ranges (lo > hi) are dropped.
std::vector<KeyRange> ComposeKeyRanges(std::vector<KeyRange> ranges);

/// The one-dimensional transformation key(p) = d(p, O'). Holds the
/// chosen reference point and, for kOptimal, the PCA snapshot used to
/// derive it (needed by the drift-triggered rebuild policy).
class OneDimensionalTransform {
 public:
  /// Fits a transform over `points` (the ViTri positions to index).
  /// `margin_factor` controls how far beyond the variance segment the
  /// optimal reference point is placed, as a fraction of the segment
  /// length (any value > 0 satisfies Theorem 1).
  static Result<OneDimensionalTransform> Fit(
      const std::vector<linalg::Vec>& points, ReferencePointKind kind,
      double margin_factor = 0.25);

  ReferencePointKind kind() const { return kind_; }
  const linalg::Vec& reference_point() const { return reference_; }

  /// The transformation: key = d(point, O').
  double Key(linalg::VecView point) const;

  /// Keys of many points.
  std::vector<double> Keys(const std::vector<linalg::Vec>& points) const;

  /// Variance of keys over a point set — the quantity Theorem 1
  /// maximizes; used by tests and the fig17 ablation.
  double KeyVariance(const std::vector<linalg::Vec>& points) const;

  /// For kOptimal fits: the angle (radians) between the fit's first
  /// principal component and the first component of a fresh PCA over
  /// `points`. Drives the Section 6.3.3 rebuild policy. Returns 0 for
  /// non-optimal kinds.
  Result<double> DriftAngle(const std::vector<linalg::Vec>& points) const;

 private:
  OneDimensionalTransform() = default;

  ReferencePointKind kind_ = ReferencePointKind::kOptimal;
  linalg::Vec reference_;
  std::optional<linalg::Pca> pca_;
};

}  // namespace vitri::core

#endif  // VITRI_CORE_TRANSFORM_H_
