#include "core/transform.h"

#include <algorithm>
#include <cmath>

namespace vitri::core {

const char* ReferencePointKindName(ReferencePointKind kind) {
  switch (kind) {
    case ReferencePointKind::kSpaceCenter:
      return "space-center";
    case ReferencePointKind::kDataCenter:
      return "data-center";
    case ReferencePointKind::kOptimal:
      return "optimal";
  }
  return "?";
}

Result<OneDimensionalTransform> OneDimensionalTransform::Fit(
    const std::vector<linalg::Vec>& points, ReferencePointKind kind,
    double margin_factor) {
  if (points.empty()) {
    return Status::InvalidArgument("transform needs at least one point");
  }
  if (margin_factor <= 0.0) {
    return Status::InvalidArgument("margin_factor must be positive");
  }
  const size_t dim = points[0].size();

  OneDimensionalTransform t;
  t.kind_ = kind;
  switch (kind) {
    case ReferencePointKind::kSpaceCenter:
      // The domain is the unit hypercube of normalized histograms.
      t.reference_.assign(dim, 0.5);
      break;
    case ReferencePointKind::kDataCenter:
      t.reference_ = linalg::Mean(points);
      break;
    case ReferencePointKind::kOptimal: {
      VITRI_ASSIGN_OR_RETURN(linalg::Pca pca, linalg::Pca::Fit(points));
      const linalg::VecView phi1 = pca.Component(0);
      const linalg::VarianceSegment& seg = pca.Segment(0);
      // Shift the data center along phi1 until its projection sits
      // `margin` beyond the lower end of the variance segment. Any
      // exterior point on phi1's line is optimal (Theorem 1); the
      // margin keeps it strictly outside under floating-point noise.
      const double margin =
          std::max(seg.length() * margin_factor, 1e-6);
      const double center_proj = linalg::Dot(pca.mean(), phi1);
      const double target_proj = seg.lo - margin;
      t.reference_ =
          linalg::Axpy(pca.mean(), target_proj - center_proj, phi1);
      t.pca_ = std::move(pca);
      break;
    }
  }
  return t;
}

double OneDimensionalTransform::Key(linalg::VecView point) const {
  return linalg::Distance(point, reference_);
}

std::vector<double> OneDimensionalTransform::Keys(
    const std::vector<linalg::Vec>& points) const {
  std::vector<double> keys;
  keys.reserve(points.size());
  for (const linalg::Vec& p : points) keys.push_back(Key(p));
  return keys;
}

double OneDimensionalTransform::KeyVariance(
    const std::vector<linalg::Vec>& points) const {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const linalg::Vec& p : points) {
    const double k = Key(p);
    sum += k;
    sum_sq += k * k;
  }
  const double n = static_cast<double>(points.size());
  const double mean = sum / n;
  return std::max(0.0, sum_sq / n - mean * mean);
}

Result<double> OneDimensionalTransform::DriftAngle(
    const std::vector<linalg::Vec>& points) const {
  if (!pca_.has_value()) return 0.0;
  VITRI_ASSIGN_OR_RETURN(linalg::Pca fresh, linalg::Pca::Fit(points));
  return pca_->FirstComponentAngle(fresh);
}

std::vector<KeyRange> ComposeKeyRanges(std::vector<KeyRange> ranges) {
  // Drop every range that is not provably well-formed. The predicate is
  // deliberately !(lo <= hi) rather than lo > hi: a NaN endpoint fails
  // both comparisons, so the old form kept NaN ranges, which then broke
  // std::sort's strict-weak-ordering contract below (UB — found by the
  // query_compose fuzz target). ±inf endpoints still pass.
  std::erase_if(ranges, [](const KeyRange& r) { return !(r.lo <= r.hi); });
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) {
              return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
            });
  std::vector<KeyRange> merged;
  merged.reserve(ranges.size());
  for (const KeyRange& r : ranges) {
    if (!merged.empty() && r.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

}  // namespace vitri::core
