#include "core/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/hypersphere.h"
#include "linalg/frame_matrix.h"
#include "linalg/kernels.h"
#include "linalg/vec.h"

namespace vitri::core {

OverlapCase ClassifyOverlap(double d, double r1, double r2) {
  if (r1 < r2) std::swap(r1, r2);
  if (d >= r1 + r2) return OverlapCase::kDisjoint;
  if (d < r1 - r2) return OverlapCase::kContained;
  if (d >= r2) return OverlapCase::kPartialShallow;
  return OverlapCase::kPartialDeep;
}

double EstimatedSharedFrames(const ViTri& a, const ViTri& b) {
  return EstimatedSharedFrames(
      a, b, linalg::SquaredDistance(a.position, b.position));
}

double EstimatedSharedFrames(const ViTri& a, const ViTri& b,
                             double squared_distance) {
  const int n = a.dimension();
  // Disjointness is decided on squared distances — the common case in a
  // range scan — so the sqrt is only paid when the balls may actually
  // intersect and the lens geometry needs a true distance. Strictly
  // beyond the summed radii every case of IntersectBalls is disjoint
  // (point clusters included); the d == reach boundary falls through to
  // IntersectBalls, whose case analysis owns the tie-breaks.
  const double reach = a.radius + b.radius;
  if (squared_distance > reach * reach) return 0.0;
  const double d = std::sqrt(squared_distance);
  const geometry::BallIntersection lens =
      geometry::IntersectBalls(n, d, a.radius, b.radius);
  if (lens.disjoint) return 0.0;

  // min(D1, D2) * V_int, with densities compared in log space. A point
  // cluster (radius 0) has infinite density, so the other side is the
  // sparser one; its contribution over a zero-volume lens is zero unless
  // containment gives the point cluster's frames directly.
  const double log_da = a.LogDensity();
  const double log_db = b.LogDensity();
  const ViTri& sparse = (log_da <= log_db) ? a : b;

  if (sparse.radius <= 0.0) {
    // Both are point clusters at distance ~0: they coincide; every frame
    // of the smaller cluster is shared.
    return static_cast<double>(std::min(a.cluster_size, b.cluster_size));
  }

  // shared = D_sparse * V_int = |C_sparse| * V_int / V(R_sparse).
  const double log_ratio =
      lens.log_volume - geometry::LogBallVolume(n, sparse.radius);
  const double ratio = std::exp(std::min(log_ratio, 0.0));
  return static_cast<double>(sparse.cluster_size) * ratio;
}

double EstimatedVideoSimilarity(const std::vector<ViTri>& a,
                                const std::vector<ViTri>& b,
                                uint32_t frames_a, uint32_t frames_b) {
  if (frames_a == 0 || frames_b == 0) return 0.0;
  double shared = 0.0;
  for (const ViTri& va : a) {
    for (const ViTri& vb : b) {
      shared += EstimatedSharedFrames(va, vb);
    }
  }
  // Each operand is widened before the sum: two u32 counts wrap.
  const double sim = 2.0 * shared / (static_cast<double>(frames_a) +
                                     static_cast<double>(frames_b));
  return std::clamp(sim, 0.0, 1.0);
}

NearestDistances ComputeNearestDistances(const video::VideoSequence& x,
                                         const video::VideoSequence& y) {
  NearestDistances out;
  out.x_nearest.assign(x.frames.size(),
                       std::numeric_limits<double>::infinity());
  out.y_nearest.assign(y.frames.size(),
                       std::numeric_limits<double>::infinity());
  // Stream y's frames from one contiguous buffer: every x frame makes a
  // full pass, so the O(|X| |Y| n) inner product of this ground-truth
  // pass is the batch kernel's ideal shape. Each pair's value is
  // bit-identical to the per-pair kernel.
  const linalg::FrameMatrix y_rows = linalg::FrameMatrix::FromRows(y.frames);
  std::vector<double> row(y.frames.size());
  for (size_t i = 0; i < x.frames.size(); ++i) {
    linalg::SquaredDistanceBatch(x.frames[i], y_rows, row);
    for (size_t j = 0; j < y.frames.size(); ++j) {
      out.x_nearest[i] = std::min(out.x_nearest[i], row[j]);
      out.y_nearest[j] = std::min(out.y_nearest[j], row[j]);
    }
  }
  for (double& d : out.x_nearest) d = std::sqrt(d);
  for (double& d : out.y_nearest) d = std::sqrt(d);
  return out;
}

double SimilarityFromNearest(const NearestDistances& nearest,
                             double epsilon) {
  if (nearest.x_nearest.empty() || nearest.y_nearest.empty()) return 0.0;
  size_t matched = 0;
  for (double d : nearest.x_nearest) matched += d <= epsilon ? 1 : 0;
  for (double d : nearest.y_nearest) matched += d <= epsilon ? 1 : 0;
  return static_cast<double>(matched) /
         static_cast<double>(nearest.x_nearest.size() +
                             nearest.y_nearest.size());
}

double ExactVideoSimilarity(const video::VideoSequence& x,
                            const video::VideoSequence& y, double epsilon) {
  if (x.frames.empty() || y.frames.empty()) return 0.0;
  const double eps_sq = epsilon * epsilon;
  size_t matched_x = 0;
  std::vector<bool> y_matched(y.frames.size(), false);
  const linalg::FrameMatrix y_rows = linalg::FrameMatrix::FromRows(y.frames);
  for (const linalg::Vec& fx : x.frames) {
    bool found = false;
    // No early exit over j: every matching y frame must be marked so the
    // second summand of the Section 3.1 formula is exact. Each pair's
    // scan, however, abandons as soon as its partial sum clears eps^2 —
    // exact for a d^2 <= eps^2 test, since the partial sum is monotone.
    for (size_t j = 0; j < y.frames.size(); ++j) {
      if (linalg::SquaredDistanceBounded(fx, y_rows.Row(j), eps_sq) <=
          eps_sq) {
        found = true;
        y_matched[j] = true;
      }
    }
    if (found) ++matched_x;
  }
  size_t matched_y = 0;
  for (bool m : y_matched) matched_y += m ? 1 : 0;
  return static_cast<double>(matched_x + matched_y) /
         static_cast<double>(x.frames.size() + y.frames.size());
}

}  // namespace vitri::core
