#ifndef VITRI_CORE_SIMILARITY_H_
#define VITRI_CORE_SIMILARITY_H_

#include <vector>

#include "core/vitri.h"
#include "video/video.h"

namespace vitri::core {

/// Which of the paper's four geometric configurations (Section 4.2) a
/// ViTri pair falls into.
enum class OverlapCase {
  kDisjoint = 1,       // d >= R1 + R2
  kPartialShallow = 2, // R2 <= d < R1 + R2 (two sub-hemisphere caps)
  kPartialDeep = 3,    // R1 - R2 <= d < R2 (one cap exceeds a hemisphere)
  kContained = 4,      // d < R1 - R2
};

/// Classifies a pair by center distance d and radii (r1 >= r2 after an
/// internal swap), mirroring the paper's case analysis. Degenerate
/// boundaries resolve to the lower-numbered case.
OverlapCase ClassifyOverlap(double d, double r1, double r2);

/// Estimated number of similar frames shared by two clusters:
/// V_intersection * min(D1, D2), evaluated as
/// |C_sparse| * V_int / V_sphere(R_sparse) so it is numerically stable
/// in any dimension (see DESIGN.md). Zero when the balls are disjoint;
/// the disjointness test compares squared distances against squared
/// radii sums, so no sqrt is paid for non-intersecting pairs.
double EstimatedSharedFrames(const ViTri& a, const ViTri& b);

/// As above, with the squared center distance already in hand — the KNN
/// refinement path computes center distances for a whole candidate with
/// one batch-kernel call (linalg::SquaredDistanceBatch) and feeds them
/// here. `squared_distance` must equal
/// linalg::SquaredDistance(a.position, b.position).
double EstimatedSharedFrames(const ViTri& a, const ViTri& b,
                             double squared_distance);

/// Estimated video similarity from two ViTri summaries:
/// sim ~= 2 * sum_ij shared(a_i, b_j) / (|X| + |Y|), clamped to [0, 1].
/// `frames_a` / `frames_b` are the sequences' frame counts.
double EstimatedVideoSimilarity(const std::vector<ViTri>& a,
                                const std::vector<ViTri>& b,
                                uint32_t frames_a, uint32_t frames_b);

/// The exact frame-level similarity of Section 3.1:
/// (|{x in X : exists y, d(x,y) <= eps}| + |{y in Y : exists x}|) /
/// (|X| + |Y|). O(|X| |Y| n) — ground truth only.
double ExactVideoSimilarity(const video::VideoSequence& x,
                            const video::VideoSequence& y, double epsilon);

/// Per-frame nearest-neighbor distances between two sequences:
/// x_nearest[i] = min_j d(x_i, y_j) and symmetrically. One O(|X||Y| n)
/// pass that lets harnesses evaluate ExactVideoSimilarity for many
/// epsilon values cheaply (the ground truth of Figs 14/15 sweeps).
struct NearestDistances {
  std::vector<double> x_nearest;
  std::vector<double> y_nearest;
};
NearestDistances ComputeNearestDistances(const video::VideoSequence& x,
                                         const video::VideoSequence& y);

/// Section 3.1 similarity from precomputed nearest distances.
double SimilarityFromNearest(const NearestDistances& nearest,
                             double epsilon);

}  // namespace vitri::core

#endif  // VITRI_CORE_SIMILARITY_H_
