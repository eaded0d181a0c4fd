#include "core/validate.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/hypersphere.h"

namespace vitri::core {

namespace {

Status Violation(const std::string& what) {
  return Status::Internal("ViTri invariant violated: " + what);
}

// Tolerance for comparisons on derived floating-point quantities.
constexpr double kTolerance = 1e-9;

}  // namespace

Status ValidateViTri(const ViTri& vitri, int dimension, double epsilon) {
  if (vitri.dimension() != dimension) {
    return Violation("ViTri of video " + std::to_string(vitri.video_id) +
                     " has dimension " + std::to_string(vitri.dimension()) +
                     ", expected " + std::to_string(dimension));
  }
  if (vitri.cluster_size == 0) {
    return Violation("ViTri of video " + std::to_string(vitri.video_id) +
                     " summarizes an empty cluster");
  }
  if (!std::isfinite(vitri.radius) || vitri.radius < 0.0) {
    return Violation("ViTri of video " + std::to_string(vitri.video_id) +
                     " has a non-finite or negative radius");
  }
  if (epsilon > 0.0 && vitri.radius > epsilon / 2.0 + kTolerance) {
    return Violation(
        "ViTri of video " + std::to_string(vitri.video_id) + " has radius " +
        std::to_string(vitri.radius) +
        " above the refinement cap epsilon / 2 = " +
        std::to_string(epsilon / 2.0));
  }
  for (int i = 0; i < dimension; ++i) {
    if (!std::isfinite(vitri.position[i])) {
      return Violation("ViTri of video " + std::to_string(vitri.video_id) +
                       " has a non-finite position coordinate " +
                       std::to_string(i));
    }
  }
  // Density is derived from (|C|, R); re-derive it and demand agreement.
  const double log_density = vitri.LogDensity();
  if (vitri.radius == 0.0) {
    if (!(std::isinf(log_density) && log_density > 0.0)) {
      return Violation("point cluster of video " +
                       std::to_string(vitri.video_id) +
                       " must have +infinite log-density");
    }
  } else {
    const double expected =
        std::log(static_cast<double>(vitri.cluster_size)) -
        geometry::LogBallVolume(dimension, vitri.radius);
    if (!std::isfinite(log_density) ||
        std::abs(log_density - expected) > kTolerance) {
      return Violation("log-density of a ViTri of video " +
                       std::to_string(vitri.video_id) +
                       " disagrees with log|C| - log V_sphere(O, R)");
    }
  }
  return Status::OK();
}

Status ValidateViTriSet(const ViTriSet& set,
                        const ViTriCheckOptions& options) {
  if (set.dimension <= 0) {
    return Violation("ViTriSet dimension must be positive");
  }
  std::vector<uint64_t> clustered_frames(set.frame_counts.size(), 0);
  for (const ViTri& vitri : set.vitris) {
    VITRI_RETURN_IF_ERROR(
        ValidateViTri(vitri, set.dimension, options.epsilon));
    if (vitri.video_id >= set.frame_counts.size()) {
      return Violation("ViTri references video " +
                       std::to_string(vitri.video_id) +
                       " beyond the frame-count table (" +
                       std::to_string(set.frame_counts.size()) + " videos)");
    }
    if (vitri.cluster_size > set.frame_counts[vitri.video_id]) {
      return Violation(
          "video " + std::to_string(vitri.video_id) + " has a cluster of " +
          std::to_string(vitri.cluster_size) + " frames but only " +
          std::to_string(set.frame_counts[vitri.video_id]) + " in total");
    }
    clustered_frames[vitri.video_id] += vitri.cluster_size;
  }
  if (options.check_frame_accounting) {
    for (size_t vid = 0; vid < set.frame_counts.size(); ++vid) {
      if (clustered_frames[vid] != set.frame_counts[vid]) {
        return Violation("video " + std::to_string(vid) + " has " +
                         std::to_string(set.frame_counts[vid]) +
                         " frames but its clusters account for " +
                         std::to_string(clustered_frames[vid]));
      }
    }
  }
  return Status::OK();
}

Status ValidateSnapshotRoundTrip(const ViTriSet& set) {
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> again;
  for (size_t i = 0; i < set.vitris.size(); ++i) {
    set.vitris[i].Serialize(&bytes);
    auto parsed = ViTri::Deserialize(bytes, set.dimension);
    if (!parsed.ok()) {
      return Violation("ViTri " + std::to_string(i) +
                       " does not deserialize from its own serialization: " +
                       parsed.status().ToString());
    }
    parsed->Serialize(&again);
    if (bytes != again) {
      return Violation("ViTri " + std::to_string(i) +
                       " does not survive a serialization round trip");
    }
  }
  return Status::OK();
}

Status CheckInsertVideoIds(uint32_t video_id,
                           const std::vector<ViTri>& vitris) {
  for (const ViTri& v : vitris) {
    if (v.video_id != video_id) {
      return Status::InvalidArgument(
          "insert for video " + std::to_string(video_id) +
          " carries a ViTri of video " + std::to_string(v.video_id));
    }
  }
  return Status::OK();
}

Status CheckQueryViTris(const std::vector<ViTri>& query, int dimension) {
  if (query.empty()) {
    return Status::InvalidArgument("query summary is empty");
  }
  for (size_t i = 0; i < query.size(); ++i) {
    const ViTri& v = query[i];
    auto reject = [i](const std::string& what) {
      return Status::InvalidArgument("query ViTri " + std::to_string(i) +
                                     " " + what);
    };
    if (v.dimension() != dimension) {
      return reject("has dimension " + std::to_string(v.dimension()) +
                    ", the index has " + std::to_string(dimension));
    }
    if (!std::isfinite(v.radius) || v.radius < 0.0) {
      return reject("has a non-finite or negative radius");
    }
    for (const double x : v.position) {
      if (!std::isfinite(x)) {
        return reject("has a non-finite position coordinate");
      }
    }
  }
  return Status::OK();
}

}  // namespace vitri::core
