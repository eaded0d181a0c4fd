#ifndef VITRI_LINALG_KERNELS_H_
#define VITRI_LINALG_KERNELS_H_

#include <cstddef>
#include <span>

#include "linalg/frame_matrix.h"
#include "linalg/vec.h"

namespace vitri::linalg {

/// Runtime-dispatched distance kernels.
///
/// Every hot path in the system — 2-means bisection during ViTri
/// summarization, ViTri similarity, ground-truth frame matching, KNN
/// refinement — bottoms out in a Euclidean distance over doubles. This
/// layer provides one audited implementation per instruction set and
/// selects a backend *once per process*:
///
///   * kAvx2   — 256-bit FMA kernels (requires AVX2 + FMA),
///   * kSse2   — 128-bit kernels (baseline on x86-64),
///   * kScalar — portable loop, bit-identical to the original naive
///               implementation (the determinism anchor).
///
/// Selection happens at first use via CPUID, picking the widest
/// available backend. The process-wide SIMD policy (common/simd_policy.h:
/// `VITRI_DISABLE_SIMD=1`, or `DisableSimd()` at startup from the CLI's
/// `--no-simd`) pins the scalar backend, and the CRC-32C's table loop
/// with it. The backend is fixed for the life of the process, so
/// all floating-point results — and therefore query answers, snapshots,
/// and the BatchKnn determinism contract of DESIGN.md §10 — are
/// reproducible for a given backend. Different backends may differ in
/// the last ULPs (FMA and lane-wise summation reassociate the
/// reduction); see DESIGN.md §11 for the exact contract.

enum class KernelBackend {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Raw kernel entry points for one backend. `n` is the element count;
/// pointers may be null when n == 0. All kernels tolerate unaligned
/// input (frames live in std::vector<double> buffers).
struct KernelOps {
  double (*dot)(const double* a, const double* b, size_t n);
  double (*squared_distance)(const double* a, const double* b, size_t n);
  /// Early-abandoning squared distance: accumulates the (monotone)
  /// partial sum of squared differences and returns as soon as it
  /// exceeds `threshold`. Guarantees:
  ///   * if the return value is <= threshold, it is *exactly* the value
  ///     squared_distance() would return (same summation order);
  ///   * if it aborted early, the returned partial sum is > threshold,
  ///     and the full sum is >= the returned value — so comparisons
  ///     against `threshold` are exact, never a false abandon.
  double (*squared_distance_bounded)(const double* a, const double* b,
                                     size_t n, double threshold);
  /// One-to-many: out[r] = squared_distance(q, rows + r*dim, dim) for
  /// r in [0, num_rows). `rows` is a contiguous row-major block (a
  /// FrameMatrix). SIMD backends interleave several rows per pass to
  /// reuse query loads and hide reduction latency, but each row's
  /// accumulation order matches the per-pair kernel, so out[r] is
  /// bit-identical to calling squared_distance on that row.
  void (*squared_distance_batch)(const double* q, const double* rows,
                                 size_t num_rows, size_t dim, double* out);
};

/// Human-readable backend name ("scalar", "sse2", "avx2").
const char* KernelBackendName(KernelBackend backend);

/// Whether this build/CPU can run `backend`.
bool KernelBackendAvailable(KernelBackend backend);

/// Kernel table for an explicitly chosen backend (tests and benches
/// compare backends this way without touching process-global dispatch).
/// The backend must be available.
const KernelOps& KernelOpsFor(KernelBackend backend);

/// The process-wide backend: widest available, unless SIMD is disabled
/// (common/simd_policy.h).
KernelBackend ActiveKernelBackend();

/// Kernel table for the process-wide backend.
const KernelOps& ActiveKernelOps();

/// Backend-selection policy, exposed for tests: what the process would
/// pick given the CPU and the `disable_simd` override.
KernelBackend ResolveKernelBackend(bool disable_simd);

/// Early-abandoning squared distance over the active backend; see
/// KernelOps::squared_distance_bounded for the exactness contract.
/// Use for membership tests (d^2 <= eps^2) and running-minimum loops —
/// never take a sqrt just to compare.
double SquaredDistanceBounded(VecView a, VecView b, double threshold);

/// One-to-many kernel: out[i] = SquaredDistance(query, frames.Row(i)).
/// Row i's value is bit-identical to the per-pair kernel on the same
/// backend. Requires out.size() == frames.num_rows() and
/// query.size() == frames.dim().
void SquaredDistanceBatch(VecView query, const FrameMatrix& frames,
                          std::span<double> out);
void SquaredDistanceBatch(const KernelOps& ops, VecView query,
                          const FrameMatrix& frames, std::span<double> out);

/// Index and squared distance of the row nearest to `query`. Ties keep
/// the lowest index. With `early_abandon` (the default) each row's scan
/// aborts once it cannot beat the running best; the result — index and
/// distance bits — is identical either way (see the bounded-kernel
/// contract above). Requires rows.num_rows() > 0.
struct ArgMinResult {
  size_t index = 0;
  double squared_distance = 0.0;
};
ArgMinResult ArgMinSquaredDistance(VecView query, const FrameMatrix& rows,
                                   bool early_abandon = true);
ArgMinResult ArgMinSquaredDistance(const KernelOps& ops, VecView query,
                                   const FrameMatrix& rows,
                                   bool early_abandon);

}  // namespace vitri::linalg

#endif  // VITRI_LINALG_KERNELS_H_
