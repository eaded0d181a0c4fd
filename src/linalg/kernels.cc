#include "linalg/kernels.h"

#include <atomic>
#include <cassert>
#include <limits>

#include "common/simd_policy.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define VITRI_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace vitri::linalg {
namespace {

// ---------------------------------------------------------------------
// Scalar backend. These loops are byte-for-byte the original naive
// implementations from linalg/vec.cc: strictly sequential accumulation,
// no FMA contraction relied upon. The `simd-off` CI leg pins query
// results to this backend, so its summation order must never change.
// ---------------------------------------------------------------------

double DotScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredDistanceScalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

double SquaredDistanceBoundedScalar(const double* a, const double* b,
                                    size_t n, double threshold) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
    if (sum > threshold) return sum;
  }
  return sum;
}

void SquaredDistanceBatchScalar(const double* q, const double* rows,
                                size_t num_rows, size_t dim, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = SquaredDistanceScalar(q, rows + r * dim, dim);
  }
}

constexpr KernelOps kScalarOps = {
    &DotScalar,
    &SquaredDistanceScalar,
    &SquaredDistanceBoundedScalar,
    &SquaredDistanceBatchScalar,
};

#if VITRI_KERNELS_X86

// ---------------------------------------------------------------------
// SSE2 backend (baseline on x86-64). Two 128-bit accumulators hide the
// add latency; element pairs (i, i+1) feed acc0 and (i+2, i+3) feed
// acc1. The bounded variant uses the *same* accumulator assignment so
// a non-abandoned result is bit-identical to the unbounded kernel.
// ---------------------------------------------------------------------

inline double HSum128(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_add_sd(v, hi));
}

double DotSse2(const double* a, const double* b, size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_pd(
        acc0, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc1 = _mm_add_pd(
        acc1, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  double sum = HSum128(_mm_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double SquaredDistanceSse2(const double* a, const double* b, size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d0 =
        _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    const __m128d d1 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  double sum = HSum128(_mm_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

double SquaredDistanceBoundedSse2(const double* a, const double* b,
                                  size_t n, double threshold) {
  // Partial sums of squares are monotone under floating-point addition
  // of non-negative terms, so checking the reduced prefix every 16
  // elements gives exact abandonment at ~3% reduction overhead.
  constexpr size_t kCheckStride = 16;
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  size_t i = 0;
  size_t next_check = kCheckStride;
  for (; i + 4 <= n; i += 4) {
    const __m128d d0 =
        _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    const __m128d d1 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
    if (i + 4 >= next_check) {
      const double partial = HSum128(_mm_add_pd(acc0, acc1));
      if (partial > threshold) return partial;
      next_check += kCheckStride;
    }
  }
  double sum = HSum128(_mm_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
    if (sum > threshold) return sum;
  }
  return sum;
}

// One-to-many: two rows per pass share the query loads and run two
// independent accumulator chains, hiding the horizontal-reduction
// latency that dominates short per-row kernels. Each row's elements
// feed acc0/acc1 in exactly the per-pair order, so out[r] stays
// bit-identical to SquaredDistanceSse2 on that row.
void SquaredDistanceBatchSse2(const double* q, const double* rows,
                              size_t num_rows, size_t dim, double* out) {
  size_t r = 0;
  for (; r + 2 <= num_rows; r += 2) {
    const double* b0 = rows + r * dim;
    const double* b1 = b0 + dim;
    __m128d a0 = _mm_setzero_pd();
    __m128d a1 = _mm_setzero_pd();
    __m128d c0 = _mm_setzero_pd();
    __m128d c1 = _mm_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
      const __m128d q0 = _mm_loadu_pd(q + i);
      const __m128d q1 = _mm_loadu_pd(q + i + 2);
      const __m128d d0 = _mm_sub_pd(q0, _mm_loadu_pd(b0 + i));
      const __m128d d1 = _mm_sub_pd(q1, _mm_loadu_pd(b0 + i + 2));
      a0 = _mm_add_pd(a0, _mm_mul_pd(d0, d0));
      a1 = _mm_add_pd(a1, _mm_mul_pd(d1, d1));
      const __m128d e0 = _mm_sub_pd(q0, _mm_loadu_pd(b1 + i));
      const __m128d e1 = _mm_sub_pd(q1, _mm_loadu_pd(b1 + i + 2));
      c0 = _mm_add_pd(c0, _mm_mul_pd(e0, e0));
      c1 = _mm_add_pd(c1, _mm_mul_pd(e1, e1));
    }
    double s0 = HSum128(_mm_add_pd(a0, a1));
    double s1 = HSum128(_mm_add_pd(c0, c1));
    for (; i < dim; ++i) {
      const double diff0 = q[i] - b0[i];
      s0 += diff0 * diff0;
      const double diff1 = q[i] - b1[i];
      s1 += diff1 * diff1;
    }
    out[r] = s0;
    out[r + 1] = s1;
  }
  if (r < num_rows) out[r] = SquaredDistanceSse2(q, rows + r * dim, dim);
}

constexpr KernelOps kSse2Ops = {
    &DotSse2,
    &SquaredDistanceSse2,
    &SquaredDistanceBoundedSse2,
    &SquaredDistanceBatchSse2,
};

// ---------------------------------------------------------------------
// AVX2 + FMA backend. Compiled via target attributes so a single TU
// holds every backend (all build presets — including sanitize/tsan —
// therefore compile and, on capable hardware, execute the intrinsics
// paths). Four-element blocks alternate between two 256-bit FMA
// accumulators; bounded shares the assignment, as above.
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) inline double HSum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

__attribute__((target("avx2,fma"))) double DotAvx2(const double* a,
                                                   const double* b,
                                                   size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double sum = HSum256(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) double SquaredDistanceAvx2(
    const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                     _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
  }
  double sum = HSum256(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double SquaredDistanceBoundedAvx2(
    const double* a, const double* b, size_t n, double threshold) {
  constexpr size_t kCheckStride = 32;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  size_t next_check = kCheckStride;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                     _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
    if (i + 8 >= next_check) {
      const double partial = HSum256(_mm256_add_pd(acc0, acc1));
      if (partial > threshold) return partial;
      next_check += kCheckStride;
    }
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
  }
  double sum = HSum256(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
    if (sum > threshold) return sum;
  }
  return sum;
}

// Four-rows-per-pass batch; same rationale and bit-parity argument as
// the SSE2 variant (per-row acc0/acc1 assignment matches
// SquaredDistanceAvx2 exactly, including the 4-wide remainder and the
// scalar tail). Four independent row streams keep enough loads in
// flight to saturate memory bandwidth when the matrix spills the L2.
__attribute__((target("avx2,fma"))) void SquaredDistanceBatchAvx2(
    const double* q, const double* rows, size_t num_rows, size_t dim,
    double* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const double* b0 = rows + r * dim;
    const double* b1 = b0 + dim;
    const double* b2 = b1 + dim;
    const double* b3 = b2 + dim;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d c0 = _mm256_setzero_pd();
    __m256d c1 = _mm256_setzero_pd();
    __m256d e0 = _mm256_setzero_pd();
    __m256d e1 = _mm256_setzero_pd();
    __m256d f0 = _mm256_setzero_pd();
    __m256d f1 = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m256d q0 = _mm256_loadu_pd(q + i);
      const __m256d q1 = _mm256_loadu_pd(q + i + 4);
      __m256d d = _mm256_sub_pd(q0, _mm256_loadu_pd(b0 + i));
      a0 = _mm256_fmadd_pd(d, d, a0);
      d = _mm256_sub_pd(q1, _mm256_loadu_pd(b0 + i + 4));
      a1 = _mm256_fmadd_pd(d, d, a1);
      d = _mm256_sub_pd(q0, _mm256_loadu_pd(b1 + i));
      c0 = _mm256_fmadd_pd(d, d, c0);
      d = _mm256_sub_pd(q1, _mm256_loadu_pd(b1 + i + 4));
      c1 = _mm256_fmadd_pd(d, d, c1);
      d = _mm256_sub_pd(q0, _mm256_loadu_pd(b2 + i));
      e0 = _mm256_fmadd_pd(d, d, e0);
      d = _mm256_sub_pd(q1, _mm256_loadu_pd(b2 + i + 4));
      e1 = _mm256_fmadd_pd(d, d, e1);
      d = _mm256_sub_pd(q0, _mm256_loadu_pd(b3 + i));
      f0 = _mm256_fmadd_pd(d, d, f0);
      d = _mm256_sub_pd(q1, _mm256_loadu_pd(b3 + i + 4));
      f1 = _mm256_fmadd_pd(d, d, f1);
    }
    for (; i + 4 <= dim; i += 4) {
      const __m256d q0 = _mm256_loadu_pd(q + i);
      __m256d d = _mm256_sub_pd(q0, _mm256_loadu_pd(b0 + i));
      a0 = _mm256_fmadd_pd(d, d, a0);
      d = _mm256_sub_pd(q0, _mm256_loadu_pd(b1 + i));
      c0 = _mm256_fmadd_pd(d, d, c0);
      d = _mm256_sub_pd(q0, _mm256_loadu_pd(b2 + i));
      e0 = _mm256_fmadd_pd(d, d, e0);
      d = _mm256_sub_pd(q0, _mm256_loadu_pd(b3 + i));
      f0 = _mm256_fmadd_pd(d, d, f0);
    }
    double s0 = HSum256(_mm256_add_pd(a0, a1));
    double s1 = HSum256(_mm256_add_pd(c0, c1));
    double s2 = HSum256(_mm256_add_pd(e0, e1));
    double s3 = HSum256(_mm256_add_pd(f0, f1));
    for (; i < dim; ++i) {
      const double diff0 = q[i] - b0[i];
      s0 += diff0 * diff0;
      const double diff1 = q[i] - b1[i];
      s1 += diff1 * diff1;
      const double diff2 = q[i] - b2[i];
      s2 += diff2 * diff2;
      const double diff3 = q[i] - b3[i];
      s3 += diff3 * diff3;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < num_rows; ++r) {
    out[r] = SquaredDistanceAvx2(q, rows + r * dim, dim);
  }
}

constexpr KernelOps kAvx2Ops = {
    &DotAvx2,
    &SquaredDistanceAvx2,
    &SquaredDistanceBoundedAvx2,
    &SquaredDistanceBatchAvx2,
};

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // VITRI_KERNELS_X86

// Process-wide backend. -1 = not yet resolved; resolution happens once,
// on first use, from the CPU and the SIMD policy (common/simd_policy.h),
// and the chosen backend is then fixed for the life of the process.
std::atomic<int> g_backend{-1};

}  // namespace

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kSse2:
      return "sse2";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelBackendAvailable(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
#if VITRI_KERNELS_X86
    case KernelBackend::kSse2:
      return true;  // Baseline on x86-64.
    case KernelBackend::kAvx2:
      return CpuHasAvx2Fma();
#else
    case KernelBackend::kSse2:
    case KernelBackend::kAvx2:
      return false;
#endif
  }
  return false;
}

const KernelOps& KernelOpsFor(KernelBackend backend) {
  assert(KernelBackendAvailable(backend));
  switch (backend) {
    case KernelBackend::kScalar:
      return kScalarOps;
#if VITRI_KERNELS_X86
    case KernelBackend::kSse2:
      return kSse2Ops;
    case KernelBackend::kAvx2:
      return kAvx2Ops;
#else
    case KernelBackend::kSse2:
    case KernelBackend::kAvx2:
      break;
#endif
  }
  return kScalarOps;
}

KernelBackend ResolveKernelBackend(bool disable_simd) {
  if (disable_simd) return KernelBackend::kScalar;
  if (KernelBackendAvailable(KernelBackend::kAvx2)) {
    return KernelBackend::kAvx2;
  }
  if (KernelBackendAvailable(KernelBackend::kSse2)) {
    return KernelBackend::kSse2;
  }
  return KernelBackend::kScalar;
}

KernelBackend ActiveKernelBackend() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    // Concurrent first uses resolve to the same value, so the race is
    // benign.
    b = static_cast<int>(ResolveKernelBackend(SimdDisabled()));
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<KernelBackend>(b);
}

const KernelOps& ActiveKernelOps() {
  return KernelOpsFor(ActiveKernelBackend());
}

double SquaredDistanceBounded(VecView a, VecView b, double threshold) {
  assert(a.size() == b.size());
  return ActiveKernelOps().squared_distance_bounded(a.data(), b.data(),
                                                    a.size(), threshold);
}

void SquaredDistanceBatch(const KernelOps& ops, VecView query,
                          const FrameMatrix& frames,
                          std::span<double> out) {
  assert(query.size() == frames.dim() || frames.empty());
  assert(out.size() == frames.num_rows());
  ops.squared_distance_batch(query.data(), frames.data(),
                             frames.num_rows(), frames.dim(), out.data());
}

void SquaredDistanceBatch(VecView query, const FrameMatrix& frames,
                          std::span<double> out) {
  SquaredDistanceBatch(ActiveKernelOps(), query, frames, out);
}

ArgMinResult ArgMinSquaredDistance(const KernelOps& ops, VecView query,
                                   const FrameMatrix& rows,
                                   bool early_abandon) {
  assert(rows.num_rows() > 0);
  assert(query.size() == rows.dim());
  const size_t dim = rows.dim();
  const double* base = rows.data();
  const size_t n = rows.num_rows();
  ArgMinResult best;
  best.squared_distance = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < n; ++r) {
    const double d =
        early_abandon
            ? ops.squared_distance_bounded(query.data(), base + r * dim,
                                           dim, best.squared_distance)
            : ops.squared_distance(query.data(), base + r * dim, dim);
    if (d < best.squared_distance) {
      best.squared_distance = d;
      best.index = r;
    }
  }
  return best;
}

ArgMinResult ArgMinSquaredDistance(VecView query, const FrameMatrix& rows,
                                   bool early_abandon) {
  return ArgMinSquaredDistance(ActiveKernelOps(), query, rows,
                               early_abandon);
}

}  // namespace vitri::linalg
