#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/simd_policy.h"
#include "linalg/frame_matrix.h"
#include "linalg/vec.h"

namespace vitri::linalg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<KernelBackend> AvailableBackends() {
  std::vector<KernelBackend> out;
  for (KernelBackend b : {KernelBackend::kScalar, KernelBackend::kSse2,
                          KernelBackend::kAvx2}) {
    if (KernelBackendAvailable(b)) out.push_back(b);
  }
  return out;
}

Vec RandomVec(size_t dim, Rng& rng) {
  Vec v(dim);
  for (double& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

// The seed repository's naive loops, inlined here verbatim: the scalar
// backend must reproduce them bit-for-bit forever (the `simd-off` CI
// leg pins production results to this).
double ReferenceDot(const Vec& a, const Vec& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double ReferenceSquaredDistance(const Vec& a, const Vec& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KernelDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(KernelBackendAvailable(KernelBackend::kScalar));
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kSse2), "sse2");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ActiveBackendIsAvailable) {
  EXPECT_TRUE(KernelBackendAvailable(ActiveKernelBackend()));
}

TEST(KernelDispatchTest, DisableOverridePinsScalar) {
  EXPECT_EQ(ResolveKernelBackend(/*disable_simd=*/true),
            KernelBackend::kScalar);
}

TEST(KernelDispatchTest, ResolutionPrefersWidestAvailable) {
  const KernelBackend resolved = ResolveKernelBackend(false);
  EXPECT_TRUE(KernelBackendAvailable(resolved));
  // Nothing wider than the resolved backend may be available.
  for (KernelBackend b : AvailableBackends()) {
    EXPECT_LE(static_cast<int>(b), static_cast<int>(resolved));
  }
}

TEST(KernelDispatchTest, EnvOverrideRespected) {
  // Under the `simd-off` CI leg (VITRI_DISABLE_SIMD=1) the process must
  // be running the scalar backend; without the env var the resolver
  // decides. Both branches are checked in CI.
  if (SimdDisabled()) {
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  } else {
    EXPECT_EQ(ActiveKernelBackend(), ResolveKernelBackend(false));
  }
}

TEST(KernelParityTest, ScalarBackendMatchesSeedLoopsBitExactly) {
  Rng rng(7);
  const KernelOps& ops = KernelOpsFor(KernelBackend::kScalar);
  for (size_t dim : {1u, 3u, 8u, 17u, 32u, 64u, 127u}) {
    const Vec a = RandomVec(dim, rng);
    const Vec b = RandomVec(dim, rng);
    EXPECT_TRUE(BitEqual(ops.dot(a.data(), b.data(), dim),
                         ReferenceDot(a, b)));
    EXPECT_TRUE(BitEqual(ops.squared_distance(a.data(), b.data(), dim),
                         ReferenceSquaredDistance(a, b)));
  }
}

// Cross-backend parity. Where the summation order matches the scalar
// loop — vector lengths below the SIMD width, handled entirely by the
// scalar tails — results are exact; wider inputs reassociate the
// reduction (and AVX2 contracts into FMAs), so parity is bounded-ULP.
TEST(KernelParityTest, AllBackendsAgreeWithScalar) {
  Rng rng(11);
  const KernelOps& scalar = KernelOpsFor(KernelBackend::kScalar);
  for (KernelBackend backend : AvailableBackends()) {
    const KernelOps& ops = KernelOpsFor(backend);
    for (size_t dim = 1; dim <= 131; ++dim) {
      const Vec a = RandomVec(dim, rng);
      const Vec b = RandomVec(dim, rng);
      const double d_ref = scalar.squared_distance(a.data(), b.data(), dim);
      const double d = ops.squared_distance(a.data(), b.data(), dim);
      const double dot_ref = scalar.dot(a.data(), b.data(), dim);
      const double dot = ops.dot(a.data(), b.data(), dim);
      if (dim < 4) {
        // Entirely the scalar tail: summation order matches exactly.
        EXPECT_TRUE(BitEqual(d, d_ref))
            << KernelBackendName(backend) << " dim " << dim;
        EXPECT_TRUE(BitEqual(dot, dot_ref))
            << KernelBackendName(backend) << " dim " << dim;
      } else {
        const double tol =
            1e-13 * static_cast<double>(dim) * (1.0 + std::abs(d_ref));
        EXPECT_NEAR(d, d_ref, tol)
            << KernelBackendName(backend) << " dim " << dim;
        EXPECT_NEAR(dot, dot_ref,
                    1e-13 * static_cast<double>(dim) *
                        (1.0 + std::abs(dot_ref)))
            << KernelBackendName(backend) << " dim " << dim;
      }
    }
  }
}

TEST(KernelParityTest, VecEntryPointsDispatchToActiveBackend) {
  Rng rng(13);
  const KernelOps& active = ActiveKernelOps();
  const Vec a = RandomVec(96, rng);
  const Vec b = RandomVec(96, rng);
  EXPECT_TRUE(BitEqual(SquaredDistance(a, b),
                       active.squared_distance(a.data(), b.data(), 96)));
  EXPECT_TRUE(BitEqual(Dot(a, b), active.dot(a.data(), b.data(), 96)));
  EXPECT_TRUE(
      BitEqual(Distance(a, b), std::sqrt(SquaredDistance(a, b))));
}

// The bounded kernel's contract, per backend:
//  * infinite threshold  -> never abandons, bit-identical to unbounded;
//  * no abandonment      -> bit-identical to unbounded;
//  * abandonment         -> returned partial sum exceeds the threshold,
//                           and never exceeds the full sum.
TEST(KernelBoundedTest, BoundedNeverLiesAboutTheThreshold) {
  Rng rng(17);
  for (KernelBackend backend : AvailableBackends()) {
    const KernelOps& ops = KernelOpsFor(backend);
    for (int trial = 0; trial < 300; ++trial) {
      const size_t dim = 1 + rng.Index(140);
      const Vec a = RandomVec(dim, rng);
      const Vec b = RandomVec(dim, rng);
      const double full = ops.squared_distance(a.data(), b.data(), dim);
      EXPECT_TRUE(BitEqual(
          ops.squared_distance_bounded(a.data(), b.data(), dim, kInf),
          full))
          << KernelBackendName(backend) << " dim " << dim;

      // Thresholds spanning "abandon almost immediately" to "never".
      const double threshold = full * rng.NextDouble() * 1.5;
      const double bounded = ops.squared_distance_bounded(
          a.data(), b.data(), dim, threshold);
      if (BitEqual(bounded, full)) continue;  // Ran to completion.
      EXPECT_GT(bounded, threshold)
          << KernelBackendName(backend) << " dim " << dim;
      EXPECT_LE(bounded, full)
          << KernelBackendName(backend) << " dim " << dim;
    }
  }
}

// A threshold comparison through the bounded kernel must decide exactly
// like the unbounded kernel: monotone partial sums make early abandons
// conservative, never wrong.
TEST(KernelBoundedTest, ThresholdComparisonsAreExact) {
  Rng rng(19);
  for (KernelBackend backend : AvailableBackends()) {
    const KernelOps& ops = KernelOpsFor(backend);
    for (int trial = 0; trial < 300; ++trial) {
      const size_t dim = 1 + rng.Index(96);
      const Vec a = RandomVec(dim, rng);
      const Vec b = RandomVec(dim, rng);
      const double full = ops.squared_distance(a.data(), b.data(), dim);
      const double threshold = full * (0.5 + rng.NextDouble());
      const bool exact = full <= threshold;
      const bool bounded = ops.squared_distance_bounded(
                               a.data(), b.data(), dim, threshold) <=
                           threshold;
      EXPECT_EQ(exact, bounded)
          << KernelBackendName(backend) << " dim " << dim;
    }
  }
}

TEST(FrameMatrixTest, RoundTripsAgainstVectorOfVecs) {
  Rng rng(23);
  std::vector<Vec> rows;
  for (int i = 0; i < 9; ++i) rows.push_back(RandomVec(17, rng));

  const FrameMatrix m = FrameMatrix::FromRows(rows);
  ASSERT_EQ(m.num_rows(), rows.size());
  ASSERT_EQ(m.dim(), 17u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(m.RowVec(i), rows[i]);
    const VecView view = m.Row(i);
    ASSERT_EQ(view.size(), rows[i].size());
    for (size_t j = 0; j < view.size(); ++j) {
      EXPECT_TRUE(BitEqual(view[j], rows[i][j]));
    }
  }

  FrameMatrix appended;
  for (const Vec& r : rows) appended.AppendRow(r);
  ASSERT_EQ(appended.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(appended.RowVec(i), rows[i]);
  }

  FrameMatrix edited = m;
  const Vec replacement = RandomVec(17, rng);
  edited.SetRow(4, replacement);
  EXPECT_EQ(edited.RowVec(4), replacement);
  EXPECT_EQ(edited.RowVec(3), rows[3]);
}

TEST(FrameMatrixTest, GatherSelectsRowsByIndex) {
  Rng rng(29);
  std::vector<Vec> points;
  for (int i = 0; i < 12; ++i) points.push_back(RandomVec(8, rng));
  const std::vector<uint32_t> indices = {11, 0, 7, 7, 3};
  const FrameMatrix m = FrameMatrix::Gather(points, indices);
  ASSERT_EQ(m.num_rows(), indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(m.RowVec(i), points[indices[i]]);
  }
}

TEST(FrameMatrixTest, EmptyInputsYieldEmptyMatrix) {
  EXPECT_TRUE(FrameMatrix::FromRows({}).empty());
  EXPECT_EQ(FrameMatrix::FromRows({}).num_rows(), 0u);
  EXPECT_TRUE(FrameMatrix::Gather({}, {}).empty());
}

TEST(BatchKernelTest, MatchesPerPairKernelBitExactly) {
  Rng rng(31);
  for (KernelBackend backend : AvailableBackends()) {
    const KernelOps& ops = KernelOpsFor(backend);
    for (size_t dim : {5u, 32u, 64u}) {
      std::vector<Vec> rows;
      for (int i = 0; i < 33; ++i) rows.push_back(RandomVec(dim, rng));
      const FrameMatrix m = FrameMatrix::FromRows(rows);
      const Vec q = RandomVec(dim, rng);

      std::vector<double> out(rows.size());
      SquaredDistanceBatch(ops, q, m, out);
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(BitEqual(
            out[i], ops.squared_distance(q.data(), rows[i].data(), dim)))
            << KernelBackendName(backend) << " row " << i;
      }
    }
  }
}

// Property test backing the k-means migration: the blocked argmin with
// exact early-abandon pruning must assign every point to the same
// centroid — same index, same distance bits — as the exhaustive scan.
TEST(ArgMinTest, EarlyAbandonNeverChangesTheAssignment) {
  Rng rng(37);
  for (KernelBackend backend : AvailableBackends()) {
    const KernelOps& ops = KernelOpsFor(backend);
    for (int trial = 0; trial < 60; ++trial) {
      const size_t dim = 1 + rng.Index(80);
      const size_t k = 1 + rng.Index(12);
      std::vector<Vec> centroids;
      for (size_t c = 0; c < k; ++c) {
        centroids.push_back(RandomVec(dim, rng));
      }
      // Mix in duplicated centroids to exercise exact ties.
      if (k > 2) centroids[k - 1] = centroids[0];
      const FrameMatrix rows = FrameMatrix::FromRows(centroids);

      for (int p = 0; p < 8; ++p) {
        Vec q = RandomVec(dim, rng);
        if (p == 0) q = centroids[rng.Index(k)];  // Exact-hit case.
        const ArgMinResult pruned =
            ArgMinSquaredDistance(ops, q, rows, /*early_abandon=*/true);
        const ArgMinResult exhaustive =
            ArgMinSquaredDistance(ops, q, rows, /*early_abandon=*/false);
        EXPECT_EQ(pruned.index, exhaustive.index)
            << KernelBackendName(backend) << " dim " << dim;
        EXPECT_TRUE(BitEqual(pruned.squared_distance,
                             exhaustive.squared_distance))
            << KernelBackendName(backend) << " dim " << dim;
      }
    }
  }
}

TEST(ArgMinTest, TiesKeepTheLowestIndex) {
  const Vec a = {1.0, 2.0};
  const std::vector<Vec> rows = {{3.0, 4.0}, {3.0, 4.0}, {1.0, 2.0},
                                 {1.0, 2.0}};
  const FrameMatrix m = FrameMatrix::FromRows(rows);
  for (KernelBackend backend : AvailableBackends()) {
    const ArgMinResult r =
        ArgMinSquaredDistance(KernelOpsFor(backend), a, m, true);
    EXPECT_EQ(r.index, 2u) << KernelBackendName(backend);
    EXPECT_EQ(r.squared_distance, 0.0) << KernelBackendName(backend);
  }
}

}  // namespace
}  // namespace vitri::linalg
