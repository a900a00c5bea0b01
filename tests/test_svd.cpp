// Tests for the one-sided Jacobi SVD used on the small R factor in the
// paper's tall-skinny SVD pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"

namespace caqr {
namespace {

template <typename T>
double svd_residual(In<ConstMatrixView<T>> a, const SvdResult<T>& f) {
  // ||A - U diag(sigma) V^T||_F / ||A||_F
  double num = 0.0;
  const idx m = a.rows(), n = a.cols();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      double s = 0.0;
      for (idx p = 0; p < n; ++p) {
        s += static_cast<double>(f.u(i, p)) *
             static_cast<double>(f.sigma[static_cast<std::size_t>(p)]) *
             static_cast<double>(f.v(j, p));
      }
      const double d = static_cast<double>(a(i, j)) - s;
      num += d * d;
    }
  }
  const double den = frobenius_norm(a);
  return den > 0 ? std::sqrt(num) / den : std::sqrt(num);
}

TEST(JacobiSvd, DiagonalMatrixIsExact) {
  auto a = Matrix<double>::zeros(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 4.0;
  a(3, 3) = 2.0;
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_DOUBLE_EQ(f.sigma[0], 4.0);
  EXPECT_DOUBLE_EQ(f.sigma[1], 3.0);
  EXPECT_DOUBLE_EQ(f.sigma[2], 2.0);
  EXPECT_DOUBLE_EQ(f.sigma[3], 1.0);
}

TEST(JacobiSvd, RandomMatrixInvariants) {
  auto a = gaussian_matrix<double>(30, 12, 55);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(a.view(), f), 1e-13);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-13);
  EXPECT_LT(orthogonality_error(f.v.view()), 1e-13);
  EXPECT_TRUE(std::is_sorted(f.sigma.rbegin(), f.sigma.rend()));
  for (const double s : f.sigma) EXPECT_GE(s, 0.0);
}

TEST(JacobiSvd, SquareUpperTriangularInput) {
  // The pipeline always feeds R factors: exercise exactly that shape.
  auto g = gaussian_matrix<double>(50, 10, 66);
  std::vector<double> tau(10);
  geqrf(g.view(), tau.data());
  auto r = extract_r(g.view());
  auto f = jacobi_svd(r.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(r.view(), f), 1e-13);
}

TEST(JacobiSvd, RankDeficientGivesZeroSigmas) {
  // Rank-2 matrix 8x4.
  auto x = gaussian_matrix<double>(8, 2, 1);
  auto y = gaussian_matrix<double>(4, 2, 2);
  auto a = Matrix<double>::zeros(8, 4);
  gemm(Trans::No, Trans::Yes, 1.0, x.view(), y.view(), 0.0, a.view());
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_GT(f.sigma[1], 1e-8);
  EXPECT_LT(f.sigma[2], 1e-10);
  EXPECT_LT(f.sigma[3], 1e-10);
  EXPECT_LT(svd_residual(a.view(), f), 1e-12);
}

TEST(JacobiSvd, KnownSingularValuesRecovered) {
  const idx m = 40, n = 8;
  auto u = random_orthonormal<double>(m, n, 3);
  auto v = random_orthonormal<double>(n, n, 4);
  std::vector<double> sigma = {9, 7.5, 6, 4, 2, 1, 0.5, 0.125};
  auto us = u.clone();
  for (idx j = 0; j < n; ++j) {
    scal(m, sigma[static_cast<std::size_t>(j)], us.view().col(j));
  }
  auto a = Matrix<double>::zeros(m, n);
  gemm(Trans::No, Trans::Yes, 1.0, us.view(), v.view(), 0.0, a.view());
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  for (idx j = 0; j < n; ++j) {
    EXPECT_NEAR(f.sigma[static_cast<std::size_t>(j)],
                sigma[static_cast<std::size_t>(j)], 1e-11);
  }
}

TEST(JacobiSvd, FloatPrecision) {
  auto a = gaussian_matrix<float>(64, 16, 77);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(a.view(), f), 1e-5);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-4);
}

TEST(JacobiSvd, ZeroMatrix) {
  auto a = Matrix<double>::zeros(5, 3);
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  for (const double s : f.sigma) EXPECT_EQ(s, 0.0);
}

TEST(JacobiSvd, SingleColumn) {
  auto a = Matrix<double>::zeros(4, 1);
  a(0, 0) = 3;
  a(1, 0) = 4;
  auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_NEAR(f.sigma[0], 5.0, 1e-14);
  EXPECT_NEAR(std::fabs(f.v(0, 0)), 1.0, 1e-14);
}

TEST(JacobiSvd, NuclearNormMatchesTrace) {
  // For SPD matrices the nuclear norm equals the trace.
  auto g = gaussian_matrix<double>(20, 6, 31);
  auto c = Matrix<double>::zeros(6, 6);
  syrk_t(1.0, g.view(), 0.0, c.view());
  auto f = jacobi_svd(c.view());
  double trace = 0.0, nuc = 0.0;
  for (idx i = 0; i < 6; ++i) trace += c(i, i);
  for (const double s : f.sigma) nuc += s;
  EXPECT_NEAR(nuc, trace, 1e-10 * trace);
}

// --- The xGESVJ-style sweep: maintained norms, sqrt(m)·eps stopping test,
// vector primitives that give the same bits at every ISA level. ---

using kernels::simd::Isa;

template <typename T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.view().col(j), b.view().col(j),
                    sizeof(T) * static_cast<std::size_t>(a.rows())) != 0) {
      return false;
    }
  }
  return true;
}

// The upper-triangular R of a 2n x n Gaussian matrix: the pipeline's input.
template <typename T>
Matrix<T> gaussian_r(idx n, std::uint64_t seed) {
  auto g = gaussian_matrix<T>(2 * n, n, seed);
  std::vector<T> tau(static_cast<std::size_t>(n));
  geqrf(g.view(), tau.data());
  return extract_r(g.view());
}

// Runs every test at each ISA level; levels the host lacks are skipped.
class JacobiSvdIsa : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!kernels::simd::supports(GetParam())) {
      GTEST_SKIP() << "host lacks " << kernels::simd::isa_name(GetParam());
    }
  }
};

INSTANTIATE_TEST_SUITE_P(, JacobiSvdIsa,
                         ::testing::ValuesIn(kernels::simd::kIsas),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(kernels::simd::isa_name(info.param));
                         });

// U, Σ and V at `isa` equal the SSE2 level's bit for bit, so a stream
// checkpointed on one host continues bit-identically on a host with
// another vector ISA.
template <typename T>
void expect_sse2_bits(Isa isa) {
  for (const idx n : {idx{64}, idx{100}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const auto r = gaussian_r<T>(n, 20 + static_cast<std::uint64_t>(n));
    const auto ref = jacobi_svd_at(Isa::Sse2, r.view());
    const auto f = jacobi_svd_at(isa, r.view());
    ASSERT_TRUE(ref.converged);
    EXPECT_EQ(f.sweeps, ref.sweeps);
    EXPECT_TRUE(same_bits(f.u, ref.u));
    EXPECT_TRUE(same_bits(f.v, ref.v));
    ASSERT_EQ(f.sigma.size(), ref.sigma.size());
    EXPECT_EQ(std::memcmp(f.sigma.data(), ref.sigma.data(),
                          sizeof(T) * ref.sigma.size()),
              0);
  }
}

TEST_P(JacobiSvdIsa, FloatBitsMatchSse2) { expect_sse2_bits<float>(GetParam()); }

TEST_P(JacobiSvdIsa, DoubleBitsMatchSse2) { expect_sse2_bits<double>(GetParam()); }

// Verifier-style bounds (numerics/verifier.hpp: c·eps·sqrt(n), c = 100) on
// a matrix with planted singular values 1 .. 1e-3. V gets c·eps·n: each of
// its columns takes about n rotations per sweep.
template <typename T>
void expect_verifier_bounds(Isa isa) {
  const double c = 100.0;
  const double eps = std::numeric_limits<T>::epsilon();
  for (const idx n : {idx{64}, idx{100}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const auto a = matrix_with_condition<T>(n, n, 1e3, 30 + static_cast<std::uint64_t>(n));
    const auto f = jacobi_svd_at(isa, a.view());
    ASSERT_TRUE(f.converged);
    const double tol = c * eps * std::sqrt(static_cast<double>(n));
    for (idx j = 0; j < n; ++j) {
      const double planted = static_cast<double>(static_cast<T>(
          std::pow(1e3, -static_cast<double>(j) / static_cast<double>(n - 1))));
      EXPECT_NEAR(f.sigma[static_cast<std::size_t>(j)], planted, tol) << "j=" << j;
    }
    EXPECT_LT(svd_residual(a.view(), f), tol);
    EXPECT_LT(orthogonality_error(f.u.view()), tol);
    EXPECT_LT(orthogonality_error(f.v.view()), c * eps * static_cast<double>(n));
  }
}

TEST_P(JacobiSvdIsa, FloatMeetsVerifierBounds) {
  expect_verifier_bounds<float>(GetParam());
}

TEST_P(JacobiSvdIsa, DoubleMeetsVerifierBounds) {
  expect_verifier_bounds<double>(GetParam());
}

TEST(JacobiSvd, OtherScalarTypesRunScalarLoops) {
  // long double has no vector lanes; it runs the same sweep in scalar code.
  const auto d = gaussian_matrix<double>(20, 6, 57);
  auto a = Matrix<long double>::zeros(20, 6);
  for (idx j = 0; j < 6; ++j) {
    for (idx i = 0; i < 20; ++i) a(i, j) = d(i, j);
  }
  const auto f = jacobi_svd(a.view());
  const auto fd = jacobi_svd(d.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LT(svd_residual(a.view(), f), 1e-15);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(static_cast<double>(f.sigma[k]), fd.sigma[k], 1e-13 * fd.sigma[0]);
  }
}

TEST(JacobiSvd, NearlyParallelColumnsRecomputeCancelledNorms) {
  // Columns x + 1e-12·y_j: each rotation cancels almost all of the smaller
  // column's norm, so its maintained norm must be recomputed. With the
  // cancelled updates kept, these inputs took one more sweep on most seeds.
  const idx m = 64, n = 8;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const auto x = gaussian_matrix<double>(m, 1, seed);
    const auto y = gaussian_matrix<double>(m, n, seed + 50);
    auto a = Matrix<double>::zeros(m, n);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) a(i, j) = x(i, 0) + 1e-12 * y(i, j);
    }
    const auto f = jacobi_svd(a.view());
    ASSERT_TRUE(f.converged);
    EXPECT_LE(f.sweeps, 7);
    EXPECT_LT(svd_residual(a.view(), f), 1e-14);
    EXPECT_LT(orthogonality_error(f.u.view()), 1e-13);
    EXPECT_LT(orthogonality_error(f.v.view()), 1e-13);
    EXPECT_GT(f.sigma[n - 1], 0.0);
  }
}

TEST(JacobiSvd, ClusteredFloatSpectrumConverges) {
  // Four clusters 1, 1.001, 1.002, 1.003 in a 2048 x 32 float matrix. The
  // plain eps stopping test kept finding length-2048 dot products above
  // eps·‖w_p‖‖w_q‖ at rounding level and ran out of 60 sweeps here;
  // sqrt(m)·eps is that rounding level.
  const idx m = 2048, n = 32;
  auto u = random_orthonormal<float>(m, n, 4);
  const auto v = random_orthonormal<float>(n, n, 104);
  std::vector<float> planted(static_cast<std::size_t>(n));
  for (idx j = 0; j < n; ++j) {
    planted[static_cast<std::size_t>(j)] = 1.0f + 1e-3f * static_cast<float>(j % 4);
    scal(m, planted[static_cast<std::size_t>(j)], u.view().col(j));
  }
  auto a = Matrix<float>::zeros(m, n);
  gemm(Trans::No, Trans::Yes, 1.0f, u.view(), v.view(), 0.0f, a.view());
  const auto f = jacobi_svd(a.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LE(f.sweeps, 6);
  std::sort(planted.rbegin(), planted.rend());
  for (idx j = 0; j < n; ++j) {
    EXPECT_NEAR(f.sigma[static_cast<std::size_t>(j)],
                planted[static_cast<std::size_t>(j)], 1e-5);
  }
  EXPECT_LT(svd_residual(a.view(), f), 1e-5);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-4);
}

TEST(JacobiSvd, CameraWindowSweepCount) {
  // The streaming workload's small SVD: R of a 16-frame window of 160 x 64
  // camera frames (rank-2 background, offset, noise, a moving bright
  // block). A regression in the rotations or the stopping test shows here
  // as extra sweeps.
  const idx rows = 160, cols = 64, frames = 16;
  const auto bu = gaussian_matrix<float>(rows, 2, 7919);
  const auto bv = gaussian_matrix<float>(cols, 2, 8016);
  auto background = Matrix<float>::zeros(rows, cols);
  gemm(Trans::No, Trans::Yes, 0.1f, bu.view(), bv.view(), 0.0f,
       background.view());
  Rng rng(11, 500);
  auto window = Matrix<float>::zeros(rows * frames, cols);
  for (idx f = 0; f < frames; ++f) {
    for (idx j = 0; j < cols; ++j) {
      for (idx i = 0; i < rows; ++i) {
        window(f * rows + i, j) = background(i, j) + 0.5f +
                                  0.01f * static_cast<float>(rng.normal());
      }
    }
    const idx r0 = (f * 3) % (rows - 16), c0 = f % (cols - 8);
    for (idx j = c0; j < c0 + 8; ++j) {
      for (idx i = r0; i < r0 + 16; ++i) window(f * rows + i, j) += 0.8f;
    }
  }
  std::vector<float> tau(static_cast<std::size_t>(cols));
  geqrf(window.view(), tau.data());
  const auto r = extract_r(window.view());
  const auto f = jacobi_svd(r.view());
  ASSERT_TRUE(f.converged);
  EXPECT_LE(f.sweeps, 10);
  EXPECT_LT(svd_residual(r.view(), f), 1e-5);
}

}  // namespace
}  // namespace caqr
