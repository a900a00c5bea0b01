// Tests for BLAS1/2/3 primitives against naive reference computations,
// including parameterized shape sweeps over the block sizes CAQR uses.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/thread_pool.hpp"
#include "kernels/simd.hpp"

#include "linalg/blas1.hpp"
#include "linalg/blas2.hpp"
#include "linalg/blas3.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"

namespace caqr {
namespace {

template <typename T>
Matrix<T> naive_gemm(Trans ta, Trans tb, T alpha, In<ConstMatrixView<T>> a,
                     In<ConstMatrixView<T>> b, T beta,
                     In<ConstMatrixView<T>> c0) {
  auto c = Matrix<T>::from(c0);
  const idx m = c.rows(), n = c.cols();
  const idx k = (ta == Trans::No) ? a.cols() : a.rows();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      long double acc = 0;
      for (idx p = 0; p < k; ++p) {
        const T av = (ta == Trans::No) ? a(i, p) : a(p, i);
        const T bv = (tb == Trans::No) ? b(p, j) : b(j, p);
        acc += static_cast<long double>(av) * bv;
      }
      c(i, j) = static_cast<T>(alpha * static_cast<T>(acc) + beta * c0(i, j));
    }
  }
  return c;
}

TEST(Blas1, DotAxpyScalNrm2) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(dot<double>(4, x.data(), y.data()), 4 + 6 + 6 + 4);
  EXPECT_DOUBLE_EQ(nrm2<double>(4, x.data()), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(nrm2_squared<double>(4, x.data()), 30.0);
  axpy<double>(4, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[3], 9.0);
  scal<double>(4, 0.5, x.data());
  EXPECT_DOUBLE_EQ(x[2], 1.5);
}

TEST(Blas1, Nrm2AvoidsOverflowAndUnderflow) {
  const float big = 1e20f;
  std::vector<float> x = {big, big, big};
  // Naive sum of squares would overflow to inf in float.
  EXPECT_FLOAT_EQ(nrm2<float>(3, x.data()), big * std::sqrt(3.0f));
  const float tiny = 1e-25f;
  std::vector<float> y = {tiny, tiny};
  EXPECT_GT(nrm2<float>(2, y.data()), 0.0f);
  EXPECT_FLOAT_EQ(nrm2<float>(2, y.data()), tiny * std::sqrt(2.0f));
}

TEST(Blas1, Iamax) {
  std::vector<double> x = {1, -5, 3};
  EXPECT_EQ(iamax<double>(3, x.data()), 1);
  EXPECT_EQ(iamax<double>(0, x.data()), -1);
}

TEST(Blas2, GemvMatchesNaive) {
  auto a = gaussian_matrix<double>(7, 5, 11);
  std::vector<double> x = {1, -1, 2, 0.5, 3};
  std::vector<double> y(7, 1.0), yr(7, 1.0);
  gemv_n<double>(2.0, a.view(), x.data(), 0.5, y.data());
  for (idx i = 0; i < 7; ++i) {
    double acc = 0;
    for (idx j = 0; j < 5; ++j) acc += a(i, j) * x[j];
    yr[i] = 2.0 * acc + 0.5 * 1.0;
    EXPECT_NEAR(y[i], yr[i], 1e-12);
  }
  std::vector<double> z(5, -1.0);
  gemv_t<double>(1.0, a.view(), yr.data(), 1.0, z.data());
  for (idx j = 0; j < 5; ++j) {
    double acc = 0;
    for (idx i = 0; i < 7; ++i) acc += a(i, j) * yr[i];
    EXPECT_NEAR(z[j], acc - 1.0, 1e-12);
  }
}

TEST(Blas2, GerRank1Update) {
  auto a = Matrix<double>::zeros(3, 2);
  std::vector<double> x = {1, 2, 3}, y = {4, 5};
  ger<double>(2.0, x.data(), y.data(), a.view());
  EXPECT_DOUBLE_EQ(a(2, 1), 2.0 * 3 * 5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0 * 1 * 4);
}

TEST(Blas2, TriangularSolvesRoundTrip) {
  auto u = Matrix<double>::zeros(4, 4);
  Rng rng(3);
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i <= j; ++i) u(i, j) = rng.uniform(0.5, 2.0);
  }
  std::vector<double> x = {1, -2, 3, -4};
  auto b = x;
  trmv_upper(u.view(), b.data());
  trsv_upper(u.view(), b.data());
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

struct GemmShape {
  idx m, n, k;
};

class GemmAllTransposes
    : public ::testing::TestWithParam<std::tuple<GemmShape, int, int>> {};

TEST_P(GemmAllTransposes, MatchesNaive) {
  const auto [shape, tai, tbi] = GetParam();
  const Trans ta = tai != 0 ? Trans::Yes : Trans::No;
  const Trans tb = tbi != 0 ? Trans::Yes : Trans::No;
  const idx am = ta == Trans::No ? shape.m : shape.k;
  const idx an = ta == Trans::No ? shape.k : shape.m;
  const idx bm = tb == Trans::No ? shape.k : shape.n;
  const idx bn = tb == Trans::No ? shape.n : shape.k;
  auto a = gaussian_matrix<double>(am, an, 1);
  auto b = gaussian_matrix<double>(bm, bn, 2);
  auto c0 = gaussian_matrix<double>(shape.m, shape.n, 3);

  auto c = c0.clone();
  gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c.view());
  auto ref = naive_gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c0.view());

  for (idx j = 0; j < shape.n; ++j) {
    for (idx i = 0; i < shape.m; ++i) {
      ASSERT_NEAR(c(i, j), ref(i, j), 1e-10 * (1.0 + std::fabs(ref(i, j))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAllTransposes,
    ::testing::Combine(::testing::Values(GemmShape{1, 1, 1}, GemmShape{8, 4, 16},
                                         GemmShape{13, 7, 5}, GemmShape{32, 32, 32},
                                         GemmShape{65, 17, 33}, GemmShape{128, 16, 16},
                                         GemmShape{3, 50, 2}),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)));

TEST(Blas3, GemmEmptyDimensions) {
  auto a = Matrix<double>::zeros(4, 0);
  auto b = Matrix<double>::zeros(0, 3);
  auto c = Matrix<double>::identity(4, 3);
  // k == 0: C := beta * C only.
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 2.0, c.view());
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
}

TEST(Blas3, SyrkMatchesGemm) {
  auto a = gaussian_matrix<double>(20, 6, 5);
  auto c1 = Matrix<double>::zeros(6, 6);
  auto c2 = Matrix<double>::zeros(6, 6);
  syrk_t(1.0, a.view(), 0.0, c1.view());
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), a.view(), 0.0, c2.view());
  for (idx j = 0; j < 6; ++j) {
    for (idx i = 0; i < 6; ++i) EXPECT_NEAR(c1(i, j), c2(i, j), 1e-12);
  }
}

class TrsmCase : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TrsmCase, SolveThenMultiplyRoundTrips) {
  const auto [side_i, uplo_i, trans_i] = GetParam();
  const Side side = side_i != 0 ? Side::Right : Side::Left;
  const UpLo uplo = uplo_i != 0 ? UpLo::Lower : UpLo::Upper;
  const Trans trans = trans_i != 0 ? Trans::Yes : Trans::No;

  const idx n = 6;
  const idx bm = side == Side::Left ? n : 9;
  const idx bn = side == Side::Left ? 9 : n;
  auto t = Matrix<double>::zeros(n, n);
  Rng rng(9);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const bool in_tri = uplo == UpLo::Upper ? i <= j : i >= j;
      if (in_tri) t(i, j) = i == j ? rng.uniform(1.0, 2.0) : rng.uniform(-0.5, 0.5);
    }
  }
  auto b0 = gaussian_matrix<double>(bm, bn, 17);
  auto b = b0.clone();
  trsm(side, uplo, trans, t.view(), b.view());

  // Reconstruct: op(T)*X (left) or X*op(T) (right) must equal B0.
  auto recon = Matrix<double>::zeros(bm, bn);
  if (side == Side::Left) {
    gemm(trans, Trans::No, 1.0, t.view(), b.view(), 0.0, recon.view());
  } else {
    gemm(Trans::No, trans, 1.0, b.view(), t.view(), 0.0, recon.view());
  }
  for (idx j = 0; j < bn; ++j) {
    for (idx i = 0; i < bm; ++i) ASSERT_NEAR(recon(i, j), b0(i, j), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TrsmCase,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

TEST(Blas3, TrmmLeftMatchesGemm) {
  const idx n = 5;
  auto t = Matrix<double>::zeros(n, n);
  Rng rng(21);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) t(i, j) = rng.uniform(-1.0, 1.0);
  }
  auto b0 = gaussian_matrix<double>(n, 4, 22);

  for (const Trans trans : {Trans::No, Trans::Yes}) {
    auto b = b0.clone();
    trmm_left(UpLo::Upper, trans, t.view(), b.view());
    auto ref = Matrix<double>::zeros(n, 4);
    gemm(trans, Trans::No, 1.0, t.view(), b0.view(), 0.0, ref.view());
    for (idx j = 0; j < 4; ++j) {
      for (idx i = 0; i < n; ++i) ASSERT_NEAR(b(i, j), ref(i, j), 1e-12);
    }
  }
}

// ---------------------------- vectorized / pooled BLAS3 vs the serial loops
//
// The serial loops gemm (No, No), syrk_t and trsm (Right, Upper, No) ran
// before they were given vector lanes (syrk_t, trsm) and a row split over
// the pool (gemm); they are kept here verbatim as the reference. The new
// routines must reproduce them bit for bit at every ISA level, for any
// pool, and when called from inside pool items.

using kernels::simd::Isa;

template <typename T>
void serial_gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
                    T beta, MatrixView<T> c) {
  const idx m = c.rows(), n = c.cols(), k = a.cols();
  if (beta == T(0)) {
    c.fill(T(0));
  } else if (beta != T(1)) {
    for (idx j = 0; j < n; ++j) scal(m, beta, c.col(j));
  }
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  constexpr int MR = 8, NR = 4;
  const idx mb = m / MR * MR;
  const idx nb = n / NR * NR;
  for (idx j = 0; j < nb; j += NR) {
    for (idx i = 0; i < mb; i += MR) {
      T acc[MR][NR] = {};
      for (idx p = 0; p < k; ++p) {
        for (int jj = 0; jj < NR; ++jj) {
          const T bv = b(p, j + jj);
          for (int ii = 0; ii < MR; ++ii) acc[ii][jj] += a(i + ii, p) * bv;
        }
      }
      for (int jj = 0; jj < NR; ++jj) {
        for (int ii = 0; ii < MR; ++ii) c(i + ii, j + jj) += alpha * acc[ii][jj];
      }
    }
    for (idx i = mb; i < m; ++i) {
      for (idx jj = j; jj < j + NR; ++jj) {
        T acc = T(0);
        for (idx p = 0; p < k; ++p) acc += a(i, p) * b(p, jj);
        c(i, jj) += alpha * acc;
      }
    }
  }
  for (idx j = nb; j < n; ++j) {
    T* cj = c.col(j);
    for (idx p = 0; p < k; ++p) {
      const T bv = alpha * b(p, j);
      const T* ap = a.col(p);
      for (idx i = 0; i < m; ++i) cj[i] += bv * ap[i];
    }
  }
}

template <typename T>
void serial_syrk_t(T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c) {
  const idx n = a.cols();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) {
      const T s = dot(a.rows(), a.col(i), a.col(j));
      const T v = alpha * s + (beta == T(0) ? T(0) : beta * c(i, j));
      c(i, j) = v;
      c(j, i) = v;
    }
  }
}

template <typename T>
void serial_trsm_right_upper(In<ConstMatrixView<T>> t, MatrixView<T> b,
                             bool unit_diag) {
  const idx n = t.rows();
  for (idx i = 0; i < b.rows(); ++i) {
    for (idx j = 0; j < n; ++j) {
      T acc = b(i, j);
      for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(p, j);
      b(i, j) = unit_diag ? acc : acc / t(j, j);
    }
  }
}

template <typename VX, typename VY>
bool same_bits(const VX& vx, const VY& vy) {
  using T = view_scalar_t<VX>;
  const ConstMatrixView<T> x = cview(vx);
  const ConstMatrixView<T> y = cview(vy);
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (idx j = 0; j < x.cols(); ++j) {
    if (x.rows() > 0 &&
        std::memcmp(x.col(j), y.col(j), sizeof(T) * x.rows()) != 0) {
      return false;
    }
  }
  return true;
}

// Gaussian entries with a few columns scaled by 1e±15 and one column of
// signed zeros, so rounding, range and zero signs all show in the bits.
template <typename T>
Matrix<T> varied_matrix(idx m, idx n, std::uint64_t seed) {
  auto a = gaussian_matrix<T>(m, n, seed);
  for (idx j = 0; j < n; ++j) {
    const T s = j % 7 == 3 ? T(1e15) : j % 7 == 5 ? T(1e-15) : T(1);
    for (idx i = 0; i < m; ++i) a(i, j) *= s;
  }
  if (n > 2) {
    for (idx i = 0; i < m; ++i) a(i, 1) = i % 2 == 0 ? T(-0.0) : T(0.0);
  }
  return a;
}

// Row counts: empty, one row, fewer rows than a vector's lanes, and counts
// that are not multiples of syrk_t's 256-row staging block, of the vector
// widths or of the gemm's pooled chunks.
constexpr idx kBlas3Rows[] = {0, 1, 3, 517, 2053};
constexpr idx kBlas3Cols[] = {1, 37, 100};

template <typename T>
void expect_syrk_bits(Isa isa) {
  for (const idx m : kBlas3Rows) {
    for (const idx n : kBlas3Cols) {
      for (const T beta : {T(0), T(-0.75)}) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                          << " beta=" << beta);
        const auto a = varied_matrix<T>(m, n, 100 + static_cast<std::uint64_t>(m + n));
        const auto c0 = gaussian_matrix<T>(n, n, 7);
        auto ref = c0.clone();
        serial_syrk_t(T(1.5), a.view(), beta, ref.view());
        auto got = c0.clone();
        blas3::syrk_t_at(isa, T(1.5), a.view(), beta, got.view());
        EXPECT_TRUE(same_bits(got.view(), ref.view()));
      }
    }
  }
}

template <typename T>
void expect_trsm_bits(Isa isa) {
  for (const idx m : kBlas3Rows) {
    for (const idx n : kBlas3Cols) {
      for (const bool unit : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                          << " unit=" << unit);
        // The strict lower triangle holds values that must not be read.
        auto t = gaussian_matrix<T>(n, n, 8);
        for (idx j = 0; j < n; ++j) {
          t(j, j) = T(1.5) + std::fabs(t(j, j));
          for (idx i = 0; i < j; ++i) t(i, j) *= T(0.2);
        }
        const auto b0 = varied_matrix<T>(m, n, 200 + static_cast<std::uint64_t>(m + n));
        auto ref = b0.clone();
        serial_trsm_right_upper(t.view(), ref.view(), unit);
        auto got = b0.clone();
        blas3::trsm_right_upper_at(isa, t.view(), got.view(), unit);
        EXPECT_TRUE(same_bits(got.view(), ref.view()));
      }
    }
  }
}

template <typename T>
void expect_gemm_bits(ThreadPool& pool) {
  for (const idx m : kBlas3Rows) {
    for (const idx n : kBlas3Cols) {
      for (const idx k : {idx{1}, idx{37}, idx{100}}) {
        for (const T beta : {T(0), T(1), T(0.25)}) {
          SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                            << " k=" << k << " beta=" << beta);
          const auto a = varied_matrix<T>(m, k, 300 + static_cast<std::uint64_t>(m + k));
          const auto b = gaussian_matrix<T>(k, n, 9);
          const auto c0 = gaussian_matrix<T>(m, n, 10);
          auto ref = c0.clone();
          serial_gemm_nn(T(-1.25), a.view(), b.view(), beta, ref.view());
          auto got = c0.clone();
          blas3::gemm_nn_at(pool, T(-1.25), a.view(), b.view(), beta,
                            got.view());
          EXPECT_TRUE(same_bits(got.view(), ref.view()));
        }
      }
    }
  }
}

// Runs body() from inside every item of a parallel_for on `pool`, so the
// calls run concurrently on the pool's threads and any parallel_for they
// issue is nested. Each item checks that it really runs in a pool region.
template <typename Body>
void from_pool_items(ThreadPool& pool, const Body& body) {
  ASSERT_GE(pool.size(), 2u);
  std::atomic<int> nested{0};
  pool.parallel_for(pool.size(), [&](std::size_t) {
    if (ThreadPool::in_parallel_region()) nested.fetch_add(1);
    body();
  });
  EXPECT_EQ(nested.load(), static_cast<int>(pool.size()));
}

// Runs check(isa) for every ISA level the host supports, on the calling
// thread and concurrently from inside a 4-thread pool's items.
template <typename Check>
void for_isas(const Check& check) {
  ThreadPool four(4);
  for (const Isa isa : kernels::simd::kIsas) {
    if (!kernels::simd::supports(isa)) continue;
    SCOPED_TRACE(kernels::simd::isa_name(isa));
    check(isa);
    from_pool_items(four, [&] { check(isa); });
  }
}

TEST(Blas3, SyrkTMatchesSerialLoopsBitwise) {
  for_isas([](Isa isa) {
    expect_syrk_bits<float>(isa);
    expect_syrk_bits<double>(isa);
  });
}

TEST(Blas3, TrsmRightUpperMatchesSerialLoopsBitwise) {
  for_isas([](Isa isa) {
    expect_trsm_bits<float>(isa);
    expect_trsm_bits<double>(isa);
  });
}

// The NN gemm on a 1-thread and a 4-thread pool, and from inside the
// 4-thread pool's items, where its row split runs nested (inline).
TEST(Blas3, GemmNNMatchesSerialLoopsBitwise) {
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {&one, &four}) {
    expect_gemm_bits<float>(*pool);
    expect_gemm_bits<double>(*pool);
  }
  from_pool_items(four, [&] { expect_gemm_bits<float>(four); });
}

// The public entry points run at the host's level (gemm on the global
// pool).
TEST(Blas3, EntryPointsMatchSerialLoopsBitwise) {
  const auto a = varied_matrix<float>(2053, 100, 11);
  auto g_ref = Matrix<float>::zeros(100, 100);
  serial_syrk_t(1.0f, a.view(), 0.0f, g_ref.view());
  auto g = Matrix<float>::zeros(100, 100);
  syrk_t(1.0f, a.view(), 0.0f, g.view());
  EXPECT_TRUE(same_bits(g.view(), g_ref.view()));

  auto t = Matrix<float>::identity(100, 100);
  for (idx j = 0; j < 100; ++j) {
    for (idx i = 0; i < j; ++i) t(i, j) = 0.01f * static_cast<float>(i - j);
  }
  auto b_ref = a.clone();
  serial_trsm_right_upper(t.view(), b_ref.view(), false);
  auto b = a.clone();
  trsm(Side::Right, UpLo::Upper, Trans::No, t.view(), b.view());
  EXPECT_TRUE(same_bits(b.view(), b_ref.view()));

  const auto bb = gaussian_matrix<float>(100, 64, 12);
  const auto c0 = gaussian_matrix<float>(2053, 64, 13);
  auto c_ref = c0.clone();
  serial_gemm_nn(0.5f, a.view(), bb.view(), 0.25f, c_ref.view());
  auto c = c0.clone();
  gemm(Trans::No, Trans::No, 0.5f, a.view(), bb.view(), 0.25f, c.view());
  EXPECT_TRUE(same_bits(c.view(), c_ref.view()));
}

TEST(Norms, FrobeniusAndOrthogonality) {
  auto e = Matrix<double>::identity(5, 3);
  EXPECT_NEAR(frobenius_norm(e.view()), std::sqrt(3.0), 1e-14);
  EXPECT_NEAR(orthogonality_error(e.view()), 0.0, 1e-14);
  auto q = random_orthonormal<double>(40, 10, 77);
  EXPECT_LT(orthogonality_error(q.view()), 1e-13);
}

TEST(Norms, RFactorDifferenceSignInvariance) {
  auto r1 = Matrix<double>::zeros(3, 3);
  r1(0, 0) = 2;
  r1(0, 1) = 1;
  r1(1, 1) = 3;
  r1(2, 2) = -1;
  auto r2 = r1.clone();
  // Flip the sign of row 1 — equivalent QR up to reflector signs.
  for (idx j = 0; j < 3; ++j) r2(1, j) = -r2(1, j);
  EXPECT_NEAR(r_factor_difference(r1.view(), r2.view()), 0.0, 1e-15);
}

TEST(RandomMatrix, ConditionNumberIsRespected) {
  auto a = matrix_with_condition<double>(60, 10, 1e6, 5);
  auto svd = jacobi_svd(a.view());
  EXPECT_NEAR(svd.sigma.front() / svd.sigma.back(), 1e6, 1e6 * 1e-8);
}

}  // namespace
}  // namespace caqr
