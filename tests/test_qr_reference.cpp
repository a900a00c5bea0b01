// Tests for the reference LAPACK-style QR: Householder generation, GEQR2,
// blocked GEQRF, LARFT/LARFB consistency, ORGQR, UNMQR and Cholesky.
// These establish the gold standard the TSQR/CAQR tests compare against.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr {
namespace {

TEST(Householder, AnnihilatesTail) {
  std::vector<double> x = {3.0, 4.0, 0.0, 12.0};
  double alpha = x[0];
  const double norm_before = nrm2<double>(4, x.data());
  const double tau = make_householder<double>(4, alpha, x.data() + 1);
  // |beta| must equal the norm of the original vector.
  EXPECT_NEAR(std::fabs(alpha), norm_before, 1e-14);
  EXPECT_GT(tau, 0.0);
  EXPECT_LE(tau, 2.0);  // tau in (0, 2] for nonzero vectors

  // Applying H to the original vector must give [beta; 0; 0; 0].
  std::vector<double> orig = {3.0, 4.0, 0.0, 12.0};
  auto c = Matrix<double>::zeros(4, 1);
  for (int i = 0; i < 4; ++i) c(i, 0) = orig[i];
  std::vector<double> work(1);
  apply_householder_left<double>(4, tau, x.data() + 1, c.view(), work.data());
  EXPECT_NEAR(c(0, 0), alpha, 1e-13);
  for (int i = 1; i < 4; ++i) EXPECT_NEAR(c(i, 0), 0.0, 1e-13);
}

TEST(Householder, ZeroTailGivesIdentity) {
  std::vector<double> x = {5.0, 0.0, 0.0};
  double alpha = x[0];
  const double tau = make_householder<double>(3, alpha, x.data() + 1);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(alpha, 5.0);  // untouched
}

TEST(Householder, LengthOneVector) {
  double alpha = -2.0;
  EXPECT_EQ(make_householder<double>(1, alpha, nullptr), 0.0);
  EXPECT_EQ(alpha, -2.0);
}

TEST(Householder, ApplicationIsInvolutory) {
  // H * H * C == C since H is symmetric orthogonal.
  auto c0 = gaussian_matrix<double>(6, 3, 42);
  auto c = c0.clone();
  std::vector<double> v = {0.0, 0.5, -0.25, 1.0, 0.75};  // tail of v, v[0]=1
  const double vtv = 1.0 + nrm2_squared<double>(5, v.data());
  const double tau = 2.0 / vtv;
  std::vector<double> work(3);
  apply_householder_left<double>(6, tau, v.data(), c.view(), work.data());
  apply_householder_left<double>(6, tau, v.data(), c.view(), work.data());
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < 6; ++i) EXPECT_NEAR(c(i, j), c0(i, j), 1e-13);
  }
}

struct QrShape {
  idx m, n;
};

class GeqrfShapes : public ::testing::TestWithParam<QrShape> {};

TEST_P(GeqrfShapes, FactorizationInvariants) {
  const auto [m, n] = GetParam();
  auto a0 = gaussian_matrix<double>(m, n, 7);
  auto a = a0.clone();
  std::vector<double> tau(static_cast<std::size_t>(std::min(m, n)));
  geqrf(a.view(), tau.data(), /*nb=*/8);

  auto r = extract_r(a.view());
  auto q = form_q(a.view(), tau.data(), std::min(m, n));

  const double scale = std::sqrt(static_cast<double>(n));
  EXPECT_LT(orthogonality_error(q.view()), 1e-14 * scale * 100);
  EXPECT_LT(factorization_residual(a0.view(), q.view(), r.view()),
            1e-14 * scale * 100);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeqrfShapes,
    ::testing::Values(QrShape{1, 1}, QrShape{4, 4}, QrShape{16, 16},
                      QrShape{10, 3}, QrShape{64, 16}, QrShape{100, 100},
                      QrShape{128, 16}, QrShape{37, 19}, QrShape{200, 7},
                      QrShape{5, 8} /* wide */, QrShape{33, 40} /* wide */));

TEST(Geqrf, BlockedMatchesUnblocked) {
  auto a0 = gaussian_matrix<double>(50, 30, 13);
  auto a1 = a0.clone();
  auto a2 = a0.clone();
  std::vector<double> tau1(30), tau2(30), work(30);
  geqr2(a1.view(), tau1.data(), work.data());
  geqrf(a2.view(), tau2.data(), /*nb=*/8);
  // Same algorithm, same reflectors: results must agree to roundoff.
  for (idx j = 0; j < 30; ++j) {
    for (idx i = 0; i < 50; ++i) {
      ASSERT_NEAR(a1(i, j), a2(i, j), 1e-12) << i << "," << j;
    }
  }
  for (int k = 0; k < 30; ++k) ASSERT_NEAR(tau1[k], tau2[k], 1e-13);
}

TEST(Geqrf, RDiagonalSignsAreNegativeOfFirstEntrySign) {
  // LAPACK sign convention: beta = -sign(alpha) * norm.
  auto a = Matrix<double>::zeros(4, 2);
  a(0, 0) = 3;
  a(1, 0) = 4;
  a(0, 1) = 1;
  a(1, 1) = 1;
  std::vector<double> tau(2), work(2);
  geqr2(a.view(), tau.data(), work.data());
  EXPECT_NEAR(a(0, 0), -5.0, 1e-14);
}

TEST(ApplyQ, QtTimesAEqualsR) {
  auto a0 = gaussian_matrix<double>(40, 12, 3);
  auto a = a0.clone();
  std::vector<double> tau(12);
  geqrf(a.view(), tau.data(), 5);

  auto c = a0.clone();
  apply_q_left(a.view(), tau.data(), Trans::Yes, c.view(), 5);
  auto r = extract_r(a.view());
  // Top n x n of Q^T A must equal R; below must be ~0.
  for (idx j = 0; j < 12; ++j) {
    for (idx i = 0; i < 40; ++i) {
      const double expect = i <= j ? r(i, j) : 0.0;
      ASSERT_NEAR(c(i, j), expect, 1e-12);
    }
  }
}

TEST(ApplyQ, QTimesQtIsIdentityAction) {
  auto a = gaussian_matrix<double>(30, 10, 4);
  std::vector<double> tau(10);
  auto f = a.clone();
  geqrf(f.view(), tau.data(), 4);

  auto c0 = gaussian_matrix<double>(30, 5, 5);
  auto c = c0.clone();
  apply_q_left(f.view(), tau.data(), Trans::Yes, c.view(), 4);
  apply_q_left(f.view(), tau.data(), Trans::No, c.view(), 4);
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < 30; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-12);
  }
}

TEST(FormQ, ExplicitQMatchesApplication) {
  auto a = gaussian_matrix<double>(25, 8, 6);
  std::vector<double> tau(8);
  auto f = a.clone();
  geqrf(f.view(), tau.data(), 3);
  auto q = form_q(f.view(), tau.data(), 8);

  // Q * e_j must equal apply_q(e_j).
  auto e = Matrix<double>::identity(25, 8);
  apply_q_left(f.view(), tau.data(), Trans::No, e.view(), 3);
  for (idx j = 0; j < 8; ++j) {
    for (idx i = 0; i < 25; ++i) ASSERT_NEAR(q(i, j), e(i, j), 1e-13);
  }
}

// form_q (ORGQR) applies block p only to columns [p, qcols), which the
// identity seed leaves zero below row p; Q must stay bit-identical to the
// full-width apply_q_left on the identity (so random_matrix inputs built
// through form_q keep their bits too).
template <typename T>
void expect_orgqr_matches_full_walk(idx m, idx n, idx qcols) {
  auto f = gaussian_matrix<T>(m, n, 9);
  std::vector<T> tau(static_cast<std::size_t>(std::min(m, n)));
  geqrf(f.view(), tau.data());
  const Matrix<T> q = form_q(f.view(), tau.data(), qcols);
  Matrix<T> full = Matrix<T>::identity(m, qcols);
  const idx k = std::min(n, qcols);
  apply_q_left(f.view().block(0, 0, m, k), tau.data(), Trans::No,
               full.view());
  for (idx j = 0; j < qcols; ++j) {
    ASSERT_EQ(std::memcmp(q.view().col(j), full.view().col(j),
                          static_cast<std::size_t>(m) * sizeof(T)),
              0)
        << m << "x" << n << " qcols " << qcols << " column " << j;
  }
}

TEST(FormQ, NarrowedWalkBitIdenticalToFullWidth) {
  for (const auto& [m, n, qcols] :
       std::vector<std::tuple<idx, idx, idx>>{{200, 100, 100},
                                             {200, 100, 70},
                                             {130, 67, 67},
                                             {130, 67, 45},
                                             {90, 90, 90},
                                             {50, 20, 20}}) {
    expect_orgqr_matches_full_walk<float>(m, n, qcols);
    expect_orgqr_matches_full_walk<double>(m, n, qcols);
  }
}

TEST(Larft, BlockReflectorMatchesSequential) {
  const idx m = 20, k = 6;
  auto a0 = gaussian_matrix<double>(m, k, 8);
  auto a = a0.clone();
  std::vector<double> tau(k), work(k);
  geqr2(a.view(), tau.data(), work.data());

  Matrix<double> t(k, k);
  larft(a.view(), tau.data(), t.view());

  // Apply via larfb and via sequential reflectors; compare.
  auto c0 = gaussian_matrix<double>(m, 4, 9);
  auto c1 = c0.clone();
  larfb_left(a.view(), t.view(), Trans::Yes, c1.view());

  auto c2 = c0.clone();
  std::vector<double> w2(4);
  for (idx j = 0; j < k; ++j) {
    apply_householder_left<double>(m - j, tau[j], a.view().col(j) + j + 1,
                                   c2.block(j, 0, m - j, 4), w2.data());
  }
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < m; ++i) ASSERT_NEAR(c1(i, j), c2(i, j), 1e-12);
  }
}

TEST(Geqrf, IllConditionedStaysBackwardStable) {
  auto a0 = matrix_with_condition<double>(80, 20, 1e12, 10);
  auto a = a0.clone();
  std::vector<double> tau(20);
  geqrf(a.view(), tau.data());
  auto q = form_q(a.view(), tau.data(), 20);
  auto r = extract_r(a.view());
  EXPECT_LT(orthogonality_error(q.view()), 1e-12);
  EXPECT_LT(factorization_residual(a0.view(), q.view(), r.view()), 1e-12);
}

TEST(Geqrf, FloatPrecisionInvariants) {
  auto a0 = gaussian_matrix<float>(128, 16, 21);
  auto a = a0.clone();
  std::vector<float> tau(16);
  geqrf(a.view(), tau.data());
  auto q = form_q(a.view(), tau.data(), 16);
  auto r = extract_r(a.view());
  EXPECT_LT(orthogonality_error(q.view()), 1e-5);
  EXPECT_LT(factorization_residual(a0.view(), q.view(), r.view()), 1e-5);
}

TEST(Cholesky, FactorizesSpdMatrix) {
  auto g = gaussian_matrix<double>(30, 10, 14);
  auto c = Matrix<double>::zeros(10, 10);
  syrk_t(1.0, g.view(), 0.0, c.view());
  for (idx i = 0; i < 10; ++i) c(i, i) += 1.0;  // well-conditioned SPD
  auto c0 = c.clone();
  ASSERT_TRUE(potrf_upper(c.view()));
  // Check R^T R == C.
  auto recon = Matrix<double>::zeros(10, 10);
  gemm(Trans::Yes, Trans::No, 1.0, c.view(), c.view(), 0.0, recon.view());
  for (idx j = 0; j < 10; ++j) {
    for (idx i = 0; i < 10; ++i) ASSERT_NEAR(recon(i, j), c0(i, j), 1e-10);
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  auto c = Matrix<double>::identity(3, 3);
  c(2, 2) = -1.0;
  EXPECT_FALSE(potrf_upper(c.view()));
}

}  // namespace
}  // namespace caqr
