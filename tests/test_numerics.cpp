// Tests for the numerics subsystem: Verifier metrics, sign
// canonicalization, NaN/Inf guards, and the scaled-reflector /
// Jacobi-threshold hardening regressions.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "gpusim/device.hpp"
#include "linalg/householder.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"
#include "numerics/finite_check.hpp"
#include "numerics/verifier.hpp"
#include "rpca/rpca.hpp"
#include "svd/tall_skinny_svd.hpp"
#include "tsqr/incremental.hpp"

namespace caqr {
namespace {

using numerics::VerifyReport;

Matrix<double> reference_q(const Matrix<double>& a, Matrix<double>* r_out) {
  Matrix<double> fac = Matrix<double>::from(a.view());
  std::vector<double> tau(static_cast<std::size_t>(a.cols()));
  geqrf(fac.view(), tau.data());
  *r_out = extract_r(fac.view());
  return form_q(fac.view(), tau.data(), a.cols());
}

TEST(Verifier, PassesReferenceQr) {
  const auto a = matrix_with_condition<double>(80, 12, 1e6, 1);
  Matrix<double> r(0, 0);
  const Matrix<double> q = reference_q(a, &r);
  const VerifyReport rep = numerics::verify_qr(a.view(), q.view(), r.view());
  EXPECT_TRUE(rep.finite);
  EXPECT_TRUE(rep.pass);
  EXPECT_LT(rep.residual, rep.tolerance);
  EXPECT_LT(rep.orthogonality, rep.tolerance);
}

TEST(Verifier, FlagsCorruptionNaiveChecksMiss) {
  const auto a = matrix_with_condition<double>(80, 12, 1e3, 2);
  Matrix<double> r(0, 0);
  Matrix<double> q = reference_q(a, &r);
  // A single relative 1e-3 perturbation: everything stays finite and
  // plausible-looking, but the factorization no longer reproduces A.
  r(3, 7) *= 1.0 + 1e-3;
  const VerifyReport rep = numerics::verify_qr(a.view(), q.view(), r.view());
  EXPECT_TRUE(rep.finite);
  EXPECT_FALSE(rep.pass);
  EXPECT_GT(rep.residual, rep.tolerance);
}

TEST(Verifier, NonFiniteFactorsFail) {
  const auto a = matrix_with_condition<double>(40, 8, 1e2, 3);
  Matrix<double> r(0, 0);
  Matrix<double> q = reference_q(a, &r);
  q(5, 2) = std::numeric_limits<double>::quiet_NaN();
  const VerifyReport rep = numerics::verify_qr(a.view(), q.view(), r.view());
  EXPECT_FALSE(rep.finite);
  EXPECT_FALSE(rep.pass);
}

// A non-finite report is still valid JSON: JSON has no NaN or infinity,
// so those metrics are null, and the label is escaped.
TEST(Verifier, JsonOfNonFiniteReportIsValidJson) {
  VerifyReport rep;
  rep.residual = std::numeric_limits<double>::infinity();
  rep.orthogonality = std::numeric_limits<double>::quiet_NaN();
  rep.gram_residual = -std::numeric_limits<double>::infinity();
  rep.tolerance = 0.25;
  rep.finite = false;
  EXPECT_EQ(numerics::verify_json_object(rep, "cond \"1e8\" run"),
            R"({"label":"cond \"1e8\" run","residual":null,)"
            R"("orthogonality":null,"gram_residual":null,"tolerance":0.25,)"
            R"("finite":false,"pass":false})");
}

TEST(Verifier, ExtremeUniformScalesStayMeasurable) {
  // ||A||_F^2 overflows (or vanishes) at these scales; the verifier must
  // equilibrate instead of reporting Inf/NaN or 0/0.
  for (const double scale : {1e-300, 1e300}) {
    const auto a = stress_matrix<double>(64, 8, 1e4, scale, 4);
    Matrix<double> r(0, 0);
    const Matrix<double> q = reference_q(a, &r);
    const VerifyReport rep = numerics::verify_qr(a.view(), q.view(), r.view());
    EXPECT_TRUE(std::isfinite(rep.residual)) << scale;
    EXPECT_TRUE(rep.pass) << "scale " << scale << " residual " << rep.residual;
  }
}

TEST(Verifier, GramResidualVerifiesROnlyPaths) {
  gpusim::Device dev;
  const auto a = matrix_with_condition<double>(96, 8, 1e12, 5);
  tsqr::IncrementalTsqr<double> inc(dev, 8);
  for (idx r0 = 0; r0 < 96; r0 += 24) {
    inc.push(a.view().block(r0, 0, 24, 8));
  }
  const VerifyReport rep = numerics::verify_r(a.view(), inc.r().view());
  EXPECT_FALSE(rep.has_q);
  EXPECT_TRUE(rep.pass) << "gram residual " << rep.gram_residual;

  // And it catches a wrong R.
  Matrix<double> bad = Matrix<double>::from(inc.r().view());
  bad(0, 0) *= 1.001;
  EXPECT_FALSE(numerics::verify_r(a.view(), bad.view()).pass);
}

TEST(Verifier, CanonicalizationMakesDiagNonNegativeAndPreservesQr) {
  const auto a = matrix_with_condition<double>(30, 6, 1e2, 6);
  Matrix<double> r(0, 0);
  Matrix<double> q = reference_q(a, &r);
  const idx flips = numerics::canonicalize_qr(q.view(), r.view());
  (void)flips;
  for (idx i = 0; i < r.rows(); ++i) EXPECT_GE(r(i, i), 0.0);
  // Q R still reproduces A after the paired sign flips.
  EXPECT_TRUE(numerics::verify_qr(a.view(), q.view(), r.view()).pass);

  // Two canonicalized R factors of the same A agree directly.
  Matrix<double> r2 = Matrix<double>::from(r.view());
  numerics::canonicalize_r(r2.view());
  EXPECT_LT(r_factor_difference(r.view(), r2.view()), 1e-14);
}

TEST(FiniteCheck, DetectsNanAndInf) {
  Matrix<double> a = Matrix<double>::zeros(4, 4);
  EXPECT_TRUE(numerics::finite_check(a.view()));
  EXPECT_EQ(numerics::count_nonfinite(a.view()), 0);
  a(1, 2) = std::numeric_limits<double>::infinity();
  a(3, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(numerics::finite_check(a.view()));
  EXPECT_EQ(numerics::count_nonfinite(a.view()), 2);
}

TEST(FiniteCheck, GuardCountPolicyCountsInsteadOfAborting) {
  numerics::set_guard_policy(numerics::GuardPolicy::Count);
  numerics::reset_guard_violations();
  Matrix<double> bad = Matrix<double>::zeros(2, 2);
  bad(0, 0) = std::numeric_limits<double>::quiet_NaN();
  numerics::guard_finite(bad.view(), "test:boundary");
  numerics::guard_finite(bad.view(), "test:boundary");
  EXPECT_EQ(numerics::guard_violations(), 2);
  Matrix<double> good = Matrix<double>::zeros(2, 2);
  numerics::guard_finite(good.view(), "test:boundary");
  EXPECT_EQ(numerics::guard_violations(), 2);
  numerics::reset_guard_violations();
  numerics::set_guard_policy(numerics::GuardPolicy::Abort);
}

TEST(FiniteCheckDeathTest, GuardAbortPolicyDies) {
  numerics::set_guard_policy(numerics::GuardPolicy::Abort);
  Matrix<double> bad = Matrix<double>::zeros(2, 2);
  bad(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(numerics::guard_finite(bad.view(), "death:boundary"),
               "death:boundary");
}

// --- Satellite 1: scaled reflector generation (xLARFG rescaling) ---

void check_reflector_maps_column(double scale) {
  // Column [1, 2, -1, 0.5] * scale: ||.|| = 2.5 * scale.
  const idx n = 4;
  std::vector<double> col = {1.0 * scale, 2.0 * scale, -1.0 * scale,
                             0.5 * scale};
  double alpha = col[0];
  std::vector<double> tail(col.begin() + 1, col.end());
  const double tau = make_householder(n, alpha, tail.data());
  ASSERT_TRUE(std::isfinite(tau)) << scale;
  EXPECT_GE(tau, 0.0);
  EXPECT_LE(tau, 2.0);
  for (const double v : tail) ASSERT_TRUE(std::isfinite(v)) << scale;
  // beta lands at -sign(alpha) * ||col||.
  EXPECT_NEAR(alpha, -2.5 * scale, 2.5 * scale * 1e-12);
  // Applying H to the original column reproduces [beta; 0; 0; 0].
  Matrix<double> c(n, 1);
  for (idx i = 0; i < n; ++i) c(i, 0) = col[static_cast<std::size_t>(i)];
  std::vector<double> work(1);
  apply_householder_left(n, tau, tail.data(), c.view(), work.data());
  EXPECT_NEAR(c(0, 0), alpha, 2.5 * scale * 1e-12);
  for (idx i = 1; i < n; ++i) {
    EXPECT_NEAR(c(i, 0), 0.0, 2.5 * scale * 1e-12) << "row " << i;
  }
}

TEST(Householder, SubnormalColumnRegression) {
  // Pre-fix: |beta| < safmin made 1/(alpha - beta) overflow; tau and the
  // reflector tail came out Inf.
  check_reflector_maps_column(1e-300);
  check_reflector_maps_column(1e-308);
}

TEST(Householder, NearOverflowColumnRegression) {
  check_reflector_maps_column(1e300);
}

TEST(Householder, WellScaledColumnsUnchanged) {
  check_reflector_maps_column(1.0);
  check_reflector_maps_column(1e-8);
  check_reflector_maps_column(1e8);
}

// --- Satellite 2: Jacobi threshold and convergence surfacing ---

TEST(JacobiSvd, HugeColumnNormsConverge) {
  // app * aqq overflows to Inf at this scale; the old product-form
  // threshold then declared every pair converged immediately.
  const auto base = matrix_with_condition<double>(8, 8, 1e3, 7);
  Matrix<double> a = Matrix<double>::from(base.view());
  for (idx j = 0; j < 8; ++j) scal(8, 1e180, a.view().col(j));
  const auto r = jacobi_svd(a.view());
  EXPECT_TRUE(r.converged);
  EXPECT_LT(orthogonality_error(r.u.view()), 1e-13);
  EXPECT_LT(orthogonality_error(r.v.view()), 1e-13);
  // Singular values scale linearly and stay finite.
  const auto rbase = jacobi_svd(base.view());
  for (std::size_t k = 0; k < r.sigma.size(); ++k) {
    ASSERT_TRUE(std::isfinite(r.sigma[k]));
    EXPECT_NEAR(r.sigma[k], rbase.sigma[k] * 1e180,
                rbase.sigma[k] * 1e180 * 1e-10);
  }
}

TEST(JacobiSvd, TinyColumnNormsConverge) {
  // app * aqq underflows to 0 at this scale; the old threshold became 0 and
  // convergence was never reached for nonzero off-diagonal Gram entries.
  const auto base = matrix_with_condition<double>(8, 8, 1e3, 8);
  Matrix<double> a = Matrix<double>::from(base.view());
  for (idx j = 0; j < 8; ++j) scal(8, 1e-140, a.view().col(j));
  const auto r = jacobi_svd(a.view());
  EXPECT_TRUE(r.converged);
  EXPECT_LT(orthogonality_error(r.u.view()), 1e-13);
  // Singular values scale linearly.
  const auto rbase = jacobi_svd(base.view());
  for (std::size_t k = 0; k < r.sigma.size(); ++k) {
    EXPECT_NEAR(r.sigma[k], rbase.sigma[k] * 1e-140,
                rbase.sigma[k] * 1e-140 * 1e-10);
  }
}

TEST(JacobiSvd, SweepExhaustionIsSurfaced) {
  const auto a = gaussian_matrix<double>(12, 8, 9);
  const auto r = jacobi_svd(a.view(), /*max_sweeps=*/1);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.sweeps, 1);
}

TEST(TallSkinnySvd, SmallSvdNonConvergenceSurfaced) {
  gpusim::Device dev;
  const auto a = matrix_with_condition<double>(64, 12, 1e4, 10);
  svd::TallSkinnySvdOptions opt;
  auto ok = svd::tall_skinny_svd(dev, a.view(), opt);
  EXPECT_TRUE(ok.small_svd_converged);

  opt.svd_max_sweeps = 1;
  auto truncated = svd::tall_skinny_svd(dev, a.view(), opt);
  EXPECT_FALSE(truncated.small_svd_converged);

  auto svt = svd::singular_value_threshold(dev, a.view(), 0.1, opt);
  EXPECT_FALSE(svt.svd_converged);
}

TEST(Rpca, InnerSvdNonConvergenceSurfaced) {
  gpusim::Device dev;
  LowRankPlusSparse spec;
  spec.rank = 2;
  spec.sparse_fraction = 0.05;
  const auto planted = planted_low_rank_plus_sparse<double>(48, 16, spec, 11);
  rpca::RpcaOptions opt;
  opt.max_iterations = 2;
  auto healthy = rpca::robust_pca(dev, planted.observed.view(), opt);
  EXPECT_TRUE(healthy.svd_converged);

  opt.svd.svd_max_sweeps = 1;
  auto starved = rpca::robust_pca(dev, planted.observed.view(), opt);
  EXPECT_FALSE(starved.svd_converged);
}

}  // namespace
}  // namespace caqr
