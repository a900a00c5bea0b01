// Tests for the tall-skinny SVD pipeline (QR -> small SVD -> Q*U) and the
// singular-value thresholding operator used by Robust PCA.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "svd/tall_skinny_svd.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;
using svd::QrBackend;
using svd::TallSkinnySvdOptions;

template <typename T>
double pipeline_residual(In<ConstMatrixView<T>> a,
                         const svd::TallSkinnySvd<T>& f) {
  const idx m = a.rows(), n = a.cols();
  double num = 0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      double s = 0;
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
  return den > 0 ? std::sqrt(num) / den : 0.0;
}

class SvdBackends : public ::testing::TestWithParam<QrBackend> {};

TEST_P(SvdBackends, ReconstructsMatrix) {
  auto a = gaussian_matrix<double>(800, 24, 31);
  Device dev;
  TallSkinnySvdOptions opt;
  opt.backend = GetParam();
  auto f = svd::tall_skinny_svd(dev, a.view(), opt);
  EXPECT_LT(pipeline_residual(a.view(), f), 1e-12);
  EXPECT_LT(orthogonality_error(f.u.view()), 1e-12);
  EXPECT_LT(orthogonality_error(f.v.view()), 1e-12);
  EXPECT_TRUE(std::is_sorted(f.sigma.rbegin(), f.sigma.rend()));
  EXPECT_GT(dev.elapsed_seconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, SvdBackends,
                         ::testing::Values(QrBackend::Caqr,
                                           QrBackend::GpuBlas2));

TEST(TallSkinnySvd, MatchesDirectJacobiSingularValues) {
  auto a = matrix_with_condition<double>(400, 16, 1e4, 33);
  Device dev;
  auto f = svd::tall_skinny_svd(dev, a.view());
  auto direct = jacobi_svd(a.view());
  for (idx i = 0; i < 16; ++i) {
    EXPECT_NEAR(f.sigma[static_cast<std::size_t>(i)],
                direct.sigma[static_cast<std::size_t>(i)],
                1e-9 * direct.sigma[0]);
  }
}

TEST(TallSkinnySvd, CaqrBackendFasterThanBlas2OnPaperShape) {
  // Table II's premise: at the video-matrix shape the CAQR pipeline beats
  // the bandwidth-bound BLAS2 pipeline by ~3x.
  auto time_for = [&](QrBackend b) {
    Device dev(GpuMachineModel::gtx480(), ExecMode::ModelOnly);
    TallSkinnySvdOptions opt;
    opt.backend = b;
    Matrix<float> a(110592, 100);
    auto f = svd::tall_skinny_svd(dev, a.view(), opt);
    (void)f;
    return dev.elapsed_seconds();
  };
  const double t_caqr = time_for(QrBackend::Caqr);
  const double t_blas2 = time_for(QrBackend::GpuBlas2);
  EXPECT_LT(t_caqr, t_blas2);
  EXPECT_GT(t_blas2 / t_caqr, 1.5);
  EXPECT_LT(t_blas2 / t_caqr, 8.0);
}

TEST(TallSkinnySvd, ModelOnlyTimelineMatchesFunctional) {
  auto run = [&](ExecMode mode) {
    Device dev(GpuMachineModel::c2050(), mode);
    Matrix<float> a = gaussian_matrix<float>(2048, 32, 35);
    TallSkinnySvdOptions opt;
    auto f = svd::tall_skinny_svd(dev, a.view(), opt);
    (void)f;
    return dev.elapsed_seconds();
  };
  EXPECT_DOUBLE_EQ(run(ExecMode::Functional), run(ExecMode::ModelOnly));
}

TEST(Svt, ThresholdsSingularValues) {
  // Build a matrix with known singular values 10, 5, 1 and threshold at 3.
  const idx m = 60, n = 3;
  auto u = random_orthonormal<double>(m, n, 36);
  auto v = random_orthonormal<double>(n, n, 37);
  const double sig[] = {10, 5, 1};
  auto us = u.clone();
  for (idx j = 0; j < n; ++j) scal(m, sig[j], us.view().col(j));
  auto a = Matrix<double>::zeros(m, n);
  gemm(Trans::No, Trans::Yes, 1.0, us.view(), v.view(), 0.0, a.view());

  Device dev;
  auto res = svd::singular_value_threshold(dev, a.view(), 3.0);
  EXPECT_EQ(res.rank, 2);

  // Result must equal U diag(7, 2, 0) V^T.
  auto expect_us = u.clone();
  const double shr[] = {7, 2, 0};
  for (idx j = 0; j < n; ++j) scal(m, shr[j], expect_us.view().col(j));
  auto expect = Matrix<double>::zeros(m, n);
  gemm(Trans::No, Trans::Yes, 1.0, expect_us.view(), v.view(), 0.0,
       expect.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      ASSERT_NEAR(res.value(i, j), expect(i, j), 1e-9);
    }
  }
}

TEST(Svt, ZeroThresholdIsIdentityOperator) {
  auto a = gaussian_matrix<double>(80, 8, 38);
  Device dev;
  auto res = svd::singular_value_threshold(dev, a.view(), 0.0);
  EXPECT_EQ(res.rank, 8);
  for (idx j = 0; j < 8; ++j) {
    for (idx i = 0; i < 80; ++i) ASSERT_NEAR(res.value(i, j), a(i, j), 1e-10);
  }
}

TEST(Svt, LargeThresholdGivesZero) {
  auto a = gaussian_matrix<double>(50, 5, 39);
  Device dev;
  auto res = svd::singular_value_threshold(dev, a.view(), 1e6);
  EXPECT_EQ(res.rank, 0);
  EXPECT_LT(max_abs(res.value.view()), 1e-12);
}

}  // namespace
}  // namespace caqr
