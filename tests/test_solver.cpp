// Tests for the adaptive QR front end and the least-squares solver — the
// §V.C "autotuning framework" extension: algorithm selection by predicted
// cost, correctness of both paths, and selection consistency with the
// underlying cost models.

#include <gtest/gtest.h>

#include <cmath>

#include "caqr/solver.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

TEST(AdaptiveQr, PicksCaqrForTallSkinny) {
  const auto model = GpuMachineModel::c2050();
  EXPECT_LT(predict_caqr_seconds<float>(model, 100000, 192),
            predict_hybrid_seconds<float>(model, 100000, 192));
}

TEST(AdaptiveQr, PicksHybridForLargeSquare) {
  const auto model = GpuMachineModel::c2050();
  EXPECT_GT(predict_caqr_seconds<float>(model, 8192, 8192),
            predict_hybrid_seconds<float>(model, 8192, 8192));
}

TEST(AdaptiveQr, AutoSelectionMatchesPrediction) {
  // Functional-size proxy shapes with the same ordering.
  Device dev;
  auto tall = gaussian_matrix<double>(4096, 16, 5);
  auto r1 = adaptive_qr(dev, tall.view());
  EXPECT_EQ(r1.used, QrAlgorithm::Caqr);

  auto square = gaussian_matrix<double>(256, 256, 6);
  const auto model = dev.model();
  const QrAlgorithm expect =
      predict_caqr_seconds<double>(model, 256, 256) <=
              predict_hybrid_seconds<double>(model, 256, 256)
          ? QrAlgorithm::Caqr
          : QrAlgorithm::Hybrid;
  auto r2 = adaptive_qr(dev, square.view());
  EXPECT_EQ(r2.used, expect);
}

TEST(AdaptiveQr, BothPathsProduceValidFactorizations) {
  auto a = gaussian_matrix<double>(300, 48, 7);
  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid}) {
    Device dev;
    auto res = adaptive_qr(dev, a.view(), algo);
    EXPECT_EQ(res.used, algo);
    EXPECT_LT(orthogonality_error(res.q.view()), 1e-12);
    EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
              1e-12);
    EXPECT_GT(res.simulated_seconds, 0.0);
  }
}

TEST(AdaptiveQr, ForcedAlgorithmIsRespected) {
  auto a = gaussian_matrix<float>(2048, 32, 8);
  Device dev;
  auto res = adaptive_qr(dev, a.view(), QrAlgorithm::Hybrid);
  EXPECT_EQ(res.used, QrAlgorithm::Hybrid);
}

TEST(LeastSquares, RecoversExactSolutionNoiseless) {
  const idx m = 500, n = 20, rhs = 3;
  auto a = gaussian_matrix<double>(m, n, 9);
  auto x_true = gaussian_matrix<double>(n, rhs, 10);
  auto b = Matrix<double>::zeros(m, rhs);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());

  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid}) {
    Device dev;
    auto x = least_squares_solve(dev, a.view(), b.view(), algo);
    for (idx j = 0; j < rhs; ++j) {
      for (idx i = 0; i < n; ++i) {
        ASSERT_NEAR(x(i, j), x_true(i, j), 1e-10) << "algo path";
      }
    }
  }
}

TEST(LeastSquares, MinimizesResidualWithNoise) {
  // With noise, the QR solution must satisfy the normal equations:
  // A^T (A x - b) ~ 0.
  const idx m = 2000, n = 8;
  auto a = gaussian_matrix<double>(m, n, 11);
  auto b = gaussian_matrix<double>(m, 1, 12);
  Device dev;
  auto x = least_squares_solve(dev, a.view(), b.view());

  Matrix<double> res = Matrix<double>::from(b.view());
  gemm(Trans::No, Trans::No, -1.0, a.view(), x.view(), 1.0, res.view());
  Matrix<double> atres = Matrix<double>::zeros(n, 1);
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), res.view(), 0.0, atres.view());
  EXPECT_LT(max_abs(atres.view()), 1e-9 * frobenius_norm(b.view()));
}

// A CholeskyQR-family request solves through its own factorization: on a
// well-conditioned problem x matches the CAQR solution to float accuracy
// (relative difference <= 1e-4, residual norms equal to 1e-5 relative),
// and the device ran no hybrid QR.
TEST(LeastSquares, CholeskyQrAlgorithmsSolveWithoutHybrid) {
  const idx m = 2048, n = 32;
  const auto a = gaussian_matrix<float>(m, n, 16);
  const auto x_true = gaussian_matrix<float>(n, 1, 17);
  auto b = gaussian_matrix<float>(m, 1, 18);
  gemm(Trans::No, Trans::No, 1.0f, a.view(), x_true.view(), 0.1f, b.view());
  auto residual = [&](const Matrix<float>& x) {
    Matrix<double> r(m, 1);
    for (idx i = 0; i < m; ++i) {
      double s = b(i, 0);
      for (idx j = 0; j < n; ++j) s -= static_cast<double>(a(i, j)) * x(j, 0);
      r(i, 0) = s;
    }
    return frobenius_norm(r.view());
  };

  Device ref_dev(GpuMachineModel::a100());
  const auto x_caqr =
      least_squares_solve(ref_dev, a.view(), b.view(), QrAlgorithm::Caqr);
  const double res_caqr = residual(x_caqr);
  for (const auto algo : {QrAlgorithm::CholeskyQr2, QrAlgorithm::CholeskyQr3,
                          QrAlgorithm::CholeskyQr2Mixed}) {
    Device dev(GpuMachineModel::a100());
    const auto x = least_squares_solve(dev, a.view(), b.view(), algo);
    double diff = 0.0;
    for (idx i = 0; i < n; ++i) {
      const double d = static_cast<double>(x(i, 0)) - x_caqr(i, 0);
      diff += d * d;
    }
    EXPECT_LE(std::sqrt(diff), 1e-4 * frobenius_norm(x_caqr.view()))
        << static_cast<int>(algo);
    EXPECT_NEAR(residual(x), res_caqr, 1e-5 * res_caqr)
        << static_cast<int>(algo);
    EXPECT_EQ(dev.profile("hybrid_qr"), nullptr) << static_cast<int>(algo);
    EXPECT_GT(dev.elapsed_seconds(), 0.0);
  }
}

TEST(LeastSquares, IllConditionedStillAccurate) {
  const idx m = 600, n = 16;
  auto a = matrix_with_condition<double>(m, n, 1e8, 13);
  auto x_true = gaussian_matrix<double>(n, 1, 14);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());
  Device dev;
  auto x = least_squares_solve(dev, a.view(), b.view(), QrAlgorithm::Caqr);
  // Forward error bounded by cond * eps ~ 1e8 * 1e-16 * growth; the
  // residual-based check is the stable property.
  Matrix<double> res = Matrix<double>::from(b.view());
  gemm(Trans::No, Trans::No, -1.0, a.view(), x.view(), 1.0, res.view());
  EXPECT_LT(frobenius_norm(res.view()), 1e-7 * frobenius_norm(b.view()));
}

TEST(AdaptiveQr, PredictionIsDataFree) {
  // shape_only prediction must not allocate or touch storage: exercised at
  // a size whose data (32 GB) could not exist.
  const auto model = GpuMachineModel::c2050();
  const double t = predict_caqr_seconds<float>(model, 1 << 20, 8192);
  // ~1.3e14 flops at CAQR's ~200 GFLOP/s plateau is on the order of 10 min
  // of simulated time; the check brackets it.
  EXPECT_GT(t, 60.0);
  EXPECT_LT(t, 3600.0);
}

TEST(RefinedLeastSquares, ReachesNearDoublePrecisionFromFloatFactor) {
  const idx m = 1500, n = 24;
  auto a = gaussian_matrix<double>(m, n, 55);
  auto xt = gaussian_matrix<double>(n, 1, 56);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), xt.view(), 0.0, b.view());

  Device dev;
  auto refined = least_squares_solve_refined(dev, a.view(), b.view());
  double err = 0;
  for (idx i = 0; i < n; ++i) {
    err = std::max(err, std::fabs(refined.x(i, 0) - xt(i, 0)));
  }
  // A single float solve gives ~1e-4; refinement must push well below that.
  EXPECT_LT(err, 1e-9);
  EXPECT_GE(refined.refinement_steps, 1);
  EXPECT_LT(refined.final_residual_norm, 1e-9);
}

TEST(RefinedLeastSquares, RefinementImprovesOnSingleFloatSolve) {
  const idx m = 1000, n = 16;
  auto a = gaussian_matrix<double>(m, n, 57);
  auto xt = gaussian_matrix<double>(n, 1, 58);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), xt.view(), 0.0, b.view());

  Device dev;
  auto refined = least_squares_solve_refined(dev, a.view(), b.view(), 0);
  auto refined5 = least_squares_solve_refined(dev, a.view(), b.view(), 5);
  double err0 = 0, err5 = 0;
  for (idx i = 0; i < n; ++i) {
    err0 = std::max(err0, std::fabs(refined.x(i, 0) - xt(i, 0)));
    err5 = std::max(err5, std::fabs(refined5.x(i, 0) - xt(i, 0)));
  }
  EXPECT_LT(err5, err0 * 1e-2);
}

// ------------------------------------------- ModelOnly == Functional parity

// adaptive_qr is the one algorithm -> launches dispatch on both clocks: a
// ModelOnly run on a shape_only placeholder issues the Functional run's
// launches, kernel by kernel, charges its simulated seconds bit for bit, and
// returns storage-free factors of the same shapes.
template <typename T>
void expect_model_only_parity(const GpuMachineModel& model, QrAlgorithm algo) {
  const idx m = 2048, n = 32;
  Device fdev(model, ExecMode::Functional);
  Device mdev(model, ExecMode::ModelOnly);
  const auto a = gaussian_matrix<T>(m, n, 21);
  const auto fr = adaptive_qr(fdev, a.view(), algo);
  const auto mr = adaptive_qr(mdev, Matrix<T>::shape_only(m, n).view(), algo);
  EXPECT_EQ(mr.used, fr.used);
  EXPECT_GT(mr.simulated_seconds, 0.0);
  EXPECT_EQ(mr.simulated_seconds, fr.simulated_seconds);
  EXPECT_EQ(mr.q.rows(), fr.q.rows());
  EXPECT_EQ(mr.q.cols(), fr.q.cols());
  EXPECT_EQ(mr.r.rows(), fr.r.rows());
  EXPECT_EQ(mr.r.cols(), fr.r.cols());
  EXPECT_EQ(mr.q.data(), nullptr);
  EXPECT_EQ(mr.r.data(), nullptr);
  const auto fp = fdev.profiles();
  const auto mp = mdev.profiles();
  ASSERT_EQ(mp.size(), fp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_EQ(mp[i].name, fp[i].name);
    EXPECT_EQ(mp[i].launches, fp[i].launches) << fp[i].name;
  }
}

TEST(ModelOnlyParity, AdaptiveQrC2050) {
  for (const auto algo : {QrAlgorithm::Auto, QrAlgorithm::Caqr,
                          QrAlgorithm::Hybrid, QrAlgorithm::CholeskyQr2,
                          QrAlgorithm::CholeskyQr3}) {
    SCOPED_TRACE(static_cast<int>(algo));
    expect_model_only_parity<float>(GpuMachineModel::c2050(), algo);
    expect_model_only_parity<double>(GpuMachineModel::c2050(), algo);
  }
}

TEST(ModelOnlyParity, AdaptiveQrA100) {
  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid,
                          QrAlgorithm::CholeskyQr2, QrAlgorithm::CholeskyQr3,
                          QrAlgorithm::CholeskyQr2Mixed}) {
    SCOPED_TRACE(static_cast<int>(algo));
    expect_model_only_parity<float>(GpuMachineModel::a100(), algo);
  }
}

// least_squares_solve charges the same launches on both clocks on every
// branch, Q^T b included: the hybrid and CholeskyQR branches charge it as
// one n x nrhs x m gemm ("lsq_qtb"), CAQR through apply_qt's launches.
TEST(ModelOnlyParity, LeastSquaresEveryBranch) {
  const idx m = 2048, n = 32, nrhs = 3;
  const auto a = gaussian_matrix<float>(m, n, 23);
  const auto b = gaussian_matrix<float>(m, nrhs, 24);
  for (const auto algo : {QrAlgorithm::Caqr, QrAlgorithm::Hybrid,
                          QrAlgorithm::CholeskyQr2, QrAlgorithm::CholeskyQr3,
                          QrAlgorithm::CholeskyQr2Mixed}) {
    SCOPED_TRACE(static_cast<int>(algo));
    Device fdev(GpuMachineModel::a100(), ExecMode::Functional);
    Device mdev(GpuMachineModel::a100(), ExecMode::ModelOnly);
    const auto fx = least_squares_solve(fdev, a.view(), b.view(), algo);
    const auto mx = least_squares_solve(
        mdev, Matrix<float>::shape_only(m, n).view(),
        Matrix<float>::shape_only(m, nrhs).view(), algo);
    EXPECT_GT(mdev.elapsed_seconds(), 0.0);
    EXPECT_EQ(mdev.elapsed_seconds(), fdev.elapsed_seconds());
    EXPECT_EQ(mx.rows(), fx.rows());
    EXPECT_EQ(mx.cols(), fx.cols());
    EXPECT_EQ(mx.data(), nullptr);
    const auto fp = fdev.profiles();
    const auto mp = mdev.profiles();
    ASSERT_EQ(mp.size(), fp.size());
    for (std::size_t i = 0; i < fp.size(); ++i) {
      EXPECT_EQ(mp[i].name, fp[i].name);
      EXPECT_EQ(mp[i].launches, fp[i].launches) << fp[i].name;
    }
    const auto* qtb = fdev.profile("lsq_qtb");
    if (algo == QrAlgorithm::Caqr) {
      EXPECT_EQ(qtb, nullptr);
    } else {
      ASSERT_NE(qtb, nullptr);
      EXPECT_EQ(qtb->launches, 1);
    }
  }
}

// CholeskyQR needs rows >= cols: a wide request is a typed error, never an
// abort, and an empty one runs CAQR (the Householder paths handle it).
TEST(AdaptiveQr, CholeskyQrShapeRules) {
  Device dev;
  const auto wide = gaussian_matrix<float>(16, 32, 22);
  try {
    (void)adaptive_qr(dev, wide.view(), QrAlgorithm::CholeskyQr2);
    ADD_FAILURE() << "wide CholeskyQR did not throw";
  } catch (const CholQrShapeError& e) {
    EXPECT_EQ(e.rows, 16);
    EXPECT_EQ(e.cols, 32);
  }
  // The Householder algorithms still factor the wide input.
  EXPECT_EQ(adaptive_qr(dev, wide.view(), QrAlgorithm::Caqr).r.cols(), 32);

  const Matrix<float> empty(16, 0);
  const auto res = adaptive_qr(dev, empty.view(), QrAlgorithm::CholeskyQr3);
  EXPECT_EQ(res.used, QrAlgorithm::Caqr);
  EXPECT_EQ(res.r.rows(), 0);
}

}  // namespace
}  // namespace caqr
