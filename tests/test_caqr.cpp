// Tests for the full CAQR factorization: invariants across matrix shapes
// and grid configurations, equivalence with the reference QR, Q application
// and formation, determinism, and timeline behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "caqr/caqr.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

struct CaqrCase {
  idx m, n, panel_width, block_rows;
};

class CaqrShapes : public ::testing::TestWithParam<CaqrCase> {};

TEST_P(CaqrShapes, FactorizationInvariants) {
  const auto [m, n, w, h] = GetParam();
  CaqrOptions opt;
  opt.panel_width = w;
  opt.tsqr.block_rows = h;

  auto a = gaussian_matrix<double>(m, n, 101);
  Device dev;
  auto f = caqr_factor(dev, a.view(), opt);

  // R matches the reference blocked Householder QR up to row signs.
  auto r = f.r();
  auto ref = a.clone();
  std::vector<double> tau(static_cast<std::size_t>(std::min(m, n)));
  geqrf(ref.view(), tau.data());
  auto r_ref = extract_r(ref.view());
  EXPECT_LT(r_factor_difference(r_ref.view(), r.view()), 1e-10);

  // Q orthonormal and A = Q R.
  const idx k = std::min(m, n);
  auto q = f.form_q(dev, k);
  EXPECT_LT(orthogonality_error(q.view()), 1e-11);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CaqrShapes,
    ::testing::Values(CaqrCase{128, 32, 16, 64},    // 2 panels
                      CaqrCase{256, 64, 16, 64},    // 4 panels, tree depth 1
                      CaqrCase{100, 40, 16, 64},    // ragged
                      CaqrCase{64, 64, 16, 64},     // square
                      CaqrCase{61, 61, 16, 64},     // odd square
                      CaqrCase{512, 48, 8, 32},     // narrow panels
                      CaqrCase{96, 96, 32, 96},     // panel = block
                      CaqrCase{40, 64, 16, 64},     // wide matrix (m < n)
                      CaqrCase{33, 129, 16, 64},    // very wide
                      CaqrCase{500, 20, 20, 100},   // single panel
                      CaqrCase{1, 1, 16, 64}));     // degenerate

TEST(Caqr, ApplyQtMatchesExplicitQ) {
  const idx m = 300, n = 48;
  auto a = gaussian_matrix<double>(m, n, 55);
  Device dev;
  CaqrOptions opt;
  opt.panel_width = 16;
  opt.tsqr.block_rows = 64;
  auto f = caqr_factor(dev, a.view(), opt);

  auto q = f.form_q(dev, n);
  auto b0 = gaussian_matrix<double>(m, 3, 56);

  // Apply Q^T through the kernels.
  auto b1 = b0.clone();
  f.apply_qt(dev, b1.view());

  // Compare against explicit Q^T b (top n rows).
  auto b2 = Matrix<double>::zeros(n, 3);
  gemm(Trans::Yes, Trans::No, 1.0, q.view(), b0.view(), 0.0, b2.view());
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < n; ++i) ASSERT_NEAR(b1(i, j), b2(i, j), 1e-10);
  }
}

TEST(Caqr, ApplyQThenQtRoundTrips) {
  const idx m = 400, n = 32;
  auto a = gaussian_matrix<double>(m, n, 57);
  Device dev;
  auto f = caqr_factor(dev, a.view());

  auto c0 = gaussian_matrix<double>(m, 5, 58);
  auto c = c0.clone();
  f.apply_qt(dev, c.view());
  f.apply_q(dev, c.view());
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-11);
  }
}

TEST(Caqr, LeastSquaresSolveViaQr) {
  // Solve min ||Ax - b||: x = R^-1 (Q^T b)(1:n).
  const idx m = 600, n = 24;
  auto a = gaussian_matrix<double>(m, n, 60);
  auto x_true = gaussian_matrix<double>(n, 1, 61);
  auto b = Matrix<double>::zeros(m, 1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());

  Device dev;
  auto f = caqr_factor(dev, a.view());
  f.apply_qt(dev, b.view());
  auto r = f.r();
  trsv_upper(r.view().block(0, 0, n, n), b.view().col(0));
  for (idx i = 0; i < n; ++i) {
    ASSERT_NEAR(b(i, 0), x_true(i, 0), 1e-9);
  }
}

TEST(Caqr, FloatPrecisionTallSkinny) {
  // The paper's regime: very tall, narrow, single precision.
  const idx m = 20000, n = 16;
  auto a = gaussian_matrix<float>(m, n, 63);
  Device dev;
  auto f = caqr_factor(dev, a.view());
  auto q = f.form_q(dev, n);
  auto r = f.r();
  EXPECT_LT(orthogonality_error(q.view()), 1e-4);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), 1e-4);
}

TEST(Caqr, IllConditionedBackwardStable) {
  auto a = matrix_with_condition<double>(512, 32, 1e10, 64);
  Device dev;
  auto f = caqr_factor(dev, a.view());
  auto q = f.form_q(dev, 32);
  auto r = f.r();
  EXPECT_LT(orthogonality_error(q.view()), 1e-12);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), 1e-12);
}

TEST(Caqr, PackedFormatHasRInUpperTriangle) {
  const idx m = 200, n = 32;
  auto a = gaussian_matrix<double>(m, n, 65);
  Device dev;
  auto f = caqr_factor(dev, a.view());
  const auto& packed = f.packed();
  auto r = f.r();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= std::min(j, n - 1); ++i) {
      ASSERT_EQ(packed(i, j), r(i, j));
    }
  }
}

TEST(Caqr, DeterministicAcrossThreadPools) {
  auto a = gaussian_matrix<float>(512, 48, 66);
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    Device dev(GpuMachineModel::c2050(), ExecMode::Functional, &pool);
    auto f = caqr_factor(dev, a.view());
    return Matrix<float>::from(f.packed().view());
  };
  auto s1 = run(1);
  auto s3 = run(3);
  for (idx j = 0; j < s1.cols(); ++j) {
    for (idx i = 0; i < s1.rows(); ++i) ASSERT_EQ(s1(i, j), s3(i, j));
  }
}

TEST(Caqr, TimelineRecordsAllFourKernels) {
  auto a = gaussian_matrix<double>(1024, 64, 67);
  Device dev;
  CaqrOptions opt;
  opt.panel_width = 16;
  opt.tsqr.block_rows = 64;
  auto f = caqr_factor(dev, a.view(), opt);
  (void)f;
  for (const char* k : {"factor", "factor_tree", "apply_qt_h", "apply_qt_tree"}) {
    EXPECT_NE(dev.profile(k), nullptr) << k;
  }
  EXPECT_GT(dev.elapsed_seconds(), 0.0);
}

TEST(Caqr, ModelOnlyTimelineMatchesFunctional) {
  auto a = gaussian_matrix<float>(2048, 64, 68);
  auto run = [&](ExecMode mode) {
    Device dev(GpuMachineModel::c2050(), mode);
    auto f = caqr_factor(dev, a.view());
    (void)f;
    return dev.elapsed_seconds();
  };
  EXPECT_DOUBLE_EQ(run(ExecMode::Functional), run(ExecMode::ModelOnly));
}

TEST(Caqr, SkinnyFasterThanWideForSameFlops) {
  // Sanity on the simulated clock: CAQR on a tall-skinny matrix should get
  // throughput within its compute-bound regime (not collapse to bandwidth).
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto a = Matrix<float>::zeros(100000, 192);
  auto f = caqr_factor(dev, a.view());
  (void)f;
  const double gflops =
      geqrf_flop_count(100000, 192) / dev.elapsed_seconds() * 1e-9;
  // Paper's Table I reports 180 GFLOPS at this size; shape check: > 100.
  EXPECT_GT(gflops, 100.0);
  EXPECT_LT(gflops, 500.0);
}

// Paper claim (§V.C): "retrieving Q explicitly (SORGQR) using CAQR is just
// as efficient as factoring the matrix."
TEST(Caqr, FormQCostsAboutAsMuchAsFactoring) {
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto f = CaqrFactorization<float>::factor(
      dev, Matrix<float>::shape_only(100000, 192));
  const double t_factor = dev.elapsed_seconds();
  auto q = f.form_q(dev, 192);
  (void)q;
  const double t_formq = dev.elapsed_seconds() - t_factor;
  // form_q skips the seed columns still equal to e_j (measured 1.02x).
  EXPECT_GT(t_formq / t_factor, 0.9);
  EXPECT_LT(t_formq / t_factor, 1.15);
}

// form_q applies panel p only to seed columns [min(c0, qcols), qcols); the
// skipped entries stay +0, so Q must be bit-identical to the full-width
// apply_q on the identity, for both precisions and both schedules.
// form_q writes its identity seed on the device's pool: one chunk inline,
// larger seeds across the pool's items. Q must keep its bits on 1- and
// 4-thread pools, on both sides of that size, and equal apply_q on a
// serially built identity. ModelOnly still seeds no storage.
TEST(Caqr, FormQPooledSeedKeepsBits) {
  const idx chunk = caqr::detail::kSeedChunkElems;
  struct Shape {
    idx m, n;
  };
  // One chunk; three chunks of several columns; one column per chunk.
  for (const Shape s : {Shape{1000, 24}, Shape{chunk / 8 - 3, 24},
                        Shape{chunk + 7, 3}}) {
    SCOPED_TRACE(::testing::Message() << s.m << " x " << s.n);
    ThreadPool one(1), four(4);
    Device d1(GpuMachineModel::c2050(), ExecMode::Functional, &one);
    Device d4(GpuMachineModel::c2050(), ExecMode::Functional, &four);
    const auto f = CaqrFactorization<float>::factor(
        d1, gaussian_matrix<float>(s.m, s.n, 91));
    const auto q1 = f.form_q(d1, s.n);
    const auto q4 = f.form_q(d4, s.n);
    auto q_ref = Matrix<float>::identity(s.m, s.n);
    f.apply_q(d1, q_ref.view());
    const std::size_t bytes = static_cast<std::size_t>(s.m * s.n) * sizeof(float);
    EXPECT_EQ(std::memcmp(q1.data(), q4.data(), bytes), 0);
    EXPECT_EQ(std::memcmp(q1.data(), q_ref.data(), bytes), 0);

    Device dm(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    const auto fm = CaqrFactorization<float>::factor(
        dm, Matrix<float>::shape_only(s.m, s.n));
    const auto qm = fm.form_q(dm, s.n);
    EXPECT_EQ(qm.data(), nullptr);
    EXPECT_EQ(qm.rows(), s.m);
    EXPECT_EQ(qm.cols(), s.n);
  }
}

struct FormQCase {
  idx m, n, panel_width, block_rows, qcols;
};

class FormQNarrowing : public ::testing::TestWithParam<FormQCase> {};

template <typename T>
void expect_form_q_matches_full_walk(const FormQCase& c,
                                     CaqrSchedule schedule) {
  CaqrOptions opt;
  opt.panel_width = c.panel_width;
  opt.tsqr.block_rows = c.block_rows;
  opt.schedule = schedule;
  auto a = gaussian_matrix<T>(c.m, c.n, 71);
  Device dev;
  auto f = caqr_factor(dev, a.view(), opt);
  const Matrix<T> q = f.form_q(dev, c.qcols);
  Matrix<T> full = Matrix<T>::identity(c.m, c.qcols);
  f.apply_q(dev, full.view());
  ASSERT_EQ(q.rows(), c.m);
  ASSERT_EQ(q.cols(), c.qcols);
  for (idx j = 0; j < c.qcols; ++j) {
    ASSERT_EQ(std::memcmp(q.view().col(j), full.view().col(j),
                          static_cast<std::size_t>(c.m) * sizeof(T)),
              0)
        << "column " << j;
  }
}

TEST_P(FormQNarrowing, BitIdenticalToFullWidthApply) {
  for (const CaqrSchedule s : {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
    expect_form_q_matches_full_walk<float>(GetParam(), s);
    expect_form_q_matches_full_walk<double>(GetParam(), s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FormQNarrowing,
    ::testing::Values(FormQCase{512, 64, 16, 64, 64},   // qcols = n
                      FormQCase{512, 64, 16, 64, 40},   // qcols < n
                      FormQCase{512, 64, 16, 64, 37},   // ragged qcols
                      FormQCase{512, 64, 16, 64, 48},   // = last panel's c0
                      FormQCase{512, 64, 16, 64, 20},   // < last panel's c0
                      FormQCase{300, 12, 16, 64, 12},   // single panel
                      FormQCase{400, 70, 16, 64, 70},   // narrow last panel
                      FormQCase{300, 48, 16, 64, 48},   // m % block_rows != 0
                      FormQCase{96, 96, 16, 32, 96}));  // square

// The factorization's GFLOP/s must not depend on the thread pool driving the
// functional simulation — simulated time is a pure function of the launches.
TEST(Caqr, SimulatedTimeIndependentOfHostParallelism) {
  auto a = gaussian_matrix<float>(1024, 48, 202);
  auto time_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    Device dev(GpuMachineModel::c2050(), ExecMode::Functional, &pool);
    auto f = caqr_factor(dev, a.view());
    (void)f;
    return dev.elapsed_seconds();
  };
  EXPECT_DOUBLE_EQ(time_with(1), time_with(6));
}

}  // namespace
}  // namespace caqr
