#pragma once

// High-level QR front end and the shape-adaptive algorithm selector the
// paper proposes in §V.C: "This suggests an autotuning framework for QR
// where a different algorithm may be chosen depending on the matrix size."
//
// adaptive_qr() predicts the simulated cost of CAQR and of the hybrid
// (MAGMA-like) blocked Householder at the given shape using the machine
// model only (no data touched), then runs the cheaper one. Prediction uses
// the same cost models as execution, so the selection is exact with respect
// to the simulator. pick_householder() is that comparison, written once
// (serve::make_plan widens it with the CholeskyQR candidates). adaptive_qr
// is the library's one "algorithm -> launches" dispatch on both clocks: a
// ModelOnly run issues exactly the launches of a Functional one.
//
// Thread-safety and determinism, for every function in this header: all are
// pure functions of (device, inputs, options) with no shared mutable state —
// concurrent calls are safe as long as each targets a distinct Device (the
// repo-wide launch rule). Results are bit-deterministic for fixed inputs
// and options: prediction probes run ModelOnly on private devices, and the
// functional paths inherit the simulator's deterministic block execution.
// The serving layer builds directly on these guarantees: it memoizes the
// predictions per shape (PlanCache) and fans adaptive_qr out across
// worker-owned devices (SolverPool) without changing any result.

#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "baselines/qr_baselines.hpp"
#include "caqr/caqr.hpp"
#include "linalg/norms.hpp"
#include "tsqr/cholqr.hpp"

namespace caqr {

enum class QrAlgorithm {
  Auto,            // pick by predicted cost (the paper's suggested framework)
  Caqr,            // always communication-avoiding QR
  Hybrid,          // always hybrid blocked Householder (MAGMA-like)
  CholeskyQr2,     // Gram + Cholesky, one reorthogonalization pass
  CholeskyQr3,     // Gram + Cholesky, two reorthogonalization passes
  CholeskyQr2Mixed,  // CholeskyQR2 with a TF32-rate first Gram pass
};

inline bool is_cholqr(QrAlgorithm a) {
  return a == QrAlgorithm::CholeskyQr2 || a == QrAlgorithm::CholeskyQr3 ||
         a == QrAlgorithm::CholeskyQr2Mixed;
}

// Maps a CholeskyQR-family algorithm to solver options; the TSQR fallback
// inherits the CAQR options' decomposition settings.
inline tsqr::CholQrOptions cholqr_options_for(QrAlgorithm a,
                                              const CaqrOptions& caqr_opt) {
  tsqr::CholQrOptions o;
  o.variant = a == QrAlgorithm::CholeskyQr3 ? tsqr::CholQrVariant::CholQr3
                                            : tsqr::CholQrVariant::CholQr2;
  o.precision = a == QrAlgorithm::CholeskyQr2Mixed
                    ? gpusim::PrecisionPolicy::Tf32Gram
                    : gpusim::PrecisionPolicy::Native;
  o.tsqr = caqr_opt.tsqr;
  return o;
}

// Typed rejection of a CholeskyQR-family request on a non-empty wide input
// (the dist::PartitionError pattern): the Gram path needs rows >= cols, and
// a throw, unlike an abort, reaches a serving caller through its future.
struct CholQrShapeError : std::runtime_error {
  CholQrShapeError(idx rows_, idx cols_)
      : std::runtime_error("CholeskyQR rejected: " + std::to_string(rows_) +
                           " x " + std::to_string(cols_) +
                           " is wide (need rows >= cols); request Caqr, "
                           "Hybrid or Auto"),
        rows(rows_),
        cols(cols_) {}
  idx rows = 0;
  idx cols = 0;
};

// Explicit factors plus what ran and how long it took (simulated). `used`
// is never Auto: it records the resolved algorithm.
template <typename T>
struct QrSolveResult {
  Matrix<T> q;  // m x min(m, n), orthonormal columns
  Matrix<T> r;  // min(m, n) x n upper triangular
  QrAlgorithm used = QrAlgorithm::Caqr;
  double simulated_seconds = 0;
  // CholeskyQR runs only: Ok, or Corrected when a detected breakdown was
  // recovered by the Householder TSQR fallback (cholqr_fallback = true).
  ft::Severity severity = ft::Severity::Ok;
  bool cholqr_fallback = false;
  // Full fault-tolerance outcome of the run (retry counts, schedule
  // fallback, transfer/device-loss counters on distributed paths).
  // run_status.severity always agrees with `severity` above; serve callers
  // read it through QrResponse to learn whether their solve was corrected.
  ft::RunStatus run_status;
};

// Predicts simulated seconds without touching data: runs the full launch
// schedule on a private ModelOnly probe device with storage-free
// placeholders. Exact with respect to the simulator (same cost models as
// execution), so `Auto` selection can never disagree with a measured run.
template <typename T>
double predict_caqr_seconds(const gpusim::GpuMachineModel& model, idx m, idx n,
                            const CaqrOptions& opt = {}) {
  gpusim::Device probe(model, gpusim::ExecMode::ModelOnly);
  auto f = CaqrFactorization<T>::factor(probe, Matrix<T>::shape_only(m, n), opt);
  (void)f;
  return probe.elapsed_seconds();
}

template <typename T>
double predict_hybrid_seconds(const gpusim::GpuMachineModel& model, idx m,
                              idx n, const baselines::HybridQrOptions& opt = {}) {
  gpusim::Device probe(model, gpusim::ExecMode::ModelOnly);
  return baselines::hybrid_qr(probe, Matrix<T>::shape_only(m, n), opt).seconds;
}

// Auto's pick between the Householder algorithms (§V.C): CAQR or the hybrid
// blocked Householder, whichever the machine model predicts cheaper; ties
// go to CAQR.
template <typename T>
QrAlgorithm pick_householder(const gpusim::GpuMachineModel& model, idx m,
                             idx n, const CaqrOptions& caqr_opt = {},
                             const baselines::HybridQrOptions& hybrid_opt = {}) {
  return predict_caqr_seconds<T>(model, m, n, caqr_opt) <=
                 predict_hybrid_seconds<T>(model, m, n, hybrid_opt)
             ? QrAlgorithm::Caqr
             : QrAlgorithm::Hybrid;
}

// Shape-adaptive QR: factors A and returns explicit (Q, R). With Auto, the
// algorithm is re-predicted on every call — repeated same-shape traffic
// should go through serve::SolverPool / serve::PlanCache, which memoize
// the selection and tuning per (shape, dtype, model fingerprint). Copies
// its input in Functional mode (the factorization is destructive); in
// ModelOnly the input may be a Matrix::shape_only placeholder, nothing is
// read, and Q and R come back shape_only. A CholeskyQR-family request
// throws CholQrShapeError on a wide input and runs CAQR on an empty one.
template <typename VA>
QrSolveResult<view_scalar_t<VA>> adaptive_qr(
    gpusim::Device& dev, const VA& a_in, QrAlgorithm algo = QrAlgorithm::Auto,
    const CaqrOptions& caqr_opt = {},
    const baselines::HybridQrOptions& hybrid_opt = {}) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx m = a.rows(), n = a.cols();
  const idx k = std::min(m, n);

  if (algo == QrAlgorithm::Auto) {
    algo = pick_householder<T>(dev.model(), m, n, caqr_opt, hybrid_opt);
  } else if (is_cholqr(algo) && k == 0) {
    algo = QrAlgorithm::Caqr;  // the Householder paths handle empty shapes
  } else if (is_cholqr(algo) && m < n) {
    throw CholQrShapeError(m, n);
  }

  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  Matrix<T> work =
      functional ? Matrix<T>::from(a) : Matrix<T>::shape_only(m, n);
  const double t0 = dev.elapsed_seconds();
  QrSolveResult<T> out;
  out.used = algo;
  if (is_cholqr(algo)) {
    // The fallback refactors `a` itself: the caller's input outlives the
    // call, so no second copy is kept.
    auto res = tsqr::cholqr(dev, std::move(work),
                            cholqr_options_for(algo, caqr_opt), a);
    out.q = std::move(res.q);
    out.r = std::move(res.r);
    out.severity = res.severity;
    out.cholqr_fallback = res.fell_back;
    out.run_status.severity = res.severity;
  } else if (algo == QrAlgorithm::Caqr) {
    auto f = CaqrFactorization<T>::factor(dev, std::move(work), caqr_opt);
    out.r = functional ? f.r() : Matrix<T>::shape_only(k, n);
    out.q = f.form_q(dev, k);
    out.run_status = f.status();
    out.severity = out.run_status.severity;
  } else {
    auto res = baselines::hybrid_qr(dev, std::move(work), hybrid_opt);
    out.r = functional ? extract_r(res.factored.view())
                       : Matrix<T>::shape_only(k, n);
    out.q = functional ? form_q(res.factored.view(), res.tau.data(), k)
                       : Matrix<T>::shape_only(m, k);
    // Forming Q costs roughly another factorization's worth of GEMM work.
    baselines::charge_gemm(dev, m, k, k, "hybrid_orgqr");
  }
  out.simulated_seconds = dev.elapsed_seconds() - t0;
  return out;
}

// Least-squares solve min ||A x - B||_F for tall A through the requested
// QR: X = R^{-1} (Q^T B)(1:n). B may have multiple right-hand sides. CAQR
// and the hybrid apply Q^T implicitly; a CholeskyQR-family algorithm runs
// through adaptive_qr and multiplies by its explicit Q. Q^T B is charged to
// the device on every branch: CAQR's through apply_qt's launches, the
// hybrid's and CholeskyQR's as one n x nrhs x m gemm. In ModelOnly, A and B
// may be Matrix::shape_only placeholders: nothing is read, the same
// launches are charged, and X comes back shape_only.
template <typename VA, typename VB>
Matrix<view_scalar_t<VA>> least_squares_solve(gpusim::Device& dev,
                                              const VA& a_in, const VB& b_in,
                                              QrAlgorithm algo = QrAlgorithm::Auto) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const ConstMatrixView<T> b = cview(b_in);
  const idx m = a.rows(), n = a.cols(), nrhs = b.cols();
  CAQR_CHECK(m >= n && b.rows() == m);

  if (algo == QrAlgorithm::Auto) algo = pick_householder<T>(dev.model(), m, n);

  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  const auto copy = [&](ConstMatrixView<T> v) {
    return functional ? Matrix<T>::from(v)
                      : Matrix<T>::shape_only(v.rows(), v.cols());
  };
  Matrix<T> qtb = copy(b);
  Matrix<T> r;
  if (is_cholqr(algo)) {
    auto res = adaptive_qr(dev, a, algo);
    baselines::charge_gemm(dev, n, nrhs, m, "lsq_qtb");
    if (functional) {
      gemm(Trans::Yes, Trans::No, T(1), res.q.view(), b, T(0),
           qtb.view().block(0, 0, n, nrhs));
    }
    r = std::move(res.r);
  } else if (algo == QrAlgorithm::Caqr) {
    auto f = CaqrFactorization<T>::factor(dev, copy(a));
    f.apply_qt(dev, qtb.view());
    if (functional) r = f.r();
  } else {
    auto res = baselines::hybrid_qr(dev, copy(a));
    baselines::charge_gemm(dev, n, nrhs, m, "lsq_qtb");
    if (functional) {
      apply_q_left(res.factored.view().block(0, 0, m, n), res.tau.data(),
                   Trans::Yes, qtb.view());
      r = extract_r(res.factored.view());
    }
  }
  if (!functional) return Matrix<T>::shape_only(n, nrhs);
  Matrix<T> x = Matrix<T>::from(qtb.view().block(0, 0, n, nrhs));
  trsm(Side::Left, UpLo::Upper, Trans::No, r.view().block(0, 0, n, n),
       x.view());
  return x;
}

// Mixed-precision least squares: factor once in single precision (fast on
// the GPU — the paper's precision throughout), then iteratively refine the
// solution with double-precision residuals, reusing the float factorization
// for each correction solve. On reasonably conditioned problems this reaches
// double-precision-level residuals at single-precision factorization cost —
// a natural extension of the paper's "single precision is adequate" choice.
template <typename T = double>
struct RefinedLsResult {
  Matrix<double> x;
  int refinement_steps = 0;
  double final_residual_norm = 0;  // ||A^T (A x - b)|| / ||b||
};

template <typename VA, typename VB>
RefinedLsResult<> least_squares_solve_refined(gpusim::Device& dev,
                                              const VA& a_in, const VB& b_in,
                                              int max_refinements = 5) {
  static_assert(std::is_same_v<view_scalar_t<VA>, double> &&
                    std::is_same_v<view_scalar_t<VB>, double>,
                "refined solve takes double inputs (factors in float)");
  const ConstMatrixView<double> a = cview(a_in);
  const ConstMatrixView<double> b = cview(b_in);
  const idx m = a.rows(), n = a.cols(), k = b.cols();
  CAQR_CHECK(m >= n && b.rows() == m);

  // Single-precision copy and factorization.
  Matrix<float> af(m, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) af(i, j) = static_cast<float>(a(i, j));
  }
  auto f = CaqrFactorization<float>::factor(dev, std::move(af));
  auto rf = f.r();

  // Correction solve in float: dx = R^-1 (Q^T r)(1:n).
  auto solve_float = [&](const Matrix<double>& rhs, Matrix<double>& dx) {
    Matrix<float> rf32(m, k);
    for (idx j = 0; j < k; ++j) {
      for (idx i = 0; i < m; ++i) rf32(i, j) = static_cast<float>(rhs(i, j));
    }
    f.apply_qt(dev, rf32.view());
    Matrix<float> top(n, k);
    top.view().copy_from(rf32.view().block(0, 0, n, k));
    trsm(Side::Left, UpLo::Upper, Trans::No, rf.view().block(0, 0, n, n),
         top.view());
    for (idx j = 0; j < k; ++j) {
      for (idx i = 0; i < n; ++i) dx(i, j) = static_cast<double>(top(i, j));
    }
  };

  RefinedLsResult<> out{Matrix<double>::zeros(n, k), 0, 0.0};
  Matrix<double> residual = Matrix<double>::from(b);
  Matrix<double> dx(n, k);
  const double bnorm = frobenius_norm(b);
  double prev = std::numeric_limits<double>::infinity();
  for (int step = 0; step <= max_refinements; ++step) {
    solve_float(residual, dx);
    for (idx j = 0; j < k; ++j) {
      for (idx i = 0; i < n; ++i) out.x(i, j) += dx(i, j);
    }
    // residual = b - A x in double.
    residual.view().copy_from(b);
    gemm(Trans::No, Trans::No, -1.0, a, out.x.view(), 1.0, residual.view());
    // Least-squares optimality measure: the projected residual A^T r.
    Matrix<double> atr = Matrix<double>::zeros(n, k);
    gemm(Trans::Yes, Trans::No, 1.0, a, residual.view(), 0.0, atr.view());
    out.final_residual_norm =
        bnorm > 0 ? frobenius_norm(atr.view()) / bnorm : 0.0;
    out.refinement_steps = step;
    if (out.final_residual_norm >= 0.5 * prev) break;  // stagnated
    prev = out.final_residual_norm;
  }
  return out;
}

}  // namespace caqr
