#pragma once

// Tall-skinny SVD via QR (§VI.B) and singular-value thresholding (§VI.C).
//
// The paper's pipeline for the m x n video matrix (m >> n):
//
//   A = Q R                      (QR on the GPU: CAQR or a baseline)
//   R = U Σ V^T                  (small n x n SVD on the CPU)
//   A = (Q U) Σ V^T              (left singular vectors via GEMM on the GPU)
//
// Each stage is charged to the same simulated Device timeline so the Robust
// PCA iteration-rate comparison (Table II) measures exactly what the paper
// measured. The QR backend is pluggable — CAQR, the tuned BLAS2 GPU QR, or
// a CPU SVD stand-in — through the SvdBackend interface.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/gemm_model.hpp"
#include "baselines/qr_baselines.hpp"
#include "caqr/solver.hpp"
#include "gpusim/device.hpp"
#include "linalg/svd.hpp"

namespace caqr::svd {

template <typename T>
struct TallSkinnySvd {
  Matrix<T> u;           // m x n left singular vectors
  std::vector<T> sigma;  // n singular values, descending
  Matrix<T> v;           // n x n right singular vectors
  // False when the small Jacobi SVD of R exhausted its sweep budget without
  // reaching pairwise orthogonality — the factors are then approximate and
  // callers must not treat them as converged. Always true in ModelOnly runs
  // (no numerics executed).
  bool small_svd_converged = true;
};

enum class QrBackend {
  Caqr,       // the paper's contribution
  GpuBlas2,   // tuned bandwidth-bound GPU QR (Table II middle row)
};

// Routing point for external QR execution (the serving layer's
// serve::PooledQrHook implements this). When TallSkinnySvdOptions::qr_hook
// is set and the run is Functional with the Caqr backend, stage 1 delegates
// to the hook instead of factoring inline: the hook returns explicit
// (Q, R) for `a` computed with exactly the given options — so the result is
// bit-identical to the inline path — plus the simulated seconds the
// factorization took on whatever device served it; the caller charges that
// time to its own timeline. ModelOnly runs ignore the hook (the inline
// charge path already models the cost, and a remote round trip has no
// numerics to contribute).
class QrHook {
 public:
  virtual ~QrHook() = default;
  // Factors a = q r (q: m x n orthonormal, r: n x n upper triangular for
  // tall a); returns simulated seconds spent. Must be thread-safe if the
  // same hook serves concurrent SVDs.
  virtual double qr(ConstMatrixView<float> a, const caqr::CaqrOptions& opt,
                    Matrix<float>& q, Matrix<float>& r) = 0;
  virtual double qr(ConstMatrixView<double> a, const caqr::CaqrOptions& opt,
                    Matrix<double>& q, Matrix<double>& r) = 0;
};

struct TallSkinnySvdOptions {
  QrBackend backend = QrBackend::Caqr;
  caqr::CaqrOptions caqr;
  baselines::GpuBlas2QrOptions blas2 = baselines::GpuBlas2QrOptions::tuned();
  // Effective rate of the small n x n Jacobi SVD on the host CPU
  // (bandwidth-irrelevant; tiny working set), used for simulated time.
  double cpu_svd_gflops = 4.0;
  // Sweep budget for the small Jacobi SVD; exhaustion is surfaced via
  // TallSkinnySvd::small_svd_converged instead of being silently dropped.
  int svd_max_sweeps = 60;
  // Optional external QR executor (see QrHook above). Non-owning; the hook
  // must outlive every SVD call that uses these options. Robust PCA routes
  // its per-iteration QR through a serve::SolverPool by setting this on
  // RpcaOptions::svd.
  QrHook* qr_hook = nullptr;
};

// Simulated-time charge for the small CPU SVD of R (one-sided Jacobi,
// ~6 sweeps x 4n^3 flops/sweep) plus the PCIe round trip for R.
inline void charge_small_svd(gpusim::Device& dev, idx n,
                             double cpu_svd_gflops) {
  const double flops = 24.0 * static_cast<double>(n) * n * n;
  dev.transfer(static_cast<double>(n) * n * sizeof(float));
  dev.add_external_seconds(flops / (cpu_svd_gflops * 1e9), "cpu_small_svd");
  dev.transfer(2.0 * static_cast<double>(n) * n * sizeof(float));  // U and V
}

// Stage 2 of the pipeline as a standalone entry point: the small n x n CPU
// SVD of an already-computed R, with the same timeline charge and sweep
// budget as tall_skinny_svd. Callers that maintain R incrementally (the
// streaming layer's SlidingWindowQr keeps the window R current across
// append/evict) use this to get singular values/subspaces per frame without
// re-running stage 1 at all. Functional mode computes; ModelOnly only
// charges and returns an unconverged empty result.
template <typename VR>
SvdResult<view_scalar_t<VR>> small_svd_of_r(
    gpusim::Device& dev, const VR& r_in, const TallSkinnySvdOptions& opt = {}) {
  using T = view_scalar_t<VR>;
  const ConstMatrixView<T> r = cview(r_in);
  CAQR_CHECK(r.rows() == r.cols() && r.cols() >= 1);
  charge_small_svd(dev, r.cols(), opt.cpu_svd_gflops);
  SvdResult<T> rs;
  if (dev.mode() == gpusim::ExecMode::Functional) {
    rs = jacobi_svd(r, opt.svd_max_sweeps);
  }
  return rs;
}

// Thin SVD of a tall-skinny matrix through the QR pipeline. Functional in
// ExecMode::Functional; in ModelOnly only the timeline advances and the
// returned factors are unspecified.
template <typename VA>
TallSkinnySvd<view_scalar_t<VA>> tall_skinny_svd(
    gpusim::Device& dev, const VA& a_in, const TallSkinnySvdOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx m = a.rows(), n = a.cols();
  CAQR_CHECK(m >= n && n >= 1);
  // ModelOnly reads no data, so storage-free placeholders stand in for every
  // m x n buffer (the input may itself be one).
  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  TallSkinnySvd<T> out{
      functional ? Matrix<T>::zeros(m, n) : Matrix<T>::shape_only(m, n),
      std::vector<T>(static_cast<std::size_t>(n)), Matrix<T>::zeros(n, n)};

  // Stage 1: A = Q R on the selected GPU backend.
  Matrix<T> q, r;
  if (opt.backend == QrBackend::Caqr) {
    if (opt.qr_hook != nullptr && functional) {
      // Serving-layer route: the hook factors with the same options, so
      // (Q, R) are bit-identical to the inline path below; its device time
      // is charged to this timeline as one external op.
      const double sim = opt.qr_hook->qr(a, opt.caqr, q, r);
      dev.add_external_seconds(sim, "pooled_qr");
    } else {
      // Explicit Q (paper: SORGQR via CAQR costs about as much as the
      // factorization itself) — the call a PooledQrHook worker makes.
      QrSolveResult<T> res = adaptive_qr(dev, a, QrAlgorithm::Caqr, opt.caqr);
      q = std::move(res.q);
      r = std::move(res.r);
    }
  } else {
    auto res = baselines::gpu_blas2_qr(
        dev, functional ? Matrix<T>::from(a) : Matrix<T>::shape_only(m, n),
        opt.blas2);
    r = functional ? extract_r(res.factored.view())
                   : Matrix<T>::shape_only(n, n);
    if (functional) q = form_q(res.factored.view(), res.tau.data(), n);
    // Forming Q for the BLAS2 backend costs another bandwidth-bound sweep.
    baselines::GpuBlas2QrOptions orgqr = opt.blas2;
    orgqr.label = "blas2_orgqr";
    baselines::charge_blas2_sweep(dev, m, n, orgqr);
  }

  // Stage 2: small SVD of R on the CPU.
  SvdResult<T> rs = small_svd_of_r(dev, r.view(), opt);
  if (functional) {
    out.small_svd_converged = rs.converged;
    out.sigma = rs.sigma;
    out.v = std::move(rs.v);
  }

  // Stage 3: U' = Q * U on the GPU.
  baselines::charge_gemm(dev, m, n, n, "gpu_gemm_qu");
  if (functional) {
    gemm(Trans::No, Trans::No, T(1), q.view(), rs.u.view(), T(0),
         out.u.view());
  }
  return out;
}

// Singular-value thresholding operator: SVT_tau(A) = U shrink(Σ, tau) V^T,
// the core step of the Robust PCA inner loop (§VI.C). Returns the
// reconstructed matrix and the post-threshold rank.
template <typename T>
struct SvtResult {
  Matrix<T> value;
  idx rank = 0;
  bool svd_converged = true;  // see TallSkinnySvd::small_svd_converged
};

template <typename VA>
SvtResult<view_scalar_t<VA>> singular_value_threshold(
    gpusim::Device& dev, const VA& a_in, view_scalar_t<VA> tau,
    const TallSkinnySvdOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx m = a.rows(), n = a.cols();
  auto f = tall_skinny_svd(dev, a, opt);
  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  SvtResult<T> out{
      functional ? Matrix<T>::zeros(m, n) : Matrix<T>::shape_only(m, n), 0,
      f.small_svd_converged};

  if (!functional) {
    // Charge the U * diag(shrunk sigma) * V^T reconstruction.
    baselines::charge_gemm(dev, m, n, n, "gpu_gemm_svt");
    return out;
  }

  std::vector<T> shrunk(static_cast<std::size_t>(n));
  for (idx i = 0; i < n; ++i) {
    const T s = f.sigma[static_cast<std::size_t>(i)] - tau;
    shrunk[static_cast<std::size_t>(i)] = s > T(0) ? s : T(0);
    if (s > T(0)) ++out.rank;
  }
  // value = U * diag(shrunk) * V^T; fold diag into U's columns first.
  Matrix<T> us = std::move(f.u);
  for (idx j = 0; j < n; ++j) {
    scal(m, shrunk[static_cast<std::size_t>(j)], us.view().col(j));
  }
  baselines::charge_gemm(dev, m, n, n, "gpu_gemm_svt");
  gemm(Trans::No, Trans::Yes, T(1), us.view(), f.v.view(), T(0),
       out.value.view());
  return out;
}

}  // namespace caqr::svd
