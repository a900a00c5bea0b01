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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/gemm_model.hpp"
#include "baselines/qr_baselines.hpp"
#include "caqr/solver.hpp"
#include "common/prng.hpp"
#include "gpusim/device.hpp"
#include "kernels/simd.hpp"
#include "linalg/blas3.hpp"
#include "linalg/qr.hpp"
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

// Background rank rule: the smallest k <= count whose leading squared
// singular values sum to at least `target` (count when none does).
template <typename T>
idx energy_rank(const T* sigma, idx count, double target) {
  double cum = 0.0;
  idx k = 0;
  while (k < count && cum < target) {
    const double s = static_cast<double>(sigma[k]);
    cum += s * s;
    ++k;
  }
  return k;
}

// Start block and scratch of leading_subspace_of_r for n x n inputs, held
// by the caller so that repeated calls allocate nothing. The start block is
// drawn once from a fixed seed: every call starts from the same place, so
// a result depends on R alone. Its entries are uniform in [-1, 1) — any
// block with a nonzero component along the leading subspace works, and
// uniform draws keep libm out of the result bits.
template <typename T>
struct SubspaceWorkspace {
  static constexpr idx kMaxBlock = 8;
  static constexpr std::uint64_t kSeed = 0x5375627370616365ULL;

  explicit SubspaceWorkspace(idx n_)
      : n(n_),
        b(std::min(n_, kMaxBlock)),
        rr(n_, n_),
        rt(n_, n_),
        omega(n_, b),
        y(n_, b),
        q(n_, b),
        u(n_, b),
        v(n_, b),
        w(b, b),
        sigma(static_cast<std::size_t>(b)),
        tau(static_cast<std::size_t>(b)),
        scratch(static_cast<std::size_t>(b)) {
    Rng rng(kSeed);
    for (idx j = 0; j < b; ++j) {
      for (idx i = 0; i < n; ++i) {
        omega(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
      }
    }
  }

  idx n, b;
  Matrix<T> rr, rt;  // R with zeros below the diagonal, and R^T
  Matrix<T> omega;   // n x b start block
  Matrix<T> y;       // n x b iterate R^T R V
  Matrix<T> q;       // n x b orthonormal basis of y
  Matrix<T> u;       // n x b: R Q, then its left singular vectors
  Matrix<T> v;       // n x b Ritz vectors Q W
  Matrix<T> w;       // b x b right singular vectors of R Q
  std::vector<T> sigma, tau, scratch;
};

// The leading right singular subspace of an n x n upper-triangular R, for
// callers that read only ||R||_F^2, the leading singular values up to an
// energy fraction, and their right vectors (the streaming background
// model). Block subspace iteration on R^T R with Rayleigh-Ritz, in
// ws's n x b buffers, b = min(n, 8):
//
//   Y = R^T (R Omega); up to kSubspaceMaxSteps times:
//     Q = orth(Y);  R Q = U_B Σ W^T (Jacobi, n x b);  V = Q W;
//     Y = R^T (U_B Σ) = R^T R V   (residual check and next iterate)
//
// It stops once the Ritz values reach rank_energy * ||R||_F^2 at some
// k < b and each of the max(k, 1) leading Ritz pairs has
// ||R^T R v - σ² v|| <= kSubspaceResidualTol * eps(T) * σ₁². Host work
// only; no device charge. When it does not stop (a flat spectrum needs b
// or more columns, the step cap ran out, R is zero or not finite),
// `converged` is false and the caller runs the full SVD.
template <typename T>
struct LeadingSubspace {
  bool converged = false;
  idx rank = 0;            // max(k, 1)
  int steps = 0;           // iteration steps run
  ConstMatrixView<T> v;    // n x rank, orthonormal; a view into the workspace
};

namespace detail {

using kernels::simd::Isa;

// y += a x over n entries at level I. Each entry is one multiply and one
// add, as in the scalar axpy, so every level gives the same bits.
template <Isa I, typename T>
void axpy(idx n, T a, const T* x, T* y) {
  constexpr int kW = kernels::simd::kLanes<I, 16, T>;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  idx i = 0;
  for (; i + kW <= n; i += kW) {
    V xv, yv;
    std::memcpy(&xv, x + i, sizeof(V));
    std::memcpy(&yv, y + i, sizeof(V));
    yv += a * xv;
    std::memcpy(y + i, &yv, sizeof(V));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// y = a x (a: m x k, x: k x b) as column axpys; float and double run them
// at the host's ISA level.
template <typename T>
void times(ConstMatrixView<T> a, ConstMatrixView<T> x, MatrixView<T> y) {
  y.fill(T(0));
  if constexpr (kernels::simd::kEnabled<T>) {
    kernels::simd::run_at(kernels::simd::active_isa(), [&]<Isa I>() {
      for (idx j = 0; j < x.cols(); ++j) {
        for (idx p = 0; p < a.cols(); ++p) {
          axpy<I>(a.rows(), x(p, j), a.col(p), y.col(j));
        }
      }
    });
  } else {
    for (idx j = 0; j < x.cols(); ++j) {
      for (idx p = 0; p < a.cols(); ++p) {
        caqr::axpy(a.rows(), x(p, j), a.col(p), y.col(j));
      }
    }
  }
}

}  // namespace detail

inline constexpr int kSubspaceMaxSteps = 10;
inline constexpr double kSubspaceResidualTol = 100.0;

template <typename T>
LeadingSubspace<T> leading_subspace_of_r(ConstMatrixView<T> r,
                                         double rank_energy,
                                         SubspaceWorkspace<T>& ws) {
  const idx n = ws.n, b = ws.b;
  CAQR_CHECK(r.rows() == n && r.cols() == n);
  LeadingSubspace<T> out;

  // Dense R (zeros below the diagonal) and R^T, so that both products
  // below run down whole contiguous columns; ||R||_F^2 in four partial sums.
  const MatrixView<T> rr = ws.rr.view(), rt = ws.rt.view();
  double part[4] = {};
  for (idx j = 0; j < n; ++j) {
    const T* src = r.col(j);
    T* dst = rr.col(j);
    for (idx i = 0; i <= j; ++i) {
      dst[i] = src[i];
      part[i % 4] += static_cast<double>(src[i]) * src[i];
    }
    for (idx i = j + 1; i < n; ++i) dst[i] = T(0);
  }
  const double total = (part[0] + part[1]) + (part[2] + part[3]);
  if (!(total > 0.0) || !std::isfinite(total)) return out;
  const double target = rank_energy * total;
  for (idx j = 0; j < n; ++j) {
    T* dst = rt.col(j);
    for (idx i = 0; i < n; ++i) dst[i] = rr(j, i);
  }

  const MatrixView<T> y = ws.y.view(), q = ws.q.view(), u = ws.u.view();
  detail::times(rr.as_const(), ws.omega.as_const(), u);
  detail::times(rt.as_const(), u.as_const(), y);
  for (int step = 1; step <= kSubspaceMaxSteps; ++step) {
    out.steps = step;
    // Q = orth(Y): Householder QR of Y in place, then Q = H_1 ... H_b
    // applied to the first b identity columns (ORG2R).
    geqr2(y, ws.tau.data(), ws.scratch.data());
    q.set_identity();
    for (idx k = b - 1; k >= 0; --k) {
      apply_householder_left(n - k, ws.tau[static_cast<std::size_t>(k)],
                             y.col(k) + k + 1, q.block(k, k, n - k, b - k),
                             ws.scratch.data());
    }
    // Rayleigh-Ritz: R Q = U_B Σ W^T, Ritz vectors V = Q W.
    detail::times(rr.as_const(), q.as_const(), u);
    if (!jacobi_svd_in_place(u, ws.w.view(), ws.sigma.data(),
                             ws.scratch.data())
             .converged) {
      return out;
    }
    gemm(Trans::No, Trans::No, T(1), q.as_const(), ws.w.as_const(), T(0),
         ws.v.view());
    // Y = R^T (U_B Σ) = R^T R V.
    for (idx j = 0; j < b; ++j) {
      scal(n, ws.sigma[static_cast<std::size_t>(j)], u.col(j));
    }
    detail::times(rt.as_const(), u.as_const(), y);

    const idx k = energy_rank(ws.sigma.data(), b, target);
    if (k >= b) continue;
    const idx rank = std::max<idx>(k, 1);
    const double s1 = static_cast<double>(ws.sigma[0]);
    const double tol = kSubspaceResidualTol *
                       std::numeric_limits<T>::epsilon() * s1 * s1;
    bool settled = true;
    for (idx j = 0; j < rank && settled; ++j) {
      const double s = static_cast<double>(ws.sigma[static_cast<std::size_t>(j)]);
      double res = 0.0;
      for (idx i = 0; i < n; ++i) {
        const double d = static_cast<double>(y(i, j)) - s * s * ws.v(i, j);
        res += d * d;
      }
      settled = std::sqrt(res) <= tol;
    }
    if (settled) {
      out.converged = true;
      out.rank = rank;
      out.v = ws.v.view().block(0, 0, n, rank);
      return out;
    }
  }
  return out;
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
