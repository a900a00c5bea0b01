#pragma once

// Robust PCA by inexact augmented-Lagrangian alternating directions
// (§VI.A/C; Candes et al. 2009, Yuan & Yang 2009).
//
// Decomposes M = L + S with L low rank and S sparse by minimizing
// ||L||_* + lambda ||S||_1 subject to L + S = M, iterating:
//
//   L_{k+1} = SVT_{1/mu}        (M - S_k + Y_k / mu)   — dominant cost: SVD
//   S_{k+1} = shrink_{lambda/mu}(M - L_{k+1} + Y_k / mu)
//   Y_{k+1} = Y_k + mu (M - L_{k+1} - S_{k+1})
//
// The SVD inside the singular-value threshold runs through the pluggable
// tall-skinny SVD pipeline, so the Robust PCA iteration rate directly
// reflects the QR backend — exactly the comparison of Table II.

// Checkpoint/restart: when RpcaOptions::checkpoint_path is set, the
// iteration state {S, Y, mu, iteration, svd_converged} is snapshotted every
// checkpoint_every iterations (L is recomputed from M, S, Y each iteration,
// so it need not be stored), and a valid checkpoint at the same path is
// resumed from — a resumed run is bit-identical to an uninterrupted one.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ft/checkpoint.hpp"
#include "linalg/norms.hpp"
#include "svd/tall_skinny_svd.hpp"

namespace caqr::rpca {

struct RpcaOptions {
  // lambda = weight of the l1 term; 0 picks the standard 1/sqrt(max(m, n)).
  double lambda = 0.0;
  double mu = 0.0;        // 0 picks 1.25 / ||M||_2 (estimated via sigma_1)
  double rho = 1.5;       // mu growth factor per iteration
  int max_iterations = 100;
  double tolerance = 1e-6;  // ||M - L - S||_F / ||M||_F stopping criterion
  // SVD pipeline options for the per-iteration SVT. Setting svd.qr_hook to
  // a serve::PooledQrHook routes every iteration's tall-skinny QR through a
  // SolverPool (bit-identical factors; remote device time charged here).
  svd::TallSkinnySvdOptions svd;

  // Checkpoint/restart (ft/checkpoint.hpp). Non-empty: snapshot the
  // iteration state every `checkpoint_every` iterations and resume from a
  // valid checkpoint at the same path.
  std::string checkpoint_path;
  int checkpoint_every = 1;
  // Test hook simulating a mid-run kill: stop after this many iterations
  // (0 = run to convergence).
  int halt_after_iterations = 0;
};

template <typename T>
struct RpcaResult {
  Matrix<T> low_rank;
  Matrix<T> sparse;
  int iterations = 0;
  bool converged = false;
  double residual = 0.0;      // final ||M - L - S||_F / ||M||_F
  idx final_rank = 0;         // rank of L after the last threshold
  double simulated_seconds = 0.0;
  double seconds_per_iteration = 0.0;  // simulated
  // False if ANY inner singular-value threshold used a small SVD that
  // exhausted its sweep budget; such runs silently degraded before this flag
  // existed.
  bool svd_converged = true;
  bool resumed_from_checkpoint = false;
  int resumed_at_iteration = 0;
};

// The standard Candes-Li-Ma-Wright l1 weight for an m x n observation
// matrix: 1/sqrt(max dimension). Shared by the batch solver below and the
// streaming per-frame solver (stream/online_rpca.hpp), which thresholds
// frame_rows x cols frames rather than the full window.
inline double default_rpca_lambda(idx max_dim) {
  CAQR_CHECK(max_dim >= 1);
  return 1.0 / std::sqrt(static_cast<double>(max_dim));
}

// Elementwise soft-threshold (shrinkage) operator.
template <typename T>
void shrink(MatrixView<T> a, T tau) {
  for (idx j = 0; j < a.cols(); ++j) {
    T* col = a.col(j);
    for (idx i = 0; i < a.rows(); ++i) {
      const T v = col[i];
      col[i] = v > tau ? v - tau : (v < -tau ? v + tau : T(0));
    }
  }
}

// Robust PCA of m x n matrix M (m >= n). Functional only — the Table II
// bench uses rpca_iteration_rate below for paper-scale timing.
template <typename VM>
RpcaResult<view_scalar_t<VM>> robust_pca(gpusim::Device& dev, const VM& m_in,
                                         const RpcaOptions& opt = {}) {
  using T = view_scalar_t<VM>;
  const ConstMatrixView<T> m = cview(m_in);
  CAQR_CHECK(dev.mode() == gpusim::ExecMode::Functional);
  const idx rows = m.rows(), cols = m.cols();
  CAQR_CHECK(rows >= cols && cols >= 1);

  const double lambda = opt.lambda > 0 ? opt.lambda : default_rpca_lambda(rows);
  const double norm_m = frobenius_norm(m);

  RpcaResult<T> out{Matrix<T>::zeros(rows, cols), Matrix<T>::zeros(rows, cols),
                    0, false, 0.0, 0, 0.0, 0.0, true};
  Matrix<T> y = Matrix<T>::zeros(rows, cols);
  Matrix<T> work(rows, cols);

  double mu = opt.mu;
  int first_it = 0;
  if (!opt.checkpoint_path.empty()) {
    if (const auto r = ft::CheckpointReader::load(opt.checkpoint_path)) {
      std::int64_t crows = 0, ccols = 0, ssize = 0, cit = 0;
      double cmu = 0.0;
      std::uint8_t sconv = 1;
      Matrix<T> s, yy;
      if (r->scalar("rows", crows) && r->scalar("cols", ccols) &&
          r->scalar("scalar_size", ssize) && r->scalar("iteration", cit) &&
          r->scalar("mu", cmu) && r->scalar("svd_converged", sconv) &&
          crows == rows && ccols == cols &&
          ssize == static_cast<std::int64_t>(sizeof(T)) && cit >= 1 &&
          cit < opt.max_iterations && cmu > 0.0 &&
          r->matrix("sparse", s) && r->matrix("y", yy) && s.rows() == rows &&
          s.cols() == cols && yy.rows() == rows && yy.cols() == cols) {
        out.sparse = std::move(s);
        y = std::move(yy);
        mu = cmu;
        first_it = static_cast<int>(cit);
        out.svd_converged = sconv != 0;
        out.resumed_from_checkpoint = true;
        out.resumed_at_iteration = first_it;
      }
    }
  }

  // mu initialization: 1.25 / sigma_1(M), sigma_1 estimated from a thin SVD
  // of the (cheap) R factor of M. A resumed run restored mu instead.
  if (mu <= 0) {
    auto f = svd::tall_skinny_svd(dev, m, opt.svd);
    out.svd_converged = out.svd_converged && f.small_svd_converged;
    const double s1 = static_cast<double>(f.sigma.front());
    mu = s1 > 0 ? 1.25 / s1 : 1.0;
  }

  const double t0 = dev.elapsed_seconds();
  for (int it = first_it; it < opt.max_iterations; ++it) {
    // L-step: SVT on (M - S + Y/mu).
    for (idx j = 0; j < cols; ++j) {
      const T* mc = m.col(j);
      const T* sc = out.sparse.view().col(j);
      const T* yc = y.view().col(j);
      T* wc = work.view().col(j);
      const T inv_mu = static_cast<T>(1.0 / mu);
      for (idx i = 0; i < rows; ++i) wc[i] = mc[i] - sc[i] + yc[i] * inv_mu;
    }
    auto svt = svd::singular_value_threshold(dev, work.view(),
                                             static_cast<T>(1.0 / mu), opt.svd);
    out.low_rank = std::move(svt.value);
    out.final_rank = svt.rank;
    out.svd_converged = out.svd_converged && svt.svd_converged;

    // S-step: shrink(M - L + Y/mu).
    for (idx j = 0; j < cols; ++j) {
      const T* mc = m.col(j);
      const T* lc = out.low_rank.view().col(j);
      const T* yc = y.view().col(j);
      T* sc = out.sparse.view().col(j);
      const T inv_mu = static_cast<T>(1.0 / mu);
      for (idx i = 0; i < rows; ++i) sc[i] = mc[i] - lc[i] + yc[i] * inv_mu;
    }
    shrink(out.sparse.view(), static_cast<T>(lambda / mu));

    // Dual update and convergence check on the primal residual.
    double res2 = 0;
    for (idx j = 0; j < cols; ++j) {
      const T* mc = m.col(j);
      const T* lc = out.low_rank.view().col(j);
      const T* sc = out.sparse.view().col(j);
      T* yc = y.view().col(j);
      const T tmu = static_cast<T>(mu);
      for (idx i = 0; i < rows; ++i) {
        const T r = mc[i] - lc[i] - sc[i];
        yc[i] += tmu * r;
        res2 += static_cast<double>(r) * static_cast<double>(r);
      }
    }
    out.residual = norm_m > 0 ? std::sqrt(res2) / norm_m : std::sqrt(res2);
    out.iterations = it + 1;
    mu *= opt.rho;
    if (out.residual < opt.tolerance) {
      out.converged = true;
      break;
    }
    if (!opt.checkpoint_path.empty() && opt.checkpoint_every > 0 &&
        (it + 1) % opt.checkpoint_every == 0) {
      ft::CheckpointWriter w;
      w.scalar("rows", static_cast<std::int64_t>(rows));
      w.scalar("cols", static_cast<std::int64_t>(cols));
      w.scalar("scalar_size", static_cast<std::int64_t>(sizeof(T)));
      w.scalar("iteration", static_cast<std::int64_t>(it + 1));
      w.scalar("mu", mu);
      w.scalar("svd_converged",
               static_cast<std::uint8_t>(out.svd_converged ? 1 : 0));
      w.matrix("sparse", out.sparse.view());
      w.matrix("y", y.view());
      w.write(opt.checkpoint_path);
    }
    if (opt.halt_after_iterations > 0 &&
        it + 1 >= opt.halt_after_iterations) {
      break;
    }
  }
  out.simulated_seconds = dev.elapsed_seconds() - t0;
  out.seconds_per_iteration =
      out.iterations > 0 ? out.simulated_seconds / out.iterations : 0.0;
  return out;
}

// Simulated iteration rate (iterations/second) of the Robust PCA loop at a
// given problem size — the Table II metric. Charges exactly one iteration's
// device work (SVT pipeline + elementwise passes) in ModelOnly.
template <typename T>
double rpca_iteration_rate(gpusim::Device& dev, idx rows, idx cols,
                           const svd::TallSkinnySvdOptions& opt) {
  const double t0 = dev.elapsed_seconds();
  const Matrix<T> work = dev.mode() == gpusim::ExecMode::Functional
                             ? Matrix<T>::zeros(rows, cols)
                             : Matrix<T>::shape_only(rows, cols);
  auto svt = svd::singular_value_threshold(dev, work.view(), T(1), opt);
  (void)svt;
  // Elementwise passes (L-step input, S-step, dual update): ~4 streaming
  // passes over the m x n frame matrix on the GPU.
  const double bytes = 4.0 * 3.0 * static_cast<double>(rows) * cols * sizeof(T);
  dev.add_external_seconds(bytes / (dev.model().dram_bw_gbs * 1e9),
                           "rpca_elementwise");
  const double dt = dev.elapsed_seconds() - t0;
  return dt > 0 ? 1.0 / dt : 0.0;
}

}  // namespace caqr::rpca
