#pragma once

// Same-shape batch fusion for the QR serving layer.
//
// On a real GPU, k independent tall-skinny factorizations of the same shape
// are served with batched kernels (cuBLAS geqrfBatched, MAGMA batched QR):
// one launch covers all k problems, so the per-launch overhead — the very
// cost CAQR's reduction tree is designed to amortize — is paid once instead
// of k times, and small grids that would strand SMs are stacked until every
// SM is busy. factor_batch() reproduces that on the simulated device: it
// walks ONE serial CAQR panel loop over the k problems, and every launch of
// it is the tsqr/ span sequence (tsqr_factor_span, tsqr_apply_span) over
// the k problems' panels, i.e. one `factor` + tree sweep over k*blocks
// instead of k separate schedules. The launch order and the choice of each
// panel's decomposition (tsqr::replay_meta, honouring a custom tree_spec)
// are the solo path's own, so the batch cannot drift from it.
//
// Determinism / bit-identity. A fused launch (tsqr::FusedKernel) runs the
// UNCHANGED run_block body of the solo kernel on each problem's own
// storage, and blocks write disjoint outputs, so the batch computes
// bit-identical R, reflectors and Q for every problem to a solo
// `adaptive_qr` run with the same options — verified by tests/test_serve.
// Fused launches appear in profiles()/trace() under their own names
// ("factor_batch", "apply_qt_h_batch", ...) so ModelOnly timelines show
// exactly where fusion changed the schedule; a one-problem batch launches
// the solo kernels under their solo names.
//
// Thread safety: factor_batch is a plain function of (device, inputs); it
// owns no shared state. Concurrent calls must target distinct devices, the
// same rule as every other launch path in the repo.

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "caqr/solver.hpp"
#include "gpusim/device.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr::serve {

// Typed rejection of a batch that cannot be fused: no problems, or
// problems of different shapes (the CholQrShapeError pattern). A throw,
// unlike an abort, reaches a serving caller through its batch future.
// `mismatch` is the first problem whose shape differs from problem 0's,
// -1 for an empty batch.
struct BatchShapeError : std::runtime_error {
  BatchShapeError(idx problems_, idx mismatch_, std::string what)
      : std::runtime_error("batch rejected: " + what),
        problems(problems_),
        mismatch(mismatch_) {}
  idx problems = 0;
  idx mismatch = -1;
};

// Throws BatchShapeError unless `problems` is a non-empty same-shape batch.
template <typename T>
void check_batch_shape(const std::vector<Matrix<T>>& problems) {
  const idx k = static_cast<idx>(problems.size());
  if (k == 0) throw BatchShapeError(0, -1, "no problems");
  const idx m = problems.front().rows(), n = problems.front().cols();
  for (idx i = 1; i < k; ++i) {
    const auto& a = problems[static_cast<std::size_t>(i)];
    if (a.rows() != m || a.cols() != n) {
      throw BatchShapeError(
          k, i,
          "problem " + std::to_string(i) + " is " + std::to_string(a.rows()) +
              " x " + std::to_string(a.cols()) + ", problem 0 is " +
              std::to_string(m) + " x " + std::to_string(n) +
              " (a batch needs same-shape problems)");
    }
  }
}

// Result of one fused batch: per-problem (Q, R) plus the batch timings.
template <typename T>
struct BatchQrResult {
  std::vector<QrSolveResult<T>> problems;  // bit-identical to solo runs
  QrAlgorithm used = QrAlgorithm::Caqr;
  double simulated_seconds = 0;  // whole fused batch, all k problems
  idx fused_launches = 0;        // launches issued (vs k x this, unfused)
};

// Factors k same-shape problems with one fused CAQR schedule and returns
// per-problem explicit (Q, R), exactly what adaptive_qr returns for each
// problem alone. `algo` must be resolved (not Auto) by the caller — the
// serving layer resolves it through the PlanCache; QrAlgorithm::Hybrid
// batches degrade to a per-problem loop (the hybrid baseline models a
// library call and has no fusable launch structure).
//
// Functional mode consumes the problems' data; ModelOnly accepts
// Matrix::shape_only placeholders and only advances the timeline. All
// launches go to the synchronous legacy stream: the fused grid already
// exposes the cross-problem parallelism, so look-ahead has nothing left to
// overlap.
template <typename T>
BatchQrResult<T> factor_batch(gpusim::Device& dev,
                              std::vector<Matrix<T>> problems,
                              QrAlgorithm algo = QrAlgorithm::Caqr,
                              const CaqrOptions& opt = {},
                              bool want_q = true) {
  check_batch_shape(problems);
  CAQR_CHECK(algo != QrAlgorithm::Auto);
  const idx m = problems.front().rows();
  const idx n = problems.front().cols();
  const idx k = std::min(m, n);
  const bool functional = dev.mode() == gpusim::ExecMode::Functional;

  BatchQrResult<T> out;
  out.used = algo;
  const double t0 = dev.elapsed_seconds();

  if (algo != QrAlgorithm::Caqr || k == 0) {
    // Hybrid models a library call and CholeskyQR is already three BLAS3
    // launches per pass — neither has a fusable CAQR launch structure, so
    // they degrade to a per-problem loop (adaptive_qr runs empty CholeskyQR
    // problems through CAQR).
    for (auto& a : problems) {
      out.problems.push_back(adaptive_qr(dev, a.as_const(), algo, opt));
    }
    out.simulated_seconds = dev.elapsed_seconds() - t0;
    return out;
  }

  // Serial CAQR panel loop (caqr.hpp Figure 4 structure; Serial and
  // LookAhead are bit-identical, so the serial schedule reproduces the solo
  // results of either), each step one span sequence over all problems.
  // fs[p][i] is problem i's factor of panel p; the problems' own storage
  // becomes their packed factorizations.
  const tsqr::TsqrOptions topt = opt.panel_tsqr();
  const std::size_t np = problems.size();
  std::vector<std::vector<tsqr::PanelFactor<T>>> fs;
  std::vector<MatrixView<T>> panels(np), targets(np);
  std::vector<ConstMatrixView<T>> factored(np);
  for (idx c0 = 0; c0 < k; c0 += opt.panel_width) {
    const idx w = std::min(opt.panel_width, k - c0);
    const idx len = m - c0;
    const idx trailing = n - c0 - w;
    for (std::size_t i = 0; i < np; ++i) {
      panels[i] = problems[i].block(c0, c0, len, w);
      factored[i] = panels[i];
      if (trailing > 0) {
        targets[i] = problems[i].block(c0, c0 + w, len, trailing);
      }
    }
    auto& f = fs.emplace_back(np);
    out.fused_launches += tsqr::tsqr_factor_span<T>(
        dev, gpusim::kDefaultStream, panels, topt, f);
    if (trailing > 0) {
      out.fused_launches += tsqr::tsqr_apply_span<T>(
          dev, gpusim::kDefaultStream, factored, f, targets, topt,
          /*transpose_q=*/true);
    }
  }

  // Per-problem R; explicit Q by the SORGQR walk, panels in reverse.
  out.problems.resize(np);
  for (std::size_t i = 0; i < np; ++i) {
    out.problems[i].used = QrAlgorithm::Caqr;
    out.problems[i].r = functional ? extract_r(problems[i].view())
                                   : Matrix<T>::shape_only(k, n);
  }
  if (want_q) {
    for (std::size_t i = 0; i < np; ++i) {
      out.problems[i].q = functional ? Matrix<T>::identity(m, k)
                                     : Matrix<T>::shape_only(m, k);
    }
    // Seed columns j < c0 are still e_j, zero in the panel's rows, so each
    // panel updates only columns [c0, k) (CaqrFactorization::walk).
    for (std::size_t p = fs.size(); p-- > 0;) {
      const idx c0 = static_cast<idx>(p) * opt.panel_width;
      const idx len = fs[p].front().rows;
      for (std::size_t i = 0; i < np; ++i) {
        factored[i] = problems[i].block(c0, c0, len, fs[p].front().width);
        targets[i] = out.problems[i].q.block(c0, c0, len, k - c0);
      }
      out.fused_launches += tsqr::tsqr_apply_span<T>(
          dev, gpusim::kDefaultStream, factored, fs[p], targets, topt,
          /*transpose_q=*/false);
    }
  }

  out.simulated_seconds = dev.elapsed_seconds() - t0;
  for (auto& p : out.problems) {
    p.simulated_seconds =
        out.simulated_seconds / static_cast<double>(out.problems.size());
  }
  return out;
}

}  // namespace caqr::serve
