#pragma once

// CholeskyQR2 / CholeskyQR3 on the simulated GPU (Thies & Röhrig-Zöllner,
// "QR factorization of tall and very skinny matrices on current GPUs";
// Fukaya/Yamamoto et al. for the CholeskyQR2 stability analysis).
//
// One pass factors the Gram matrix: G = A^T A (BLAS3 syrk at GEMM rates),
// R = chol(G), Q = A R^-1 (BLAS3 trsm). The entire pass is three launches of
// library-rate BLAS3 — no reduction tree, no per-block latency floors — which
// is why the family beats Householder TSQR outright on launch-overhead-bound
// tall-skinny shapes. The price is cond^2(A) squaring in the Gram matrix:
// one pass loses orthogonality as eps * cond^2(A). CholeskyQR2 runs a second
// (reorthogonalization) pass on Q, CholeskyQR3 a third; each pass multiplies
// its R into the accumulated R (trmm).
//
// Breakdown, detection-or-accuracy. When eps * cond^2 approaches 1 the Gram
// matrix stops being numerically SPD and potrf_upper_checked reports a typed
// CholeskyBreakdown instead of silently producing garbage. Two further
// detectors close the window where the first Cholesky still succeeds but the
// result would be inaccurate:
//   * a non-finite Gram entry (column scales near 1e±300 overflow/underflow
//     when squared) surfaces as a non-finite pivot -> GramNotFinite;
//   * the refinement pass's Gram G = Q^T Q is a FREE orthogonality
//     certificate: if ||G - I||_F > 0.5 on the final pass, the classical
//     CholeskyQR2 condition (||Q1^T Q1 - I|| <= 1/2 guarantees full final
//     orthogonality) is violated -> IllConditioned breakdown.
// On breakdown the solver either falls back to Householder TSQR on the saved
// input (severity ft::Corrected) or reports ft::Unrecovered with EMPTY
// factors — a CholeskyQR result is accurate or it says it is not.
//
// Mixed precision. PrecisionPolicy::Tf32Gram costs the FIRST Gram pass at
// tensor-core TF32 rates (GpuMachineModel::tf32_gemm_speedup) and emulates
// its numerics by rounding the computed Gram entries through a 10-bit
// mantissa — the same magnitude of perturbation (~eps_tf32 * |G|) a real
// tensor-core syrk with fp32 accumulate introduces on its inputs. The
// refinement passes run in the native precision, so the path is admissible
// only while eps_tf32 * cond^2(A) stays well below 1 (cond <~ 5): the
// reorthogonalization regime, which is where the Gram pass dominates and the
// tensor speedup pays.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "gpusim/machine_model.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas3.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr::tsqr {

enum class CholQrVariant { CholQr2 = 2, CholQr3 = 3 };

// Why a CholeskyQR run declared breakdown.
enum class CholQrBreakdown {
  None = 0,
  GramNotSpd,      // non-positive Cholesky pivot: eps * cond^2 ~ 1
  GramNotFinite,   // Gram over/underflowed (column scales near 1e±300)
  IllConditioned,  // final refinement Gram too far from I: ||G - I|| > 1/2
};

struct CholQrOptions {
  CholQrVariant variant = CholQrVariant::CholQr2;
  // Precision of the FIRST Gram pass; refinement passes are always native.
  gpusim::PrecisionPolicy precision = gpusim::PrecisionPolicy::Native;
  // On breakdown, refactor the saved input with Householder TSQR (severity
  // Corrected) instead of reporting Unrecovered with empty factors.
  bool fallback_to_tsqr = true;
  TsqrOptions tsqr;  // decomposition used by the fallback
};

template <typename T>
struct CholQrResult {
  Matrix<T> q;  // m x n explicit orthonormal factor (empty on unrecovered)
  Matrix<T> r;  // n x n upper triangular (empty on unrecovered)
  int gram_passes = 0;  // Cholesky passes that completed
  bool breakdown = false;
  CholQrBreakdown reason = CholQrBreakdown::None;
  CholeskyBreakdown info;  // failing pivot detail when GramNotSpd/NotFinite
  bool fell_back = false;  // q/r produced by the Householder TSQR fallback
  // Ok: clean CholeskyQR. Corrected: breakdown detected, fallback produced
  // accurate factors. Unrecovered: breakdown reported, no factors.
  ft::Severity severity = ft::Severity::Ok;
  // ||G - I||_F of the last refinement pass (functional runs): the
  // orthogonality certificate the IllConditioned detector gates on.
  double final_gram_deviation = 0.0;
};

// Admissibility bounds for the serve-layer picker: largest condition
// estimate for which each variant is trusted to hit the verifier bound.
// CholeskyQR2 needs eps * cond^2 <= 1/64 (the classical cond <= eps^-1/2 / 8
// margin); CholeskyQR3 tolerates the first Gram being barely factorable
// (cond <= eps^-1/2 / 2) because the extra pass restores orthogonality. The
// mixed path is gated by the REDUCED precision's eps with the CQR3-style
// margin, cond <= eps_low^-1/2 / 2 (~23 for TF32): the final pass runs at
// NATIVE precision, so the low-precision Gram only has to stay factorable
// with ||Q1^T Q1 - I|| < 1 — and the runtime delta-gate catches violations
// and falls back. Either way, the reorthogonalization regime.
template <typename T>
double cholqr2_max_cond() {
  return 0.125 / std::sqrt(std::numeric_limits<T>::epsilon());
}
template <typename T>
double cholqr3_max_cond() {
  return 0.5 / std::sqrt(std::numeric_limits<T>::epsilon());
}
inline double cholqr_mixed_max_cond(gpusim::PrecisionPolicy p) {
  const double e = gpusim::lowp_eps(p);
  return e > 0 ? 0.5 / std::sqrt(e) : 0.0;
}

namespace detail {

inline void charge_cholqr_op(gpusim::Device& dev, const char* label,
                             double flops, double bytes,
                             double rate_flops_per_cycle) {
  gpusim::BlockStats s;
  s.flops = flops;
  // One logical block sized against the given sustained rate, mirroring
  // baselines::charge_gemm so CholeskyQR and Hybrid predictions share the
  // same roofline conventions.
  s.issue_cycles =
      flops / rate_flops_per_cycle / dev.model().issue_stall_factor;
  s.gmem_bytes = bytes;
  kernels::CostOnlyKernel kern{label, s};
  dev.launch(kern, 1);
}

template <typename T>
void charge_gram(gpusim::Device& dev, idx m, idx n,
                 gpusim::PrecisionPolicy policy) {
  const auto& mm = dev.model();
  const double flops =
      static_cast<double>(m) * n * (n + 1);  // syrk: half a (n,n,m) gemm
  const double dev_fpc = static_cast<double>(mm.num_sms) * mm.lanes_per_sm *
                         (mm.fma ? 2.0 : 1.0);
  double rate = dev_fpc * mm.gemm_efficiency;
  const char* label = "cholqr_gram";
  if (policy == gpusim::PrecisionPolicy::Tf32Gram && mm.has_tensor_cores()) {
    rate = dev_fpc * mm.tf32_gemm_speedup * mm.tensor_efficiency;
    label = "cholqr_gram_tf32";
  }
  const double tile = 64.0;
  const double waves = std::ceil(static_cast<double>(n) / tile);
  // A general (n, n, m) gemm streams each operand once per opposing tile
  // wave; with both operands the SAME matrix and only the upper triangle of
  // C computed, a wave past the first reads a shrinking share of A —
  // averaging to (waves + 1) / 2 passes. Plus the tiny n x n output.
  const double bytes = (0.5 * static_cast<double>(m) * n * (waves + 1) +
                        2.0 * static_cast<double>(n) * n) *
                       sizeof(T);
  charge_cholqr_op(dev, label, flops, bytes, rate);
}

template <typename T>
void charge_trsm(gpusim::Device& dev, idx m, idx n) {
  const auto& mm = dev.model();
  const double flops = static_cast<double>(m) * n * n;
  const double dev_fpc = static_cast<double>(mm.num_sms) * mm.lanes_per_sm *
                         (mm.fma ? 2.0 : 1.0);
  const double tile = 64.0;
  const double waves_m = (static_cast<double>(m) + tile - 1) / tile;
  const double bytes = (2.0 * static_cast<double>(m) * n +
                        0.5 * static_cast<double>(n) * n * waves_m) *
                       sizeof(T);
  charge_cholqr_op(dev, "cholqr_trsm", flops, bytes,
                   dev_fpc * mm.gemm_efficiency);
}

// Small n x n factor-side ops (potrf, R accumulation): latency-bound, run on
// a sliver of the machine — charged at one SM's FMA rate at 50% efficiency.
template <typename T>
void charge_small_op(gpusim::Device& dev, const char* label, idx n,
                     double flops) {
  const auto& mm = dev.model();
  const double rate = mm.lanes_per_sm * (mm.fma ? 2.0 : 1.0) * 0.5;
  const double bytes = 2.0 * static_cast<double>(n) * n * sizeof(T);
  charge_cholqr_op(dev, label, flops, bytes, rate);
}

// Emulates the tensor-core reduced-precision Gram: every entry rounded
// through a 10-bit mantissa (TF32 / fp16 mantissa width; fp32 accumulate
// keeps the exponent range, so only the mantissa truncation is modeled).
template <typename T>
void round_gram_lowp(MatrixView<T> g) {
  for (idx j = 0; j < g.cols(); ++j) {
    for (idx i = 0; i < g.rows(); ++i) {
      float f = static_cast<float>(g(i, j));
      std::uint32_t bits = 0;
      std::memcpy(&bits, &f, sizeof(bits));
      bits &= 0xFFFFE000u;  // keep 10 of float's 23 mantissa bits
      std::memcpy(&f, &bits, sizeof(bits));
      g(i, j) = static_cast<T>(f);
    }
  }
}

template <typename T>
double gram_deviation_from_identity(ConstMatrixView<T> g) {
  double sum = 0;
  for (idx j = 0; j < g.cols(); ++j) {
    for (idx i = 0; i < g.rows(); ++i) {
      const double d =
          static_cast<double>(g(i, j)) - (i == j ? 1.0 : 0.0);
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

}  // namespace detail

// CholeskyQR2/3 factorization of `a` (consumed; pass Matrix<T>::shape_only
// in ModelOnly). Functional mode computes Q/R in place and detects
// breakdown; ModelOnly charges the identical launch sequence of the
// no-breakdown path and returns shape-only factors, so a ModelOnly probe is
// the exact predicted cost of the corresponding functional run.
//
// `source` is the input as the caller keeps it, alive and unchanged until
// cholqr returns: the Householder fallback refactors a copy of it, taken
// only on breakdown (post-pass-0 breakdowns happen after `a` has been
// overwritten by trsm). The overload without it keeps its own copy.
template <typename T>
CholQrResult<T> cholqr(gpusim::Device& dev, Matrix<T> a,
                       const CholQrOptions& opt, ConstMatrixView<T> source) {
  const idx m = a.rows();
  const idx n = a.cols();
  CAQR_CHECK(m >= n);
  CholQrResult<T> res;
  const int passes = opt.variant == CholQrVariant::CholQr3 ? 3 : 2;
  if (n == 0) {
    res.q = std::move(a);
    res.r = Matrix<T>::zeros(0, 0);
    return res;
  }

  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  if (!functional) {
    for (int pass = 0; pass < passes; ++pass) {
      const auto policy =
          pass == 0 ? opt.precision : gpusim::PrecisionPolicy::Native;
      detail::charge_gram<T>(dev, m, n, policy);
      detail::charge_small_op<T>(dev, "cholqr_potrf", n,
                                 static_cast<double>(n) * n * n / 3.0);
      detail::charge_trsm<T>(dev, m, n);
      if (pass > 0) {
        detail::charge_small_op<T>(dev, "cholqr_rupdate", n,
                                   static_cast<double>(n) * n * n / 3.0);
      }
    }
    res.q = Matrix<T>::shape_only(m, n);
    res.r = Matrix<T>::shape_only(n, n);
    res.gram_passes = passes;
    return res;
  }

  if (opt.fallback_to_tsqr) {
    CAQR_CHECK(source.rows() == m && source.cols() == n);
  }
  res.q = std::move(a);
  Matrix<T> r_total;
  Matrix<T> g = Matrix<T>::zeros(n, n);

  for (int pass = 0; pass < passes; ++pass) {
    const auto policy =
        pass == 0 ? opt.precision : gpusim::PrecisionPolicy::Native;
    syrk_t(T(1), res.q.view().as_const(), T(0), g.view());
    detail::charge_gram<T>(dev, m, n, policy);
    if (policy == gpusim::PrecisionPolicy::Tf32Gram) {
      detail::round_gram_lowp(g.view());
    }
    if (pass > 0) {
      const double delta =
          detail::gram_deviation_from_identity(g.view().as_const());
      res.final_gram_deviation = delta;
      if (pass == passes - 1 && delta > 0.5) {
        // The classical guarantee (final orthogonality ~ eps once the last
        // refinement Gram is within 1/2 of I) no longer holds: report
        // instead of returning a plausible-looking but inaccurate Q.
        res.breakdown = true;
        res.reason = CholQrBreakdown::IllConditioned;
        res.info = CholeskyBreakdown{};
        res.info.value = delta;
        break;
      }
    }
    const CholeskyBreakdown bd = potrf_upper_checked(g.view());
    detail::charge_small_op<T>(dev, "cholqr_potrf", n,
                               static_cast<double>(n) * n * n / 3.0);
    if (!bd.ok()) {
      res.breakdown = true;
      res.reason = std::isfinite(bd.value) ? CholQrBreakdown::GramNotSpd
                                           : CholQrBreakdown::GramNotFinite;
      res.info = bd;
      break;
    }
    ++res.gram_passes;
    trsm(Side::Right, UpLo::Upper, Trans::No, g.view().as_const(),
         res.q.view());
    detail::charge_trsm<T>(dev, m, n);
    if (pass == 0) {
      r_total = Matrix<T>::from(g.view().as_const());
    } else {
      // R := R_pass * R_total (both upper triangular, product stays upper).
      trmm_left(UpLo::Upper, Trans::No, g.view().as_const(), r_total.view());
      detail::charge_small_op<T>(dev, "cholqr_rupdate", n,
                                 static_cast<double>(n) * n * n / 3.0);
    }
  }

  if (!res.breakdown) {
    res.r = std::move(r_total);
    return res;
  }

  if (opt.fallback_to_tsqr) {
    TsqrOptions topt = opt.tsqr;
    if (topt.block_rows < n) topt.block_rows = n;
    ft::Severity tsev = ft::Severity::Ok;
    Matrix<T> saved = Matrix<T>::from(source);
    const PanelFactor<T> pf =
        tsqr_factor(dev, gpusim::kDefaultStream, saved.view(), topt, &tsev);
    res.r = Matrix<T>::zeros(n, n);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i <= j; ++i) res.r(i, j) = saved(i, j);
    }
    Matrix<T> qe = Matrix<T>::identity(m, n);
    tsqr_apply(dev, gpusim::kDefaultStream, saved.view().as_const(), pf,
               qe.view(), topt, /*transpose_q=*/false);
    res.q = std::move(qe);
    res.fell_back = true;
    res.severity = ft::worse(ft::Severity::Corrected, tsev);
  } else {
    // No silent garbage: the factors are withheld, the breakdown is typed.
    res.q = Matrix<T>();
    res.r = Matrix<T>();
    res.severity = ft::Severity::Unrecovered;
  }
  return res;
}

template <typename T>
CholQrResult<T> cholqr(gpusim::Device& dev, Matrix<T> a,
                       const CholQrOptions& opt = {}) {
  Matrix<T> saved;
  if (opt.fallback_to_tsqr && dev.mode() == gpusim::ExecMode::Functional) {
    saved = Matrix<T>::from(a.view().as_const());
  }
  return cholqr(dev, std::move(a), opt, saved.view().as_const());
}

// Predicted wall time of a CholeskyQR run: a ModelOnly probe charging the
// exact launch sequence cholqr() issues, so prediction and ModelOnly
// simulation agree by construction.
template <typename T>
double predict_cholqr_seconds(const gpusim::GpuMachineModel& model, idx m,
                              idx n, const CholQrOptions& opt = {}) {
  gpusim::Device probe(model, gpusim::ExecMode::ModelOnly);
  (void)cholqr<T>(probe, Matrix<T>::shape_only(m, n), opt);
  return probe.elapsed_seconds();
}

}  // namespace caqr::tsqr
