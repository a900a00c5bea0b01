#pragma once

// Verifier: makes factorization correctness observable.
//
// Every QR path in the library (reference, TSQR, incremental TSQR, CAQR) can
// be checked against the backward-stability bounds CAQR inherits from
// blocked Householder QR (Demmel et al., communication-optimal QR):
//
//   ||A - Q R||_F / ||A||_F        <= c * eps * sqrt(n)
//   ||Q^T Q - I||_F                <= c * eps * sqrt(n)
//   ||A^T A - R^T R||_F / ||A||_F^2 <= c * eps * sqrt(n)   (R-only paths)
//
// with the constant c = VerifyOptions::tol_multiplier (default 100). The
// Gram-matrix residual is the condition-number-independent check for paths
// that produce only R (incremental TSQR): two backward-stable R factors can
// differ by O(eps * kappa(A)) entrywise, but R^T R always reproduces A^T A
// to working precision.
//
// verify_qr / verify_r return a VerifyReport rather than asserting, so the
// same API serves tests (EXPECT on .pass), the stress harness, and the bench
// artifacts (every BENCH_*.json carries a verification row). Reports also
// carry a finiteness bit — a factorization that "succeeded" but produced
// NaN/Inf, or that was corrupted by fault injection, fails verification even
// when a naive did-it-return check would pass.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "numerics/finite_check.hpp"

namespace caqr::numerics {

struct VerifyOptions {
  // pass <=> every checked metric <= tol_multiplier * eps(T) * sqrt(n).
  double tol_multiplier = 100.0;
};

struct VerifyReport {
  double residual = 0.0;       // ||A - Q R||_F / ||A||_F
  double orthogonality = 0.0;  // ||Q^T Q - I||_F
  double gram_residual = 0.0;  // ||A^T A - R^T R||_F / ||A||_F^2
  double tolerance = 0.0;      // the bound the metrics were held to
  bool has_q = true;           // false for R-only paths (gram check only)
  bool finite = true;          // all inspected factors free of NaN/Inf
  bool pass = false;
};

template <typename T>
double verify_tolerance(idx n, const VerifyOptions& opt) {
  return opt.tol_multiplier * static_cast<double>(std::numeric_limits<T>::epsilon()) *
         std::sqrt(static_cast<double>(n > 0 ? n : 1));
}

// ||A^T A - R^T R||_F / ||A||_F^2, accumulated in double. Valid for any R
// with R.cols() == A.cols() and R.rows() <= A.rows() (upper-trapezoidal R;
// rows below R.rows() contribute zero).
template <typename VA, typename VR>
double gram_residual(const VA& a_in, const VR& r_in) {
  const auto a = cview(a_in);
  const auto r = cview(r_in);
  CAQR_CHECK(r.cols() == a.cols());
  const idx n = a.cols();
  double acc = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) {
      double g = 0.0;
      for (idx p = 0; p < a.rows(); ++p) {
        g += static_cast<double>(a(p, i)) * static_cast<double>(a(p, j));
      }
      double rr = 0.0;
      const idx kk = std::min<idx>(r.rows(), i + 1);  // R upper triangular
      for (idx p = 0; p < kk; ++p) {
        rr += static_cast<double>(r(p, i)) * static_cast<double>(r(p, j));
      }
      const double d = g - rr;
      acc += (i == j ? 1.0 : 2.0) * d * d;
    }
  }
  const double den = frobenius_norm(a);
  return den > 0.0 ? std::sqrt(acc) / (den * den) : std::sqrt(acc);
}

// Per-column sign canonicalization: Householder QR determines R only up to
// a diagonal sign matrix S (A = (QS)(SR)). Flipping every row of R with a
// negative diagonal entry — and the matching column of Q — yields the unique
// representative with diag(R) >= 0, making R factors from different
// implementations directly comparable. Returns the number of flips.
template <typename T>
idx canonicalize_qr(MatrixView<T> q, MatrixView<T> r) {
  CAQR_CHECK(q.cols() >= std::min(r.rows(), r.cols()));
  const idx k = std::min(r.rows(), r.cols());
  idx flips = 0;
  for (idx i = 0; i < k; ++i) {
    if (!(r(i, i) < T(0))) continue;
    ++flips;
    for (idx j = i; j < r.cols(); ++j) r(i, j) = -r(i, j);
    T* qc = q.col(i);
    for (idx p = 0; p < q.rows(); ++p) qc[p] = -qc[p];
  }
  return flips;
}

// R-only variant (e.g. before comparing incremental-TSQR R factors).
template <typename T>
idx canonicalize_r(MatrixView<T> r) {
  const idx k = std::min(r.rows(), r.cols());
  idx flips = 0;
  for (idx i = 0; i < k; ++i) {
    if (!(r(i, i) < T(0))) continue;
    ++flips;
    for (idx j = i; j < r.cols(); ++j) r(i, j) = -r(i, j);
  }
  return flips;
}

namespace detail {

// Exact power-of-two factor bringing max|A| to O(1). The squared-Frobenius
// accumulators in the metrics overflow for ||A|| ~ 1e300 (and a zero
// denominator hides failures for subnormal A); multiplying BOTH A and R by
// the same power of two is exact and leaves every relative metric unchanged,
// so extreme column scalings stay verifiable.
template <typename VA>
double equilibration_factor(const VA& a) {
  const double s = max_abs(a);
  if (s == 0.0 || !std::isfinite(s)) return 1.0;
  const double f = std::exp2(static_cast<double>(-std::ilogb(s)));
  return f >= 0.5 && f <= 2.0 ? 1.0 : f;
}

template <typename V>
Matrix<view_scalar_t<V>> scaled_copy(const V& a_in, double f) {
  using T = view_scalar_t<V>;
  const auto a = cview(a_in);
  Matrix<T> out(a.rows(), a.cols());
  const T ft = static_cast<T>(f);
  for (idx j = 0; j < a.cols(); ++j) {
    const T* src = a.col(j);
    T* dst = out.view().col(j);
    for (idx i = 0; i < a.rows(); ++i) dst[i] = src[i] * ft;
  }
  return out;
}

}  // namespace detail

// Full verification of A ~ Q R.
template <typename VA, typename VQ, typename VR>
VerifyReport verify_qr(const VA& a_in, const VQ& q_in, const VR& r_in,
                       const VerifyOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  const auto a = cview(a_in);
  const auto q = cview(q_in);
  const auto r = cview(r_in);
  VerifyReport rep;
  rep.has_q = true;
  rep.tolerance = verify_tolerance<T>(a.cols(), opt);
  rep.finite = finite_check(a) && finite_check(q) && finite_check(r);
  if (!rep.finite) {
    rep.residual = rep.orthogonality = rep.gram_residual =
        std::numeric_limits<double>::infinity();
    return rep;
  }
  const double f = detail::equilibration_factor(a);
  const auto as = detail::scaled_copy(a, f);
  const auto rs = detail::scaled_copy(r, f);
  rep.residual = factorization_residual(as.view(), q, rs.view());
  rep.orthogonality = orthogonality_error(q);
  rep.gram_residual = gram_residual(as.view(), rs.view());
  rep.pass = rep.residual <= rep.tolerance &&
             rep.orthogonality <= rep.tolerance &&
             // ||A^T A - R^T R|| <= 2*residual + orthogonality terms, so the
             // Gram check gets the combined headroom.
             rep.gram_residual <= 4.0 * rep.tolerance;
  return rep;
}

// R-only verification (incremental TSQR and other Q-free paths): the
// Gram-matrix residual is condition-number independent, unlike direct R-R
// comparison.
template <typename VA, typename VR>
VerifyReport verify_r(const VA& a_in, const VR& r_in,
                      const VerifyOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  const auto a = cview(a_in);
  const auto r = cview(r_in);
  VerifyReport rep;
  rep.has_q = false;
  rep.tolerance = verify_tolerance<T>(a.cols(), opt);
  rep.finite = finite_check(a) && finite_check(r);
  if (!rep.finite) {
    rep.gram_residual = std::numeric_limits<double>::infinity();
    return rep;
  }
  const double f = detail::equilibration_factor(a);
  const auto as = detail::scaled_copy(a, f);
  const auto rs = detail::scaled_copy(r, f);
  rep.gram_residual = gram_residual(as.view(), rs.view());
  rep.pass = rep.gram_residual <= 4.0 * rep.tolerance;
  return rep;
}

// JSON object ({"residual":...}) for embedding a report into bench
// artifacts (e.g. the "otherData" section of a chrome-trace file). A
// non-finite metric is written as null.
inline std::string verify_json_object(const VerifyReport& r,
                                      const std::string& label = "") {
  json::Writer w;
  w.begin_object();
  if (!label.empty()) w.field("label", label);
  w.field("residual", r.residual).field("orthogonality", r.orthogonality);
  w.field("gram_residual", r.gram_residual).field("tolerance", r.tolerance);
  w.field("finite", r.finite).field("pass", r.pass).end_object();
  return w.str();
}

}  // namespace caqr::numerics
