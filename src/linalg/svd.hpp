#pragma once

// One-sided Jacobi SVD for small dense matrices (m >= n).
//
// This is the "small SVD of R" in the paper's tall-skinny SVD pipeline
// (A = QR, R = U Σ V^T, left vectors = Q U). One-sided Jacobi orthogonalizes
// the columns of a working copy W (initially A) by plane rotations while
// accumulating them into V; on convergence the column norms are the singular
// values and the normalized columns are U. Accurate to high relative
// precision for the well-scaled R factors this library produces.
//
// The sweep follows LAPACK's xGESVJ (Drmač–Veselić) where it pays:
//   * the squared column norms are kept in a vector and updated through
//     each rotation, so a pair costs one dot product instead of three; an
//     update that cancels is replaced by a recomputed dot product, and all
//     norms are recomputed at the start of every sweep;
//   * a pair counts as orthogonal when |w_p·w_q| <= sqrt(m)·eps·‖w_p‖‖w_q‖,
//     the rounding level of a length-m dot product.
// For float and double the dot products and rotations run as vector code at
// the host's ISA level (kernels/simd.hpp). A dot product keeps 16 partial
// sums at every level and reduces them by one fixed halving tree, so U, Σ
// and V are bit-identical at SSE2, AVX2 and AVX-512.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/simd.hpp"
#include "linalg/blas1.hpp"
#include "linalg/matrix.hpp"
#include "numerics/finite_check.hpp"

namespace caqr {

template <typename T>
struct SvdResult {
  Matrix<T> u;              // m x n, orthonormal columns
  std::vector<T> sigma;     // n, descending
  Matrix<T> v;              // n x n, orthogonal
  int sweeps = 0;           // Jacobi sweeps until convergence
  bool converged = false;
};

namespace jacobi {

using kernels::simd::Isa;

// Lanes of partial sums in a dot product, at every level.
inline constexpr int kDotLanes = 16;

// x·y at level I: element i adds into partial sum i mod 16 (in ascending i),
// then the 16 sums reduce pairwise, s[k] += s[k + h] for h = 8, 4, 2, 1.
template <Isa I, typename T>
T dot(idx m, const T* x, const T* y) {
  constexpr int kW = kernels::simd::kLanes<I, kDotLanes, T>;
  constexpr int P = kDotLanes / kW;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  V acc[P] = {};
  idx i = 0;
  for (; i + kDotLanes <= m; i += kDotLanes) {
#pragma GCC unroll 16
    for (int p = 0; p < P; ++p) {
      V a, b;
      std::memcpy(&a, x + i + p * kW, sizeof(V));
      std::memcpy(&b, y + i + p * kW, sizeof(V));
      acc[p] += a * b;
    }
  }
  T s[kDotLanes];
  std::memcpy(s, acc, sizeof(s));
  for (int k = 0; i < m; ++i, ++k) s[k] += x[i] * y[i];
  for (int h = kDotLanes / 2; h >= 1; h /= 2) {
    for (int k = 0; k < h; ++k) s[k] += s[k + h];
  }
  return s[0];
}

// (x, y) <- (c·x − s·y, s·x + c·y) at level I.
template <Isa I, typename T>
void rotate(idx m, T* x, T* y, T c, T s) {
  constexpr int kW = kernels::simd::kLanes<I, kDotLanes, T>;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  idx i = 0;
  for (; i + kW <= m; i += kW) {
    V a, b;
    std::memcpy(&a, x + i, sizeof(V));
    std::memcpy(&b, y + i, sizeof(V));
    const V xa = c * a - s * b;
    const V yb = s * a + c * b;
    std::memcpy(x + i, &xa, sizeof(V));
    std::memcpy(y + i, &yb, sizeof(V));
  }
  for (; i < m; ++i) {
    const T a = x[i];
    x[i] = c * a - s * y[i];
    y[i] = s * a + c * y[i];
  }
}

// How a run of sweeps ended.
struct SweepStatus {
  int sweeps = 0;  // Jacobi sweeps run
  bool converged = false;
};

// Cyclic sweeps over the column pairs of w (m x n), accumulating the
// rotations into v, until a sweep rotates nothing or max_sweeps ran.
// Dot(m, x, y) and Rotate(m, x, y, c, s) are the vector or scalar
// primitives; norm2 has room for n squared column norms.
template <typename T, typename Dot, typename Rotate>
void sweeps(MatrixView<T> w, MatrixView<T> v, int max_sweeps, T* norm2,
            SweepStatus& out, Dot dot, Rotate rotate) {
  const idx m = w.rows(), n = w.cols();
  const T tol = std::sqrt(static_cast<T>(m)) * std::numeric_limits<T>::epsilon();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    for (idx j = 0; j < n; ++j) norm2[j] = dot(m, w.col(j), w.col(j));
    bool rotated = false;
    for (idx p = 0; p < n - 1; ++p) {
      for (idx q = p + 1; q < n; ++q) {
        T* wp = w.col(p);
        T* wq = w.col(q);
        const T apq = dot(m, wp, wq);
        const T app = norm2[p];
        const T aqq = norm2[q];
        // Threshold as a product of square roots: app * aqq overflows (or
        // underflows to 0, disabling convergence) for extreme column norms
        // even when the threshold itself is representable.
        if (std::abs(apq) <= tol * std::sqrt(app) * std::sqrt(aqq) ||
            apq == T(0)) {
          continue;
        }
        rotated = true;
        // Jacobi rotation zeroing the (p, q) Gram entry.
        const T zeta = (aqq - app) / (T(2) * apq);
        const T t = std::copysign(
            T(1) / (std::abs(zeta) + std::sqrt(T(1) + zeta * zeta)), zeta);
        const T c = T(1) / std::sqrt(T(1) + t * t);
        const T s = c * t;
        rotate(m, wp, wq, c, s);
        rotate(n, v.col(p), v.col(q), c, s);
        // The rotated Gram diagonal; the smaller norm shrinks, and when
        // it loses more than 3/4 of its value the update has cancelled.
        norm2[p] = app - t * apq;
        norm2[q] = aqq + t * apq;
        if (norm2[p] < T(0.25) * app) norm2[p] = dot(m, wp, wp);
        if (norm2[q] < T(0.25) * aqq) norm2[q] = dot(m, wq, wq);
      }
    }
    out.sweeps = sweep + 1;
    if (!rotated) {
      out.converged = true;
      return;
    }
  }
}

// The thin SVD in place, allocating nothing: w (m x n, m >= n) holds A on
// entry and U on return, v (n x n) receives V, sigma (n) the singular
// values in descending order; norm2 (n) is scratch. isa is used for float
// and double only.
template <typename T>
SweepStatus svd_in_place(Isa isa, MatrixView<T> w, MatrixView<T> v, T* sigma,
                         T* norm2, int max_sweeps) {
  const idx m = w.rows(), n = w.cols();
  CAQR_CHECK(m >= n && v.rows() == n && v.cols() == n);

  CAQR_GUARD_FINITE(w.as_const(), "jacobi_svd:input");
  v.set_identity();
  SweepStatus out;

  // Equilibrate extreme inputs to a safe range: the rotations work on
  // squared column norms, which overflow/underflow for max|A| outside
  // roughly [2^-256, 2^256] even when A itself is representable. Scaling by
  // an exact power of two keeps every rotation bit-identical and scales the
  // singular values exactly; well-scaled inputs are untouched.
  T inv_scale = T(1);
  {
    double s = 0.0;
    for (idx j = 0; j < n; ++j) {
      const T* col = w.col(j);
      for (idx i = 0; i < m; ++i) {
        const double ax = std::abs(static_cast<double>(col[i]));
        if (ax > s) s = ax;
      }
    }
    const int e = s > 0.0 ? std::ilogb(s) : 0;
    if (e > 256 || e < -256) {
      const T f = static_cast<T>(std::exp2(static_cast<double>(-e)));
      for (idx j = 0; j < n; ++j) scal(m, f, w.col(j));
      inv_scale = T(1) / f;
    }
  }

  // norm2 holds working values only: the singular values below are
  // recomputed from the final columns.
  if constexpr (kernels::simd::kEnabled<T>) {
    kernels::simd::run_at(isa, [&]<Isa I>() {
      sweeps(w, v, max_sweeps, norm2, out,
             [](idx k, const T* x, const T* y) { return dot<I>(k, x, y); },
             [](idx k, T* x, T* y, T c, T s) { rotate<I>(k, x, y, c, s); });
    });
  } else {
    sweeps(w, v, max_sweeps, norm2, out,
           [](idx k, const T* x, const T* y) { return caqr::dot(k, x, y); },
           [](idx k, T* x, T* y, T c, T s) {
             for (idx i = 0; i < k; ++i) {
               const T a = x[i];
               x[i] = c * a - s * y[i];
               y[i] = s * a + c * y[i];
             }
           });
  }

  // Column norms -> singular values (undoing the equilibration); normalize
  // U columns (zero-safe).
  for (idx j = 0; j < n; ++j) {
    T* wj = w.col(j);
    const T sj = nrm2(m, wj);
    sigma[j] = sj * inv_scale;
    if (sj > T(0)) scal(m, T(1) / sj, wj);
  }

  // Sort descending by sigma (selection sort; n is small), permuting U and V.
  for (idx i = 0; i < n; ++i) {
    idx best = i;
    for (idx j = i + 1; j < n; ++j) {
      if (sigma[j] > sigma[best]) best = j;
    }
    if (best != i) {
      std::swap(sigma[i], sigma[best]);
      for (idx r = 0; r < m; ++r) std::swap(w(r, i), w(r, best));
      for (idx r = 0; r < n; ++r) std::swap(v(r, i), v(r, best));
    }
  }
  CAQR_GUARD_FINITE(w.as_const(), "jacobi_svd:u");
  CAQR_GUARD_FINITE(v.as_const(), "jacobi_svd:v");
  return out;
}

// The thin SVD of a (m x n, m >= n) into fresh storage.
template <typename T>
SvdResult<T> thin_svd(Isa isa, ConstMatrixView<T> a, int max_sweeps) {
  const idx n = a.cols();
  SvdResult<T> out{Matrix<T>::from(a), std::vector<T>(static_cast<std::size_t>(n)),
                   Matrix<T>(n, n), 0, false};
  std::vector<T> norm2(static_cast<std::size_t>(n));
  const SweepStatus s = svd_in_place(isa, out.u.view(), out.v.view(),
                                     out.sigma.data(), norm2.data(), max_sweeps);
  out.sweeps = s.sweeps;
  out.converged = s.converged;
  return out;
}

}  // namespace jacobi

// Computes the thin SVD of a (m x n, m >= n) by one-sided Jacobi at ISA
// level `isa` (float and double; other scalar types run scalar loops). The
// result is the same at every level; tests use this seam to show it.
template <typename VA>
SvdResult<view_scalar_t<VA>> jacobi_svd_at(kernels::simd::Isa isa,
                                           const VA& a, int max_sweeps = 60) {
  return jacobi::thin_svd(isa, cview(a), max_sweeps);
}

// Computes the thin SVD of a (m x n, m >= n) by one-sided Jacobi.
template <typename VA>
SvdResult<view_scalar_t<VA>> jacobi_svd(const VA& a, int max_sweeps = 60) {
  return jacobi_svd_at(kernels::simd::active_isa(), a, max_sweeps);
}

// jacobi_svd into caller storage, allocating nothing: w (m x n, m >= n)
// holds A on entry and U on return, v (n x n) receives V, sigma (n) the
// singular values in descending order; norm2 (n) is scratch. The same bits
// as jacobi_svd.
template <typename T>
jacobi::SweepStatus jacobi_svd_in_place(MatrixView<T> w, MatrixView<T> v,
                                        T* sigma, T* norm2,
                                        int max_sweeps = 60) {
  return jacobi::svd_in_place(kernels::simd::active_isa(), w, v, sigma, norm2,
                              max_sweeps);
}

}  // namespace caqr
