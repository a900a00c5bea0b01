#pragma once

// Reference Householder QR in LAPACK form: unblocked GEQR2, compact-WY
// blocked GEQRF (LARFT/LARFB), explicit-Q generation (ORGQR) and Q
// application (UNMQR-style). These serve three roles:
//   1. the gold standard the CAQR/TSQR tests compare against,
//   2. the panel factorization inside the baseline blocked-Householder QRs,
//   3. the small-block QR inside the simulated-GPU `factor` kernels.

#include <vector>

#include "linalg/blas2.hpp"
#include "linalg/blas3.hpp"
#include "linalg/householder.hpp"
#include "linalg/matrix.hpp"
#include "numerics/finite_check.hpp"

namespace caqr {

// Unblocked Householder QR (GEQR2). On return, R sits in the upper triangle
// of A and the Householder vectors (v[0]=1 implicit) below the diagonal.
// tau must hold min(m, n) entries. work must hold n scalars.
template <typename T>
void geqr2(MatrixView<T> a, T* tau, T* work) {
  const idx m = a.rows(), n = a.cols();
  const idx kmax = m < n ? m : n;
  for (idx k = 0; k < kmax; ++k) {
    T* colk = a.col(k) + k;
    tau[k] = make_householder(m - k, colk[0], colk + 1);
    if (k + 1 < n) {
      apply_householder_left(m - k, tau[k], colk + 1,
                             a.block(k, k + 1, m - k, n - k - 1), work);
    }
  }
}

// Forms the upper-triangular block-reflector factor T (LARFT, forward
// columnwise): Q = I - V T V^T for V the unit-lower-trapezoidal reflectors
// stored in a's lower part. t is k x k.
template <typename T>
void larft(In<ConstMatrixView<T>> a, const T* tau, In<MatrixView<T>> t) {
  const idx m = a.rows();
  const idx k = a.cols();
  CAQR_CHECK(t.rows() == k && t.cols() == k);
  t.fill(T(0));
  for (idx i = 0; i < k; ++i) {
    t(i, i) = tau[i];
    if (i == 0 || tau[i] == T(0)) continue;
    // t(0:i, i) = -tau[i] * V(:, 0:i)^T * v_i, with v_i = [0..0, 1, a(i+1:,i)]
    for (idx j = 0; j < i; ++j) {
      // V(:, j) has implicit 1 at row j; rows overlap with v_i from row i on.
      T acc = a(i, j);  // row i of column j times v_i[i] == 1
      for (idx r = i + 1; r < m; ++r) acc += a(r, j) * a(r, i);
      t(j, i) = -tau[i] * acc;
    }
    // t(0:i, i) = T(0:i, 0:i) * t(0:i, i)
    trmv_upper(t.as_const().block(0, 0, i, i), t.col(i));
  }
}

// Applies (I - V T V^T)^op from the left to C (LARFB, forward columnwise,
// V unit-lower-trapezoidal m x k stored in a). trans == Yes applies Q^T.
template <typename T>
void larfb_left(In<ConstMatrixView<T>> a, In<ConstMatrixView<T>> t, Trans trans,
                MatrixView<T> c) {
  const idx m = a.rows();
  const idx k = a.cols();
  const idx n = c.cols();
  CAQR_CHECK(c.rows() == m);
  if (n == 0 || k == 0) return;

  // W = V^T * C  (k x n); V's top k x k part is unit lower triangular.
  Matrix<T> w = Matrix<T>::zeros(k, n);
  // W += V1^T * C1 with V1 unit lower triangular (k x k).
  for (idx j = 0; j < n; ++j) {
    const T* cj = c.col(j);
    for (idx i = 0; i < k; ++i) {
      T acc = cj[i];  // diagonal 1
      for (idx r = i + 1; r < k; ++r) acc += a(r, i) * cj[r];
      w(i, j) = acc;
    }
  }
  // W += V2^T * C2 for the rectangular part below.
  if (m > k) {
    gemm(Trans::Yes, Trans::No, T(1), a.block(k, 0, m - k, k),
         c.as_const().block(k, 0, m - k, n), T(1), w.view());
  }
  // W := op(T) * W
  trmm_left(UpLo::Upper, trans == Trans::Yes ? Trans::Yes : Trans::No,
            t, w.view());
  // C -= V * W
  if (m > k) {
    gemm(Trans::No, Trans::No, T(-1), a.block(k, 0, m - k, k), w.view(), T(1),
         c.block(k, 0, m - k, n));
  }
  // C1 -= V1 * W with V1 unit lower triangular (k x k).
  for (idx j = 0; j < n; ++j) {
    T* cj = c.col(j);
    for (idx i = k - 1; i >= 0; --i) {
      T acc = w(i, j);
      for (idx r = 0; r < i; ++r) acc += a(i, r) * w(r, j);
      cj[i] -= acc;
    }
  }
}

// Blocked Householder QR (GEQRF) with panel width nb.
template <typename T>
void geqrf(MatrixView<T> a, T* tau, idx nb = 32) {
  CAQR_GUARD_FINITE(a, "geqrf:input");
  const idx m = a.rows(), n = a.cols();
  const idx kmax = m < n ? m : n;
  std::vector<T> work(static_cast<std::size_t>(n > 0 ? n : 1));
  Matrix<T> t(nb, nb);
  for (idx k = 0; k < kmax; k += nb) {
    const idx kb = std::min(nb, kmax - k);
    auto panel = a.block(k, k, m - k, kb);
    geqr2(panel, tau + k, work.data());
    if (k + kb < n) {
      larft(panel.as_const(), tau + k, t.block(0, 0, kb, kb));
      larfb_left(panel.as_const(), t.as_const().block(0, 0, kb, kb),
                 Trans::Yes, a.block(k, k + kb, m - k, n - k - kb));
    }
  }
  CAQR_GUARD_FINITE(a, "geqrf:output");
}

namespace detail {

// apply_q_left's loop. `identity_seed` (Q applied to the identity, ORGQR)
// narrows each block p to columns [p, c.cols()): those before p are still
// e_j, zero in rows [p, m), and the block would rewrite +0 with +0. gemm's
// 4-column stripes start at the view's first column, and p is a multiple
// of nb (32), so every column keeps its stripe and Q keeps its bits.
template <typename T>
void apply_q_left_cols(ConstMatrixView<T> a, const T* tau, Trans trans,
                       MatrixView<T> c, idx nb, bool identity_seed) {
  const idx m = a.rows();
  const idx k = a.cols();
  CAQR_CHECK(c.rows() == m);
  Matrix<T> t(nb, nb);
  if (trans == Trans::Yes) {
    // Q^T = H_k ... H_1 applied forward.
    for (idx p = 0; p < k; p += nb) {
      const idx pb = std::min(nb, k - p);
      auto v = a.block(p, p, m - p, pb);
      larft(v, tau + p, t.block(0, 0, pb, pb));
      larfb_left(v, t.as_const().block(0, 0, pb, pb), Trans::Yes,
                 c.block(p, 0, m - p, c.cols()));
    }
  } else {
    // Q = H_1 ... H_k applied backward.
    idx p0 = ((k - 1) / nb) * nb;
    for (idx p = p0; p >= 0; p -= nb) {
      const idx pb = std::min(nb, k - p);
      const idx j0 = identity_seed ? std::min(p, c.cols()) : 0;
      auto v = a.block(p, p, m - p, pb);
      larft(v, tau + p, t.block(0, 0, pb, pb));
      larfb_left(v, t.as_const().block(0, 0, pb, pb), Trans::No,
                 c.block(p, j0, m - p, c.cols() - j0));
      if (p == 0) break;
    }
  }
}

}  // namespace detail

// Applies Q (or Q^T) of a GEQRF factorization to C from the left (UNMQR).
// a holds the reflectors (m x k), tau the scalar factors.
template <typename T>
void apply_q_left(In<ConstMatrixView<T>> a, const T* tau, Trans trans,
                  In<MatrixView<T>> c, idx nb = 32) {
  detail::apply_q_left_cols(a, tau, trans, c, nb, /*identity_seed=*/false);
}

// Forms the explicit m x k orthogonal factor Q of a GEQRF result (ORGQR):
// bit-identical to apply_q_left on the identity, skipping the columns the
// identity leaves zero.
template <typename T>
Matrix<T> form_q(In<ConstMatrixView<T>> a, const T* tau, idx qcols) {
  const idx m = a.rows();
  CAQR_CHECK(qcols <= m);
  Matrix<T> q = Matrix<T>::identity(m, qcols);
  const idx k = std::min(a.cols(), qcols);
  detail::apply_q_left_cols(a.block(0, 0, m, k), tau, Trans::No, q.view(),
                            /*nb=*/32, /*identity_seed=*/true);
  return q;
}

// Extracts the upper-triangular R (k x n) from a factored matrix.
template <typename VA>
Matrix<view_scalar_t<VA>> extract_r(const VA& a_in) {
  using T = view_scalar_t<VA>;
  const ConstMatrixView<T> a = cview(a_in);
  const idx n = a.cols();
  const idx k = std::min(a.rows(), n);
  Matrix<T> r = Matrix<T>::zeros(k, n);
  for (idx j = 0; j < n; ++j) {
    const idx top = std::min(j + 1, k);
    for (idx i = 0; i < top; ++i) r(i, j) = a(i, j);
  }
  return r;
}

}  // namespace caqr
