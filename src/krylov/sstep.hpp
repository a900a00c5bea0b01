#pragma once

// s-step (communication-avoiding) Krylov methods on the simulated GPU —
// the application class the paper's introduction motivates: "In s-step
// methods, multiple basis vectors are generated at once and can be
// orthogonalized using a QR factorization. The dimensions of this QR
// factorization can be millions of rows by less than ten columns."
//
// Pieces:
//   * matrix_powers      — generate a block {v, Av, ..., A^s v} (monomial or
//                          Newton basis; the Newton shifts tame the basis
//                          conditioning for larger s).
//   * block_orthogonalize— TSQR-orthogonalize a basis block against itself
//                          and (block classical Gram-Schmidt) against the
//                          previously accepted basis.
//   * ca_arnoldi         — s-step Arnoldi: V with orthonormal columns and
//                          the projected H = V^T A V, built s vectors at a
//                          time with one TSQR per block.
//   * ca_gmres           — restarted GMRES over the CA-Arnoldi basis, with
//                          the small least-squares solve done by QR.
//
// All dense block operations (TSQR, BGS corrections) are charged to the
// Device timeline; SpMVs are charged via CsrMatrix::charge_spmv.

#include <cmath>
#include <vector>

#include "baselines/gemm_model.hpp"
#include "linalg/norms.hpp"
#include "sparse/csr.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr::krylov {

enum class BasisKind {
  Monomial,  // v, Av, A^2 v, ...: simplest, conditioning grows fast
  Newton,    // (A - theta_i I) products with Leja-ordered Ritz shifts
};

// Generates the m x (s+1) Krylov block starting from v (length m), running
// s SpMVs. Newton shifts default to Chebyshev points on the operator's
// Gershgorin interval estimate when not provided.
template <typename T>
Matrix<T> matrix_powers(gpusim::Device& dev, const sparse::CsrMatrix<T>& a,
                        const T* v, idx s, BasisKind kind = BasisKind::Monomial,
                        const std::vector<T>& shifts = {}) {
  const idx m = a.rows();
  CAQR_CHECK(a.cols() == m && s >= 0);
  Matrix<T> k(m, s + 1);
  copy_n(m, v, k.view().col(0));

  std::vector<T> theta(static_cast<std::size_t>(s), T(0));
  if (kind == BasisKind::Newton) {
    if (!shifts.empty()) {
      CAQR_CHECK(static_cast<idx>(shifts.size()) >= s);
      for (idx i = 0; i < s; ++i) theta[static_cast<std::size_t>(i)] = shifts[static_cast<std::size_t>(i)];
    } else {
      // Chebyshev points on (0, 8): the 2-D Laplacian's spectrum bound; a
      // reasonable default for diagonally dominant SPD operators.
      for (idx i = 0; i < s; ++i) {
        const double x = std::cos((2.0 * static_cast<double>(i) + 1.0) /
                                  (2.0 * static_cast<double>(s)) * 3.14159265358979);
        theta[static_cast<std::size_t>(i)] = static_cast<T>(4.0 + 4.0 * x);
      }
    }
  }

  for (idx j = 1; j <= s; ++j) {
    a.spmv(k.view().col(j - 1), k.view().col(j));
    a.charge_spmv(dev);
    if (kind == BasisKind::Newton) {
      axpy(m, -theta[static_cast<std::size_t>(j - 1)], k.view().col(j - 1),
           k.view().col(j));
    }
  }
  return k;
}

// Orthogonalizes `block` (m x w) against the first `kcols` columns of
// `basis` (block classical Gram-Schmidt, one reorthogonalization pass) and
// then internally via TSQR. Returns the coefficients C (kcols x w) and the
// internal R factor (w x w): block_in = basis * C + Q_out * R.
template <typename T>
struct BlockOrthoResult {
  Matrix<T> coeffs;  // kcols x w (projections onto the existing basis)
  Matrix<T> r;       // w x w (internal TSQR factor)
};

template <typename T>
BlockOrthoResult<T> block_orthogonalize(gpusim::Device& dev,
                                        In<ConstMatrixView<T>> basis,
                                        idx kcols, MatrixView<T> block,
                                        const tsqr::TsqrOptions& opt) {
  const idx m = block.rows();
  const idx w = block.cols();
  CAQR_CHECK(basis.rows() == m && kcols >= 0 && kcols <= basis.cols());
  BlockOrthoResult<T> out{Matrix<T>::zeros(kcols, w), Matrix<T>::zeros(w, w)};

  // Two BGS passes ("twice is enough") against the accepted basis.
  for (int pass = 0; pass < 2 && kcols > 0; ++pass) {
    Matrix<T> c = Matrix<T>::zeros(kcols, w);
    auto vk = basis.block(0, 0, m, kcols);
    gemm(Trans::Yes, Trans::No, T(1), vk, block.as_const(), T(0), c.view());
    gemm(Trans::No, Trans::No, T(-1), vk, c.view(), T(1), block);
    baselines::charge_gemm(dev, kcols, w, m, "bgs_project");
    baselines::charge_gemm(dev, m, w, kcols, "bgs_update");
    // Accumulate coefficients from both passes.
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i < kcols; ++i) out.coeffs(i, j) += c(i, j);
    }
  }

  // Internal orthogonalization: one TSQR of the tall-skinny block.
  auto f = tsqr::tsqr_factor(dev, gpusim::kDefaultStream, block, opt);
  // Extract R, then form the explicit Q in place of the block.
  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i <= j; ++i) out.r(i, j) = block(i, j);
  }
  Matrix<T> q = Matrix<T>::identity(m, w);
  tsqr::tsqr_apply(dev, gpusim::kDefaultStream, block.as_const(), f, q.view(),
                   opt, /*transpose_q=*/false);
  block.copy_from(q.view());
  return out;
}

// s-step Arnoldi: builds `blocks` blocks of `s` new vectors each (basis
// width = 1 + blocks*s), returning the orthonormal basis V and the upper
// Hessenberg projection H (square, basis width) with the Arnoldi residual
// in the last subdiagonal entries.
template <typename T>
struct ArnoldiResult {
  Matrix<T> v;  // m x (1 + blocks*s), orthonormal columns
  Matrix<T> h;  // (1 + blocks*s + 1) x (1 + blocks*s): extended Hessenberg
  idx width = 0;
};

// Classic MGS Arnoldi (reference / comparison path).
template <typename T>
ArnoldiResult<T> arnoldi_mgs(gpusim::Device& dev, const sparse::CsrMatrix<T>& a,
                             const T* v0, idx steps) {
  const idx m = a.rows();
  ArnoldiResult<T> out{Matrix<T>::zeros(m, steps + 1),
                       Matrix<T>::zeros(steps + 1, steps), steps};
  copy_n(m, v0, out.v.view().col(0));
  const T nv = nrm2(m, out.v.view().col(0));
  CAQR_CHECK(nv > T(0));
  scal(m, T(1) / nv, out.v.view().col(0));

  std::vector<T> w(static_cast<std::size_t>(m));
  for (idx j = 0; j < steps; ++j) {
    a.spmv(out.v.view().col(j), w.data());
    a.charge_spmv(dev);
    for (idx i = 0; i <= j; ++i) {
      const T hij = dot(m, out.v.view().col(i), w.data());
      out.h(i, j) = hij;
      axpy(m, -hij, out.v.view().col(i), w.data());
    }
    const T hn = nrm2(m, w.data());
    out.h(j + 1, j) = hn;
    if (hn == T(0)) {
      out.width = j;
      break;
    }
    scal(m, T(1) / hn, w.data());
    copy_n(m, w.data(), out.v.view().col(j + 1));
  }
  return out;
}

// Communication-avoiding Arnoldi: per outer block, generate s basis vectors
// with matrix_powers, orthogonalize the whole block at once (BGS + TSQR),
// and recover the Hessenberg columns from the change-of-basis algebra
// numerically (H = V^T A V evaluated with s extra SpMVs per block — the
// simple, robust variant).
template <typename T>
ArnoldiResult<T> ca_arnoldi(gpusim::Device& dev, const sparse::CsrMatrix<T>& a,
                            const T* v0, idx s, idx blocks,
                            BasisKind kind = BasisKind::Newton,
                            const tsqr::TsqrOptions& topt = {}) {
  const idx m = a.rows();
  const idx width = s * blocks;
  ArnoldiResult<T> out{Matrix<T>::zeros(m, width + 1),
                       Matrix<T>::zeros(width + 1, width), width};

  copy_n(m, v0, out.v.view().col(0));
  const T nv = nrm2(m, out.v.view().col(0));
  CAQR_CHECK(nv > T(0));
  scal(m, T(1) / nv, out.v.view().col(0));

  idx k = 1;  // accepted basis width
  for (idx b = 0; b < blocks; ++b) {
    // Generate s new candidates from the last accepted vector.
    auto powers = matrix_powers(dev, a, out.v.view().col(k - 1), s, kind);
    // Candidates are columns 1..s (column 0 is the seed, already in V).
    Matrix<T> block(m, s);
    block.view().copy_from(powers.view().block(0, 1, m, s));
    auto ortho = block_orthogonalize(dev, out.v.view(), k, block.view(), topt);
    (void)ortho;
    out.v.view().block(0, k, m, s).copy_from(block.view());
    k += s;
  }

  // H = V^T A V, assembled column-by-column with one SpMV per column.
  std::vector<T> av(static_cast<std::size_t>(m));
  for (idx j = 0; j < width; ++j) {
    a.spmv(out.v.view().col(j), av.data());
    a.charge_spmv(dev);
    for (idx i = 0; i < width + 1; ++i) {
      out.h(i, j) = dot(m, out.v.view().col(i), av.data());
    }
  }
  baselines::charge_gemm(dev, width + 1, width, m, "hessenberg_projection");
  return out;
}

// Restarted GMRES over the CA-Arnoldi basis. Solves min ||b - A x|| by
// projecting onto the s-step basis and solving the small least-squares
// problem with dense QR. Returns the iterate and residual history (one
// entry per restart cycle).
template <typename T>
struct GmresResult {
  std::vector<T> x;
  std::vector<double> residuals;  // relative, per restart cycle
  bool converged = false;
};

template <typename T>
GmresResult<T> ca_gmres(gpusim::Device& dev, const sparse::CsrMatrix<T>& a,
                        const T* b, idx s, idx blocks, idx max_restarts,
                        double tol = 1e-8,
                        BasisKind kind = BasisKind::Newton) {
  const idx m = a.rows();
  GmresResult<T> out{std::vector<T>(static_cast<std::size_t>(m), T(0)), {}, false};
  const double bnorm = static_cast<double>(nrm2(m, b));
  if (bnorm == 0.0) {
    out.converged = true;
    return out;
  }

  std::vector<T> r(static_cast<std::size_t>(m));
  for (idx cycle = 0; cycle < max_restarts; ++cycle) {
    // r = b - A x
    a.spmv(out.x.data(), r.data());
    a.charge_spmv(dev);
    for (idx i = 0; i < m; ++i) r[static_cast<std::size_t>(i)] = b[i] - r[static_cast<std::size_t>(i)];
    const double rnorm = static_cast<double>(nrm2(m, r.data()));
    out.residuals.push_back(rnorm / bnorm);
    if (rnorm / bnorm < tol) {
      out.converged = true;
      return out;
    }

    auto ar = ca_arnoldi(dev, a, r.data(), s, blocks, kind);
    const idx width = ar.width;
    // Solve min || beta e1 - H y || with dense QR of the (width+1) x width H.
    Matrix<T> h = Matrix<T>::from(ar.h.view());
    Matrix<T> rhs = Matrix<T>::zeros(width + 1, 1);
    rhs(0, 0) = static_cast<T>(rnorm);
    std::vector<T> tau(static_cast<std::size_t>(width));
    geqrf(h.view(), tau.data());
    apply_q_left(h.view().block(0, 0, width + 1, width), tau.data(),
                 Trans::Yes, rhs.view());
    trsv_upper(h.view().block(0, 0, width, width), rhs.view().col(0));
    // x += V(:, 0:width) * y
    Matrix<T> y(width, 1);
    y.view().copy_from(rhs.view().block(0, 0, width, 1));
    Matrix<T> xcol(m, 1);
    gemm(Trans::No, Trans::No, T(1), ar.v.view().block(0, 0, m, width),
         y.view(), T(0), xcol.view());
    baselines::charge_gemm(dev, m, 1, width, "gmres_update");
    for (idx i = 0; i < m; ++i) out.x[static_cast<std::size_t>(i)] += xcol(i, 0);
  }

  // Final residual.
  a.spmv(out.x.data(), r.data());
  for (idx i = 0; i < m; ++i) r[static_cast<std::size_t>(i)] = b[i] - r[static_cast<std::size_t>(i)];
  const double rn = static_cast<double>(nrm2(m, r.data())) / bnorm;
  out.residuals.push_back(rn);
  out.converged = rn < tol;
  return out;
}

}  // namespace caqr::krylov
