#pragma once

// Matrix-matrix (BLAS3) primitives on column-major views.
//
// These back the reference (LAPACK-style) blocked QR, the baselines'
// trailing updates, CholeskyQR's Gram and solve, the least-squares solver
// and everything downstream (SVD, RPCA); the simulated-GPU kernels have
// their own small-block implementations in src/kernels.
//
// Three routines were rewritten for speed without changing a bit of their
// results: each output element still gets exactly the floating-point
// operations, in the same order, that the serial loops gave it; only which
// element is computed when, on which thread and in which vector lane
// changes, so results are bit-identical at every ISA level and for any
// pool size (DESIGN.md §16.8):
//   * gemm (No, No) splits C's rows over ThreadPool::global(). The
//     micro-tile and the row-remainder loop give an element the same
//     operations (a sum from 0 over ascending p, then C += alpha * sum), so
//     any row split keeps the bits; chunks start at multiples of the
//     micro-tile's MR = 8 so that each keeps whole micro-tiles.
//   * syrk_t computes G(i, j) = sum_k A(k, i) A(k, j) as a sum from 0 in
//     ascending k, like dot(), with lanes over j: a block of A's rows is
//     staged row-major in bounded per-thread scratch and register tiles of
//     G accumulate over it.
//   * trsm (Right, Upper, No) solves X T = B column by column with lanes
//     over rows: x_ij = (b_ij - x_i0 t_0j - ... - x_i(j-1) t_(j-1)j) / t_jj
//     with each product subtracted in ascending p, and a true division.
// syrk_t and trsm run on the calling thread: at vector rate a whole host
// CholeskyQR2 takes ~1.2 ms at 8192 x 32 and ~0.2 s at 110,592 x 100
// against ~19 ms and 2.5-3.8 s before (E28), so no workload waits on a
// pool split of them.
// float and double run vector code at kernels::simd::active_isa() (no
// FMA: the library builds with -ffp-contract=off); other scalar types
// (the flop-counting scalar) run the scalar loops. A gemm with less work
// than kMinChunkMacs per chunk stays inline, and one made from inside a
// pool item runs inline too (ThreadPool nesting).

#include <algorithm>
#include <cstring>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "kernels/simd.hpp"
#include "linalg/blas1.hpp"
#include "linalg/matrix.hpp"

namespace caqr {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class UpLo { Upper, Lower };

namespace blas3 {

using kernels::simd::Isa;

// Multiply-adds below which a gemm, or one chunk of it, is not worth a trip
// through the pool (waking the workers costs tens of microseconds, and on a
// loaded host a worker preempted mid-chunk stalls the join). Small calls
// such as a stream frame's 160 x 64 x k projections stay on the calling
// thread.
inline constexpr double kMinChunkMacs = 1 << 22;

// Runs body(r0, r1) over [0, rows) in chunks whose starts are multiples of
// `align`, each carrying at least kMinChunkMacs (macs_per_row per row), at
// most four per pool thread. One chunk runs inline.
template <typename Body>
void for_row_chunks(ThreadPool& pool, idx rows, idx align, double macs_per_row,
                    const Body& body) {
  if (rows <= 0) return;
  const double chunks_by_work =
      static_cast<double>(rows) * macs_per_row / kMinChunkMacs;
  const idx max_chunks =
      std::min<idx>((rows + align - 1) / align,
                    4 * static_cast<idx>(pool.size()));
  const idx chunks =
      std::clamp<idx>(static_cast<idx>(chunks_by_work), 1, max_chunks);
  if (chunks == 1) {
    body(idx{0}, rows);
    return;
  }
  const idx step = ((rows + chunks - 1) / chunks + align - 1) / align * align;
  const idx count = (rows + step - 1) / step;
  const auto item = [&](std::size_t c) {
    const idx r0 = static_cast<idx>(c) * step;
    body(r0, std::min(rows, r0 + step));
  };
  // One captured pointer fits std::function's inline storage: no allocation.
  pool.parallel_for(static_cast<std::size_t>(count),
                    [&item](std::size_t c) { item(c); });
}

// C(mr x nr) += alpha * A(mr x k) * B(k x nr); mr/nr small compile-time
// tile, accumulators in registers.
template <typename T, int MR, int NR>
void gemm_micro(idx k, T alpha, const T* a, idx lda, const T* b, idx ldb, T* c,
                idx ldc) {
  T acc[MR][NR] = {};
  for (idx p = 0; p < k; ++p) {
    const T* ap = a + p * lda;
    const T* bp = b + p;
    for (int j = 0; j < NR; ++j) {
      const T bv = bp[j * ldb];
      for (int i = 0; i < MR; ++i) acc[i][j] += ap[i] * bv;
    }
  }
  for (int j = 0; j < NR; ++j) {
    for (int i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i][j];
  }
}

inline constexpr int kGemmMR = 8;
inline constexpr int kGemmNR = 4;

// C += alpha * A * B with register-blocked micro-tiles over MR-row blocks
// from C's first row, a scalar row remainder and an axpy column remainder.
template <typename T>
void gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
             MatrixView<T> c) {
  constexpr int MR = kGemmMR, NR = kGemmNR;
  const idx m = c.rows(), n = c.cols(), k = a.cols();
  const idx mb = m / MR * MR;
  const idx nb = n / NR * NR;
  for (idx j = 0; j < nb; j += NR) {
    for (idx i = 0; i < mb; i += MR) {
      gemm_micro<T, MR, NR>(k, alpha, a.data() + i, a.ld(),
                            b.data() + j * b.ld(), b.ld(),
                            c.data() + i + j * c.ld(), c.ld());
    }
    // Row remainder for this column stripe.
    for (idx i = mb; i < m; ++i) {
      for (idx jj = j; jj < j + NR; ++jj) {
        T acc = T(0);
        for (idx p = 0; p < k; ++p) acc += a(i, p) * b(p, jj);
        c(i, jj) += alpha * acc;
      }
    }
  }
  // Column remainder.
  for (idx j = nb; j < n; ++j) {
    T* cj = c.col(j);
    for (idx p = 0; p < k; ++p) {
      const T bv = alpha * b(p, j);
      const T* ap = a.col(p);
      for (idx i = 0; i < m; ++i) cj[i] += bv * ap[i];
    }
  }
}

// Rows of A staged per block in syrk_t's per-thread scratch.
inline constexpr idx kSyrkRows = 256;

// syrk_t's tile at level I: JW lanes of G's columns (P vectors of kW), TI
// of G's rows per register tile.
template <Isa I, typename T>
struct SyrkTile {
  static constexpr int kW = kernels::simd::kLanes<I, 16, T>;
  static constexpr int P = kW >= 8 ? 1 : 2;
  static constexpr int JW = P * kW;
  static constexpr int TI = 8 / P;
};

// part[i * JW + l] = sum_k A(k, i) A(k, j0 + l) for rows i < iend and the
// lanes l with j0 + l < n, each a sum from 0 over ascending k. Rows of
// `part` up to iend rounded up to TI and lanes past n are scratch.
template <Isa I, typename T>
void syrk_column_tile(ConstMatrixView<T> a, idx j0, idx iend, T* stage,
                      T* part) {
  using S = SyrkTile<I, T>;
  constexpr int kW = S::kW, P = S::P, JW = S::JW, TI = S::TI;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  const idx m = a.rows();
  const idx jw = std::min<idx>(JW, a.cols() - j0);
  const idx irows = (iend + TI - 1) / TI * TI;
  std::fill(part, part + irows * JW, T(0));
  for (idx k0 = 0; k0 < m; k0 += kSyrkRows) {
    const idx kb = std::min(kSyrkRows, m - k0);
    for (idx l = 0; l < JW; ++l) {
      if (l < jw) {
        const T* src = a.col(j0 + l) + k0;
        for (idx k = 0; k < kb; ++k) stage[k * JW + l] = src[k];
      } else {
        for (idx k = 0; k < kb; ++k) stage[k * JW + l] = T(0);
      }
    }
    for (idx i0 = 0; i0 < iend; i0 += TI) {
      // Rows past iend read a valid column; their sums are never used.
      const T* cols[TI];
      for (int t = 0; t < TI; ++t) {
        cols[t] = a.col(std::min<idx>(i0 + t, iend - 1)) + k0;
      }
      V acc[TI][P];
      for (int t = 0; t < TI; ++t) {
        for (int p = 0; p < P; ++p) {
          std::memcpy(&acc[t][p], part + (i0 + t) * JW + p * kW, sizeof(V));
        }
      }
      for (idx k = 0; k < kb; ++k) {
        V s[P];
        for (int p = 0; p < P; ++p) {
          std::memcpy(&s[p], stage + k * JW + p * kW, sizeof(V));
        }
#pragma GCC unroll 8
        for (int t = 0; t < TI; ++t) {
          const T x = cols[t][k];
          for (int p = 0; p < P; ++p) acc[t][p] += x * s[p];
        }
      }
      for (int t = 0; t < TI; ++t) {
        for (int p = 0; p < P; ++p) {
          std::memcpy(part + (i0 + t) * JW + p * kW, &acc[t][p], sizeof(V));
        }
      }
    }
  }
}

// syrk_t at level `isa`, one column tile of G after another.
template <typename T>
void syrk_t_at(Isa isa, T alpha, In<ConstMatrixView<T>> a, T beta,
               In<MatrixView<T>> c) {
  const idx n = a.cols();
  CAQR_CHECK(c.rows() == n && c.cols() == n);
  if (n == 0) return;
  kernels::simd::run_at(isa, [&]<Isa I>() {
    constexpr int JW = SyrkTile<I, T>::JW, TI = SyrkTile<I, T>::TI;
    ArenaScope scope(Arena::thread_scratch());
    T* stage = scope.alloc<T>(static_cast<std::size_t>(kSyrkRows * JW));
    T* part =
        scope.alloc<T>(static_cast<std::size_t>((n + TI - 1) / TI * TI * JW));
    for (idx j0 = 0; j0 < n; j0 += JW) {
      const idx jw = std::min<idx>(JW, n - j0);
      syrk_column_tile<I>(a, j0, j0 + jw, stage, part);
      for (idx l = 0; l < jw; ++l) {
        const idx j = j0 + l;
        for (idx i = 0; i <= j; ++i) {
          const T s = part[i * JW + l];
          const T v = alpha * s + (beta == T(0) ? T(0) : beta * c(i, j));
          c(i, j) = v;
          c(j, i) = v;
        }
      }
    }
  });
}

// B := B * T^-1 for upper triangular T at level I: register tiles of R
// vectors of rows, then single vectors, then a scalar tail, each solving
// column by column.
template <Isa I, typename T>
void trsm_right_upper_rows(ConstMatrixView<T> t, MatrixView<T> b,
                           bool unit_diag) {
  constexpr int kW = kernels::simd::kLanes<I, 16, T>;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  const idx n = t.rows();
  const auto solve = [&]<int R>(idx i) {
    for (idx j = 0; j < n; ++j) {
      V acc[R];
      T* bj = b.col(j) + i;
      for (int r = 0; r < R; ++r) std::memcpy(&acc[r], bj + r * kW, sizeof(V));
      for (idx p = 0; p < j; ++p) {
        const T tp = t(p, j);
        const T* bp = b.col(p) + i;
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
          V x;
          std::memcpy(&x, bp + r * kW, sizeof(V));
          acc[r] -= x * tp;
        }
      }
      if (!unit_diag) {
        const T d = t(j, j);
        for (int r = 0; r < R; ++r) acc[r] = acc[r] / d;
      }
      for (int r = 0; r < R; ++r) std::memcpy(bj + r * kW, &acc[r], sizeof(V));
    }
  };
  constexpr int kTile = 4;
  const idx m = b.rows();
  idx i = 0;
  for (; i + kTile * kW <= m; i += kTile * kW) solve.template operator()<kTile>(i);
  for (; i + kW <= m; i += kW) solve.template operator()<1>(i);
  for (; i < m; ++i) {
    for (idx j = 0; j < n; ++j) {
      T acc = b(i, j);
      for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(p, j);
      b(i, j) = unit_diag ? acc : acc / t(j, j);
    }
  }
}

// trsm (Right, Upper, No) at level `isa`.
template <typename T>
void trsm_right_upper_at(Isa isa, In<ConstMatrixView<T>> t, MatrixView<T> b,
                         bool unit_diag) {
  CAQR_CHECK(t.cols() == t.rows() && b.cols() == t.rows());
  kernels::simd::run_at(isa, [&]<Isa I>() {
    trsm_right_upper_rows<I>(t, b, unit_diag);
  });
}

// C := beta * C: zero-filled for beta == 0 (NaNs in C do not survive),
// untouched for beta == 1.
template <typename T>
void scale(T beta, MatrixView<T> c) {
  if (beta == T(0)) {
    c.fill(T(0));
  } else if (beta != T(1)) {
    for (idx j = 0; j < c.cols(); ++j) scal(c.rows(), beta, c.col(j));
  }
}

// gemm (No, No) on `pool`: C := alpha * A * B + beta * C with C's rows
// split in MR-aligned chunks.
template <typename T>
void gemm_nn_at(ThreadPool& pool, T alpha, In<ConstMatrixView<T>> a,
                In<ConstMatrixView<T>> b, T beta, In<MatrixView<T>> c) {
  const idx m = c.rows(), n = c.cols(), k = a.cols();
  CAQR_CHECK(a.rows() == m && b.rows() == k && b.cols() == n);
  scale(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  for_row_chunks(pool, m, kGemmMR, static_cast<double>(n) * k,
                 [&](idx r0, idx r1) {
                   gemm_nn(alpha, a.block(r0, 0, r1 - r0, k), b,
                           c.block(r0, 0, r1 - r0, n));
                 });
}

}  // namespace blas3

// C := alpha * op(A) * op(B) + beta * C. (No, No) runs on the global pool.
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, In<ConstMatrixView<T>> a,
          In<ConstMatrixView<T>> b, T beta, In<MatrixView<T>> c) {
  const idx m = c.rows();
  const idx n = c.cols();
  const idx k = (ta == Trans::No) ? a.cols() : a.rows();
  CAQR_CHECK((ta == Trans::No ? a.rows() : a.cols()) == m);
  CAQR_CHECK((tb == Trans::No ? b.rows() : b.cols()) == k);
  CAQR_CHECK((tb == Trans::No ? b.cols() : b.rows()) == n);

  // No transposes: register-blocked micro-tiles, rows split over the pool.
  if (ta == Trans::No && tb == Trans::No) {
    blas3::gemm_nn_at(ThreadPool::global(), alpha, a, b, beta, c);
    return;
  }

  blas3::scale(beta, c);
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  // A^T * B: both operands are walked down contiguous columns (dot products).
  // This is the larfb workhorse (W := V^T C).
  if (ta == Trans::Yes && tb == Trans::No) {
    for (idx j = 0; j < n; ++j) {
      const T* bj = b.col(j);
      for (idx i = 0; i < m; ++i) {
        c(i, j) += alpha * dot(k, a.col(i), bj);
      }
    }
    return;
  }

  // A * B^T: saxpy form, contiguous column updates (C -= V W^T in larfb).
  if (ta == Trans::No && tb == Trans::Yes) {
    for (idx j = 0; j < n; ++j) {
      T* cj = c.col(j);
      for (idx p = 0; p < k; ++p) {
        const T bv = alpha * b(j, p);
        const T* ap = a.col(p);
        for (idx i = 0; i < m; ++i) cj[i] += bv * ap[i];
      }
    }
    return;
  }

  // General path (handles all transpose combinations and any alpha).
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      T acc = T(0);
      for (idx p = 0; p < k; ++p) {
        const T av = (ta == Trans::No) ? a(i, p) : a(p, i);
        const T bv = (tb == Trans::No) ? b(p, j) : b(j, p);
        acc += av * bv;
      }
      c(i, j) += alpha * acc;
    }
  }
}

// C := alpha * A^T * A + beta * C (upper triangle written, then mirrored;
// C's lower triangle is not read). float and double run vector code.
template <typename T>
void syrk_t(T alpha, In<ConstMatrixView<T>> a, T beta, In<MatrixView<T>> c) {
  if constexpr (kernels::simd::kEnabled<T>) {
    blas3::syrk_t_at(kernels::simd::active_isa(), alpha, a, beta, c);
  } else {
    const idx n = a.cols();
    CAQR_CHECK(c.rows() == n && c.cols() == n);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i <= j; ++i) {
        const T s = dot(a.rows(), a.col(i), a.col(j));
        const T v = alpha * s + (beta == T(0) ? T(0) : beta * c(i, j));
        c(i, j) = v;
        c(j, i) = v;
      }
    }
  }
}

// B := op(T)^-1 * B (Left) or B * op(T)^-1 (Right) for triangular T.
// (Right, Upper, No) runs vector code for float and double.
template <typename T>
void trsm(Side side, UpLo uplo, Trans trans, In<ConstMatrixView<T>> t,
          MatrixView<T> b, bool unit_diag = false) {
  const idx n = t.rows();
  CAQR_CHECK(t.cols() == n);
  if (side == Side::Left) {
    CAQR_CHECK(b.rows() == n);
    for (idx j = 0; j < b.cols(); ++j) {
      T* x = b.col(j);
      if (uplo == UpLo::Upper && trans == Trans::No) {
        trsv_upper(t, x, unit_diag);
      } else if (uplo == UpLo::Lower && trans == Trans::No) {
        trsv_lower(t, x, unit_diag);
      } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
        // U^T is lower triangular; solve row-wise forward.
        for (idx i = 0; i < n; ++i) {
          T acc = x[i];
          for (idx p = 0; p < i; ++p) acc -= t(p, i) * x[p];
          x[i] = unit_diag ? acc : acc / t(i, i);
        }
      } else {  // Lower, transposed: backward substitution, L^T(i,p) = L(p,i).
        for (idx i = n - 1; i >= 0; --i) {
          T acc = x[i];
          for (idx p = i + 1; p < n; ++p) acc -= t(p, i) * x[p];
          x[i] = unit_diag ? acc : acc / t(i, i);
        }
      }
    }
    return;
  }
  CAQR_CHECK(b.cols() == n);
  if constexpr (kernels::simd::kEnabled<T>) {
    if (uplo == UpLo::Upper && trans == Trans::No) {
      blas3::trsm_right_upper_at(kernels::simd::active_isa(), t, b,
                                 unit_diag);
      return;
    }
  }
  // Solve X * op(T) = B row by row: equivalent to op(T)^T X^T = B^T.
  for (idx i = 0; i < b.rows(); ++i) {
    if (uplo == UpLo::Upper && trans == Trans::No) {
      // x_j = (b_j - sum_{p<j} x_p T(p,j)) / T(j,j)
      for (idx j = 0; j < n; ++j) {
        T acc = b(i, j);
        for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(p, j);
        b(i, j) = unit_diag ? acc : acc / t(j, j);
      }
    } else if (uplo == UpLo::Lower && trans == Trans::No) {
      for (idx j = n - 1; j >= 0; --j) {
        T acc = b(i, j);
        for (idx p = j + 1; p < n; ++p) acc -= b(i, p) * t(p, j);
        b(i, j) = unit_diag ? acc : acc / t(j, j);
      }
    } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
      for (idx j = n - 1; j >= 0; --j) {
        T acc = b(i, j);
        for (idx p = j + 1; p < n; ++p) acc -= b(i, p) * t(j, p);
        b(i, j) = unit_diag ? acc : acc / t(j, j);
      }
    } else {  // Lower, transposed
      for (idx j = 0; j < n; ++j) {
        T acc = b(i, j);
        for (idx p = 0; p < j; ++p) acc -= b(i, p) * t(j, p);
        b(i, j) = unit_diag ? acc : acc / t(j, j);
      }
    }
  }
}

// B := op(T) * B (Left) for triangular T, in place.
template <typename T>
void trmm_left(UpLo uplo, Trans trans, In<ConstMatrixView<T>> t, MatrixView<T> b,
               bool unit_diag = false) {
  const idx n = t.rows();
  CAQR_CHECK(t.cols() == n && b.rows() == n);
  for (idx j = 0; j < b.cols(); ++j) {
    T* x = b.col(j);
    if (uplo == UpLo::Upper && trans == Trans::No) {
      trmv_upper(t, x, unit_diag);
    } else if (uplo == UpLo::Lower && trans == Trans::No) {
      for (idx i = n - 1; i >= 0; --i) {
        T acc = unit_diag ? x[i] : t(i, i) * x[i];
        for (idx p = 0; p < i; ++p) acc += t(i, p) * x[p];
        x[i] = acc;
      }
    } else if (uplo == UpLo::Upper && trans == Trans::Yes) {
      for (idx i = n - 1; i >= 0; --i) {
        T acc = unit_diag ? x[i] : t(i, i) * x[i];
        for (idx p = 0; p < i; ++p) acc += t(p, i) * x[p];
        x[i] = acc;
      }
    } else {  // Lower, transposed
      for (idx i = 0; i < n; ++i) {
        T acc = unit_diag ? x[i] : t(i, i) * x[i];
        for (idx p = i + 1; p < n; ++p) acc += t(p, i) * x[p];
        x[i] = acc;
      }
    }
  }
}

}  // namespace caqr
