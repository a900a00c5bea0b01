#pragma once

// Numerical cores of the four CAQR kernels, with exact operation counts.
//
// These routines deliberately use branch-free, data-oblivious arithmetic
// (plain sqrt-of-sum-of-squares norms, no early exits on zero tails for
// generic inputs) so that the *_flops companions return the exact number of
// floating-point operations the functional path executes. That exactness is
// what lets ExecMode::ModelOnly produce bit-identical simulated timelines to
// ExecMode::Functional, and it is verified by tests with a counting scalar
// type. Flop convention: mul, add, sub, div, sqrt each count 1.
//
// The layout contract mirrors the paper's kernels (§IV.D):
//   * block_geqr2   — `factor`: Householder QR of one H x W block held in
//                     fast memory; U overwrites the subdiagonal, R the top.
//   * block_apply   — `apply_qt_h` / `apply_q_h`: apply Q^T (or Q) of a
//                     factored block to a trailing tile of the same height.
//   * stacked_geqr2 — `factor_tree`: QR of k vertically stacked W x W
//                     upper-triangular R factors, exploiting the sparsity
//                     pattern (each reflector touches only the pivot row
//                     and rows 0..j of the lower triangles).
//   * stacked_apply — `apply_qt_tree` / `apply_q_tree`: apply the
//                     stacked-triangle Q^T (or Q) to the matching
//                     distributed rows of the trailing matrix.
//
// Every core has two implementations (DESIGN.md §16):
//   * ref::  — the reference loops: column-major, one serial dot-product
//              chain per column, any scalar type. The counting scalar of
//              the flop tests runs these.
//   * simd:: — float and double: the operand being updated is staged
//              row-major in arena scratch and each reflector is applied to
//              a whole chunk of columns at once with GCC vector types, one
//              column per lane. Each lane performs the scalar operations of
//              the reference chain for its column, in the same order, with
//              multiply and add kept separate (the build pins
//              -ffp-contract=off), so the results are bit-identical. Every
//              routine is compiled once per ISA level (SSE2, AVX2,
//              AVX-512); the level is picked once per process.
// The unqualified entry points pick simd:: at the host's best level for
// float and double and ref:: for every other scalar type.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "common/arena.hpp"
#include "kernels/simd.hpp"
#include "linalg/householder.hpp"
#include "linalg/matrix.hpp"

namespace caqr::kernels {

// ---------------------------------------------------------------------------
// Scalar helpers (data-oblivious fast paths used only inside kernels).
// ---------------------------------------------------------------------------

// Householder generation without the scaled-norm guard: 3n + 4 flops for a
// length-n vector (n >= 2) with a nonzero tail; 0 flops when n <= 1.
// A zero tail yields tau == 0 via the ss == 0 test without extra flops.
//
// Ill-scaled columns — squares that overflow, or tails that underflow to a
// subnormal (or zero) sum — fall back to the scaled-norm, xLARFG-rescaling
// make_householder. The flop model deliberately excludes that rescue path:
// it never triggers for the well-scaled data the cost model (and the
// counting-scalar flop tests) cover, and the simulated clock only reads
// block_stats(), so timelines are unaffected either way.
template <typename T>
T fast_make_householder(idx n, T& alpha, T* x_rest) {
  if (n <= 1) return T(0);
  T ss = T(0);
  for (idx i = 0; i < n - 1; ++i) ss += x_rest[i] * x_rest[i];  // 2(n-1)
  if constexpr (std::is_floating_point_v<T>) {
    const T safmin = std::numeric_limits<T>::min();
    const T overflow_guard = std::numeric_limits<T>::max() / T(4);
    if (ss < safmin) {
      bool tail_nonzero = false;
      for (idx i = 0; i < n - 1 && !tail_nonzero; ++i) {
        tail_nonzero = x_rest[i] != T(0);
      }
      if (tail_nonzero) return make_householder(n, alpha, x_rest);
    }
    if (!(ss < overflow_guard) || !(alpha * alpha < overflow_guard)) {
      return make_householder(n, alpha, x_rest);
    }
  }
  if (ss == T(0)) return T(0);
  using std::sqrt;
  const T norm = sqrt(alpha * alpha + ss);                       // 3
  const T beta = alpha >= T(0) ? -norm : norm;
  const T tau = (beta - alpha) / beta;                           // 2
  const T inv = T(1) / (alpha - beta);                           // 2
  for (idx i = 0; i < n - 1; ++i) x_rest[i] *= inv;              // n-1
  alpha = beta;
  return tau;
}

inline double make_householder_flops(idx n) {
  return n <= 1 ? 0.0 : 3.0 * static_cast<double>(n) + 4.0;
}

// Applies H = I - tau v v^T (v[0] == 1 implicit) to one column of length L:
// 4L - 2 flops (two length-(L-1) fused loops plus the tau*w scale and the
// pivot update).
template <typename T>
void apply_reflector_column(idx len, T tau, const T* v_rest, T* col) {
  T w = col[0];
  for (idx i = 0; i < len - 1; ++i) w += v_rest[i] * col[i + 1];  // 2(L-1)
  const T tw = tau * w;                                           // 1
  col[0] -= tw;                                                   // 1
  for (idx i = 0; i < len - 1; ++i) col[i + 1] -= tw * v_rest[i]; // 2(L-1)
}

inline double apply_reflector_column_flops(idx len) {
  return 4.0 * static_cast<double>(len) - 2.0;
}

inline double block_geqr2_flops(idx m, idx n) {
  double f = 0;
  const idx kmax = m < n ? m : n;
  for (idx k = 0; k < kmax; ++k) {
    const idx len = m - k;
    f += make_householder_flops(len);
    if (len > 1) f += static_cast<double>(n - k - 1) * apply_reflector_column_flops(len);
  }
  return f;
}

// Both directions of block_apply cost the same.
inline double block_apply_qt_flops(idx h, idx w, idx ncols) {
  double f = 0;
  const idx kmax = w < h ? w : h;
  for (idx j = 0; j < kmax; ++j) {
    // A length-1 reflector has tau == 0 (identity) and is skipped.
    if (h - j > 1) {
      f += static_cast<double>(ncols) * apply_reflector_column_flops(h - j);
    }
  }
  return f;
}

inline double stacked_geqr2_flops(idx w, idx k) {
  double f = 0;
  for (idx j = 0; j < w; ++j) {
    const idx len = 1 + (k - 1) * (j + 1);
    f += make_householder_flops(len);
    if (len > 1) f += static_cast<double>(w - j - 1) * apply_reflector_column_flops(len);
  }
  return f;
}

// Both directions of stacked_apply cost the same.
inline double stacked_apply_qt_flops(idx w, idx k, idx ncols) {
  double f = 0;
  for (idx j = 0; j < w; ++j) {
    const idx len = 1 + (k - 1) * (j + 1);
    if (len > 1) f += static_cast<double>(ncols) * apply_reflector_column_flops(len);
  }
  return f;
}

namespace ref {

// ---------------------------------------------------------------------------
// factor: dense QR of an H x W block.
// ---------------------------------------------------------------------------

template <typename T>
void block_geqr2(MatrixView<T> a, T* tau) {
  const idx m = a.rows(), n = a.cols();
  const idx kmax = m < n ? m : n;
  for (idx k = 0; k < kmax; ++k) {
    T* colk = a.col(k) + k;
    tau[k] = fast_make_householder(m - k, colk[0], colk + 1);
    if (tau[k] == T(0)) continue;
    for (idx j = k + 1; j < n; ++j) {
      apply_reflector_column(m - k, tau[k], colk + 1, a.col(j) + k);
    }
  }
}

// ---------------------------------------------------------------------------
// apply_qt_h / apply_q_h: apply Q^T (reflectors ascending) or Q (reflectors
// descending) of a factored block (reflectors in v, scalars in tau) to a
// trailing tile c of the same height.
// ---------------------------------------------------------------------------

template <typename T>
void block_apply(ConstMatrixView<T> v, const T* tau, MatrixView<T> c,
                 bool transpose_q) {
  const idx h = v.rows();
  const idx w = v.cols() < h ? v.cols() : h;
  CAQR_DCHECK(c.rows() == h);
  for (idx s = 0; s < w; ++s) {
    const idx j = transpose_q ? s : w - 1 - s;
    if (tau[j] == T(0)) continue;
    for (idx col = 0; col < c.cols(); ++col) {
      apply_reflector_column(h - j, tau[j], v.col(j) + j + 1, c.col(col) + j);
    }
  }
}

// ---------------------------------------------------------------------------
// factor_tree: QR of k stacked W x W upper-triangular blocks.
//
// s is the (k*w) x w stacked matrix; block b occupies rows [b*w, (b+1)*w).
// Column j's reflector has support {row j of block 0} U {rows 0..j of blocks
// 1..k-1}; the Householder tail overwrites exactly the R entries it consumes,
// so the factorization is in place and the result keeps the stacked-triangle
// sparsity (new R in block 0, reflector tails in the lower triangles).
// ---------------------------------------------------------------------------

template <typename T>
void stacked_geqr2(MatrixView<T> s, idx w, idx k, T* tau, T* scratch) {
  CAQR_DCHECK(s.rows() == w * k && s.cols() == w);
  CAQR_DCHECK(k >= 1);
  for (idx j = 0; j < w; ++j) {
    // Gather the reflector support for column j into scratch:
    // [pivot; block1 rows 0..j; block2 rows 0..j; ...], length 1+(k-1)(j+1).
    const idx seg = j + 1;
    const idx len = 1 + (k - 1) * seg;
    scratch[0] = s(j, j);
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) scratch[1 + (b - 1) * seg + i] = s(b * w + i, j);
    }
    tau[j] = fast_make_householder(len, scratch[0], scratch + 1);
    // Scatter back: beta to the pivot, tail (the reflector) to the consumed
    // R positions.
    s(j, j) = scratch[0];
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) s(b * w + i, j) = scratch[1 + (b - 1) * seg + i];
    }
    if (tau[j] == T(0)) continue;
    // Update trailing columns j+1..w-1 on the same support.
    for (idx c = j + 1; c < w; ++c) {
      T acc = s(j, c);
      for (idx b = 1; b < k; ++b) {
        for (idx i = 0; i < seg; ++i) {
          acc += s(b * w + i, j) * s(b * w + i, c);  // 2 * (k-1)(j+1)
        }
      }
      const T tw = tau[j] * acc;  // 1
      s(j, c) -= tw;              // 1
      for (idx b = 1; b < k; ++b) {
        for (idx i = 0; i < seg; ++i) {
          s(b * w + i, c) -= tw * s(b * w + i, j);  // 2 * (k-1)(j+1)
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// apply_qt_tree / apply_q_tree: apply the stacked-triangle Q^T (reflectors
// ascending) or Q (descending) to the matching distributed rows of a
// trailing tile.
//
// v holds the factored stack (reflector tails in the lower triangles, taus in
// tau); c is the (k*w) x n gathered trailing rows: row groups in the same
// order as the stacked blocks.
// ---------------------------------------------------------------------------

template <typename T>
void stacked_apply(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                   MatrixView<T> c, bool transpose_q) {
  CAQR_DCHECK(v.rows() == w * k && v.cols() == w);
  CAQR_DCHECK(c.rows() == w * k);
  const idx n = c.cols();
  for (idx s = 0; s < w; ++s) {
    const idx j = transpose_q ? s : w - 1 - s;
    if (tau[j] == T(0)) continue;
    const idx seg = j + 1;
    for (idx col = 0; col < n; ++col) {
      T* cc = c.col(col);
      T acc = cc[j];  // pivot row, v == 1
      for (idx b = 1; b < k; ++b) {
        const T* vb = v.col(j) + b * w;
        const T* cb = cc + b * w;
        for (idx i = 0; i < seg; ++i) acc += vb[i] * cb[i];  // 2(k-1)(j+1)
      }
      const T tw = tau[j] * acc;  // 1
      cc[j] -= tw;                // 1
      for (idx b = 1; b < k; ++b) {
        const T* vb = v.col(j) + b * w;
        T* cb = cc + b * w;
        for (idx i = 0; i < seg; ++i) cb[i] -= tw * vb[i];  // 2(k-1)(j+1)
      }
    }
  }
}

}  // namespace ref

namespace simd {

// Lanes of a full chunk, at every level: the kernels' 16-column tile. The
// tile's last columns use a 4-, 8- or 16-lane chunk.
inline constexpr idx kChunk = 16;

// Row length of a staged tile holding `cols` columns: whole chunks plus one
// zero-padded tail chunk.
inline idx tile_ld(idx cols) {
  const idx rem = cols % kChunk;
  const idx tail = rem == 0 ? 0 : (rem <= 4 ? 4 : (rem <= 8 ? 8 : kChunk));
  return cols - rem + tail;
}

// ---------------------------------------------------------------------------
// Staging: moves between a column-major view and a row-major tile.
//
// Both directions transpose: W consecutive entries of each of W columns
// become W consecutive entries of each of W tile rows, and back. A W x W
// block goes through registers: W vector loads, shuffles, W vector stores.
// Vectors are at most 32 bytes, as in reflect_chunk: 8 x 8 floats and
// 4 x 4 doubles at AVX2 and AVX-512, 4 x 4 and 2 x 2 at SSE2. The last
// rows % W rows, and the columns left after the widest groups, move one
// entry at a time. Every entry is only copied, never computed, so the
// tile holds the bits of the view and the view gets back the tile's.
// ---------------------------------------------------------------------------

// Widest transpose block at level I: 32-byte vectors at most.
template <Isa I, typename T>
inline constexpr int kStageLanes =
    std::min(kVecBytes<I>, 32) / static_cast<int>(sizeof(T));

// Transposes the n x n block inside every 128-bit lane of x[0, n), n the
// entries per lane: lane entry q of x[r] and lane entry r of x[q] swap.
// Each step is one unpack or in-lane shuffle instruction.
template <typename V>
inline void transpose_lanes(V* x) {
  constexpr int n = 16 / static_cast<int>(sizeof(x[0][0]));
  constexpr int L = static_cast<int>(sizeof(V) / sizeof(x[0][0]));
  const V a = x[0], b = x[1];
  if constexpr (n == 2 && L == 2) {
    x[0] = __builtin_shufflevector(a, b, 0, 2);
    x[1] = __builtin_shufflevector(a, b, 1, 3);
  } else if constexpr (n == 2) {
    static_assert(L == 4);
    x[0] = __builtin_shufflevector(a, b, 0, 4, 2, 6);
    x[1] = __builtin_shufflevector(a, b, 1, 5, 3, 7);
  } else if constexpr (L == 4) {
    static_assert(n == 4);
    const V c = x[2], d = x[3];
    const V t0 = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const V t1 = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const V t2 = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const V t3 = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    x[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    x[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    x[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    x[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  } else {
    static_assert(n == 4 && L == 8);
    const V c = x[2], d = x[3];
    const V t0 = __builtin_shufflevector(a, b, 0, 8, 1, 9, 4, 12, 5, 13);
    const V t1 = __builtin_shufflevector(a, b, 2, 10, 3, 11, 6, 14, 7, 15);
    const V t2 = __builtin_shufflevector(c, d, 0, 8, 1, 9, 4, 12, 5, 13);
    const V t3 = __builtin_shufflevector(c, d, 2, 10, 3, 11, 6, 14, 7, 15);
    x[0] = __builtin_shufflevector(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);
    x[1] = __builtin_shufflevector(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);
    x[2] = __builtin_shufflevector(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);
    x[3] = __builtin_shufflevector(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);
  }
}

// Copies the transpose of a W x W block: line q of the source (W entries
// at src + q * ss) becomes entry q of every line of the destination (line
// r at dst + r * ds). A 32-byte vector is loaded as two 16-byte halves
// that already sit in their final lanes, so only in-lane shuffles remain.
template <int W, typename T>
inline void transpose_block(const T* src, idx ss, T* dst, idx ds) {
  typedef T V __attribute__((vector_size(W * sizeof(T))));
  constexpr int n = 16 / static_cast<int>(sizeof(T));
  V x[W];
  if constexpr (W == n) {
#pragma GCC unroll 4
    for (int q = 0; q < W; ++q) std::memcpy(&x[q], src + q * ss, sizeof(V));
    transpose_lanes(x);
  } else {
    static_assert(W == 2 * n);
    typedef T H __attribute__((vector_size(16)));
    // x[p] holds lines p and p + n in its two lanes, x[n + p] the same
    // lines' second halves.
#pragma GCC unroll 4
    for (int p = 0; p < n; ++p) {
      H h[4];
      std::memcpy(&h[0], src + p * ss, 16);
      std::memcpy(&h[1], src + (p + n) * ss, 16);
      std::memcpy(&h[2], src + p * ss + n, 16);
      std::memcpy(&h[3], src + (p + n) * ss + n, 16);
      if constexpr (n == 4) {
        x[p] = __builtin_shufflevector(h[0], h[1], 0, 1, 2, 3, 4, 5, 6, 7);
        x[n + p] = __builtin_shufflevector(h[2], h[3], 0, 1, 2, 3, 4, 5, 6, 7);
      } else {
        x[p] = __builtin_shufflevector(h[0], h[1], 0, 1, 2, 3);
        x[n + p] = __builtin_shufflevector(h[2], h[3], 0, 1, 2, 3);
      }
    }
    transpose_lanes(x);
    transpose_lanes(x + n);
  }
#pragma GCC unroll 8
  for (int r = 0; r < W; ++r) std::memcpy(dst + r * ds, &x[r], sizeof(V));
}

// Moves columns [j, j + W) of a rows-row tile between the column-major c
// (column q at c + q * cld) and the row-major t (row i at t + i * ld): into
// t when kIn, back into c otherwise. W == 1 moves one entry at a time.
template <int W, bool kIn, typename C, typename S>
void move_cols(C* c, idx cld, idx rows, idx j, S* t, idx ld) {
  idx i = 0;
  if constexpr (W > 1) {
    for (; i + W <= rows; i += W) {
      if constexpr (kIn) {
        transpose_block<W>(c + j * cld + i, cld, t + i * ld + j, ld);
      } else {
        transpose_block<W>(t + i * ld + j, ld, c + j * cld + i, cld);
      }
    }
  }
  for (; i < rows; ++i) {
#pragma GCC unroll 8
    for (int q = 0; q < W; ++q) {
      if constexpr (kIn) {
        t[i * ld + j + q] = c[(j + q) * cld + i];
      } else {
        c[(j + q) * cld + i] = t[i * ld + j + q];
      }
    }
  }
}

// Moves a rows x cols tile between c and t (as in move_cols): column groups
// of the widest transpose, then one of half that width while its vectors
// are still 16 bytes, then the last columns one entry at a time. Into t,
// lanes [cols, ld) of every row are zeroed.
template <Isa I, bool kIn, typename C, typename S>
void move_tile(C* c, idx cld, idx rows, idx cols, S* t, idx ld) {
  using T = std::remove_const_t<S>;
  constexpr int W = kStageLanes<I, T>;
  idx j = 0;
  for (; j + W <= cols; j += W) move_cols<W, kIn>(c, cld, rows, j, t, ld);
  if constexpr (W / 2 * sizeof(T) >= 16) {
    if (j + W / 2 <= cols) {
      move_cols<W / 2, kIn>(c, cld, rows, j, t, ld);
      j += W / 2;
    }
  }
  for (; j < cols; ++j) move_cols<1, kIn>(c, cld, rows, j, t, ld);
  if constexpr (kIn) {
    if (cols < ld) {
      for (idx i = 0; i < rows; ++i) {
        std::fill(t + i * ld + cols, t + (i + 1) * ld, T(0));
      }
    }
  }
}

// Runs fn(t, ld) on the row groups c.block(r, 0, group_rows, c.cols()),
// r in `starts`, staged one under the other row-major in the calling
// thread's arena scratch: row i of the stack is t[i * ld, i * ld + ld),
// ld = tile_ld(c.cols()), with the padding lanes zero. Then moves every
// group back to its rows of c.
template <Isa I, typename T, typename Fn>
void on_rows(MatrixView<T> c, std::span<const idx> starts, idx group_rows,
             Fn&& fn) {
  ArenaScope scope(Arena::thread_scratch());
  const idx ld = tile_ld(c.cols());
  const idx group_elems = group_rows * ld;
  T* t = scope.alloc<T>(starts.size() * static_cast<std::size_t>(group_elems));
  for (std::size_t g = 0; g < starts.size(); ++g) {
    move_tile<I, true>(c.as_const().data() + starts[g], c.ld(), group_rows,
                       c.cols(), t + static_cast<idx>(g) * group_elems, ld);
  }
  fn(t, ld);
  for (std::size_t g = 0; g < starts.size(); ++g) {
    move_tile<I, false>(c.data() + starts[g], c.ld(), group_rows, c.cols(),
                        t + static_cast<idx>(g) * group_elems, ld);
  }
}

// on_rows on the whole of c as one group.
template <Isa I, typename T, typename Fn>
void on_rows(MatrixView<T> c, Fn&& fn) {
  const idx start = 0;
  on_rows<I>(c, std::span<const idx>(&start, 1), c.rows(), fn);
}

// The staging of on_rows at level `isa`, for the tests: c into the tile t
// (row stride ld >= c.cols(), lanes past c.cols() zeroed), and back.
template <typename T>
void stage_rows(Isa isa, ConstMatrixView<T> c, T* t, idx ld) {
  run_at(isa, [&]<Isa I>() {
    move_tile<I, true>(c.data(), c.ld(), c.rows(), c.cols(), t, ld);
  });
}

template <typename T>
void unstage_rows(Isa isa, const T* t, idx ld, MatrixView<T> c) {
  run_at(isa, [&]<Isa I>() {
    move_tile<I, false>(c.data(), c.ld(), c.rows(), c.cols(), t, ld);
  });
}

// The support of one reflector in a row-major tile: the pivot row (v == 1),
// then `runs` runs of `run_len` consecutive rows. Run r starts at row
// pointer rows + r * row_step; its reflector entries are v + r * v_step.
template <typename T>
struct Support {
  T* pivot;
  T* rows;
  const T* v;
  idx runs, run_len, row_step, v_step;
};

// Applies H = I - tau v v^T to lanes [l0, l0 + L) of every support row.
// Per lane this is exactly apply_reflector_column's operation sequence:
//   acc = pivot; acc += v[i] * row_i (support order); tw = tau * acc;
//   pivot -= tw; row_i -= tw * v[i].
// With kMasked, lanes below `keep` are computed but not stored.
//
// Vectors here are at most 32 bytes, also at AVX-512: with 64-byte vectors
// factor and factor_tree ran slower, and so did stream_cameras, which runs
// little else (EXPERIMENTS.md E24).
template <Isa I, int L, bool kMasked, typename T>
void reflect_chunk(const Support<T> s, idx ld, idx l0, T tau, idx keep) {
  constexpr int kW = kLanes<I, L, T, 32>;
  constexpr int P = L / kW;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  using Int = std::conditional_t<sizeof(T) == 4, std::int32_t, std::int64_t>;
  typedef Int M __attribute__((vector_size(kW * sizeof(T))));
  M store[P] = {};  // all-ones in the lanes to write back
  if constexpr (kMasked) {
    Int lanes[L];
    for (int q = 0; q < L; ++q) lanes[q] = l0 + q >= keep ? Int(-1) : Int(0);
    std::memcpy(store, lanes, sizeof(store));
  }
  // The support is taken by value and v[i] read once per row: stores to
  // the tile could otherwise alias them and force reloads.
  T* const pivot_row = s.pivot + l0;
  V acc[P], pivot[P], tw[P];
#pragma GCC unroll 16
  for (int p = 0; p < P; ++p) {
    std::memcpy(&acc[p], pivot_row + p * kW, sizeof(V));
    pivot[p] = acc[p];
  }
  for (idx r = 0; r < s.runs; ++r) {
    const T* row = s.rows + r * s.row_step + l0;
    const T* v = s.v + r * s.v_step;
    for (idx i = 0; i < s.run_len; ++i, row += ld) {
      const T vi = v[i];
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        V x;
        std::memcpy(&x, row + p * kW, sizeof(V));
        acc[p] += vi * x;
      }
    }
  }
#pragma GCC unroll 16
  for (int p = 0; p < P; ++p) {
    tw[p] = tau * acc[p];
    V y = pivot[p] - tw[p];
    if constexpr (kMasked) y = store[p] ? y : pivot[p];
    std::memcpy(pivot_row + p * kW, &y, sizeof(V));
  }
  for (idx r = 0; r < s.runs; ++r) {
    T* row = s.rows + r * s.row_step + l0;
    const T* v = s.v + r * s.v_step;
    for (idx i = 0; i < s.run_len; ++i, row += ld) {
      const T vi = v[i];
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        V x;
        std::memcpy(&x, row + p * kW, sizeof(V));
        V y = x - tw[p] * vi;
        if constexpr (kMasked) y = store[p] ? y : x;
        std::memcpy(row + p * kW, &y, sizeof(V));
      }
    }
  }
}

template <Isa I, int L, typename T>
void reflect_lanes(const Support<T>& s, idx ld, idx l0, T tau, idx keep,
                   idx live) {
  if (l0 + L <= keep || l0 >= live) return;
  if (l0 >= keep) {
    reflect_chunk<I, L, false>(s, ld, l0, tau, keep);
  } else {
    reflect_chunk<I, L, true>(s, ld, l0, tau, keep);
  }
}

// Applies one reflector to lanes [keep, live) of a tile of ld = tile_ld()
// lanes, chunk by chunk. Other lanes keep their values, except padding
// lanes (>= live) sharing a chunk with live ones, which nothing reads.
template <Isa I, typename T>
void reflect(const Support<T>& s, idx ld, T tau, idx keep, idx live) {
  idx l0 = 0;
  for (; l0 + kChunk <= ld; l0 += kChunk) {
    reflect_lanes<I, kChunk>(s, ld, l0, tau, keep, live);
  }
  if (ld - l0 == 8) {
    reflect_lanes<I, 8>(s, ld, l0, tau, keep, live);
  } else if (ld - l0 == 4) {
    reflect_lanes<I, 4>(s, ld, l0, tau, keep, live);
  }
}

// block_geqr2 on an m x n block staged in tile t. `col` (m entries) holds
// the column being turned into a reflector, contiguous as the scalar
// Householder generation needs it.
template <Isa I, typename T>
void geqr2_rows(T* t, idx ld, idx m, idx n, T* tau, T* col) {
  const idx kmax = m < n ? m : n;
  for (idx k = 0; k < kmax; ++k) {
    const idx len = m - k;
    for (idx i = 0; i < len; ++i) col[i] = t[(k + i) * ld + k];
    tau[k] = fast_make_householder(len, col[0], col + 1);
    for (idx i = 0; i < len; ++i) t[(k + i) * ld + k] = col[i];
    if (tau[k] == T(0)) continue;
    const Support<T> s{t + k * ld, t + (k + 1) * ld, col + 1, 1, len - 1, 0, 0};
    reflect<I>(s, ld, tau[k], k + 1, n);
  }
}

// Applies the reflectors of v (ascending for Q^T, descending for Q) to
// lanes [0, L) of the h-row tile t as a fused sweep: one pass over the rows
// applies the pending update of reflector j and accumulates the dot
// product of the next applied reflector n, so the tile is swept w + 1
// times instead of 2w. Per lane the operations are apply_reflector_column's,
// in its order: n's pivot row is read after j updated it, and its
// remaining rows are added in ascending order, each after j's update.
template <Isa I, int L, typename T>
void sweep_chunk(ConstMatrixView<T> v, const T* tau, T* t, idx ld,
                 bool transpose_q) {
  constexpr int kW = kLanes<I, L, T>;
  constexpr int P = L / kW;
  typedef T V __attribute__((vector_size(kW * sizeof(T))));
  const idx h = v.rows();
  const idx w = v.cols() < h ? v.cols() : h;
  V acc[P], tw[P];
  // acc = row r.
  const auto start = [&](idx r) {
#pragma GCC unroll 16
    for (int p = 0; p < P; ++p) {
      std::memcpy(&acc[p], t + r * ld + p * kW, sizeof(V));
    }
  };
  // acc += vn[i] * row i, rows [i0, i1).
  const auto dot = [&](const T* vn, idx i0, idx i1) {
    for (idx i = i0; i < i1; ++i) {
      const T b = vn[i];
      const T* row = t + i * ld;
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        V x;
        std::memcpy(&x, row + p * kW, sizeof(V));
        acc[p] += b * x;
      }
    }
  };
  // row i -= tw * vj[i], rows [i0, i1); with_dot adds acc += vn[i] * row i.
  const auto update = [&](auto with_dot, const T* vj, const T* vn, idx i0,
                          idx i1) {
    for (idx i = i0; i < i1; ++i) {
      const T a = vj[i];
      T b = T(0);
      if constexpr (with_dot) b = vn[i];
      T* row = t + i * ld;
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        V x;
        std::memcpy(&x, row + p * kW, sizeof(V));
        const V y = x - tw[p] * a;
        std::memcpy(row + p * kW, &y, sizeof(V));
        if constexpr (with_dot) acc[p] += b * y;
      }
    }
  };
  constexpr std::false_type kUpdateOnly{};
  constexpr std::true_type kWithDot{};
  // Step s applies reflector j(s); steps with tau == 0 are skipped.
  const auto refl = [&](idx s) { return transpose_q ? s : w - 1 - s; };
  const auto next_step = [&](idx s) {
    while (s < w && tau[refl(s)] == T(0)) ++s;
    return s;
  };
  idx s = next_step(0);
  if (s == w) return;
  idx j = refl(s);
  start(j);
  dot(v.col(j), j + 1, h);
  for (;;) {
    T* pivot = t + j * ld;
#pragma GCC unroll 16
    for (int p = 0; p < P; ++p) {
      tw[p] = tau[j] * acc[p];
      V x;
      std::memcpy(&x, pivot + p * kW, sizeof(V));
      const V y = x - tw[p];
      std::memcpy(pivot + p * kW, &y, sizeof(V));
    }
    const T* vj = v.col(j);
    s = next_step(s + 1);
    if (s == w) {
      update(kUpdateOnly, vj, nullptr, j + 1, h);
      return;
    }
    const idx n = refl(s);
    const T* vn = v.col(n);
    if (n > j) {
      // Rows j+1..n take j's update only; row n, updated, starts n's dot.
      update(kUpdateOnly, vj, nullptr, j + 1, n + 1);
      start(n);
    } else {
      // Rows n..j-1 are outside j's support; row j was just updated.
      start(n);
      dot(vn, n + 1, j + 1);
    }
    update(kWithDot, vj, vn, std::max(n, j) + 1, h);
    j = n;
  }
}

// block_apply on an h-row tile t of ld = tile_ld() lanes; v is the factored
// h x w block.
template <Isa I, typename T>
void apply_rows(ConstMatrixView<T> v, const T* tau, T* t, idx ld,
                bool transpose_q) {
  idx l0 = 0;
  for (; l0 + kChunk <= ld; l0 += kChunk) {
    sweep_chunk<I, kChunk>(v, tau, t + l0, ld, transpose_q);
  }
  if (ld - l0 == 8) {
    sweep_chunk<I, 8>(v, tau, t + l0, ld, transpose_q);
  } else if (ld - l0 == 4) {
    sweep_chunk<I, 4>(v, tau, t + l0, ld, transpose_q);
  }
}

// stacked_geqr2 on a (k*w)-row tile t; scratch as in ref::stacked_geqr2.
template <Isa I, typename T>
void stacked_geqr2_rows(T* t, idx ld, idx w, idx k, T* tau, T* scratch) {
  for (idx j = 0; j < w; ++j) {
    const idx seg = j + 1;
    const idx len = 1 + (k - 1) * seg;
    scratch[0] = t[j * ld + j];
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) {
        scratch[1 + (b - 1) * seg + i] = t[(b * w + i) * ld + j];
      }
    }
    tau[j] = fast_make_householder(len, scratch[0], scratch + 1);
    t[j * ld + j] = scratch[0];
    for (idx b = 1; b < k; ++b) {
      for (idx i = 0; i < seg; ++i) {
        t[(b * w + i) * ld + j] = scratch[1 + (b - 1) * seg + i];
      }
    }
    if (tau[j] == T(0)) continue;
    const Support<T> s{t + j * ld, t + w * ld, scratch + 1,
                       k - 1, seg, w * ld, seg};
    reflect<I>(s, ld, tau[j], j + 1, w);
  }
}

// stacked_apply on a (k*w)-row tile t. `tails` holds blocks 1..k-1 of the
// factored stack one under the other, column j at tails + j * tails_ld;
// block 0 carries no reflector entries (its pivots are the implicit 1s).
template <Isa I, typename T>
void stacked_apply_rows(const T* tails, idx tails_ld, idx w, idx k,
                        const T* tau, T* t, idx ld, idx nc, bool transpose_q) {
  for (idx s = 0; s < w; ++s) {
    const idx j = transpose_q ? s : w - 1 - s;
    if (tau[j] == T(0)) continue;
    const Support<T> sup{t + j * ld, t + w * ld, tails + j * tails_ld,
                         k - 1, j + 1, w * ld, w};
    reflect<I>(sup, ld, tau[j], 0, nc);
  }
}

// The entry points below at a given level: each stages its operand
// row-major in the calling thread's arena scratch (the host-side analogue
// of the kernel's fast-memory tile), updates it at level `isa`, and copies
// it back. Tests call them for every level the host supports.

template <typename T>
void block_geqr2(Isa isa, MatrixView<T> a, T* tau) {
  ArenaScope scope(Arena::thread_scratch());
  T* col = scope.alloc<T>(static_cast<std::size_t>(a.rows()));
  run_at(isa, [&]<Isa I>() {
    on_rows<I>(a, [&](T* t, idx ld) {
      geqr2_rows<I>(t, ld, a.rows(), a.cols(), tau, col);
    });
  });
}

template <typename T>
void block_apply(Isa isa, ConstMatrixView<T> v, const T* tau, MatrixView<T> c,
                 bool transpose_q) {
  run_at(isa, [&]<Isa I>() {
    on_rows<I>(c, [&](T* t, idx ld) {
      apply_rows<I>(v, tau, t, ld, transpose_q);
    });
  });
}

template <typename T>
void stacked_geqr2(Isa isa, MatrixView<T> s, idx w, idx k, T* tau,
                   T* scratch) {
  run_at(isa, [&]<Isa I>() {
    on_rows<I>(s, [&](T* t, idx ld) {
      stacked_geqr2_rows<I>(t, ld, w, k, tau, scratch);
    });
  });
}

template <typename T>
void stacked_apply(Isa isa, ConstMatrixView<T> v, idx w, idx k, const T* tau,
                   MatrixView<T> c, bool transpose_q) {
  run_at(isa, [&]<Isa I>() {
    on_rows<I>(c, [&](T* t, idx ld) {
      stacked_apply_rows<I>(v.data() + w, v.ld(), w, k, tau, t, ld, c.cols(),
                            transpose_q);
    });
  });
}

// stacked_geqr2 and stacked_apply on the k = rows.size() triangles that sit
// at rows `rows` of the w-column panel, in the tree kernels' layout: the
// staging gathers them (and the matching rows of c) straight into the
// row-major tile and scatters them back, with no column-major stack in
// between.
template <typename T>
void stacked_geqr2_scattered(Isa isa, MatrixView<T> panel,
                             std::span<const idx> rows, T* tau) {
  const idx w = panel.cols(), k = static_cast<idx>(rows.size());
  ArenaScope scope(Arena::thread_scratch());
  T* scratch = scope.alloc<T>(static_cast<std::size_t>(1 + (k - 1) * w));
  run_at(isa, [&]<Isa I>() {
    on_rows<I>(panel, rows, w, [&](T* t, idx ld) {
      stacked_geqr2_rows<I>(t, ld, w, k, tau, scratch);
    });
  });
}

template <typename T>
void stacked_apply_scattered(Isa isa, ConstMatrixView<T> panel,
                             std::span<const idx> rows, const T* tau,
                             MatrixView<T> c, bool transpose_q) {
  const idx w = panel.cols(), k = static_cast<idx>(rows.size());
  ArenaScope scope(Arena::thread_scratch());
  const idx tails_ld = (k - 1) * w;
  T* tails = scope.alloc<T>(static_cast<std::size_t>(tails_ld * w));
  for (idx b = 1; b < k; ++b) {
    MatrixView<T>(tails + (b - 1) * w, w, w, tails_ld)
        .copy_from(panel.block(rows[static_cast<std::size_t>(b)], 0, w, w));
  }
  run_at(isa, [&]<Isa I>() {
    on_rows<I>(c, rows, w, [&](T* t, idx ld) {
      stacked_apply_rows<I>(tails, tails_ld, w, k, tau, t, ld, c.cols(),
                            transpose_q);
    });
  });
}

}  // namespace simd

// ---------------------------------------------------------------------------
// Entry points: column-major views of any leading dimension in and out.
// Float and double run the simd:: routines at simd::active_isa(); every
// other scalar type runs the ref:: loops.
// ---------------------------------------------------------------------------

template <typename T>
void block_geqr2(MatrixView<T> a, T* tau) {
  if constexpr (simd::kEnabled<T>) {
    simd::block_geqr2(simd::active_isa(), a, tau);
  } else {
    ref::block_geqr2(a, tau);
  }
}

template <typename T>
void block_apply(ConstMatrixView<T> v, const T* tau, MatrixView<T> c,
                 bool transpose_q) {
  CAQR_DCHECK(c.rows() == v.rows());
  if constexpr (simd::kEnabled<T>) {
    simd::block_apply(simd::active_isa(), v, tau, c, transpose_q);
  } else {
    ref::block_apply(v, tau, c, transpose_q);
  }
}

template <typename T>
void stacked_geqr2(MatrixView<T> s, idx w, idx k, T* tau, T* scratch) {
  CAQR_DCHECK(s.rows() == w * k && s.cols() == w);
  CAQR_DCHECK(k >= 1);
  if constexpr (simd::kEnabled<T>) {
    simd::stacked_geqr2(simd::active_isa(), s, w, k, tau, scratch);
  } else {
    ref::stacked_geqr2(s, w, k, tau, scratch);
  }
}

template <typename T>
void stacked_apply(ConstMatrixView<T> v, idx w, idx k, const T* tau,
                   MatrixView<T> c, bool transpose_q) {
  CAQR_DCHECK(v.rows() == w * k && v.cols() == w);
  CAQR_DCHECK(c.rows() == w * k);
  if constexpr (simd::kEnabled<T>) {
    simd::stacked_apply(simd::active_isa(), v, w, k, tau, c, transpose_q);
  } else {
    ref::stacked_apply(v, w, k, tau, c, transpose_q);
  }
}

// The tree kernels' combines: stacked_geqr2 / stacked_apply on the k =
// rows.size() w x w triangles at rows `rows` of the w-column panel (and the
// same rows of c), in place. Float and double gather them straight into the
// staged tile; other scalar types go through a column-major stack.
template <typename T>
void stacked_geqr2_scattered(MatrixView<T> panel, std::span<const idx> rows,
                             T* tau) {
  if constexpr (simd::kEnabled<T>) {
    simd::stacked_geqr2_scattered(simd::active_isa(), panel, rows, tau);
  } else {
    const idx w = panel.cols(), k = static_cast<idx>(rows.size());
    ArenaScope scope(Arena::thread_scratch());
    MatrixView<T> stack(scope.alloc<T>(static_cast<std::size_t>(k * w * w)),
                        k * w, w, k * w);
    for (idx b = 0; b < k; ++b) {
      stack.block(b * w, 0, w, w)
          .copy_from(panel.block(rows[static_cast<std::size_t>(b)], 0, w, w));
    }
    T* scratch = scope.alloc<T>(static_cast<std::size_t>(1 + (k - 1) * w));
    ref::stacked_geqr2(stack, w, k, tau, scratch);
    for (idx b = 0; b < k; ++b) {
      panel.block(rows[static_cast<std::size_t>(b)], 0, w, w)
          .copy_from(stack.block(b * w, 0, w, w));
    }
  }
}

template <typename T>
void stacked_apply_scattered(ConstMatrixView<T> panel,
                             std::span<const idx> rows, const T* tau,
                             MatrixView<T> c, bool transpose_q) {
  if constexpr (simd::kEnabled<T>) {
    simd::stacked_apply_scattered(simd::active_isa(), panel, rows, tau, c,
                                  transpose_q);
  } else {
    const idx w = panel.cols(), k = static_cast<idx>(rows.size());
    const idx nc = c.cols();
    ArenaScope scope(Arena::thread_scratch());
    MatrixView<T> u(scope.alloc<T>(static_cast<std::size_t>(k * w * w)),
                    k * w, w, k * w);
    MatrixView<T> cs(scope.alloc<T>(static_cast<std::size_t>(k * w * nc)),
                     k * w, nc, k * w);
    for (idx b = 0; b < k; ++b) {
      const idx r = rows[static_cast<std::size_t>(b)];
      u.block(b * w, 0, w, w).copy_from(panel.block(r, 0, w, w));
      cs.block(b * w, 0, w, nc).copy_from(c.block(r, 0, w, nc));
    }
    ref::stacked_apply(u.as_const(), w, k, tau, cs, transpose_q);
    for (idx b = 0; b < k; ++b) {
      c.block(rows[static_cast<std::size_t>(b)], 0, w, nc)
          .copy_from(cs.block(b * w, 0, w, nc));
    }
  }
}

}  // namespace caqr::kernels
