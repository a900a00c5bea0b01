#pragma once

// Algorithm-based fault tolerance (ABFT) for the four CAQR kernels.
//
// Two detection schemes, chosen per kernel by what corruption there *does*:
//
//   factor /      Exact re-execution. The certificate IS the expected
//   factor_tree   output: encode copies the kernel's surface, runs the same
//                 run_block code on the copy host-side (fault-free), and the
//                 verifier is a bitwise comparison per block / tree group, so
//                 any corruption of the reflector storage — down to a single
//                 low-order mantissa bit — is detected and localized. This is
//                 deliberate, not overkill: a stored Householder tail enters
//                 every later apply (and form_q) *linearly*, so an absolute
//                 perturbation d of a tail entry v costs ~d in the final
//                 residual; but any norm-style invariant (column-norm
//                 preservation, tau * (1 + ||v||^2) == 2) sees only the
//                 *quadratic* footprint ~2*v*d, which for |v| << 1 sits far
//                 below any usable threshold. A threshold cert therefore has
//                 a detection floor that ill conditioning amplifies past the
//                 Verifier's backward-error bounds (observed: a bit-24 flip
//                 of a 1e-4 tail entry, invisible at tol 16*eps, raised the
//                 residual 1000x). Replay is affordable because the factor
//                 kernels are the low-order term of CAQR — O(m*w^2) of the
//                 O(m*n*w) total — and it needs no tolerance at all: the
//                 simulated device and the host run the same instantiation
//                 of run_block, so fault-free launches match bit-for-bit.
//   apply_qt_h /  Huang–Abraham checksum columns, one per column tile:
//   apply_qt_tree s_t = sum of the tile's columns, captured pre-launch. The
//                 verifier applies the *same* block operation to the checksum
//                 matrix host-side and compares it against the post-launch
//                 tile sums — per (row block x tile), so a mismatch localizes
//                 the corrupted block exactly. Cost is 1/tile_cols of the
//                 launch plus two row-sum passes. Detection is thresholded at
//                 tol_multiplier * eps * sqrt(block height): corruption below
//                 that (a flipped low-order mantissa bit) escapes, but for
//                 the applies the surface is *data*, not reflectors, so a
//                 sub-threshold flip is an ordinary backward-error
//                 perturbation of A — inside the bounds the Verifier
//                 enforces, numerically benign by construction. Flipped
//                 sign/exponent/high-mantissa bits, and dropped blocks, land
//                 far above the threshold.
//
// Extreme column scalings (1e±300, the stress-harness regime) are handled
// the same way as numerics/verifier.hpp: the apply-side checksums accumulate
// entries pre-multiplied by an exact per-block power-of-two equilibration
// factor, so the squared sums neither overflow nor flush to zero (the replay
// certs compare bits and need no equilibration).
//
// All routines here are host-side and fault-free by construction (they never
// run through Device::launch). The matching cost of the checks is charged to
// the performance model by Device::launch via abft_stats().

#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "ft/ft.hpp"
#include "kernels/block_ops.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"

namespace caqr::ft {

// Kernels that opt into ABFT guarding. kAbftSupported is false for
// non-floating-point scalars (the flop-counting tests instantiate kernels
// with a counting scalar; none of the checksum arithmetic below must be
// instantiated for it).
template <typename K>
concept HasAbft = requires {
  { K::kAbftSupported } -> std::convertible_to<bool>;
} && static_cast<bool>(K::kAbftSupported);

namespace detail {

// Hash `nrows` rows of every column starting at row r0 (column segments are
// contiguous in the column-major storage).
template <typename T>
std::uint64_t hash_rows(ConstMatrixView<T> m, idx r0, idx nrows,
                        std::uint64_t h = kFnvOffset) {
  for (idx j = 0; j < m.cols(); ++j) {
    h = fnv1a(m.col(j) + r0, sizeof(T) * static_cast<std::size_t>(nrows), h);
  }
  return h;
}

// Exact power-of-two factor bringing max|region| to O(1) (see
// numerics/verifier.hpp): multiplying every accumulated entry by it is exact
// and keeps squared norms representable for |entries| ~ 1e±300.
inline double pow2_equilibration(double max_abs) {
  if (max_abs == 0.0 || !std::isfinite(max_abs)) return 1.0;
  const double f = std::exp2(static_cast<double>(-std::ilogb(max_abs)));
  return f >= 0.5 && f <= 2.0 ? 1.0 : f;
}

template <typename T>
double region_max_abs(ConstMatrixView<T> m, idx r0, idx nrows) {
  double s = 0.0;
  for (idx j = 0; j < m.cols(); ++j) {
    const T* col = m.col(j) + r0;
    for (idx i = 0; i < nrows; ++i) {
      const double a = std::abs(static_cast<double>(col[i]));
      if (a > s && std::isfinite(a)) s = a;
    }
  }
  return s;
}

// FNV-1a over the maximal uncovered row runs of `m`.
template <typename T>
std::uint64_t hash_uncovered(ConstMatrixView<T> m,
                             const std::vector<char>& covered) {
  std::uint64_t h = kFnvOffset;
  const idx rows = m.rows();
  idx r = 0;
  while (r < rows) {
    if (covered[static_cast<std::size_t>(r)]) {
      ++r;
      continue;
    }
    idx r1 = r;
    while (r1 < rows && !covered[static_cast<std::size_t>(r1)]) ++r1;
    h = hash_rows(m, r, r1 - r, h);
    r = r1;
  }
  return h;
}

// Bitwise equality of `nrows` rows of every column starting at row r0.
template <typename T>
bool rows_equal(ConstMatrixView<T> a, ConstMatrixView<T> b, idx r0,
                idx nrows) {
  for (idx j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.col(j) + r0, b.col(j) + r0,
                    sizeof(T) * static_cast<std::size_t>(nrows)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// factor
// ---------------------------------------------------------------------------

template <typename T>
struct FactorCert {
  Matrix<T> expected;           // fault-free replay of the whole panel
  std::vector<T> expected_taus; // nblocks x w, replayed alongside
};

template <std::floating_point T>
FactorCert<T> abft_encode(const kernels::FactorKernel<T>& k) {
  const idx nb = k.num_blocks();
  const idx w = k.panel.cols();
  FactorCert<T> cert;
  cert.expected = Matrix<T>::from(k.panel.as_const());
  // Seed from the live taus so slots the kernel never writes compare equal.
  cert.expected_taus.assign(k.taus, k.taus + nb * w);
  kernels::FactorKernel<T> replay = k;
  replay.panel = cert.expected.view();
  replay.taus = cert.expected_taus.data();
  for (idx b = 0; b < nb; ++b) replay.run_block(b);
  return cert;
}

template <std::floating_point T>
void abft_verify(const kernels::FactorKernel<T>& k, const FactorCert<T>& cert,
                 double /*tol_mult*/, std::vector<idx>& bad, bool& bystander) {
  bystander = false;  // the block regions tile the whole surface
  const idx nb = k.num_blocks();
  const idx w = k.panel.cols();
  const auto panel = k.panel.as_const();
  const auto want = cert.expected.as_const();
  for (idx b = 0; b < nb; ++b) {
    const idx r0 = (*k.offsets)[static_cast<std::size_t>(b)];
    const idx h = (*k.offsets)[static_cast<std::size_t>(b) + 1] - r0;
    const bool ok =
        detail::rows_equal(panel, want, r0, h) &&
        std::memcmp(k.taus + b * w,
                    cert.expected_taus.data() + static_cast<std::size_t>(b * w),
                    sizeof(T) * static_cast<std::size_t>(w)) == 0;
    if (!ok) bad.push_back(b);
  }
}

template <std::floating_point T>
void abft_restore(const kernels::FactorKernel<T>& k, ConstMatrixView<T> snap,
                  const std::vector<idx>& bad, bool /*bystander*/) {
  for (idx b : bad) {
    const idx r0 = (*k.offsets)[static_cast<std::size_t>(b)];
    const idx h = (*k.offsets)[static_cast<std::size_t>(b) + 1] - r0;
    k.panel.block(r0, 0, h, k.panel.cols())
        .copy_from(snap.block(r0, 0, h, snap.cols()));
    for (idx j = 0; j < k.panel.cols(); ++j) k.taus[b * k.panel.cols() + j] = T(0);
  }
}

template <std::floating_point T>
gpusim::BlockStats abft_stats(const kernels::FactorKernel<T>& k,
                              bool snapshot) {
  gpusim::BlockStats s;
  const idx w = k.panel.cols();
  const double elems =
      static_cast<double>(k.panel.rows()) * k.panel.cols();
  double replay = 0.0;  // encode re-executes every block on the copy
  for (idx b = 0; b < k.num_blocks(); ++b) {
    const idx h = (*k.offsets)[static_cast<std::size_t>(b) + 1] -
                  (*k.offsets)[static_cast<std::size_t>(b)];
    replay += kernels::block_geqr2_flops(h, w);
  }
  s.flops = replay + 2.0 * elems;  // replay + bitwise compare pass
  // copy out + replay write + compare reads of both copies (+ snapshot).
  s.gmem_bytes = (4.0 + (snapshot ? 2.0 : 0.0)) * elems * sizeof(T);
  s.issue_cycles = s.flops / 32.0;
  return s;
}

// ---------------------------------------------------------------------------
// factor_tree
// ---------------------------------------------------------------------------

template <typename T>
struct TreeCert {
  Matrix<T> expected;           // fault-free replay of the whole panel
  std::vector<T> expected_taus; // ngroups x w, replayed alongside
};

namespace detail {

// Rows of `panel` covered by any group triangle (each triangle spans w rows).
template <typename T>
std::vector<char> tree_covered_rows(const kernels::FactorTreeKernel<T>& k) {
  std::vector<char> covered(static_cast<std::size_t>(k.panel.rows()), 0);
  const idx w = k.panel.cols();
  for (idx g = 0; g < k.groups->size(); ++g) {
    for (idx r : (*k.groups)[g]) {
      for (idx i = 0; i < w; ++i) covered[static_cast<std::size_t>(r + i)] = 1;
    }
  }
  return covered;
}

}  // namespace detail

template <std::floating_point T>
TreeCert<T> abft_encode(const kernels::FactorTreeKernel<T>& k) {
  const idx ng = k.num_blocks();
  const idx w = k.panel.cols();
  TreeCert<T> cert;
  cert.expected = Matrix<T>::from(k.panel.as_const());
  // Seed from the live taus so pass-through groups' slots compare equal.
  cert.expected_taus.assign(k.taus, k.taus + ng * w);
  kernels::FactorTreeKernel<T> replay = k;
  replay.panel = cert.expected.view();
  replay.taus = cert.expected_taus.data();
  for (idx g = 0; g < ng; ++g) replay.run_block(g);
  return cert;
}

template <std::floating_point T>
void abft_verify(const kernels::FactorTreeKernel<T>& k, const TreeCert<T>& cert,
                 double /*tol_mult*/, std::vector<idx>& bad, bool& bystander) {
  const idx ng = k.num_blocks();
  const idx w = k.panel.cols();
  const auto panel = k.panel.as_const();
  const auto want = cert.expected.as_const();
  for (idx g = 0; g < ng; ++g) {
    const auto rows = (*k.groups)[g];
    bool ok =
        std::memcmp(k.taus + g * w,
                    cert.expected_taus.data() + static_cast<std::size_t>(g * w),
                    sizeof(T) * static_cast<std::size_t>(w)) == 0;
    for (idx r : rows) ok = ok && detail::rows_equal(panel, want, r, w);
    if (!ok) bad.push_back(g);
  }
  // Rows outside every group must survive the launch bit-identically; the
  // expected copy holds their pre-launch bytes untouched.
  bystander = false;
  const auto covered = detail::tree_covered_rows(k);
  for (idx r = 0; r < k.panel.rows() && !bystander; ++r) {
    if (covered[static_cast<std::size_t>(r)]) continue;
    idx r1 = r;
    while (r1 < k.panel.rows() && !covered[static_cast<std::size_t>(r1)]) ++r1;
    bystander = !detail::rows_equal(panel, want, r, r1 - r);
    r = r1;
  }
}

template <std::floating_point T>
void abft_restore(const kernels::FactorTreeKernel<T>& k,
                  ConstMatrixView<T> snap, const std::vector<idx>& bad,
                  bool bystander) {
  const idx w = k.panel.cols();
  for (idx g : bad) {
    const auto rows = (*k.groups)[g];
    for (idx r : rows) {
      k.panel.block(r, 0, w, w).copy_from(snap.block(r, 0, w, w));
    }
    for (idx j = 0; j < w; ++j) k.taus[g * w + j] = T(0);
  }
  if (bystander) {
    const auto covered = detail::tree_covered_rows(k);
    for (idx r = 0; r < k.panel.rows(); ++r) {
      if (covered[static_cast<std::size_t>(r)]) continue;
      idx r1 = r;
      while (r1 < k.panel.rows() && !covered[static_cast<std::size_t>(r1)]) {
        ++r1;
      }
      k.panel.block(r, 0, r1 - r, w).copy_from(snap.block(r, 0, r1 - r, w));
      r = r1;
    }
  }
}

template <std::floating_point T>
gpusim::BlockStats abft_stats(const kernels::FactorTreeKernel<T>& k,
                              bool snapshot) {
  gpusim::BlockStats s;
  const idx w = k.panel.cols();
  double replay = 0.0;  // encode re-executes every combining group
  for (idx g = 0; g < k.groups->size(); ++g) {
    const idx kk = k.groups->group_size(g);
    if (kk >= 2) replay += kernels::stacked_geqr2_flops(w, kk);
  }
  const double surface =
      static_cast<double>(k.panel.rows()) * k.panel.cols();
  s.flops = replay + 2.0 * surface;  // replay + bitwise compare pass
  // copy out + replay gather/scatter + compare reads (+ snapshot).
  s.gmem_bytes = (4.0 + (snapshot ? 2.0 : 0.0)) * surface * sizeof(T);
  s.issue_cycles = s.flops / 32.0;
  return s;
}

// ---------------------------------------------------------------------------
// apply_qt_h / apply_q_h
// ---------------------------------------------------------------------------

template <typename T>
struct ApplyHCert {
  std::vector<double> scale;  // per row block
  std::vector<double> fro;    // (row block x tile) equilibrated Frobenius
  Matrix<T> sums;             // rows x tiles pre-launch checksum columns
};

template <std::floating_point T>
ApplyHCert<T> abft_encode(const kernels::ApplyQtHKernel<T>& k) {
  const idx nrb = k.num_row_blocks();
  const idx tiles = k.num_col_tiles();
  const auto c = k.trailing.as_const();
  ApplyHCert<T> cert;
  cert.scale.resize(static_cast<std::size_t>(nrb));
  cert.fro.assign(static_cast<std::size_t>(nrb * tiles), 0.0);
  cert.sums = Matrix<T>::zeros(c.rows(), tiles);
  for (idx rb = 0; rb < nrb; ++rb) {
    const idx r0 = (*k.offsets)[static_cast<std::size_t>(rb)];
    const idx h = (*k.offsets)[static_cast<std::size_t>(rb) + 1] - r0;
    const double s =
        detail::pow2_equilibration(detail::region_max_abs(c, r0, h));
    cert.scale[static_cast<std::size_t>(rb)] = s;
    for (idx t = 0; t < tiles; ++t) {
      const idx c0 = t * k.tile_cols;
      const idx nc = std::min(k.tile_cols, c.cols() - c0);
      T* sum = cert.sums.view().col(t) + r0;
      double f2 = 0.0;
      for (idx j = 0; j < nc; ++j) {
        const T* col = c.col(c0 + j) + r0;
        for (idx i = 0; i < h; ++i) {
          // Checksums accumulate in equilibrated units so a row sum of
          // near-overflow entries stays representable; the transform below
          // commutes with the exact power-of-two scale.
          const double x = static_cast<double>(col[i]) * s;
          sum[i] += static_cast<T>(x);
          f2 += x * x;
        }
      }
      cert.fro[static_cast<std::size_t>(rb * tiles + t)] = std::sqrt(f2);
    }
  }
  return cert;
}

template <std::floating_point T>
void abft_verify(const kernels::ApplyQtHKernel<T>& k, const ApplyHCert<T>& cert,
                 double tol_mult, std::vector<idx>& bad, bool& bystander) {
  bystander = false;  // the (row block x tile) grid tiles the whole surface
  const idx nrb = k.num_row_blocks();
  const idx tiles = k.num_col_tiles();
  const idx w = k.panel.cols();
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  const auto c = k.trailing.as_const();
  // Fault-free host replay of the launch on the checksum columns.
  Matrix<T> pred = Matrix<T>::from(cert.sums.view());
  for (idx rb = 0; rb < nrb; ++rb) {
    const idx r0 = (*k.offsets)[static_cast<std::size_t>(rb)];
    const idx h = (*k.offsets)[static_cast<std::size_t>(rb) + 1] - r0;
    const auto v = k.panel.block(r0, 0, h, w);
    const auto target = pred.block(r0, 0, h, tiles);
    kernels::block_apply(v, k.taus + rb * w, target, k.transpose_q);
  }
  for (idx rb = 0; rb < nrb; ++rb) {
    const idx r0 = (*k.offsets)[static_cast<std::size_t>(rb)];
    const idx h = (*k.offsets)[static_cast<std::size_t>(rb) + 1] - r0;
    const double s = cert.scale[static_cast<std::size_t>(rb)];
    const double tol = tol_mult * eps * std::sqrt(static_cast<double>(h));
    for (idx t = 0; t < tiles; ++t) {
      const idx c0 = t * k.tile_cols;
      const idx nc = std::min(k.tile_cols, c.cols() - c0);
      const T* want = pred.view().col(t) + r0;
      double diff2 = 0.0, act2 = 0.0;
      bool finite = true;
      for (idx i = 0; i < h; ++i) {
        double got = 0.0;  // in the same equilibrated units as the checksum
        for (idx j = 0; j < nc; ++j) {
          const double x = static_cast<double>(c(r0 + i, c0 + j)) * s;
          got += x;
          act2 += x * x;
        }
        const double d = got - static_cast<double>(want[i]);
        finite = finite && std::isfinite(d);
        diff2 += d * d;
      }
      const double fro_pre = cert.fro[static_cast<std::size_t>(rb * tiles + t)];
      const double limit =
          tol * std::sqrt(static_cast<double>(nc)) *
          (fro_pre + (std::isfinite(act2) ? std::sqrt(act2) : 0.0));
      if (!finite || !(std::sqrt(diff2) <= limit)) {
        bad.push_back(rb * tiles + t);
      }
    }
  }
}

template <std::floating_point T>
void abft_restore(const kernels::ApplyQtHKernel<T>& k, ConstMatrixView<T> snap,
                  const std::vector<idx>& bad, bool /*bystander*/) {
  const idx tiles = k.num_col_tiles();
  for (idx b : bad) {
    const idx rb = b / tiles;
    const idx t = b % tiles;
    const idx r0 = (*k.offsets)[static_cast<std::size_t>(rb)];
    const idx h = (*k.offsets)[static_cast<std::size_t>(rb) + 1] - r0;
    const idx c0 = t * k.tile_cols;
    const idx nc = std::min(k.tile_cols, k.trailing.cols() - c0);
    k.trailing.block(r0, c0, h, nc).copy_from(snap.block(r0, c0, h, nc));
  }
}

template <std::floating_point T>
gpusim::BlockStats abft_stats(const kernels::ApplyQtHKernel<T>& k,
                              bool snapshot) {
  gpusim::BlockStats s;
  const idx tiles = k.num_col_tiles();
  const idx w = k.panel.cols();
  const double elems =
      static_cast<double>(k.trailing.rows()) * k.trailing.cols();
  double transform = 0.0;
  for (idx rb = 0; rb < k.num_row_blocks(); ++rb) {
    const idx h = (*k.offsets)[static_cast<std::size_t>(rb) + 1] -
                  (*k.offsets)[static_cast<std::size_t>(rb)];
    transform += kernels::block_apply_qt_flops(h, w, tiles);
  }
  s.flops = 4.0 * elems + transform;  // two sum passes + checksum replay
  s.gmem_bytes =
      (2.0 * elems + (snapshot ? 2.0 * elems : 0.0)) * sizeof(T) +
      static_cast<double>(k.panel.rows()) * w * sizeof(T);
  s.issue_cycles = s.flops / 32.0;
  return s;
}

// ---------------------------------------------------------------------------
// apply_qt_tree / apply_q_tree
// ---------------------------------------------------------------------------

template <typename T>
struct ApplyTreeCert {
  std::vector<double> scale;       // per group (1.0 for pass-through)
  std::vector<double> fro;         // (group x tile)
  std::vector<Matrix<T>> sums;     // per group: (k*w) x tiles checksums
  std::vector<std::uint64_t> untouched;  // pass-through group rows
  std::uint64_t complement = detail::kFnvOffset;  // rows outside every group
};

namespace detail {

template <typename T>
std::vector<char> apply_tree_covered_rows(
    const kernels::ApplyQtTreeKernel<T>& k) {
  std::vector<char> covered(static_cast<std::size_t>(k.trailing.rows()), 0);
  const idx w = k.panel.cols();
  for (idx g = 0; g < k.groups->size(); ++g) {
    if (k.groups->group_size(g) < 2) continue;  // pass-through hashed apart
    for (idx r : (*k.groups)[g]) {
      for (idx i = 0; i < w; ++i) covered[static_cast<std::size_t>(r + i)] = 1;
    }
  }
  return covered;
}

}  // namespace detail

template <std::floating_point T>
ApplyTreeCert<T> abft_encode(const kernels::ApplyQtTreeKernel<T>& k) {
  const idx ng = static_cast<idx>(k.groups->size());
  const idx tiles = k.num_col_tiles();
  const idx w = k.panel.cols();
  const auto c = k.trailing.as_const();
  ApplyTreeCert<T> cert;
  cert.scale.assign(static_cast<std::size_t>(ng), 1.0);
  cert.fro.assign(static_cast<std::size_t>(ng * tiles), 0.0);
  cert.sums.resize(static_cast<std::size_t>(ng));
  cert.untouched.assign(static_cast<std::size_t>(ng), detail::kFnvOffset);
  for (idx g = 0; g < ng; ++g) {
    const auto rows = (*k.groups)[g];
    const idx kk = static_cast<idx>(rows.size());
    if (kk < 2) {
      std::uint64_t h = detail::kFnvOffset;
      for (idx r : rows) h = detail::hash_rows(c, r, w, h);
      cert.untouched[static_cast<std::size_t>(g)] = h;
      continue;
    }
    double mx = 0.0;
    for (idx r : rows) {
      const double m = detail::region_max_abs(c, r, w);
      if (m > mx) mx = m;
    }
    const double s = detail::pow2_equilibration(mx);
    cert.scale[static_cast<std::size_t>(g)] = s;
    Matrix<T> sums = Matrix<T>::zeros(kk * w, tiles);
    for (idx t = 0; t < tiles; ++t) {
      const idx c0 = t * k.tile_cols;
      const idx nc = std::min(k.tile_cols, c.cols() - c0);
      double f2 = 0.0;
      for (idx b = 0; b < kk; ++b) {
        const idx r = rows[static_cast<std::size_t>(b)];
        T* sum = sums.view().col(t) + b * w;
        for (idx j = 0; j < nc; ++j) {
          const T* col = c.col(c0 + j) + r;
          for (idx i = 0; i < w; ++i) {
            const double x = static_cast<double>(col[i]) * s;
            sum[i] += static_cast<T>(x);  // equilibrated checksum units
            f2 += x * x;
          }
        }
      }
      cert.fro[static_cast<std::size_t>(g * tiles + t)] = std::sqrt(f2);
    }
    cert.sums[static_cast<std::size_t>(g)] = std::move(sums);
  }
  cert.complement =
      detail::hash_uncovered(c, detail::apply_tree_covered_rows(k));
  return cert;
}

template <std::floating_point T>
void abft_verify(const kernels::ApplyQtTreeKernel<T>& k,
                 const ApplyTreeCert<T>& cert, double tol_mult,
                 std::vector<idx>& bad, bool& bystander) {
  const idx ng = static_cast<idx>(k.groups->size());
  const idx tiles = k.num_col_tiles();
  const idx w = k.panel.cols();
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  const auto c = k.trailing.as_const();
  for (idx g = 0; g < ng; ++g) {
    const auto rows = (*k.groups)[g];
    const idx kk = static_cast<idx>(rows.size());
    if (kk < 2) {
      std::uint64_t h = detail::kFnvOffset;
      for (idx r : rows) h = detail::hash_rows(c, r, w, h);
      if (h != cert.untouched[static_cast<std::size_t>(g)]) {
        for (idx t = 0; t < tiles; ++t) bad.push_back(g * tiles + t);
      }
      continue;
    }
    // Fault-free host replay on the group's checksum columns.
    Matrix<T> u(kk * w, w);
    for (idx b = 0; b < kk; ++b) {
      u.block(b * w, 0, w, w)
          .copy_from(k.panel.block(rows[static_cast<std::size_t>(b)], 0, w, w));
    }
    Matrix<T> pred = Matrix<T>::from(
        cert.sums[static_cast<std::size_t>(g)].view());
    kernels::stacked_apply(u.as_const(), w, kk, k.taus + g * w, pred.view(),
                           k.transpose_q);
    const double s = cert.scale[static_cast<std::size_t>(g)];
    const double tol =
        tol_mult * eps * std::sqrt(static_cast<double>(kk * w));
    for (idx t = 0; t < tiles; ++t) {
      const idx c0 = t * k.tile_cols;
      const idx nc = std::min(k.tile_cols, c.cols() - c0);
      double diff2 = 0.0, act2 = 0.0;
      bool finite = true;
      for (idx b = 0; b < kk; ++b) {
        const idx r = rows[static_cast<std::size_t>(b)];
        const T* want = pred.view().col(t) + b * w;
        for (idx i = 0; i < w; ++i) {
          double got = 0.0;  // equilibrated units, matching the checksum
          for (idx j = 0; j < nc; ++j) {
            const double x = static_cast<double>(c(r + i, c0 + j)) * s;
            got += x;
            act2 += x * x;
          }
          const double d = got - static_cast<double>(want[i]);
          finite = finite && std::isfinite(d);
          diff2 += d * d;
        }
      }
      const double fro_pre = cert.fro[static_cast<std::size_t>(g * tiles + t)];
      const double limit =
          tol * std::sqrt(static_cast<double>(nc)) *
          (fro_pre + (std::isfinite(act2) ? std::sqrt(act2) : 0.0));
      if (!finite || !(std::sqrt(diff2) <= limit)) {
        bad.push_back(g * tiles + t);
      }
    }
  }
  bystander =
      detail::hash_uncovered(c, detail::apply_tree_covered_rows(k)) !=
      cert.complement;
}

template <std::floating_point T>
void abft_restore(const kernels::ApplyQtTreeKernel<T>& k,
                  ConstMatrixView<T> snap, const std::vector<idx>& bad,
                  bool bystander) {
  const idx tiles = k.num_col_tiles();
  const idx w = k.panel.cols();
  for (idx b : bad) {
    const auto rows = (*k.groups)[b / tiles];
    const idx c0 = (b % tiles) * k.tile_cols;
    const idx nc = std::min(k.tile_cols, k.trailing.cols() - c0);
    for (idx r : rows) {
      k.trailing.block(r, c0, w, nc).copy_from(snap.block(r, c0, w, nc));
    }
  }
  if (bystander) {
    const auto covered = detail::apply_tree_covered_rows(k);
    for (idx r = 0; r < k.trailing.rows(); ++r) {
      if (covered[static_cast<std::size_t>(r)]) continue;
      idx r1 = r;
      while (r1 < k.trailing.rows() && !covered[static_cast<std::size_t>(r1)]) {
        ++r1;
      }
      k.trailing.block(r, 0, r1 - r, k.trailing.cols())
          .copy_from(snap.block(r, 0, r1 - r, snap.cols()));
      r = r1;
    }
  }
}

template <std::floating_point T>
gpusim::BlockStats abft_stats(const kernels::ApplyQtTreeKernel<T>& k,
                              bool snapshot) {
  gpusim::BlockStats s;
  const idx tiles = k.num_col_tiles();
  const idx w = k.panel.cols();
  double covered = 0.0, transform = 0.0;
  for (idx g = 0; g < k.groups->size(); ++g) {
    const idx kk = k.groups->group_size(g);
    covered += static_cast<double>(kk) * w * k.trailing.cols();
    if (kk >= 2) transform += kernels::stacked_apply_qt_flops(w, kk, tiles);
  }
  const double surface =
      static_cast<double>(k.trailing.rows()) * k.trailing.cols();
  s.flops = 4.0 * covered + transform + surface;  // sums + replay + hashes
  s.gmem_bytes =
      (2.0 * covered + surface + (snapshot ? 2.0 * surface : 0.0)) * sizeof(T);
  s.issue_cycles = s.flops / 32.0;
  return s;
}

}  // namespace caqr::ft
