// Tests for the CAQR kernel numerical cores and their exact operation
// counts. The flop-count functions must match the functional execution
// operation-for-operation (that equivalence is what makes ModelOnly timing
// exact), verified here with a counting scalar type.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "caqr/caqr.hpp"
#include "common/group_list.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device.hpp"
#include "kernels/block_ops.hpp"
#include "kernels/cost_params.hpp"
#include "kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"

namespace caqr::kernels::simd {
// Names the level in gtest's failure messages.
void PrintTo(Isa isa, std::ostream* os) { *os << isa_name(isa); }
}  // namespace caqr::kernels::simd

namespace caqr {
namespace {

using kernels::block_apply;
using kernels::block_apply_qt_flops;
using kernels::block_geqr2;
using kernels::block_geqr2_flops;
using kernels::stacked_apply;
using kernels::stacked_apply_qt_flops;
using kernels::stacked_geqr2;
using kernels::stacked_geqr2_flops;

// ---------------------------------------------------------------------------
// Counting scalar: every mul/add/sub/div/sqrt bumps a global counter.
// ---------------------------------------------------------------------------

struct Counted {
  double v = 0;
  static inline long long ops = 0;

  Counted() = default;
  Counted(double x) : v(x) {}  // NOLINT: implicit by design

  friend Counted operator+(Counted a, Counted b) { ++ops; return {a.v + b.v}; }
  friend Counted operator-(Counted a, Counted b) { ++ops; return {a.v - b.v}; }
  friend Counted operator*(Counted a, Counted b) { ++ops; return {a.v * b.v}; }
  friend Counted operator/(Counted a, Counted b) { ++ops; return {a.v / b.v}; }
  friend Counted operator-(Counted a) { return {-a.v}; }  // sign flip: free
  Counted& operator+=(Counted b) { ++ops; v += b.v; return *this; }
  Counted& operator-=(Counted b) { ++ops; v -= b.v; return *this; }
  Counted& operator*=(Counted b) { ++ops; v *= b.v; return *this; }
  friend bool operator==(Counted a, Counted b) { return a.v == b.v; }
  friend bool operator>=(Counted a, Counted b) { return a.v >= b.v; }
  friend Counted sqrt(Counted a) { ++ops; return {std::sqrt(a.v)}; }
};

template <typename Fn>
long long count_ops(Fn&& fn) {
  Counted::ops = 0;
  fn();
  return Counted::ops;
}

Matrix<Counted> counted_from(ConstMatrixView<double> src) {
  Matrix<Counted> m(src.rows(), src.cols());
  for (idx j = 0; j < src.cols(); ++j) {
    for (idx i = 0; i < src.rows(); ++i) m(i, j) = Counted(src(i, j));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Numerical equivalence with the reference LAPACK-style routines.
// ---------------------------------------------------------------------------

struct BlockShape {
  idx h, w;
};

class BlockGeqr2Shapes : public ::testing::TestWithParam<BlockShape> {};

TEST_P(BlockGeqr2Shapes, MatchesReferenceGeqr2) {
  const auto [h, w] = GetParam();
  auto a0 = gaussian_matrix<double>(h, w, 11);
  auto a_ref = a0.clone();
  auto a_fast = a0.clone();
  std::vector<double> tau_ref(static_cast<std::size_t>(w)), work(static_cast<std::size_t>(w));
  std::vector<double> tau_fast(static_cast<std::size_t>(w));
  geqr2(a_ref.view(), tau_ref.data(), work.data());
  block_geqr2(a_fast.view(), tau_fast.data());

  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i < h; ++i) {
      ASSERT_NEAR(a_fast(i, j), a_ref(i, j), 1e-11) << i << "," << j;
    }
  }
  const idx kmax = std::min(h, w);
  for (idx k = 0; k < kmax; ++k) {
    ASSERT_NEAR(tau_fast[static_cast<std::size_t>(k)],
                tau_ref[static_cast<std::size_t>(k)], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockGeqr2Shapes,
                         ::testing::Values(BlockShape{1, 1}, BlockShape{16, 16},
                                           BlockShape{64, 16}, BlockShape{128, 16},
                                           BlockShape{65, 16}, BlockShape{32, 4},
                                           BlockShape{200, 8}, BlockShape{17, 17}));

TEST(BlockApplyQt, ReproducesRFromOriginalBlock) {
  const idx h = 96, w = 12;
  auto a0 = gaussian_matrix<double>(h, w, 5);
  auto f = a0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  block_geqr2(f.view(), tau.data());

  // Applying Q^T to the original block must reproduce [R; 0].
  auto c = a0.clone();
  block_apply(f.as_const(), tau.data(), c.view(), true);
  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i < h; ++i) {
      const double expect = i <= j ? f(i, j) : 0.0;
      ASSERT_NEAR(c(i, j), expect, 1e-11);
    }
  }
}

TEST(BlockApplyQ, InverseOfApplyQt) {
  const idx h = 80, w = 16;
  auto a = gaussian_matrix<double>(h, w, 6);
  auto f = a.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  block_geqr2(f.view(), tau.data());

  auto c0 = gaussian_matrix<double>(h, 7, 8);
  auto c = c0.clone();
  block_apply(f.as_const(), tau.data(), c.view(), true);
  block_apply(f.as_const(), tau.data(), c.view(), false);
  for (idx j = 0; j < 7; ++j) {
    for (idx i = 0; i < h; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-11);
  }
}

// ---------------------------------------------------------------------------
// Stacked-triangle (tree combine) kernels.
// ---------------------------------------------------------------------------

// Builds a stack of k random upper-triangular w x w blocks.
Matrix<double> random_triangle_stack(idx w, idx k, std::uint64_t seed) {
  auto stack = Matrix<double>::zeros(k * w, w);
  Rng rng(seed);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) {
        stack(b * w + i, j) = rng.uniform(-1.0, 1.0);
      }
    }
  }
  return stack;
}

class StackedQrParams : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(StackedQrParams, MatchesDenseQrUpToSigns) {
  const auto [w, k] = GetParam();
  auto s0 = random_triangle_stack(w, k, 21);

  // Structured QR.
  auto s = s0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  std::vector<double> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  // Dense reference QR on the same stack.
  auto d = s0.clone();
  std::vector<double> tau_d(static_cast<std::size_t>(w)), work(static_cast<std::size_t>(w));
  geqr2(d.view(), tau_d.data(), work.data());

  auto r_s = extract_r(s.block(0, 0, w, w));
  auto r_d = extract_r(d.block(0, 0, w, w));
  EXPECT_LT(r_factor_difference(r_d.view(), r_s.view()), 1e-12);

  // The structured result must preserve the sparsity pattern: entries of
  // lower blocks strictly below their local diagonal stay exactly zero.
  for (idx b = 1; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = j + 1; i < w; ++i) {
        ASSERT_EQ(s(b * w + i, j), 0.0) << "block " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, StackedQrParams,
                         ::testing::Combine(::testing::Values<idx>(1, 4, 8, 16),
                                            ::testing::Values<idx>(2, 3, 4, 8)));

TEST(StackedQr, SingletonStackIsPassThrough) {
  const idx w = 8;
  auto s0 = random_triangle_stack(w, 1, 3);
  auto s = s0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w), -1.0);
  std::vector<double> scratch(1);
  stacked_geqr2(s.view(), w, 1, tau.data(), scratch.data());
  for (idx j = 0; j < w; ++j) {
    EXPECT_EQ(tau[static_cast<std::size_t>(j)], 0.0);
    for (idx i = 0; i < w; ++i) ASSERT_EQ(s(i, j), s0(i, j));
  }
}

TEST(StackedApplyQt, ReproducesCombinedRFromStack) {
  const idx w = 8, k = 4;
  auto s0 = random_triangle_stack(w, k, 31);
  auto s = s0.clone();
  std::vector<double> tau(static_cast<std::size_t>(w));
  std::vector<double> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  // Q^T applied to the original stack must give [R; 0] (structured).
  auto c = s0.clone();
  stacked_apply(s.as_const(), w, k, tau.data(), c.view(), true);
  for (idx j = 0; j < w; ++j) {
    for (idx i = 0; i < k * w; ++i) {
      const double expect = i <= j ? s(i, j) : 0.0;
      ASSERT_NEAR(c(i, j), expect, 1e-12) << i << "," << j;
    }
  }
}

TEST(StackedApplyQ, InverseOfApplyQt) {
  const idx w = 6, k = 3;
  auto s = random_triangle_stack(w, k, 41);
  std::vector<double> tau(static_cast<std::size_t>(w));
  std::vector<double> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  auto c0 = gaussian_matrix<double>(k * w, 5, 42);
  auto c = c0.clone();
  stacked_apply(s.as_const(), w, k, tau.data(), c.view(), true);
  stacked_apply(s.as_const(), w, k, tau.data(), c.view(), false);
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < k * w; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-12);
  }
}

// Structured combine must cost strictly fewer flops than a dense QR of the
// same stack — this is TSQR's sparsity saving.
TEST(StackedQr, StructuredFlopsBelowDense) {
  for (const idx w : {4, 8, 16, 32}) {
    for (const idx k : {2, 4, 8}) {
      EXPECT_LT(stacked_geqr2_flops(w, k), block_geqr2_flops(k * w, w))
          << "w=" << w << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Exact operation counting.
// ---------------------------------------------------------------------------

class FlopCountShapes : public ::testing::TestWithParam<BlockShape> {};

TEST_P(FlopCountShapes, BlockGeqr2CountIsExact) {
  const auto [h, w] = GetParam();
  auto a = counted_from(gaussian_matrix<double>(h, w, 7).view());
  std::vector<Counted> tau(static_cast<std::size_t>(w));
  const long long ops =
      count_ops([&] { block_geqr2(a.view(), tau.data()); });
  EXPECT_EQ(static_cast<double>(ops), block_geqr2_flops(h, w));
}

TEST_P(FlopCountShapes, BlockApplyQtCountIsExact) {
  const auto [h, w] = GetParam();
  auto f = counted_from(gaussian_matrix<double>(h, w, 7).view());
  std::vector<Counted> tau(static_cast<std::size_t>(w));
  block_geqr2(f.view(), tau.data());

  const idx ncols = 5;
  auto c = counted_from(gaussian_matrix<double>(h, ncols, 9).view());
  const long long ops = count_ops(
      [&] { block_apply(f.as_const(), tau.data(), c.view(), true); });
  EXPECT_EQ(static_cast<double>(ops), block_apply_qt_flops(h, w, ncols));
}

INSTANTIATE_TEST_SUITE_P(Shapes, FlopCountShapes,
                         ::testing::Values(BlockShape{16, 16}, BlockShape{64, 16},
                                           BlockShape{128, 16}, BlockShape{33, 7},
                                           BlockShape{128, 32}, BlockShape{12, 12}));

TEST(FlopCount, StackedGeqr2CountIsExact) {
  for (const idx w : {4, 8, 16}) {
    for (const idx k : {2, 4}) {
      auto s_d = random_triangle_stack(w, k, 17);
      auto s = counted_from(s_d.view());
      std::vector<Counted> tau(static_cast<std::size_t>(w));
      std::vector<Counted> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
      const long long ops = count_ops(
          [&] { stacked_geqr2(s.view(), w, k, tau.data(), scratch.data()); });
      EXPECT_EQ(static_cast<double>(ops), stacked_geqr2_flops(w, k))
          << "w=" << w << " k=" << k;
    }
  }
}

TEST(FlopCount, StackedApplyQtCountIsExact) {
  const idx w = 8, k = 4, ncols = 6;
  auto s = counted_from(random_triangle_stack(w, k, 19).view());
  std::vector<Counted> tau(static_cast<std::size_t>(w));
  std::vector<Counted> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());

  auto c = counted_from(gaussian_matrix<double>(k * w, ncols, 23).view());
  const long long ops = count_ops(
      [&] { stacked_apply(s.as_const(), w, k, tau.data(), c.view(), true); });
  EXPECT_EQ(static_cast<double>(ops), stacked_apply_qt_flops(w, k, ncols));
}

// form_q's SORGQR walk applies panel p to the qcols - min(c0, qcols) seed
// columns the identity leaves nonzero, and no others: the counting scalar
// pins the operations it performs, the device profile the flops it charges,
// both against the closed-form sum over panels.
TEST(FlopCount, FormQAppliesEachPanelToItsNonzeroColumns) {
  const idx m = 300, n = 40, qcols = 30;  // panel c0 = 0, 16, 32
  CaqrOptions opt;
  opt.panel_width = 16;
  opt.tsqr.block_rows = 64;
  ThreadPool pool(1);  // Counted::ops is a plain counter
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::Functional, &pool);
  auto f = CaqrFactorization<Counted>::factor(
      dev, counted_from(gaussian_matrix<double>(m, n, 31).view()), opt);

  double h_flops = 0, tree_flops = 0;
  for (idx c0 = 0; c0 < n; c0 += opt.panel_width) {
    const idx w = std::min(opt.panel_width, n - c0);
    const idx nc = qcols - std::min(c0, qcols);
    const auto meta = tsqr::replay_meta(m - c0, w, opt.panel_tsqr());
    for (idx b = 0; b < meta->num_blocks(); ++b) {
      const auto i = static_cast<std::size_t>(b);
      h_flops +=
          block_apply_qt_flops(meta->offsets[i + 1] - meta->offsets[i], w, nc);
    }
    for (const GroupList& groups : meta->levels) {
      for (idx g = 0; g < groups.size(); ++g) {
        tree_flops += stacked_apply_qt_flops(w, groups.group_size(g), nc);
      }
    }
  }
  const long long ops = count_ops([&] { (void)f.form_q(dev, qcols); });
  EXPECT_EQ(static_cast<double>(ops), h_flops + tree_flops);
  ASSERT_NE(dev.profile("apply_q_h"), nullptr);
  ASSERT_NE(dev.profile("apply_q_tree"), nullptr);
  EXPECT_EQ(dev.profile("apply_q_h")->flops, h_flops);
  EXPECT_EQ(dev.profile("apply_q_tree")->flops, tree_flops);
}

// The kernel structs' reported flops must equal the numeric cores' counts
// (the same functions back both, but this pins the wiring: offsets, tile
// decomposition, per-block dims).
TEST(KernelStats, FactorKernelFlopsMatchFlopFunctions) {
  auto panel = Matrix<float>::shape_only(300, 16);
  std::vector<idx> offsets = {0, 128, 300};
  std::vector<float> taus(2 * 16);
  kernels::FactorKernel<float> k{
      panel.view(), &offsets, taus.data(),
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed),
      8.0, 3.0, false};
  EXPECT_DOUBLE_EQ(k.block_stats(0).flops, block_geqr2_flops(128, 16));
  EXPECT_DOUBLE_EQ(k.block_stats(1).flops, block_geqr2_flops(172, 16));
}

TEST(KernelStats, ApplyKernelFlopsMatchTileDecomposition) {
  auto panel = Matrix<float>::shape_only(256, 16);
  auto trailing = Matrix<float>::shape_only(256, 40);  // tiles: 16, 16, 8
  std::vector<idx> offsets = {0, 128, 256};
  std::vector<float> taus(2 * 16);
  kernels::ApplyQtHKernel<float> k{
      panel.view(), &offsets, taus.data(), trailing.view(), 16,
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed),
      8.0, 3.0, false, true};
  ASSERT_EQ(k.num_blocks(), 6);
  // Block 2 of row-block 0: the ragged 8-wide tile.
  EXPECT_DOUBLE_EQ(k.block_stats(2).flops, block_apply_qt_flops(128, 16, 8));
  EXPECT_DOUBLE_EQ(k.block_stats(0).flops, block_apply_qt_flops(128, 16, 16));
}

// ---------------------------------------------------------------------------
// Cost parameterization sanity.
// ---------------------------------------------------------------------------

TEST(CostParams, VariantLadderIsMonotone) {
  using kernels::ReductionVariant;
  const auto v1 = kernels::cost_params(ReductionVariant::SmemParallelReduction);
  const auto v2 = kernels::cost_params(ReductionVariant::SmemSerialReduction);
  const auto v3 = kernels::cost_params(ReductionVariant::RegisterSerialReduction);
  const auto v4 = kernels::cost_params(ReductionVariant::RegisterSerialTransposed);
  // Each tuning step must strictly reduce the dominant cost terms.
  EXPECT_GT(v1.issue_mult, v2.issue_mult);
  EXPECT_GT(v2.smem_per_fma32, v3.smem_per_fma32);
  EXPECT_GT(v3.smem_per_fma32, v4.smem_per_fma32);
}

TEST(CostParams, VariantNames) {
  using kernels::ReductionVariant;
  EXPECT_STREQ(kernels::variant_name(ReductionVariant::RegisterSerialTransposed),
               "register_serial_transposed");
  EXPECT_STREQ(kernels::variant_name(ReductionVariant::SmemParallelReduction),
               "smem_parallel_reduction");
}

// ---------------------------------------------------------------------------
// Contiguity staging: FactorKernel / ApplyQtHKernel stage strided tall-panel
// tiles into contiguous arena buffers before the reflector sweeps. The
// staged path must be BIT-identical to running the numerical core directly
// on the strided view — same scalar operations, same order — including on
// ill-scaled data that trips the xLARFG rescue path.
// ---------------------------------------------------------------------------

template <typename T>
Matrix<T> scaled_panel(idx m, idx n, int seed, double scale) {
  auto a = gaussian_matrix<T>(m, n, seed);
  for (idx j = 0; j < n; ++j) {
    // Alternate extreme column scalings: underflow-adjacent, 1, overflow-
    // adjacent — the stress sweep's 1e±300 shapes.
    const double s = j % 3 == 0 ? scale : (j % 3 == 1 ? 1.0 : 1.0 / scale);
    for (idx i = 0; i < m; ++i) {
      a(i, j) = static_cast<T>(static_cast<double>(a(i, j)) * s);
    }
  }
  return a;
}

TEST(StagedKernels, FactorBitIdenticalToUnstagedOnStridedPanel) {
  for (const double scale : {1.0, 1e300, 1e-300}) {
    const idx m = 256, w = 12;
    auto panel = scaled_panel<double>(m, w, 7, scale);
    auto ref = Matrix<double>::from(panel.view().as_const());

    const std::vector<idx> offsets = {0, 64, 128, 192, m};
    std::vector<double> taus(4 * static_cast<std::size_t>(w), 0.0);
    kernels::FactorKernel<double> k{panel.view(), &offsets, taus.data(),
                                    kernels::cost_params(
                                        kernels::ReductionVariant::
                                            RegisterSerialTransposed),
                                    8.0, 1.0};
    for (idx b = 0; b < k.num_blocks(); ++b) k.run_block(b);  // staged path

    // Reference: the reference loops on each strided block view.
    std::vector<double> rtaus(4 * static_cast<std::size_t>(w), 0.0);
    for (idx b = 0; b < 4; ++b) {
      const idx r0 = offsets[static_cast<std::size_t>(b)];
      const idx h = offsets[static_cast<std::size_t>(b) + 1] - r0;
      kernels::ref::block_geqr2(ref.view().block(r0, 0, h, w),
                                rtaus.data() + b * w);
    }
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i < m; ++i) {
        ASSERT_EQ(panel(i, j), ref(i, j))
            << "scale " << scale << " at (" << i << "," << j << ")";
      }
    }
    for (std::size_t t = 0; t < taus.size(); ++t) {
      ASSERT_EQ(taus[t], rtaus[t]) << "tau " << t << " scale " << scale;
    }
  }
}

TEST(StagedKernels, ApplyQtBitIdenticalToUnstagedOnStridedTrailing) {
  for (const double scale : {1.0, 1e300, 1e-300}) {
    const idx m = 192, w = 8, nc = 20;
    auto panel = scaled_panel<double>(m, w, 11, scale);
    const std::vector<idx> offsets = {0, 96, m};
    std::vector<double> taus(2 * static_cast<std::size_t>(w), 0.0);
    kernels::FactorKernel<double> fk{panel.view(), &offsets, taus.data(),
                                     kernels::cost_params(
                                         kernels::ReductionVariant::
                                             RegisterSerialTransposed),
                                     8.0, 1.0};
    for (idx b = 0; b < fk.num_blocks(); ++b) fk.run_block(b);

    auto trailing = scaled_panel<double>(m, nc, 13, scale);
    auto ref = Matrix<double>::from(trailing.view().as_const());

    kernels::ApplyQtHKernel<double> ak{panel.view().as_const(), &offsets,
                                       taus.data(), trailing.view(), 16,
                                       kernels::cost_params(
                                           kernels::ReductionVariant::
                                               RegisterSerialTransposed),
                                       8.0, 1.0, false, true};
    for (idx b = 0; b < ak.num_blocks(); ++b) ak.run_block(b);  // staged

    // Reference: the reference loops on the strided views, same tiles.
    for (idx b = 0; b < 2; ++b) {
      const idx r0 = offsets[static_cast<std::size_t>(b)];
      const idx h = offsets[static_cast<std::size_t>(b) + 1] - r0;
      for (idx c0 = 0; c0 < nc; c0 += 16) {
        const idx tc = std::min<idx>(16, nc - c0);
        kernels::ref::block_apply(panel.view().as_const().block(r0, 0, h, w),
                                  taus.data() + b * w,
                                  ref.view().block(r0, c0, h, tc), true);
      }
    }
    for (idx j = 0; j < nc; ++j) {
      for (idx i = 0; i < m; ++i) {
        ASSERT_EQ(trailing(i, j), ref(i, j))
            << "scale " << scale << " at (" << i << "," << j << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Vectorized float/double cores vs the reference loops, at every ISA level
// the host supports: every element and every tau must match bit for bit,
// over ragged sizes (chunk tails, single rows and columns), zero-tail
// columns (tau == 0) and the 1e+-300 (1e+-30 for float) scalings that trip
// the xLARFG rescue path.
// ---------------------------------------------------------------------------

using kernels::simd::Isa;

template <typename T>
auto bits(T x) {
  using U = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  return std::bit_cast<U>(x);
}

template <typename T>
void expect_same_bits(ConstMatrixView<T> got, ConstMatrixView<T> want,
                      const T* tau_got, const T* tau_want, idx ntau) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (idx j = 0; j < got.cols(); ++j) {
    for (idx i = 0; i < got.rows(); ++i) {
      ASSERT_EQ(bits(got(i, j)), bits(want(i, j))) << "(" << i << "," << j << ")";
    }
  }
  for (idx j = 0; j < ntau; ++j) {
    ASSERT_EQ(bits(tau_got[j]), bits(tau_want[j])) << "tau " << j;
  }
}

enum class Input { Gaussian, Huge, Tiny, ZeroTail };
constexpr Input kInputs[] = {Input::Gaussian, Input::Huge, Input::Tiny,
                             Input::ZeroTail};

template <typename T>
double extreme_scale() {
  return std::is_same_v<T, float> ? 1e30 : 1e300;
}

// m x n input embedded at row 1 of an (m + 3)-row matrix, so the kernels see
// a strided view (ld > rows).
template <typename T>
Matrix<T> vector_test_input(idx m, idx n, int seed, Input kind) {
  const double scale = kind == Input::Huge   ? extreme_scale<T>()
                       : kind == Input::Tiny ? 1.0 / extreme_scale<T>()
                                             : 1.0;
  auto a = scaled_panel<T>(m + 3, n, seed, scale);
  if (kind == Input::ZeroTail) {
    // Column 0 has a zero tail below the pivot (tau == 0 at once); the
    // last column is zero outright, so its reflector is the identity too.
    for (idx i = 2; i < m + 3; ++i) a(i, 0) = T(0);
    for (idx i = 0; i < m + 3; ++i) a(i, n - 1) = T(0);
  }
  return a;
}

// Column counts whose staged tiles end in a 4-, 8- and 16-lane tail chunk,
// alone and after a full chunk.
constexpr idx kTileCols[] = {1, 4, 7, 13, 16, 20, 24, 29};

// Runs every test at each ISA level; levels the host lacks are skipped.
class VectorKernels : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!kernels::simd::supports(GetParam())) {
      GTEST_SKIP() << "host lacks " << kernels::simd::isa_name(GetParam());
    }
  }
};

INSTANTIATE_TEST_SUITE_P(, VectorKernels,
                         ::testing::ValuesIn(kernels::simd::kIsas),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(kernels::simd::isa_name(info.param));
                         });

// simd::block_apply at `isa` vs ref::block_apply on a strided copy of c.
template <typename T>
void expect_apply_matches_reference(Isa isa, ConstMatrixView<T> v,
                                    const T* tau, idx nc, int seed, Input kind) {
  const idx h = v.rows();
  for (const bool transpose_q : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "nc=" << nc << " qt=" << transpose_q);
    auto c = vector_test_input<T>(h, nc, seed, kind);
    auto c_ref = Matrix<T>::from(c.view().as_const());
    kernels::simd::block_apply(isa, v, tau, c.view().block(1, 0, h, nc),
                               transpose_q);
    kernels::ref::block_apply(v, tau, c_ref.view().block(1, 0, h, nc),
                              transpose_q);
    expect_same_bits<T>(c.view(), c_ref.view(), nullptr, nullptr, 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

template <typename T>
void block_kernels_match_reference(Isa isa) {
  for (const idx w : {1, 4, 16, 17}) {
    for (const idx h : {idx{1}, idx{2}, w - 1, w, idx{128}, idx{257}}) {
      if (h < 1) continue;
      for (const Input kind : kInputs) {
        SCOPED_TRACE(::testing::Message() << "h=" << h << " w=" << w
                                          << " input=" << static_cast<int>(kind));
        auto a = vector_test_input<T>(h, w, 3, kind);
        auto a_ref = Matrix<T>::from(a.view().as_const());
        std::vector<T> tau(static_cast<std::size_t>(w), T(-1));
        std::vector<T> tau_ref(tau);
        kernels::simd::block_geqr2(isa, a.view().block(1, 0, h, w), tau.data());
        kernels::ref::block_geqr2(a_ref.view().block(1, 0, h, w), tau_ref.data());
        expect_same_bits<T>(a.view(), a_ref.view(), tau.data(), tau_ref.data(),
                            std::min(h, w));
        if (::testing::Test::HasFatalFailure()) return;

        const auto v = a_ref.view().as_const().block(1, 0, h, w);
        for (const idx nc : kTileCols) {
          expect_apply_matches_reference<T>(isa, v, tau_ref.data(), nc, 5, kind);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_P(VectorKernels, BlockGeqr2AndApplyBitIdenticalToReferenceF32) {
  block_kernels_match_reference<float>(GetParam());
}

TEST_P(VectorKernels, BlockGeqr2AndApplyBitIdenticalToReferenceF64) {
  block_kernels_match_reference<double>(GetParam());
}

// The fused sweep of block_apply pairs each applied reflector with the next
// one whose tau is nonzero. Zero taus at either end, alone and in runs in
// the middle, in both directions; h <= w, where the last reflector has
// length 1 (given a nonzero tau here, which the reference applies to the
// pivot alone).
template <typename T>
void fused_sweep_matches_reference(Isa isa) {
  for (const idx w : {3, 8, 16}) {
    for (const idx h : {w - 2, w, w + 5, idx{130}}) {
      auto a = vector_test_input<T>(h, w, 11, Input::Gaussian);
      const auto v = a.view().block(1, 0, h, w);
      std::vector<T> tau0(static_cast<std::size_t>(w));
      kernels::ref::block_geqr2(v, tau0.data());
      const idx kmax = std::min(h, w);
      const idx mid = kmax / 2;
      const std::function<bool(idx)> zero_patterns[] = {
          [](idx) { return false; },
          [](idx j) { return j == 0; },
          [&](idx j) { return j == kmax - 1; },
          [&](idx j) { return j == mid; },
          [&](idx j) { return j == mid || j == mid + 1; },
          [](idx j) { return j % 2 == 1; },
          [&](idx j) { return j != mid; },
          [](idx) { return true; },
      };
      for (std::size_t p = 0; p < std::size(zero_patterns); ++p) {
        SCOPED_TRACE(::testing::Message() << "h=" << h << " w=" << w
                                          << " zero pattern " << p);
        std::vector<T> tau(tau0);
        tau[static_cast<std::size_t>(kmax - 1)] = T(0.75);
        for (idx j = 0; j < kmax; ++j) {
          if (zero_patterns[p](j)) tau[static_cast<std::size_t>(j)] = T(0);
        }
        for (const idx nc : kTileCols) {
          expect_apply_matches_reference<T>(isa, v.as_const(), tau.data(), nc,
                                            13, Input::Gaussian);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_P(VectorKernels, FusedSweepZeroTausAndShortReflectorsF32) {
  fused_sweep_matches_reference<float>(GetParam());
}

TEST_P(VectorKernels, FusedSweepZeroTausAndShortReflectorsF64) {
  fused_sweep_matches_reference<double>(GetParam());
}

// k stacked w x w upper triangles, with the Input's scaling and zero tails.
template <typename T>
Matrix<T> triangle_stack(idx w, idx k, int seed, Input kind) {
  auto full = vector_test_input<T>(k * w, w, seed, kind);
  auto s = Matrix<T>::zeros(k * w, w);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) s(b * w + i, j) = full(1 + b * w + i, j);
    }
  }
  if (kind == Input::ZeroTail) {
    for (idx b = 1; b < k; ++b) s(b * w, 0) = T(0);  // column 0: tau == 0
  }
  return s;
}

template <typename T>
void stacked_kernels_match_reference(Isa isa) {
  for (const idx w : {1, 4, 16, 17}) {
    for (const idx k : {2, 4, 8}) {
      for (const Input kind : kInputs) {
        SCOPED_TRACE(::testing::Message() << "w=" << w << " k=" << k
                                          << " input=" << static_cast<int>(kind));
        auto s = triangle_stack<T>(w, k, 7, kind);
        auto s_ref = Matrix<T>::from(s.view().as_const());
        std::vector<T> tau(static_cast<std::size_t>(w), T(-1));
        std::vector<T> tau_ref(tau);
        std::vector<T> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
        kernels::simd::stacked_geqr2(isa, s.view(), w, k, tau.data(),
                                     scratch.data());
        kernels::ref::stacked_geqr2(s_ref.view(), w, k, tau_ref.data(),
                                    scratch.data());
        expect_same_bits<T>(s.view(), s_ref.view(), tau.data(), tau_ref.data(), w);
        if (::testing::Test::HasFatalFailure()) return;

        for (const idx nc : {1, 4, 16, 20}) {
          for (const bool transpose_q : {true, false}) {
            SCOPED_TRACE(::testing::Message() << "nc=" << nc << " qt=" << transpose_q);
            auto c = vector_test_input<T>(k * w, nc, 9, kind);
            auto c_ref = Matrix<T>::from(c.view().as_const());
            kernels::simd::stacked_apply(isa, s_ref.as_const(), w, k,
                                         tau_ref.data(),
                                         c.view().block(1, 0, k * w, nc),
                                         transpose_q);
            kernels::ref::stacked_apply(s_ref.as_const(), w, k, tau_ref.data(),
                                        c_ref.view().block(1, 0, k * w, nc),
                                        transpose_q);
            expect_same_bits<T>(c.view(), c_ref.view(), nullptr, nullptr, 0);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST_P(VectorKernels, StackedGeqr2AndApplyBitIdenticalToReferenceF32) {
  stacked_kernels_match_reference<float>(GetParam());
}

TEST_P(VectorKernels, StackedGeqr2AndApplyBitIdenticalToReferenceF64) {
  stacked_kernels_match_reference<double>(GetParam());
}

// The zero-tail inputs above must really produce identity reflectors.
TEST_P(VectorKernels, ZeroTailInputsGiveZeroTau) {
  auto a = vector_test_input<double>(16, 4, 3, Input::ZeroTail);
  std::vector<double> tau(4);
  kernels::simd::block_geqr2(GetParam(), a.view().block(1, 0, 16, 4),
                             tau.data());
  EXPECT_EQ(tau[0], 0.0);
  EXPECT_EQ(tau[3], 0.0);
  auto s = triangle_stack<float>(4, 2, 7, Input::ZeroTail);
  std::vector<float> stau(4), scratch(5);
  kernels::simd::stacked_geqr2(GetParam(), s.view(), 4, 2, stau.data(),
                               scratch.data());
  EXPECT_EQ(stau[0], 0.0f);
}

// ---------------------------------------------------------------------------
// Staging: the register-transpose moves between a column-major view and the
// row-major tile, against frozen copies of the element loops they replaced.
// The tile (padding lanes included) and the view written back must match
// those loops byte for byte, and nothing outside either may change.
// ---------------------------------------------------------------------------

// The element loops of simd::on_rows before the register transposes.
template <typename T>
void frozen_stage(ConstMatrixView<T> c, T* t, idx ld) {
  for (idx i = 0; i < c.rows(); ++i) {
    for (idx j = c.cols(); j < ld; ++j) t[i * ld + j] = T(0);
  }
  for (idx j = 0; j < c.cols(); ++j) {
    const T* src = c.col(j);
    for (idx i = 0; i < c.rows(); ++i) t[i * ld + j] = src[i];
  }
}

template <typename T>
void frozen_unstage(const T* t, idx ld, MatrixView<T> c) {
  for (idx j = 0; j < c.cols(); ++j) {
    T* dst = c.col(j);
    for (idx i = 0; i < c.rows(); ++i) dst[i] = t[i * ld + j];
  }
}

// Random bit patterns, NaN payloads and subnormals included: staging must
// move bits, not values.
template <typename T>
void fill_random_bits(T* p, idx n, std::uint64_t seed) {
  using U = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  Rng rng(seed);
  for (idx i = 0; i < n; ++i) {
    const U u = static_cast<U>(rng.next_u64());
    std::memcpy(p + i, &u, sizeof(T));
  }
}

template <typename T>
bool same_bytes(const T* a, const T* b, idx n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(T)) == 0;
}

constexpr idx kStageRows[] = {1, 7, 8, 9, 127, 128, 129, 255};

std::vector<idx> stage_cols() {
  std::vector<idx> cols;
  for (idx c = 1; c <= 17; ++c) cols.push_back(c);
  cols.push_back(32);
  return cols;
}

// One shape at level `isa`: stage_rows / unstage_rows and the arena-backed
// on_rows round trip, each against the frozen loops. The view sits at row
// 2 of a taller matrix when `strided` (ld > rows), at row 0 of an exact
// one otherwise. Returns a description of the first mismatch, or "".
template <typename T>
std::string staging_mismatch(Isa isa, idx rows, idx cols, bool strided,
                             std::uint64_t seed) {
  const idx pad = strided ? 5 : 0, r0 = strided ? 2 : 0;
  const idx ld = kernels::simd::tile_ld(cols);
  const idx tile = rows * ld, guard = 64;
  const auto where = [&](const char* what) {
    return std::string(what) + " rows=" + std::to_string(rows) +
           " cols=" + std::to_string(cols) + " strided=" +
           std::to_string(strided);
  };
  Matrix<T> src(rows + pad, cols);
  fill_random_bits(src.data(), (rows + pad) * cols, seed);
  const auto view = src.view().block(r0, 0, rows, cols);

  // Into the tile; the guard past it must keep its bytes.
  std::vector<T> got(static_cast<std::size_t>(tile + guard));
  std::vector<T> want(got.size());
  fill_random_bits(got.data(), tile + guard, seed + 1);
  want = got;
  kernels::simd::stage_rows(isa, view.as_const(), got.data(), ld);
  frozen_stage(view.as_const(), want.data(), ld);
  if (!same_bytes(got.data(), want.data(), tile + guard)) return where("stage");

  // Back from a tile of random bits; rows outside the view keep theirs.
  std::vector<T> t(static_cast<std::size_t>(tile));
  fill_random_bits(t.data(), tile, seed + 2);
  auto back = Matrix<T>::from(src.view().as_const());
  auto back_want = Matrix<T>::from(src.view().as_const());
  kernels::simd::unstage_rows(isa, t.data(), ld,
                              back.view().block(r0, 0, rows, cols));
  frozen_unstage(t.data(), ld, back_want.view().block(r0, 0, rows, cols));
  if (!same_bytes(back.data(), back_want.data(), (rows + pad) * cols)) {
    return where("unstage");
  }

  // on_rows in the calling thread's arena: the tile fn sees, then a
  // rewritten tile going back.
  auto round = Matrix<T>::from(src.view().as_const());
  auto round_want = Matrix<T>::from(src.view().as_const());
  std::string err;
  kernels::simd::run_at(isa, [&]<Isa I>() {
    kernels::simd::on_rows<I>(
        round.view().block(r0, 0, rows, cols), [&](T* staged, idx sld) {
          if (sld != ld || !same_bytes(staged, want.data(), tile)) {
            err = where("on_rows stage");
          }
          std::memcpy(staged, t.data(), static_cast<std::size_t>(tile) * sizeof(T));
        });
  });
  if (!err.empty()) return err;
  frozen_unstage(t.data(), ld, round_want.view().block(r0, 0, rows, cols));
  if (!same_bytes(round.data(), round_want.data(), (rows + pad) * cols)) {
    return where("on_rows unstage");
  }
  return "";
}

class Staging : public VectorKernels {};

INSTANTIATE_TEST_SUITE_P(, Staging, ::testing::ValuesIn(kernels::simd::kIsas),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(kernels::simd::isa_name(info.param));
                         });

template <typename T>
void staging_matches_frozen_loops(Isa isa) {
  std::uint64_t seed = 1;
  for (const idx rows : kStageRows) {
    for (const idx cols : stage_cols()) {
      for (const bool strided : {true, false}) {
        const std::string err =
            staging_mismatch<T>(isa, rows, cols, strided, seed++);
        ASSERT_EQ(err, "");
      }
    }
  }
}

TEST_P(Staging, MatchesFrozenLoopsF32) {
  staging_matches_frozen_loops<float>(GetParam());
}

TEST_P(Staging, MatchesFrozenLoopsF64) {
  staging_matches_frozen_loops<double>(GetParam());
}

// The same checks from the items of a 4-thread pool at once, as two serve
// workers run the kernels: each item stages through its own thread's arena.
TEST_P(Staging, MatchesFrozenLoopsFromPoolItems) {
  const Isa isa = GetParam();
  const std::vector<idx> cols = stage_cols();
  const std::size_t shapes = std::size(kStageRows) * cols.size();
  std::vector<std::string> errs(2 * shapes);
  ThreadPool four(4);
  four.parallel_for(errs.size(), [&](std::size_t i) {
    const std::size_t s = i % shapes;
    const idx rows = kStageRows[s / cols.size()];
    const idx c = cols[s % cols.size()];
    errs[i] = i < shapes
                  ? staging_mismatch<float>(isa, rows, c, true, 1000 + i)
                  : staging_mismatch<double>(isa, rows, c, true, 1000 + i);
  });
  for (const std::string& e : errs) ASSERT_EQ(e, "");
}

// ---------------------------------------------------------------------------
// Tree kernels: FactorTreeKernel and ApplyQtTreeKernel gather their row
// groups straight into the staged tile. Frozen copies of the old run_block
// bodies (gather into a column-major stack, the stacked core, scatter back)
// must give the same bits, on uneven groups, singletons and ragged tiles.
// ---------------------------------------------------------------------------

template <typename T>
void frozen_factor_tree_block(MatrixView<T> panel, std::span<const idx> rows,
                              T* tau) {
  const idx k = static_cast<idx>(rows.size()), w = panel.cols();
  if (k < 2) return;
  Matrix<T> stack(k * w, w);
  for (idx b = 0; b < k; ++b) {
    stack.block(b * w, 0, w, w)
        .copy_from(panel.as_const().block(rows[static_cast<std::size_t>(b)], 0, w, w));
  }
  std::vector<T> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  kernels::stacked_geqr2(stack.view(), w, k, tau, scratch.data());
  for (idx b = 0; b < k; ++b) {
    panel.block(rows[static_cast<std::size_t>(b)], 0, w, w)
        .copy_from(stack.view().as_const().block(b * w, 0, w, w));
  }
}

template <typename T>
void frozen_apply_tree_block(ConstMatrixView<T> panel,
                             std::span<const idx> rows, const T* tau,
                             MatrixView<T> trailing, idx c0, idx nc,
                             bool transpose_q) {
  const idx k = static_cast<idx>(rows.size()), w = panel.cols();
  if (k < 2) return;
  Matrix<T> u(k * w, w), c(k * w, nc);
  for (idx b = 0; b < k; ++b) {
    const idx r = rows[static_cast<std::size_t>(b)];
    u.block(b * w, 0, w, w).copy_from(panel.block(r, 0, w, w));
    c.block(b * w, 0, w, nc).copy_from(trailing.as_const().block(r, c0, w, nc));
  }
  kernels::stacked_apply(u.as_const(), w, k, tau, c.view(), transpose_q);
  for (idx b = 0; b < k; ++b) {
    trailing.block(rows[static_cast<std::size_t>(b)], c0, w, nc)
        .copy_from(c.as_const().block(b * w, 0, w, nc));
  }
}

template <typename T>
void tree_kernels_match_frozen_gather() {
  const auto cost =
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed);
  for (const idx w : {5, 16}) {
    SCOPED_TRACE(::testing::Message() << "w=" << w);
    // Row blocks of 32 and one of 40; groups of 3, 4 and 1 (a singleton
    // passes through), their triangles at uneven row offsets.
    const std::vector<idx> offsets = {0, 32, 64, 96, 128, 160, 192, 224, 264};
    const idx m = offsets.back(), nb = static_cast<idx>(offsets.size()) - 1;
    GroupList groups;
    groups.push_group({0, 32, 64});
    groups.push_group({96, 128, 160, 192});
    groups.push_group({224});
    auto panel = gaussian_matrix<T>(m, w, 21);
    std::vector<T> taus(static_cast<std::size_t>(nb * w));
    kernels::FactorKernel<T> f{panel.view(), &offsets, taus.data(), cost};
    for (idx b = 0; b < nb; ++b) f.run_block(b);

    auto frozen = Matrix<T>::from(panel.view().as_const());
    std::vector<T> tt(static_cast<std::size_t>(groups.size() * w), T(-1));
    std::vector<T> tt_frozen(tt);
    kernels::FactorTreeKernel<T> ft{panel.view(), &groups, tt.data(), cost};
    for (idx g = 0; g < groups.size(); ++g) {
      ft.run_block(g);
      frozen_factor_tree_block(frozen.view(), groups[g], tt_frozen.data() + g * w);
    }
    ASSERT_TRUE(same_bytes(panel.data(), frozen.data(), m * w));
    ASSERT_TRUE(same_bytes(tt.data(), tt_frozen.data(), groups.size() * w));

    for (const idx n : {idx{16}, idx{20}, idx{3}}) {
      for (const bool transpose_q : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " qt=" << transpose_q);
        auto c = gaussian_matrix<T>(m, n, 22);
        auto c_frozen = Matrix<T>::from(c.view().as_const());
        kernels::ApplyQtTreeKernel<T> k{panel.as_const(), &groups, tt.data(),
                                        c.view(), 16, cost};
        k.transpose_q = transpose_q;
        for (idx b = 0; b < k.num_blocks(); ++b) {
          k.run_block(b);
          const idx g = b / k.num_col_tiles();
          const idx c0 = (b % k.num_col_tiles()) * 16;
          frozen_apply_tree_block(frozen.as_const(), groups[g],
                                  tt_frozen.data() + g * w, c_frozen.view(),
                                  c0, std::min<idx>(16, n - c0), transpose_q);
        }
        ASSERT_TRUE(same_bytes(c.data(), c_frozen.data(), m * n));
      }
    }
  }
}

TEST(TreeKernelStaging, MatchesFrozenGatherPathF32) {
  tree_kernels_match_frozen_gather<float>();
}

TEST(TreeKernelStaging, MatchesFrozenGatherPathF64) {
  tree_kernels_match_frozen_gather<double>();
}

// The unqualified entry points run at the best level the CPU reports.
TEST(VectorKernelDispatch, PicksTheBestLevelTheHostSupports) {
  Isa best = Isa::Sse2;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) best = Isa::Avx2;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512dq")) {
    best = Isa::Avx512;
  }
#endif
  EXPECT_EQ(kernels::simd::active_isa(), best)
      << kernels::simd::isa_name(kernels::simd::active_isa());
}

}  // namespace
}  // namespace caqr
