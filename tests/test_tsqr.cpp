// Tests for TSQR: factorization invariants across shapes, tree arities and
// reduction variants; equivalence with the reference QR; apply/form-Q
// consistency; tree structure properties; timing sanity; bit-identity of
// the span launch sequences against solo runs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gpusim/device.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;
using tsqr::split_rows;
using tsqr::TsqrOptions;

TEST(SplitRows, BlocksCoverRangeAndRespectMinimum) {
  // 1000 rows, blocks of 128: 7 blocks, last absorbs the remainder.
  auto off = split_rows(1000, 128, 16);
  ASSERT_EQ(off.size(), 8u);
  EXPECT_EQ(off.front(), 0);
  EXPECT_EQ(off.back(), 1000);
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {
    EXPECT_GE(off[i + 1] - off[i], 16);
    EXPECT_LT(off[i + 1] - off[i], 2 * 128);
  }
  // Fewer rows than a block: single block.
  auto one = split_rows(100, 128, 16);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[1], 100);
  // Exactly one block.
  auto exact = split_rows(128, 128, 16);
  ASSERT_EQ(exact.size(), 2u);
}

struct TsqrCase {
  idx m, n, block_rows, arity;
};

class TsqrShapes : public ::testing::TestWithParam<TsqrCase> {};

TEST_P(TsqrShapes, FactorizationInvariants) {
  const auto [m, n, h, arity] = GetParam();
  TsqrOptions opt;
  opt.block_rows = h;
  opt.arity = arity;

  auto a = gaussian_matrix<double>(m, n, 97);
  Device dev;
  auto f = tsqr::tsqr(dev, a.view(), opt);

  // R upper triangular and matches the reference factorization up to signs.
  auto r = f.r();
  auto ref = a.clone();
  std::vector<double> tau(static_cast<std::size_t>(n));
  geqrf(ref.view(), tau.data());
  auto r_ref = extract_r(ref.block(0, 0, std::min(m, n), n));
  EXPECT_LT(r_factor_difference(r_ref.view(), r.view()), 1e-11);

  // Q orthonormal, A = Q R.
  auto q = f.form_q(dev, opt);
  EXPECT_LT(orthogonality_error(q.view()), 1e-12 * std::sqrt(double(n)) * 50);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), 1e-13 * 100);

  // Simulated time advanced.
  EXPECT_GT(dev.elapsed_seconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TsqrShapes,
    ::testing::Values(TsqrCase{64, 16, 64, 0},      // single block
                      TsqrCase{256, 16, 64, 0},     // quad tree, one level
                      TsqrCase{1024, 16, 64, 0},    // quad tree, two levels
                      TsqrCase{1000, 16, 64, 0},    // ragged tail block
                      TsqrCase{1024, 16, 64, 2},    // binary tree
                      TsqrCase{1024, 16, 64, 8},    // wide tree
                      TsqrCase{1024, 16, 64, 64},   // flat tree (one combine)
                      TsqrCase{512, 8, 128, 0},     // arity 16
                      TsqrCase{333, 5, 32, 3},      // odd everything
                      TsqrCase{2048, 32, 128, 4},   // wider panel
                      TsqrCase{16, 16, 64, 0}));    // square, single block

TEST(Tsqr, ApplyQtToOriginalGivesR) {
  const idx m = 512, n = 16;
  auto a = gaussian_matrix<double>(m, n, 3);
  Device dev;
  TsqrOptions opt;
  opt.block_rows = 64;
  auto f = tsqr::tsqr(dev, a.view(), opt);

  auto c = a.clone();
  tsqr::tsqr_apply(dev, gpusim::kDefaultStream, f.storage.view(), f.meta,
                   c.view(), opt, /*transpose_q=*/true);
  auto r = f.r();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      const double expect = i <= j ? r(i, j) : 0.0;
      ASSERT_NEAR(c(i, j), expect, 1e-11) << i << "," << j;
    }
  }
}

TEST(Tsqr, ApplyQThenQtIsIdentity) {
  const idx m = 700, n = 12;
  auto a = gaussian_matrix<double>(m, n, 4);
  Device dev;
  TsqrOptions opt;
  opt.block_rows = 96;
  auto f = tsqr::tsqr(dev, a.view(), opt);

  auto c0 = gaussian_matrix<double>(m, 9, 5);
  auto c = c0.clone();
  tsqr::tsqr_apply(dev, gpusim::kDefaultStream, f.storage.view(), f.meta,
                   c.view(), opt, /*transpose_q=*/true);
  tsqr::tsqr_apply(dev, gpusim::kDefaultStream, f.storage.view(), f.meta,
                   c.view(), opt, /*transpose_q=*/false);
  for (idx j = 0; j < 9; ++j) {
    for (idx i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), c0(i, j), 1e-11);
  }
}

TEST(Tsqr, RIndependentOfTreeShape) {
  const idx m = 2048, n = 16;
  auto a = gaussian_matrix<double>(m, n, 7);
  Device dev;

  Matrix<double> r_prev;
  bool first = true;
  for (const idx arity : {2, 4, 8, 32}) {
    TsqrOptions opt;
    opt.block_rows = 64;
    opt.arity = arity;
    auto f = tsqr::tsqr(dev, a.view(), opt);
    auto r = f.r();
    if (!first) {
      EXPECT_LT(r_factor_difference(r_prev.view(), r.view()), 1e-11)
          << "arity " << arity;
    }
    r_prev = std::move(r);
    first = false;
  }
}

TEST(Tsqr, LevelCountMatchesTreeArity) {
  // 4096 rows, 64-row blocks => 64 leaves.
  auto a = gaussian_matrix<double>(4096, 16, 9);
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);

  auto levels_for = [&](idx arity) {
    TsqrOptions opt;
    opt.block_rows = 64;
    opt.arity = arity;
    auto f = tsqr::tsqr(dev, a.view(), opt);
    return static_cast<std::size_t>(f.meta.num_levels());
  };
  EXPECT_EQ(levels_for(2), 6u);   // log2(64)
  EXPECT_EQ(levels_for(4), 3u);   // log4(64)
  EXPECT_EQ(levels_for(8), 2u);
  EXPECT_EQ(levels_for(64), 1u);  // flat
}

TEST(Tsqr, DefaultArityIsBlockRowsOverWidth) {
  TsqrOptions opt;
  opt.block_rows = 64;
  EXPECT_EQ(opt.effective_arity(16), 4);  // the paper's quad tree
  EXPECT_EQ(opt.effective_arity(8), 8);
  EXPECT_EQ(opt.effective_arity(64), 2);  // floor at binary
  opt.arity = 3;
  EXPECT_EQ(opt.effective_arity(16), 3);  // explicit override wins
}

TEST(Tsqr, FloatPrecisionInvariants) {
  const idx m = 4096, n = 16;
  auto a = gaussian_matrix<float>(m, n, 13);
  Device dev;
  TsqrOptions opt;
  opt.block_rows = 128;
  auto f = tsqr::tsqr(dev, a.view(), opt);
  auto q = f.form_q(dev, opt);
  auto r = f.r();
  EXPECT_LT(orthogonality_error(q.view()), 5e-5);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), 5e-5);
}

TEST(Tsqr, IllConditionedStability) {
  // TSQR is Householder-based: must stay backward stable where CholeskyQR
  // would fail (cond ~ 1e8 in double).
  auto a = matrix_with_condition<double>(1024, 12, 1e8, 15);
  Device dev;
  TsqrOptions opt;
  opt.block_rows = 64;
  auto f = tsqr::tsqr(dev, a.view(), opt);
  auto q = f.form_q(dev, opt);
  EXPECT_LT(orthogonality_error(q.view()), 1e-12);
}

TEST(Tsqr, DeterministicAcrossThreadPools) {
  auto a = gaussian_matrix<double>(1024, 16, 17);
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    Device dev(GpuMachineModel::c2050(), ExecMode::Functional, &pool);
    TsqrOptions opt;
    opt.block_rows = 64;
    auto f = tsqr::tsqr(dev, a.view(), opt);
    return std::move(f.storage);
  };
  auto s1 = run(1);
  auto s4 = run(4);
  for (idx j = 0; j < s1.cols(); ++j) {
    for (idx i = 0; i < s1.rows(); ++i) {
      ASSERT_EQ(s1(i, j), s4(i, j)) << i << "," << j;  // bitwise
    }
  }
}

TEST(Tsqr, KernelProfilesRecorded) {
  auto a = gaussian_matrix<double>(1024, 16, 19);
  Device dev;
  TsqrOptions opt;
  opt.block_rows = 64;
  auto f = tsqr::tsqr(dev, a.view(), opt);
  (void)f;
  EXPECT_NE(dev.profile("factor"), nullptr);
  EXPECT_NE(dev.profile("factor_tree"), nullptr);
  EXPECT_NE(dev.profile("transpose"), nullptr);  // transposed_panels default
  const auto* fp = dev.profile("factor");
  EXPECT_EQ(fp->launches, 1);
  EXPECT_EQ(fp->blocks, 16);  // 1024 / 64
}

TEST(Tsqr, QuadTreeBeatsBinaryOnSimulatedTime) {
  // The paper's motivation for the quad tree: fewer levels => fewer kernel
  // launches and latency-bound top-of-tree steps.
  auto a = gaussian_matrix<float>(65536, 16, 23);
  auto time_for = [&](idx arity) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    TsqrOptions opt;
    opt.block_rows = 64;
    opt.arity = arity;
    auto f = tsqr::tsqr(dev, a.view(), opt);
    (void)f;
    return dev.elapsed_seconds();
  };
  EXPECT_LT(time_for(4), time_for(2));
}


// ------------------------------------------------- span launch sequences

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.view().col(j), b.view().col(j),
                    static_cast<std::size_t>(a.rows()) * sizeof(T)) != 0) {
      return false;
    }
  }
  return true;
}

// Three same-shape panels through the span entries reproduce three solo
// tsqr_factor + tsqr_apply runs bit for bit: every panel, every tau, and
// every target after Q^T and again after Q, zero-column targets included.
TEST(TsqrSpan, MatchesSoloRunsBitwise) {
  const idx m = 700, n = 12;
  const std::size_t k = 3;
  TsqrOptions opt;
  opt.block_rows = 96;
  opt.arity = 2;
  for (const idx ccols : {idx{5}, idx{0}}) {
    SCOPED_TRACE(ccols);
    std::vector<Matrix<double>> solo_a, span_a, solo_c, span_c;
    for (std::size_t i = 0; i < k; ++i) {
      const int seed = 40 + static_cast<int>(i);
      solo_a.push_back(gaussian_matrix<double>(m, n, seed));
      span_a.push_back(solo_a.back().clone());
      solo_c.push_back(gaussian_matrix<double>(m, ccols, seed + 10));
      span_c.push_back(solo_c.back().clone());
    }

    Device solo_dev;
    std::vector<tsqr::PanelFactor<double>> solo_f;
    for (std::size_t i = 0; i < k; ++i) {
      solo_f.push_back(tsqr::tsqr_factor(solo_dev, gpusim::kDefaultStream,
                                         solo_a[i].view(), opt));
    }

    Device span_dev;
    std::vector<MatrixView<double>> panels, targets;
    std::vector<ConstMatrixView<double>> factored;
    for (std::size_t i = 0; i < k; ++i) {
      panels.push_back(span_a[i].view());
      factored.push_back(span_a[i].view());
      targets.push_back(span_c[i].view());
    }
    std::vector<tsqr::PanelFactor<double>> span_f(k);
    const idx factor_launches = tsqr::tsqr_factor_span<double>(
        span_dev, gpusim::kDefaultStream, panels, opt, span_f);
    // transpose + factor + one factor_tree per level.
    EXPECT_EQ(factor_launches, 2 + span_f[0].num_levels());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(same_bits(solo_a[i], span_a[i])) << "panel " << i;
      EXPECT_TRUE(same_bits(solo_f[i].taus0, span_f[i].taus0)) << i;
      ASSERT_EQ(solo_f[i].num_levels(), span_f[i].num_levels());
      for (idx l = 0; l < span_f[i].num_levels(); ++l) {
        EXPECT_TRUE(same_bits(solo_f[i].taus[static_cast<std::size_t>(l)],
                              span_f[i].taus[static_cast<std::size_t>(l)]))
            << "panel " << i << " level " << l;
      }
    }

    for (const bool transpose_q : {true, false}) {
      for (std::size_t i = 0; i < k; ++i) {
        tsqr::tsqr_apply(solo_dev, gpusim::kDefaultStream, solo_a[i].view(),
                         solo_f[i], solo_c[i].view(), opt, transpose_q);
      }
      const idx launches = tsqr::tsqr_apply_span<double>(
          span_dev, gpusim::kDefaultStream, factored, span_f, targets, opt,
          transpose_q);
      EXPECT_EQ(launches, ccols == 0 ? 0 : 1 + span_f[0].num_levels());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_TRUE(same_bits(solo_c[i], span_c[i]))
            << "target " << i << (transpose_q ? " after Q^T" : " after Q");
      }
    }
  }
}

// A one-panel span is the solo path and launches the solo kernels under
// their own names; a wider span launches fused "<kernel>_batch" kernels.
TEST(TsqrSpan, KernelNamesSoloForOnePanelBatchForMore) {
  const std::vector<std::string> kernels = {
      "transpose", "factor",    "factor_tree",
      "apply_qt_h", "apply_qt_tree", "apply_q_h", "apply_q_tree"};
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(k);
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    std::vector<Matrix<float>> a, c;
    std::vector<MatrixView<float>> panels, targets;
    std::vector<ConstMatrixView<float>> factored;
    for (std::size_t i = 0; i < k; ++i) {
      a.push_back(Matrix<float>::shape_only(4096, 16));
      c.push_back(Matrix<float>::shape_only(4096, 32));
    }
    for (std::size_t i = 0; i < k; ++i) {
      panels.push_back(a[i].view());
      factored.push_back(a[i].view());
      targets.push_back(c[i].view());
    }
    TsqrOptions opt;
    std::vector<tsqr::PanelFactor<float>> fs(k);
    tsqr::tsqr_factor_span<float>(dev, gpusim::kDefaultStream, panels, opt, fs);
    for (const bool transpose_q : {true, false}) {
      tsqr::tsqr_apply_span<float>(dev, gpusim::kDefaultStream, factored, fs,
                                   targets, opt, transpose_q);
    }
    std::set<std::string> names;
    for (const auto& p : dev.profiles()) names.insert(p.name);
    std::set<std::string> expect;
    for (const auto& name : kernels) {
      expect.insert(k == 1 ? name : name + "_batch");
    }
    EXPECT_EQ(names, expect);
  }
}

// replay_meta picks the decomposition: the memoised uniform split without a
// tree_spec, the custom spec with one. A span call shares that one meta
// across its k factors, and the solo entry replays the same structure.
TEST(TsqrSpan, FactorsShareTheReplayMetaTheOptionsChoose) {
  const idx m = 700, n = 12;
  const std::size_t k = 3;
  TsqrOptions uniform;
  uniform.block_rows = 96;  // 7 blocks; derived arity 96 / 12 = 8: one level
  TsqrOptions binary_shape = uniform;
  binary_shape.arity = 2;
  TsqrOptions custom = uniform;
  custom.tree_spec = [binary_shape](idx rows, idx width) {
    return tsqr::uniform_tree_spec(rows, width, binary_shape);
  };
  const auto expect_custom =
      tsqr::make_replay_meta(tsqr::uniform_tree_spec(m, n, binary_shape));
  ASSERT_EQ(expect_custom->levels.size(), 3u);

  for (const bool use_custom : {false, true}) {
    SCOPED_TRACE(use_custom);
    const TsqrOptions& opt = use_custom ? custom : uniform;
    std::vector<Matrix<double>> a;
    std::vector<MatrixView<double>> panels;
    for (std::size_t i = 0; i < k; ++i) {
      a.push_back(gaussian_matrix<double>(m, n, 70 + static_cast<int>(i)));
    }
    for (auto& p : a) panels.push_back(p.view());
    Device dev;
    std::vector<tsqr::PanelFactor<double>> fs(k);
    tsqr::tsqr_factor_span<double>(dev, gpusim::kDefaultStream, panels, opt,
                                   fs);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_NE(fs[i].meta, nullptr);
      EXPECT_EQ(fs[i].meta.get(), fs[0].meta.get()) << "factor " << i;
    }
    // Without a tree_spec the per-thread memo answers with the same object.
    if (!use_custom) {
      EXPECT_EQ(fs[0].meta.get(), tsqr::replay_meta(m, n, opt).get());
      EXPECT_EQ(fs[0].num_levels(), 1);
    }

    Matrix<double> solo_a = gaussian_matrix<double>(m, n, 70);
    const auto solo =
        tsqr::tsqr_factor(dev, gpusim::kDefaultStream, solo_a.view(), opt);
    const auto& want = use_custom ? *expect_custom : *solo.meta;
    for (const auto* meta : {fs[0].meta.get(), solo.meta.get()}) {
      EXPECT_EQ(meta->offsets, want.offsets);
      ASSERT_EQ(meta->levels.size(), want.levels.size());
      for (std::size_t l = 0; l < want.levels.size(); ++l) {
        EXPECT_EQ(meta->levels[l].starts, want.levels[l].starts) << l;
        EXPECT_EQ(meta->levels[l].data, want.levels[l].data) << l;
      }
    }
  }
}

}  // namespace
}  // namespace caqr
