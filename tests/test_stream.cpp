// Tests for the streaming subsystem: SlidingWindowQr bit-identity and
// verifier bounds, OnlineRpca separation + drift accounting, and
// CameraStream/StreamServer serving + migration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/profile.hpp"
#include "linalg/blas3.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"
#include "numerics/verifier.hpp"
#include "stream/online_rpca.hpp"
#include "stream/sliding_window_qr.hpp"
#include "stream/stream_serve.hpp"
#include "tsqr/incremental.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;

template <typename T>
void expect_triangle_bits_equal(const Matrix<T>& a, const Matrix<T>& b,
                                const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i <= j; ++i) {
      const T x = a(i, j), y = b(i, j);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(T)), 0)
          << what << ": (" << i << "," << j << ") " << x << " vs " << y;
    }
  }
}

// Stacks blocks [from, to) of a block list into one tall matrix.
template <typename T>
Matrix<T> stack_blocks(const std::deque<Matrix<T>>& blocks, std::size_t from,
                       std::size_t to) {
  idx rows = 0;
  for (std::size_t i = from; i < to; ++i) rows += blocks[i].rows();
  Matrix<T> out(rows, blocks.front().cols());
  idx r0 = 0;
  for (std::size_t i = from; i < to; ++i) {
    out.view()
        .block(r0, 0, blocks[i].rows(), blocks[i].cols())
        .copy_from(blocks[i].view());
    r0 += blocks[i].rows();
  }
  return out;
}

// -- Bit-identity of the append-only path (acceptance criterion) --

TEST(SlidingWindowQr, AppendPathBitIdenticalToIncrementalTsqr) {
  const idx m = 1024, n = 16, chunk = 128;
  auto a = gaussian_matrix<double>(m, n, 71);
  Device dev;
  tsqr::IncrementalTsqr<double> inc(dev, n);
  stream::SlidingWindowQr<double> win(n);
  for (idx r0 = 0; r0 < m; r0 += chunk) {
    inc.push(a.view().block(r0, 0, chunk, n));
    win.append(dev, a.view().block(r0, 0, chunk, n));
  }
  expect_triangle_bits_equal(inc.r(), win.r(dev), "window vs incremental");
}

TEST(SlidingWindowQr, AppendPathBitIdenticalToFromScratchTsqr) {
  // A from-scratch tsqr_factor run over the SAME left-deep caterpillar
  // reduction tree (via the TreeSpec seam) must produce EXACTLY the bits of
  // the incrementally maintained window R: the combine arithmetic only ever
  // reads the upper triangles it stacks.
  const idx m = 768, n = 16, chunk = 128;
  const idx nb = m / chunk;
  auto a = gaussian_matrix<double>(m, n, 72);
  Device dev;

  stream::SlidingWindowQr<double> win(n);
  for (idx r0 = 0; r0 < m; r0 += chunk) {
    win.append(dev, a.view().block(r0, 0, chunk, n));
  }

  tsqr::TsqrOptions topt;
  topt.tree_spec = [chunk, nb](idx rows, idx width) {
    (void)width;
    tsqr::TreeSpec s;
    for (idx b = 0; b <= nb; ++b) s.offsets.push_back(b * chunk);
    CAQR_CHECK(s.offsets.back() == rows);
    for (idx l = 0; l + 1 < nb; ++l) {
      GroupList g;
      g.data = {0, l + 1};
      g.starts = {0, 2};
      s.levels.push_back(std::move(g));
    }
    return s;
  };
  auto panel = a.clone();
  tsqr::tsqr_factor(dev, gpusim::kDefaultStream, panel.view(), topt);
  Matrix<double> r_scratch = Matrix<double>::zeros(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i <= j; ++i) r_scratch(i, j) = panel(i, j);
  }
  expect_triangle_bits_equal(r_scratch, win.r(dev),
                             "caterpillar tsqr_factor vs window");
}

// -- Downdating sweep: window sizes x evict granularities x condition --

TEST(SlidingWindowQr, EvictSweepStaysWithinVerifierBounds) {
  Device dev;
  for (const idx n : {8, 16}) {
    for (const idx chunk_mult : {1, 2}) {          // evict granularity
      for (const double cond : {1e0, 1e6, 1e12}) {  // conditioning
        const idx chunk = n * chunk_mult;
        const idx total_blocks = 14, keep_blocks = 6;
        auto a = stress_matrix<double>(total_blocks * chunk, n, cond, 1.0,
                                       static_cast<std::uint64_t>(
                                           1000 + n + chunk_mult) +
                                           static_cast<std::uint64_t>(cond));
        stream::SlidingWindowQr<double> win(n);
        std::deque<Matrix<double>> blocks;
        for (idx b = 0; b < total_blocks; ++b) {
          blocks.push_back(
              Matrix<double>::from(a.view().block(b * chunk, 0, chunk, n)));
          win.append(dev, blocks.back().view());
        }
        std::size_t first = 0;
        while (win.blocks() > keep_blocks) {
          win.evict(dev);
          ++first;
        }
        auto retained = stack_blocks(blocks, first, blocks.size());
        const auto rep =
            numerics::verify_r(retained.view(), win.r(dev).view());
        EXPECT_TRUE(rep.pass)
            << "n=" << n << " chunk=" << chunk << " cond=" << cond
            << " gram_residual=" << rep.gram_residual
            << " tol=" << rep.tolerance;
      }
    }
  }
}

TEST(SlidingWindowQr, EvictIsExactRowRemoval) {
  // After evictions, the window R must be a valid R of exactly the retained
  // rows — Gram identity against the stacked retained blocks.
  const idx n = 12, chunk = 24;
  auto a = gaussian_matrix<double>(chunk * 10, n, 77);
  Device dev;
  stream::SlidingWindowQr<double> win(n);
  std::deque<Matrix<double>> blocks;
  for (idx b = 0; b < 10; ++b) {
    blocks.push_back(
        Matrix<double>::from(a.view().block(b * chunk, 0, chunk, n)));
    win.append(dev, blocks.back().view());
    if (win.blocks() > 4) {
      win.evict(dev);
      blocks.pop_front();
    }
  }
  EXPECT_EQ(win.rows(), 4 * chunk);
  auto retained = stack_blocks(blocks, 0, blocks.size());
  Matrix<double> ata = Matrix<double>::zeros(n, n);
  syrk_t(1.0, retained.view(), 0.0, ata.view());
  const auto& r = win.r(dev);
  Matrix<double> rtr = Matrix<double>::zeros(n, n);
  gemm(Trans::Yes, Trans::No, 1.0, r.view(), r.view(), 0.0, rtr.view());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      ASSERT_NEAR(rtr(i, j), ata(i, j), 1e-8 * (1.0 + std::fabs(ata(i, j))));
    }
  }
}

// -- Typed degenerate updates (satellite) --

TEST(SlidingWindowQr, DegenerateUpdatesAreTypedErrors) {
  Device dev;
  stream::SlidingWindowQr<double> win(8);
  auto zero_rows = Matrix<double>::zeros(0, 8);
  try {
    win.append(dev, zero_rows.view());
    FAIL() << "zero-row append must throw";
  } catch (const tsqr::StreamUpdateError& e) {
    EXPECT_EQ(e.kind, tsqr::StreamUpdateError::Kind::ZeroRowAppend);
    EXPECT_EQ(e.cols, 8);
  }
  // Empty window: evict and r() both underflow.
  EXPECT_THROW(win.evict(dev), tsqr::StreamUpdateError);
  EXPECT_THROW(win.r(dev), tsqr::StreamUpdateError);
  // One 8-row block at width 8: evicting it would leave 0 < 8 rows.
  auto block = gaussian_matrix<double>(8, 8, 79);
  win.append(dev, block.view());
  try {
    win.evict(dev);
    FAIL() << "underflow evict must throw";
  } catch (const tsqr::StreamUpdateError& e) {
    EXPECT_EQ(e.kind, tsqr::StreamUpdateError::Kind::WindowUnderflow);
    EXPECT_EQ(e.window_rows, 0);
  }
  // The failed evict left the window intact and readable.
  EXPECT_EQ(win.rows(), 8);
  EXPECT_EQ(win.r(dev).rows(), 8);
}

TEST(SlidingWindowQr, AmortizedCombinesStayBounded) {
  // Steady-state append+evict must cost O(1) combines per frame amortized
  // (two-stack invariant: every block is flipped at most once).
  const idx n = 8, chunk = 16, keep = 16;
  auto a = gaussian_matrix<double>(chunk * 128, n, 80);
  Device dev;
  stream::SlidingWindowQr<double> win(n);
  for (idx b = 0; b < 128; ++b) {
    win.append(dev, a.view().block(b * chunk, 0, chunk, n));
    if (win.blocks() > keep) win.evict(dev);
  }
  // 128 appends: <= 1 combine each into the back aggregate; flips re-combine
  // each block at most once; r() reads add at most one more each.
  EXPECT_LE(win.combines(), 3 * 128);
  EXPECT_EQ(win.factors(), 128);
}

// -- Checkpoint / migration --

TEST(SlidingWindowQr, CheckpointRoundTripContinuesBitIdentically) {
  const idx n = 8, chunk = 16;
  auto a = gaussian_matrix<double>(chunk * 12, n, 81);
  Device dev;
  stream::SlidingWindowQr<double> win(n);
  for (idx b = 0; b < 6; ++b) {
    win.append(dev, a.view().block(b * chunk, 0, chunk, n));
  }
  win.evict(dev);
  win.evict(dev);

  ft::CheckpointWriter w;
  win.save(w, "t.");
  const std::string path = "/tmp/caqr_test_window.ckpt";
  ASSERT_TRUE(w.write(path));
  const auto reader = ft::CheckpointReader::load(path);
  ASSERT_TRUE(reader.has_value());
  EXPECT_FALSE(reader->section_names().empty());
  auto resumed = stream::SlidingWindowQr<double>::load(*reader, "t.");
  ASSERT_TRUE(resumed.has_value());

  // Both continue with the same traffic on DIFFERENT devices.
  Device dev2;
  for (idx b = 6; b < 12; ++b) {
    win.append(dev, a.view().block(b * chunk, 0, chunk, n));
    resumed->append(dev2, a.view().block(b * chunk, 0, chunk, n));
    win.evict(dev);
    resumed->evict(dev2);
  }
  expect_triangle_bits_equal(win.r(dev), resumed->r(dev2),
                             "resumed window continuation");
  std::remove(path.c_str());
}

// A stored variant outside kernels::ReductionVariant would give zero-cost
// kernels; the loader refuses it. The same checkpoint with the stored
// variant loads.
TEST(SlidingWindowQr, LoadRejectsOutOfRangeVariant) {
  const idx n = 8;
  auto a = gaussian_matrix<double>(32, n, 82);
  Device dev;
  stream::SlidingWindowQr<double> win(n);
  win.append(dev, a.view());
  const std::string path = "/tmp/caqr_test_window_variant.ckpt";
  for (const std::int32_t variant : {-1, 4, 1 << 20}) {
    ft::CheckpointWriter w;
    win.save(w, "t.");
    w.scalar("t.variant", variant);  // a later section overrides the first
    ASSERT_TRUE(w.write(path));
    const auto reader = ft::CheckpointReader::load(path);
    ASSERT_TRUE(reader.has_value());
    EXPECT_FALSE(stream::SlidingWindowQr<double>::load(*reader, "t."))
        << "variant " << variant;
  }
  ft::CheckpointWriter w;
  win.save(w, "t.");
  ASSERT_TRUE(w.write(path));
  EXPECT_TRUE(stream::SlidingWindowQr<double>::load(
      *ft::CheckpointReader::load(path), "t."));
  std::remove(path.c_str());
}

// -- Online RPCA --

stream::StreamConfig small_stream(int id, std::uint64_t seed) {
  stream::StreamConfig cfg;
  cfg.id = id;
  cfg.seed = seed;
  cfg.rpca.cols = 16;
  cfg.rpca.frame_rows = 32;
  cfg.rpca.window_frames = 6;
  cfg.background_rank = 2;
  cfg.sparse_fraction = 0.02;
  cfg.noise = 1e-3;
  return cfg;
}

TEST(OnlineRpca, SeparatesBackgroundFromForeground) {
  const auto cfg = small_stream(0, 91);
  stream::CameraStream<double> cam(cfg);
  Device dev;
  stream::FrameOutput<double> out;
  for (int i = 0; i < 12; ++i) out = cam.step(dev);
  EXPECT_FALSE(out.warmup);
  EXPECT_TRUE(out.svd_converged);
  EXPECT_GE(out.rank, 1);
  EXPECT_LE(out.rank, cfg.rpca.cols);
  // The split reconstructs the frame: f ~= L + S by construction of S,
  // up to the soft threshold's per-entry clamp.
  EXPECT_LT(out.residual_ratio, 0.5);
  // The background estimate carries most of the frame's energy (the scene
  // is genuinely low-rank plus sparse).
  const double lnorm = frobenius_norm(out.low_rank.view());
  EXPECT_GT(lnorm, 0.0);
  EXPECT_GT(dev.elapsed_seconds(), 0.0);
  EXPECT_EQ(cam.frames_seen(), 12);
}

TEST(OnlineRpca, DriftRefactorIsTypedAndCounted) {
  auto cfg = small_stream(0, 92);
  cfg.rpca.drift_threshold = 0.0;  // trip the detector every checked frame
  stream::CameraStream<double> cam(cfg);
  Device dev;
  int post_warmup = 0, flagged = 0;
  for (int i = 0; i < 10; ++i) {
    const auto out = cam.step(dev);
    if (!out.warmup) {
      ++post_warmup;
      if (out.drift_refactor) ++flagged;
    }
  }
  ASSERT_GT(post_warmup, 0);
  EXPECT_EQ(flagged, post_warmup);  // never silent
  EXPECT_EQ(static_cast<int>(cam.rpca().drift_events().size()), post_warmup);
  for (const auto& e : cam.rpca().drift_events()) {
    EXPECT_GE(e.frame_index, 0);
    EXPECT_GE(e.gram_drift, 0.0);
  }
}

TEST(OnlineRpca, DefaultThresholdToleratesNormalAccumulation) {
  const auto cfg = small_stream(0, 93);
  stream::CameraStream<double> cam(cfg);
  Device dev;
  for (int i = 0; i < 20; ++i) cam.step(dev);
  // double-precision combines over a tiny window never approach 1e-3
  // relative Gram divergence.
  EXPECT_TRUE(cam.rpca().drift_events().empty());
}

TEST(OnlineRpca, LoadRejectsOutOfRangeVariant) {
  const auto cfg = small_stream(4, 95);
  stream::OnlineRpca<double> rpca(cfg.rpca);
  Device dev;
  auto frames = gaussian_matrix<double>(cfg.rpca.frame_rows * 3, cfg.rpca.cols, 96);
  for (idx f = 0; f < 3; ++f) {
    rpca.consume(dev, frames.view().block(f * cfg.rpca.frame_rows, 0,
                                          cfg.rpca.frame_rows, cfg.rpca.cols));
  }
  const std::string path = "/tmp/caqr_test_rpca_variant.ckpt";
  for (const std::int32_t variant : {-1, 4, 1 << 20}) {
    ft::CheckpointWriter w;
    rpca.save(w, "s.");
    w.scalar("s.variant", variant);  // a later section overrides the first
    ASSERT_TRUE(w.write(path));
    const auto reader = ft::CheckpointReader::load(path);
    ASSERT_TRUE(reader.has_value());
    EXPECT_FALSE(stream::OnlineRpca<double>::load(*reader, "s."))
        << "variant " << variant;
  }
  ft::CheckpointWriter w;
  rpca.save(w, "s.");
  ASSERT_TRUE(w.write(path));
  EXPECT_TRUE(stream::OnlineRpca<double>::load(
      *ft::CheckpointReader::load(path), "s."));
  std::remove(path.c_str());
}

// Migration must resume bit-identically, including when the serving devices
// run with the seeded fault injector armed (the stream's own kernels are
// cost-only and its numerics are charged host-side, so injected drops must
// not perturb the continuation).
TEST(OnlineRpca, MigrationBitIdenticalUnderSeededFaultInjector) {
  const auto cfg = small_stream(3, 94);
  const std::string path = "/tmp/caqr_test_stream.ckpt";

  gpusim::FaultOptions faults;
  faults.p_block_drop = 0.2;
  faults.seed = 4321;
  ft::FtOptions ftopt;
  ftopt.abft = true;

  // Golden: uninterrupted, fault-free, one device.
  stream::CameraStream<double> golden(cfg);
  Device gdev;
  stream::FrameOutput<double> golden_last;
  for (int i = 0; i < 14; ++i) golden_last = golden.step(gdev);

  // Migrated: half the frames on a faulty device, checkpoint, resume on a
  // DIFFERENT faulty device, finish.
  stream::CameraStream<double> first_half(cfg);
  Device devA;
  devA.set_fault_injection(faults);
  devA.set_fault_tolerance(ftopt);
  for (int i = 0; i < 7; ++i) first_half.step(devA);
  ASSERT_TRUE(first_half.checkpoint_to(path));
  auto resumed = stream::CameraStream<double>::resume_from(cfg, path);
  ASSERT_TRUE(resumed.has_value());
  Device devB;
  gpusim::FaultOptions faults2 = faults;
  faults2.seed = 8765;
  devB.set_fault_injection(faults2);
  devB.set_fault_tolerance(ftopt);
  stream::FrameOutput<double> migrated_last;
  for (int i = 7; i < 14; ++i) migrated_last = resumed->step(devB);

  EXPECT_EQ(resumed->frames_seen(), golden.frames_seen());
  expect_triangle_bits_equal(golden.rpca().window().r(gdev),
                             resumed->rpca().window().r(devB),
                             "migrated window R");
  for (idx j = 0; j < golden_last.low_rank.cols(); ++j) {
    ASSERT_EQ(std::memcmp(golden_last.low_rank.view().col(j),
                          migrated_last.low_rank.view().col(j),
                          sizeof(double) * static_cast<std::size_t>(
                                               golden_last.low_rank.rows())),
              0)
        << "low-rank column " << j;
    ASSERT_EQ(std::memcmp(golden_last.sparse.view().col(j),
                          migrated_last.sparse.view().col(j),
                          sizeof(double) * static_cast<std::size_t>(
                                               golden_last.sparse.rows())),
              0)
        << "sparse column " << j;
  }
  // Wrong identity is refused, not silently resumed.
  auto wrong = small_stream(4, 94);
  EXPECT_FALSE(
      stream::CameraStream<double>::resume_from(wrong, path).has_value());
  std::remove(path.c_str());
}

// -- Background subspace: seeded subspace iteration vs the full SVD --

// A camera like the end-to-end benchmark's: 160 x 64 f32 frames holding a
// fixed rank-2 background at 0.1, a 0.5 offset with 0.01 sensor noise, and
// a bright 16 x 8 block that moves every frame; a 16-frame window.
struct BenchStyleCamera {
  static constexpr idx kRows = 160, kCols = 64, kWindow = 16;

  BenchStyleCamera(int id_, std::uint64_t seed)
      : id(id_),
        background(Matrix<float>::zeros(kRows, kCols)),
        rng(seed, 500 + static_cast<std::uint64_t>(id_)) {
    const auto u = gaussian_matrix<float>(kRows, 2, 7919 + id_);
    const auto v = gaussian_matrix<float>(kCols, 2, 7919 + id_ + 97);
    gemm(Trans::No, Trans::Yes, 0.1f, u.view(), v.view(), 0.0f,
         background.view());
    generated = static_cast<idx>(rng.next_below(kRows));
  }

  static stream::OnlineRpcaOptions options() {
    stream::OnlineRpcaOptions o;
    o.cols = kCols;
    o.frame_rows = kRows;
    o.window_frames = kWindow;
    return o;
  }

  Matrix<float> next_frame() {
    Matrix<float> f = background.clone();
    for (idx j = 0; j < kCols; ++j) {
      for (idx i = 0; i < kRows; ++i) {
        f(i, j) += 0.5f + 0.01f * static_cast<float>(rng.normal());
      }
    }
    const idx r0 = (generated * 3) % (kRows - 16);
    const idx c0 = (id * 5 + generated) % (kCols - 8);
    for (idx j = c0; j < c0 + 8; ++j) {
      for (idx i = r0; i < r0 + 16; ++i) f(i, j) += 0.8f;
    }
    ++generated;
    return f;
  }

  int id;
  Matrix<float> background;
  Rng rng;
  idx generated = 0;
};

// The frame split as consume computed it before the subspace iteration:
// the full Jacobi SVD of the window R, the energy rank rule, L = f V_k V_k^T
// and S = shrink(f - L).
template <typename T>
struct ReferenceSplit {
  Matrix<T> low_rank, sparse;
  idx rank = 0;
};

template <typename T>
ReferenceSplit<T> full_svd_split(ConstMatrixView<T> r, ConstMatrixView<T> f,
                                 const stream::OnlineRpcaOptions& opt) {
  const auto rs = jacobi_svd(r, opt.svd_max_sweeps);
  double total = 0.0, cum = 0.0;
  for (const T s : rs.sigma) total += static_cast<double>(s) * s;
  idx k = 0;
  while (k < opt.cols && cum < opt.rank_energy * total) {
    const double s = static_cast<double>(rs.sigma[static_cast<std::size_t>(k)]);
    cum += s * s;
    ++k;
  }
  ReferenceSplit<T> out{Matrix<T>::zeros(f.rows(), f.cols()),
                        Matrix<T>::zeros(f.rows(), f.cols()),
                        std::max<idx>(k, 1)};
  const auto vk = rs.v.view().block(0, 0, opt.cols, out.rank);
  Matrix<T> proj = Matrix<T>::zeros(f.rows(), out.rank);
  gemm(Trans::No, Trans::No, T(1), f, vk, T(0), proj.view());
  gemm(Trans::No, Trans::Yes, T(1), proj.view(), vk, T(0),
       out.low_rank.view());
  for (idx j = 0; j < f.cols(); ++j) {
    for (idx i = 0; i < f.rows(); ++i) {
      out.sparse(i, j) = f(i, j) - out.low_rank(i, j);
    }
  }
  rpca::shrink(out.sparse.view(),
               static_cast<T>(rpca::default_rpca_lambda(
                   std::max(opt.frame_rows, opt.cols))));
  return out;
}

template <typename T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.view().col(j), b.view().col(j),
                    sizeof(T) * static_cast<std::size_t>(a.rows())) != 0) {
      return false;
    }
  }
  return true;
}

// On the benchmark's camera windows the subspace iteration settles every
// frame, picks the full SVD's rank, and gives the same background up to
// float rounding.
TEST(OnlineRpca, SubspaceIterationMatchesFullSvdOnCameraWindows) {
  const auto opt = BenchStyleCamera::options();
  for (int id = 0; id < 4; ++id) {
    BenchStyleCamera cam(id, 31);
    stream::OnlineRpca<float> rpca(opt);
    Device dev;
    int split_frames = 0;
    for (int f = 0; f < 200; ++f) {
      const Matrix<float> frame = cam.next_frame();
      const auto out = rpca.consume(dev, frame.view());
      if (out.warmup) continue;
      ++split_frames;
      ASSERT_FALSE(out.svd_fallback) << "camera " << id << " frame " << f;
      const auto ref = full_svd_split<float>(
          rpca.window().r(dev).view(), frame.view(), opt);
      ASSERT_EQ(out.rank, ref.rank) << "camera " << id << " frame " << f;
      Matrix<float> diff = out.low_rank.clone();
      for (idx j = 0; j < diff.cols(); ++j) {
        axpy(diff.rows(), -1.0f, ref.low_rank.view().col(j),
             diff.view().col(j));
      }
      ASSERT_LE(frobenius_norm(diff.view()),
                2e-4 * frobenius_norm(frame.view()))
          << "camera " << id << " frame " << f;
    }
    EXPECT_GT(split_frames, 190);
  }
}

// A window of iid Gaussian frames has a flat spectrum: 0.95 of its energy
// needs more columns than the iteration's block, so every frame falls back
// to the full Jacobi SVD, counted, and splits exactly as the full path.
TEST(OnlineRpca, FlatSpectrumFallsBackToFullSvdBitForBit) {
  const auto cfg = small_stream(5, 97);
  stream::OnlineRpca<double> rpca(cfg.rpca);
  Device dev;
  prof::Counter& fallbacks = prof::counter("stream.svd_fallbacks");
  const auto frames = gaussian_matrix<double>(cfg.rpca.frame_rows * 10,
                                              cfg.rpca.cols, 98);
  int split_frames = 0;
  for (idx f = 0; f < 10; ++f) {
    const auto frame = frames.view().block(f * cfg.rpca.frame_rows, 0,
                                           cfg.rpca.frame_rows, cfg.rpca.cols);
    const long long before = fallbacks.count.load();
    const auto out = rpca.consume(dev, frame);
    if (out.warmup) continue;
    ++split_frames;
    EXPECT_TRUE(out.svd_fallback) << "frame " << f;
    EXPECT_EQ(fallbacks.count.load(), before + 1) << "frame " << f;
    const auto ref = full_svd_split<double>(rpca.window().r(dev).view(),
                                            frame, cfg.rpca);
    EXPECT_GE(ref.rank, 8) << "frame " << f;
    EXPECT_EQ(out.rank, ref.rank) << "frame " << f;
    EXPECT_TRUE(bits_equal(out.low_rank, ref.low_rank)) << "frame " << f;
    EXPECT_TRUE(bits_equal(out.sparse, ref.sparse)) << "frame " << f;
  }
  EXPECT_GT(split_frames, 0);
}

// ModelOnly charges what Functional runs: the same simulated seconds per
// frame, bit for bit, including the lazily combined window R read.
TEST(OnlineRpca, ModelOnlyFrameChargesEqualFunctional) {
  const auto opt = BenchStyleCamera::options();
  BenchStyleCamera cam(1, 33);
  stream::OnlineRpca<float> functional(opt), model_only(opt);
  Device fdev(gpusim::GpuMachineModel::a100(), ExecMode::Functional);
  Device mdev(gpusim::GpuMachineModel::a100(), ExecMode::ModelOnly);
  for (int f = 0; f < 40; ++f) {
    const Matrix<float> frame = cam.next_frame();
    const auto fo = functional.consume(fdev, frame.view());
    const auto mo = model_only.consume(mdev, frame.view());
    ASSERT_FALSE(fo.drift_refactor) << "frame " << f;
    EXPECT_EQ(fo.simulated_seconds, mo.simulated_seconds) << "frame " << f;
  }
}

// -- Multi-tenant serving --

TEST(StreamServer, ServesRoundsWithFairShareAndLatencyHistograms) {
  prof::reset();
  stream::StreamServeOptions opt;
  opt.pool.workers = 2;
  opt.pool.mode = ExecMode::Functional;
  for (int s = 0; s < 4; ++s) {
    auto cfg = small_stream(s, 100 + static_cast<std::uint64_t>(s));
    cfg.weight = s == 3 ? 0.25 : 1.0;  // one low-share tenant
    opt.streams.push_back(cfg);
  }
  stream::StreamServer<double> server(std::move(opt));
  const int rounds = 8;
  for (int r = 0; r < rounds; ++r) {
    const auto res = server.run_round();
    EXPECT_EQ(res.done, 4);
    EXPECT_EQ(res.expired + res.shed + res.rejected, 0);
  }
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    EXPECT_EQ(server.stream(i).frames_seen(), rounds);
    EXPECT_GT(server.stream_sim_seconds(i), 0.0);
    const auto& h = prof::histogram(
        stream::StreamServer<double>::latency_histogram_name(
            server.stream(i).config().id));
    EXPECT_EQ(h.count(), rounds);
    EXPECT_GT(h.quantile(0.5), 0.0);
    EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
  }
  server.pool().drain();  // stats are consistent once workers go idle
  const auto st = server.pool().stats();
  EXPECT_EQ(st.completed, 4 * rounds);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(st.tenant_served.at(s), rounds);
  }
  // The 0.25-weight tenant needs four scheduler visits per credit, so its
  // skipped visits register as starvation even though every frame completes.
  EXPECT_GT(st.starved_rounds, 0);
  EXPECT_GT(st.tenant_starved.at(3), 0);
}

TEST(StreamServer, MigratesStreamBetweenRounds) {
  stream::StreamServeOptions opt;
  opt.pool.workers = 2;
  opt.pool.mode = ExecMode::Functional;
  for (int s = 0; s < 2; ++s) {
    opt.streams.push_back(small_stream(s, 200 + static_cast<std::uint64_t>(s)));
  }
  stream::StreamServer<double> server(std::move(opt));
  for (int r = 0; r < 9; ++r) server.run_round();

  // Reference: an identical stream stepped sequentially to the same frame.
  stream::CameraStream<double> ref(server.stream(1).config());
  Device rdev;
  for (int i = 0; i < 9; ++i) ref.step(rdev);

  const std::string path = "/tmp/caqr_test_migrate.ckpt";
  ASSERT_TRUE(server.migrate_stream(1, path));
  EXPECT_EQ(server.stream(1).frames_seen(), 9);
  const auto res = server.run_round();
  EXPECT_EQ(res.done, 2);
  EXPECT_EQ(server.stream(1).frames_seen(), 10);

  Device cmp;
  ref.step(rdev);
  expect_triangle_bits_equal(ref.rpca().window().r(rdev),
                             server.stream(1).rpca().window().r(cmp),
                             "post-migration window R");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace caqr
