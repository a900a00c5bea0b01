// Golden bits of CAQR: FNV-1a hashes of the column-major bytes of Q and R
// for fixed seeded inputs under the default options on the C2050 model, of
// a served CholeskyQR2, and of the streaming layer's low-rank/sparse split.
//
// The host kernels may be restructured (staging layout, vectorization)
// only in ways that leave every result bit unchanged; these hashes pin that.
// Inputs come from Rng::uniform (integer arithmetic plus one scale and
// shift), so no libm call enters them and they are the same on any host.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <type_traits>

#include "caqr/caqr.hpp"
#include "caqr/solver.hpp"
#include "common/prng.hpp"
#include "gpusim/device.hpp"
#include "stream/online_rpca.hpp"

namespace caqr {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t hash_matrix(ConstMatrixView<T> a, std::uint64_t h) {
  for (idx j = 0; j < a.cols(); ++j) {
    h = fnv1a(a.col(j), static_cast<std::size_t>(a.rows()) * sizeof(T), h);
  }
  return h;
}

template <typename T>
Matrix<T> uniform_input(idx m, idx n, std::uint64_t seed) {
  Matrix<T> a(m, n);
  Rng rng(seed);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) a(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  return a;
}

struct QrHashes {
  std::uint64_t q, r;
};

template <typename T>
QrHashes caqr_hashes(idx m, idx n, std::uint64_t seed) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::Functional);
  auto f = CaqrFactorization<T>::factor(dev, uniform_input<T>(m, n, seed));
  const auto q = f.form_q(dev, std::min(m, n));
  const auto r = f.r();
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  const QrHashes h{hash_matrix(q.view(), kOffset), hash_matrix(r.view(), kOffset)};
  std::printf("%s %lldx%lld seed %llu: q 0x%016llx r 0x%016llx\n",
              std::is_same_v<T, float> ? "f32" : "f64",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(h.q),
              static_cast<unsigned long long>(h.r));
  return h;
}

TEST(GoldenBits, F64Tall20000x100) {
  const auto h = caqr_hashes<double>(20000, 100, 1);
  EXPECT_EQ(h.q, 0x7ca230f54df88271ULL);
  EXPECT_EQ(h.r, 0xf17c37da106f501eULL);
}

TEST(GoldenBits, F32Ragged5000x37) {
  const auto h = caqr_hashes<float>(5000, 37, 2);
  EXPECT_EQ(h.q, 0xe5ec1ecbbb268606ULL);
  EXPECT_EQ(h.r, 0x49454969ac435c83ULL);
}

TEST(GoldenBits, F64Ragged777x53) {
  const auto h = caqr_hashes<double>(777, 53, 3);
  EXPECT_EQ(h.q, 0x364fcd119067bdffULL);
  EXPECT_EQ(h.r, 0x2f26c5b27ce569d0ULL);
}

TEST(GoldenBits, F32Paper110592x100) {
  const auto h = caqr_hashes<float>(110592, 100, 4);
  EXPECT_EQ(h.q, 0x565dd5316e76babbULL);
  EXPECT_EQ(h.r, 0xb0f3864dbc1b6a11ULL);
}

// A served CholeskyQR2 request: an f32 8192 x 32 input through adaptive_qr
// on the C2050 model, as SolverPool runs a CholeskyQR plan. Pins the bits of
// the host Gram (syrk_t), the right triangular solve and the R update.
TEST(GoldenBits, CholQr2Serve8192x32) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::Functional);
  const auto a = uniform_input<float>(8192, 32, 5);
  const auto res = adaptive_qr(dev, a.view(), QrAlgorithm::CholeskyQr2);
  ASSERT_EQ(res.used, QrAlgorithm::CholeskyQr2);
  ASSERT_FALSE(res.cholqr_fallback);
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  const std::uint64_t q = hash_matrix(res.q.view(), kOffset);
  const std::uint64_t r = hash_matrix(res.r.view(), kOffset);
  std::printf("cholqr2 f32 8192x32 seed 5: q 0x%016llx r 0x%016llx\n",
              static_cast<unsigned long long>(q),
              static_cast<unsigned long long>(r));
  EXPECT_EQ(q, 0x7cef4617ee87f0e1ULL);
  EXPECT_EQ(r, 0x6409dbbbf8bd92c0ULL);
}

// The streaming split: one f32 camera of 160 x 64 frames through the
// default OnlineRpca with a 16-frame window. Each frame is a fixed rank-2
// background at 0.3, a 0.5 offset with uniform noise of amplitude 0.01, and
// a 16 x 8 block brightened by 0.8 that moves every frame. Hashes frame
// 200's low-rank and sparse parts, which the seeded subspace iteration
// computes (frames 2-200 take no full-SVD fallback).
TEST(GoldenBits, StreamCameraSplit) {
  constexpr idx kRows = 160, kCols = 64;
  stream::OnlineRpcaOptions opt;
  opt.cols = kCols;
  opt.frame_rows = kRows;
  opt.window_frames = 16;
  stream::OnlineRpca<float> rpca(opt);
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::Functional);
  const auto u = uniform_input<float>(kRows, 2, 71);
  const auto v = uniform_input<float>(kCols, 2, 72);
  Rng noise(73);
  stream::FrameOutput<float> out;
  int fallbacks = 0;
  for (idx f = 0; f < 200; ++f) {
    Matrix<float> frame(kRows, kCols);
    for (idx j = 0; j < kCols; ++j) {
      for (idx i = 0; i < kRows; ++i) {
        frame(i, j) = 0.3f * (u(i, 0) * v(j, 0) + u(i, 1) * v(j, 1)) + 0.5f +
                      0.01f * static_cast<float>(noise.uniform(-1.0, 1.0));
      }
    }
    const idx r0 = (f * 3) % (kRows - 16), c0 = (f * 5) % (kCols - 8);
    for (idx j = c0; j < c0 + 8; ++j) {
      for (idx i = r0; i < r0 + 16; ++i) frame(i, j) += 0.8f;
    }
    out = rpca.consume(dev, frame.view());
    if (out.svd_fallback) ++fallbacks;
  }
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  const std::uint64_t l = hash_matrix(out.low_rank.as_const(), kOffset);
  const std::uint64_t sp = hash_matrix(out.sparse.as_const(), kOffset);
  std::printf("stream camera frame 200: rank %lld l 0x%016llx s 0x%016llx\n",
              static_cast<long long>(out.rank),
              static_cast<unsigned long long>(l),
              static_cast<unsigned long long>(sp));
  EXPECT_EQ(fallbacks, 0);
  EXPECT_EQ(l, 0x6ae62da5961fb75cULL);
  EXPECT_EQ(sp, 0x2a3794bf15a6d6c4ULL);
}

}  // namespace
}  // namespace caqr
