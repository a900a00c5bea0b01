// Golden bits of CAQR: FNV-1a hashes of the column-major bytes of Q and R
// for fixed seeded inputs under the default options on the C2050 model.
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
#include "common/prng.hpp"
#include "gpusim/device.hpp"

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

}  // namespace
}  // namespace caqr
