// Wall-clock microbenchmarks of the host linear-algebra substrate
// (google-benchmark). These measure the *functional* execution engine —
// the real arithmetic behind ExecMode::Functional — not the simulated GPU:
// they exist to keep the simulator's functional path fast enough for
// paper-scale validation runs and to catch performance regressions in the
// reference kernels every other module builds on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "caqr/solver.hpp"
#include "common/group_list.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device.hpp"
#include "kernels/block_ops.hpp"
#include "kernels/kernels.hpp"
#include "linalg/blas3.hpp"
#include "linalg/flops.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/svd.hpp"
#include "stream/sliding_window_qr.hpp"
#include "svd/tall_skinny_svd.hpp"

namespace {

using namespace caqr;

void BM_GemmSquare(benchmark::State& state) {
  const idx n = state.range(0);
  auto a = gaussian_matrix<float>(n, n, 1);
  auto b = gaussian_matrix<float>(n, n, 2);
  auto c = Matrix<float>::zeros(n, n);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTallSkinnyUpdate(benchmark::State& state) {
  // The larfb-shaped update: (m x k)^T * (m x n).
  const idx m = state.range(0), k = 16, n = 16;
  auto a = gaussian_matrix<float>(m, k, 3);
  auto b = gaussian_matrix<float>(m, n, 4);
  auto c = Matrix<float>::zeros(k, n);
  for (auto _ : state) {
    gemm(Trans::Yes, Trans::No, 1.0f, a.view(), b.view(), 0.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK(BM_GemmTallSkinnyUpdate)->Arg(4096)->Arg(65536);

void BM_BlockGeqr2(benchmark::State& state) {
  // The factor kernel's numerical core on the paper's block shape.
  const idx h = state.range(0), w = 16;
  auto a0 = gaussian_matrix<float>(h, w, 5);
  Matrix<float> a(h, w);
  std::vector<float> tau(static_cast<std::size_t>(w));
  for (auto _ : state) {
    a.view().copy_from(a0.view());
    kernels::block_geqr2(a.view(), tau.data());
    benchmark::DoNotOptimize(tau.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::block_geqr2_flops(h, w)));
}
BENCHMARK(BM_BlockGeqr2)->Arg(64)->Arg(128)->Arg(256);

// Row-major vectorized core (float/double entry point) and, for comparison,
// the column-by-column reference loops it is bit-identical to.
template <bool kReference>
void BM_BlockApplyQt(benchmark::State& state) {
  const idx h = state.range(0), w = 16;
  auto f = gaussian_matrix<float>(h, w, 6);
  std::vector<float> tau(static_cast<std::size_t>(w));
  kernels::block_geqr2(f.view(), tau.data());
  auto c0 = gaussian_matrix<float>(h, w, 7);
  Matrix<float> c(h, w);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    if constexpr (kReference) {
      kernels::ref::block_apply(f.as_const(), tau.data(), c.view(), true);
    } else {
      kernels::block_apply(f.as_const(), tau.data(), c.view(), true);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::block_apply_qt_flops(h, w, w)));
}
BENCHMARK(BM_BlockApplyQt<false>)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_BlockApplyQt<true>)->Arg(128);

// The tile reset BM_BlockApplyQt times with each apply, alone: subtract it
// to read the kernel's own rate.
void BM_BlockApplyQtReset(benchmark::State& state) {
  const idx h = state.range(0), w = 16;
  auto c0 = gaussian_matrix<float>(h, w, 7);
  Matrix<float> c(h, w);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BlockApplyQtReset)->Arg(64)->Arg(128)->Arg(256);

// The staging of a 128 x 16 f32 tile of a taller panel (ld 8192) into the
// row-major scratch tile and back, at each ISA level (arg isa as in
// BM_BlockApplyIsa): the data movement around every block_apply.
void BM_StageTileIsa(benchmark::State& state) {
  const auto isa = static_cast<kernels::simd::Isa>(state.range(0));
  if (!kernels::simd::supports(isa)) {
    state.SkipWithError("host lacks this ISA level");
    return;
  }
  state.SetLabel(kernels::simd::isa_name(isa));
  const idx h = 128, w = 16;
  auto panel = gaussian_matrix<float>(8192, w, 8);
  const auto c = panel.block(256, 0, h, w);
  std::vector<float> t(static_cast<std::size_t>(h * w));
  for (auto _ : state) {
    kernels::simd::stage_rows(isa, c.as_const(), t.data(), w);
    kernels::simd::unstage_rows(isa, t.data(), w, c);
    benchmark::DoNotOptimize(t.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(h * w * sizeof(float)));
}
BENCHMARK(BM_StageTileIsa)->Arg(0)->Arg(1)->Arg(2)->ArgName("isa");

// block_apply at each ISA level (arg isa: 0 SSE2, 1 AVX2, 2 AVX-512) on a
// 128 x 16 block and a 16-column tile, both directions (arg qt). A level
// the host lacks reports an error instead of a time; the context line
// `dispatched_isa` names the level the unqualified entry points run at.
void BM_BlockApplyIsa(benchmark::State& state) {
  const auto isa = static_cast<kernels::simd::Isa>(state.range(0));
  const bool transpose_q = state.range(1) != 0;
  if (!kernels::simd::supports(isa)) {
    state.SkipWithError("host lacks this ISA level");
    return;
  }
  state.SetLabel(kernels::simd::isa_name(isa));
  const idx h = 128, w = 16;
  auto f = gaussian_matrix<float>(h, w, 6);
  std::vector<float> tau(static_cast<std::size_t>(w));
  kernels::block_geqr2(f.view(), tau.data());
  auto c0 = gaussian_matrix<float>(h, w, 7);
  Matrix<float> c(h, w);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    kernels::simd::block_apply(isa, f.as_const(), tau.data(), c.view(),
                               transpose_q);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::block_apply_qt_flops(h, w, w)));
}
BENCHMARK(BM_BlockApplyIsa)->ArgsProduct({{0, 1, 2}, {1, 0}})->ArgNames({"isa", "qt"});

// The apply_qt_h kernel as a launch runs it: every (row block x 16-column
// tile) of a tall strided panel, each tile staged into arena scratch.
void BM_ApplyQtHKernelStaged(benchmark::State& state) {
  const idx m = state.range(0), w = 16, n = 84, h = 128;
  auto panel = gaussian_matrix<float>(m, w, 11);
  std::vector<idx> offsets;
  for (idx r = 0; r <= m; r += h) offsets.push_back(r);
  const idx nb = static_cast<idx>(offsets.size()) - 1;
  std::vector<float> taus(static_cast<std::size_t>(nb * w));
  const auto cost =
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed);
  kernels::FactorKernel<float> f{panel.view(), &offsets, taus.data(), cost};
  for (idx b = 0; b < nb; ++b) f.run_block(b);
  auto c0 = gaussian_matrix<float>(m, n, 12);
  Matrix<float> c(m, n);
  kernels::ApplyQtHKernel<float> k{panel.as_const(), &offsets, taus.data(),
                                   c.view(), 16, cost};
  const double flops =
      static_cast<double>(nb) * kernels::block_apply_qt_flops(h, w, n);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    for (idx b = 0; b < k.num_blocks(); ++b) k.run_block(b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flops));
}
BENCHMARK(BM_ApplyQtHKernelStaged)->Arg(8192);

// The apply_qt_tree kernel as a launch runs it: every (group x 16-column
// tile) of the first tree level over 128-row blocks, groups of 4, the
// groups' rows gathered into the staged tile and scattered back.
void BM_ApplyQtTreeKernelStaged(benchmark::State& state) {
  const idx m = state.range(0), w = 16, n = 84, h = 128, arity = 4;
  auto panel = gaussian_matrix<float>(m, w, 15);
  std::vector<idx> offsets;
  for (idx r = 0; r <= m; r += h) offsets.push_back(r);
  const idx nb = static_cast<idx>(offsets.size()) - 1;
  std::vector<float> taus(static_cast<std::size_t>(nb * w));
  const auto cost =
      kernels::cost_params(kernels::ReductionVariant::RegisterSerialTransposed);
  kernels::FactorKernel<float> f{panel.view(), &offsets, taus.data(), cost};
  for (idx b = 0; b < nb; ++b) f.run_block(b);
  GroupList groups;
  for (idx b = 0; b < nb; b += arity) {
    for (idx i = b; i < std::min(nb, b + arity); ++i) {
      groups.append(offsets[static_cast<std::size_t>(i)]);
    }
    groups.close_group();
  }
  std::vector<float> tree_taus(static_cast<std::size_t>(groups.size() * w));
  kernels::FactorTreeKernel<float> ft{panel.view(), &groups, tree_taus.data(),
                                      cost};
  for (idx g = 0; g < groups.size(); ++g) ft.run_block(g);
  auto c0 = gaussian_matrix<float>(m, n, 16);
  Matrix<float> c(m, n);
  kernels::ApplyQtTreeKernel<float> k{panel.as_const(), &groups,
                                      tree_taus.data(), c.view(), 16, cost};
  const double flops = static_cast<double>(groups.size()) *
                       kernels::stacked_apply_qt_flops(w, arity, n);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    for (idx b = 0; b < k.num_blocks(); ++b) k.run_block(b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flops));
}
BENCHMARK(BM_ApplyQtTreeKernelStaged)->Arg(8192);

// CaqrFactorization::form_q at the paper's 110,592 x 100 f32 on a device
// whose pool has one thread (e2ebench's caqr.form_q_1t_s): the identity
// seed plus every apply_q launch.
void BM_FormQ1t(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  ThreadPool one(1);
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::Functional, &one);
  const auto f =
      CaqrFactorization<float>::factor(dev, gaussian_matrix<float>(m, n, 17));
  for (auto _ : state) {
    auto q = f.form_q(dev, n);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_FormQ1t)->Args({110592, 100})->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Filling a 110,592 x 100 f32 matrix (44 MB, form_q's identity seed) on
// the calling thread, into fresh storage each iteration (arg fresh = 1: the
// allocation, its first-touch page faults and its release) or into storage
// reused across iterations (fresh = 0). The difference is what a fresh Q
// pays for its pages.
void BM_FillMatrix(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  const bool fresh = state.range(2) != 0;
  Matrix<float> kept(m, n);
  for (auto _ : state) {
    if (fresh) {
      Matrix<float> q(m, n);
      q.view().fill(0.0f);
      benchmark::DoNotOptimize(q.data());
      benchmark::ClobberMemory();
    } else {
      kept.view().fill(0.0f);
      benchmark::DoNotOptimize(kept.data());
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_FillMatrix)->Args({110592, 100, 1})->Args({110592, 100, 0})
    ->ArgNames({"m", "n", "fresh"})->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The host pool itself: parallel_for over items of fixed arithmetic, a
// serial chain of multiply-adds. An item is a number of steps, not a span
// of time, so an item that shares its CPU with another takes longer (an
// item that spun on a clock would finish on schedule and hide that).
double chain(std::size_t steps, double x) {
  for (std::size_t s = 0; s < steps; ++s) x = x * 0.999999 + 1e-6;
  return x;
}

// Steps of chain() per microsecond on the calling thread (best of five).
std::size_t steps_per_us() {
  static const std::size_t rate = [] {
    constexpr std::size_t kProbe = std::size_t{1} << 22;
    double best = 1e30;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(chain(kProbe, r));
      best = std::min(best, std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    return std::max<std::size_t>(1, static_cast<std::size_t>(kProbe / best));
  }();
  return rate;
}

int current_cpu() {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

// CPUs in this process's affinity set (0 where it cannot be read).
int affinity_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return 0;
}

// `items` items of `us` microseconds each; each item notes its CPU.
struct PoolJob {
  PoolJob(std::size_t items, std::size_t us)
      : steps(steps_per_us() * us), out(items), cpu(items) {}
  void operator()(std::size_t i) {
    out[i] = chain(steps, static_cast<double>(i));
    cpu[i] = current_cpu();
  }
  std::size_t cpus() const { return std::set<int>(cpu.begin(), cpu.end()).size(); }
  // Mean seconds of running every item on the calling thread.
  double inline_seconds() {
    constexpr int kReps = 5;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t i = 0; i < out.size(); ++i) (*this)(i);
    }
    benchmark::DoNotOptimize(out.data());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() /
           kReps;
  }
  std::size_t steps;
  std::vector<double> out;
  std::vector<int> cpu;
};

// A pool sized like ThreadPool::global(); warm = it first ran one job of
// about 256 ms of items (on one CPU that long a job lets the scheduler
// spread the workers).
std::unique_ptr<ThreadPool> make_pool(bool warm) {
  auto pool = std::make_unique<ThreadPool>(0);
  if (warm) {
    PoolJob job(64, 4000);
    pool->parallel_for(64, [&](std::size_t i) { job(i); });
  }
  return pool;
}

// parallel_for of `items` items of `us` microseconds (args items, us) on a
// pool built for the row: fresh (warm = 0, its workers have run nothing
// before the timed calls) or warm (make_pool). Manual time covers the
// parallel_for calls only. Counters: speedup over running the same items
// inline, and the distinct CPUs (sched_getcpu) one call's items ran on.
void BM_PoolParallelFor(benchmark::State& state) {
  const auto items = static_cast<std::size_t>(state.range(0));
  PoolJob job(items, static_cast<std::size_t>(state.range(1)));
  const auto pool = make_pool(state.range(2) != 0);
  const std::function<void(std::size_t)> fn = [&](std::size_t i) { job(i); };
  double pooled = 0.0, cpus = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    pool->parallel_for(items, fn);
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    state.SetIterationTime(t);
    pooled += t;
    cpus += static_cast<double>(job.cpus());
  }
  const auto n = static_cast<double>(state.iterations());
  state.counters["speedup"] = job.inline_seconds() / (pooled / n);
  state.counters["cpus_per_call"] = cpus / n;
  state.counters["pool_threads"] = static_cast<double>(pool->size());
}
BENCHMARK(BM_PoolParallelFor)
    ->ArgsProduct({{4, 16, 64}, {10, 40, 300}, {0, 1}})
    ->ArgNames({"items", "us", "warm"})->UseManualTime()->Iterations(50)
    ->Unit(benchmark::kMicrosecond);

// Two threads call parallel_for on one warm pool at once, 64 items of
// 40 us each, as two serve workers share ThreadPool::global(). Time is the
// wall time of both calls; speedup is over running both jobs inline, and
// cpus_per_call is the mean over the two calls.
void BM_PoolTwoCallers(benchmark::State& state) {
  constexpr std::size_t kItems = 64, kUs = 40;
  PoolJob a(kItems, kUs), b(kItems, kUs);
  const auto pool = make_pool(true);
  const std::function<void(std::size_t)> fa = [&](std::size_t i) { a(i); };
  const std::function<void(std::size_t)> fb = [&](std::size_t i) { b(i); };
  double wall = 0.0, cpus = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    std::thread other([&] { pool->parallel_for(kItems, fb); });
    pool->parallel_for(kItems, fa);
    other.join();
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    state.SetIterationTime(t);
    wall += t;
    cpus += 0.5 * static_cast<double>(a.cpus() + b.cpus());
  }
  const auto n = static_cast<double>(state.iterations());
  state.counters["speedup"] =
      (a.inline_seconds() + b.inline_seconds()) / (wall / n);
  state.counters["cpus_per_call"] = cpus / n;
}
BENCHMARK(BM_PoolTwoCallers)->UseManualTime()->Iterations(50)
    ->Unit(benchmark::kMicrosecond);

void BM_ReferenceGeqrf(benchmark::State& state) {
  const idx m = state.range(0), n = 64;
  auto a0 = gaussian_matrix<double>(m, n, 8);
  Matrix<double> a(m, n);
  std::vector<double> tau(static_cast<std::size_t>(n));
  for (auto _ : state) {
    a.view().copy_from(a0.view());
    geqrf(a.view(), tau.data());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(geqrf_flop_count(m, n)));
}
BENCHMARK(BM_ReferenceGeqrf)->Arg(1024)->Arg(8192);

template <typename T>
void BM_JacobiSvdSmall(benchmark::State& state) {
  // The R-factor SVD inside the application pipeline; float at 64 is the
  // stream's window shape.
  const idx n = state.range(0);
  auto a = gaussian_matrix<T>(n, n, 9);
  for (auto _ : state) {
    auto f = jacobi_svd(a.view());
    benchmark::DoNotOptimize(f.sigma.data());
  }
}
BENCHMARK_TEMPLATE(BM_JacobiSvdSmall, double)->Arg(32)->Arg(100);
BENCHMARK_TEMPLATE(BM_JacobiSvdSmall, float)->Arg(64)->Arg(100);

void BM_StreamLeadingSubspace(benchmark::State& state) {
  // The stream's per-frame background subspace: the seeded subspace
  // iteration on a 64 x 64 camera-window R (16 frames of 160 x 64: a rank-2
  // background at 0.1, a 0.5 offset with 0.01 noise, a moving bright
  // block), the end-to-end stream_cameras shape. Compare with
  // BM_JacobiSvdSmall<float>/64, the full SVD it replaces.
  constexpr idx kRows = 160, kCols = 64;
  gpusim::Device dev;
  stream::SlidingWindowQr<float> win(kCols);
  const auto u = gaussian_matrix<float>(kRows, 2, 7919);
  const auto v = gaussian_matrix<float>(kCols, 2, 8016);
  Rng noise(41);
  for (idx f = 0; f < 16; ++f) {
    Matrix<float> frame = Matrix<float>::zeros(kRows, kCols);
    gemm(Trans::No, Trans::Yes, 0.1f, u.view(), v.view(), 0.0f, frame.view());
    for (idx j = 0; j < kCols; ++j) {
      for (idx i = 0; i < kRows; ++i) {
        frame(i, j) += 0.5f + 0.01f * static_cast<float>(noise.normal());
      }
    }
    for (idx j = f; j < f + 8; ++j) {
      for (idx i = 3 * f; i < 3 * f + 16; ++i) frame(i, j) += 0.8f;
    }
    win.append(dev, frame.view());
  }
  const Matrix<float>& r = win.r(dev);
  svd::SubspaceWorkspace<float> ws(kCols);
  int steps = 0;
  for (auto _ : state) {
    const auto ls = svd::leading_subspace_of_r(r.view(), 0.95, ws);
    if (!ls.converged) state.SkipWithError("subspace iteration fell back");
    steps = ls.steps;
    benchmark::DoNotOptimize(ls.v.data());
  }
  state.counters["steps"] = steps;
}
BENCHMARK(BM_StreamLeadingSubspace);

// CholeskyQR's host arithmetic at the serve_mixed class shape (8192 x 32)
// and the paper's (110,592 x 100), f32: the Gram (syrk_t) and the right
// upper triangular solve, both on the calling thread, and a whole
// CholeskyQR2 as adaptive_qr serves it (copy, two Gram + Cholesky + solve
// passes, R update). Wall time; each row reports hardware_threads.
void BM_SyrkT(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  const auto a = gaussian_matrix<float>(m, n, 31);
  auto g = Matrix<float>::zeros(n, n);
  for (auto _ : state) {
    syrk_t(1.0f, a.view(), 0.0f, g.view());
    benchmark::DoNotOptimize(g.data());
  }
  state.counters["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * (n + 1)));
}
BENCHMARK(BM_SyrkT)->Args({8192, 32})->Args({110592, 100})->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrsmRightUpper(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  const auto b0 = gaussian_matrix<float>(m, n, 32);
  auto t = Matrix<float>::identity(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < j; ++i) t(i, j) = 0.01f;
  }
  auto b = b0.clone();
  for (auto _ : state) {
    state.PauseTiming();
    b.view().copy_from(b0.view());
    state.ResumeTiming();
    trsm(Side::Right, UpLo::Upper, Trans::No, t.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * n));
}
BENCHMARK(BM_TrsmRightUpper)->Args({8192, 32})->Args({110592, 100})
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_CholQr2Host(benchmark::State& state) {
  const idx m = state.range(0), n = state.range(1);
  const auto a = gaussian_matrix<float>(m, n, 33);
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::Functional);
  for (auto _ : state) {
    auto res = adaptive_qr(dev, a.view(), QrAlgorithm::CholeskyQr2);
    if (res.cholqr_fallback) state.SkipWithError("CholeskyQR2 fell back");
    benchmark::DoNotOptimize(res.q.data());
  }
  state.counters["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_CholQr2Host)->Args({8192, 32})->Args({110592, 100})->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_StackedGeqr2(benchmark::State& state) {
  // The factor_tree kernel core: a quad-tree combine of 16-wide triangles.
  const idx w = 16, k = state.range(0);
  auto stack0 = Matrix<float>::zeros(k * w, w);
  Rng rng(10);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) {
        stack0(b * w + i, j) = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  }
  Matrix<float> s(k * w, w);
  std::vector<float> tau(static_cast<std::size_t>(w));
  std::vector<float> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  for (auto _ : state) {
    s.view().copy_from(stack0.view());
    kernels::stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::stacked_geqr2_flops(w, k)));
}
BENCHMARK(BM_StackedGeqr2)->Arg(2)->Arg(4)->Arg(8);

void BM_StackedApplyQt(benchmark::State& state) {
  // The apply_qt_tree kernel core: one 16-column tile of a k-way combine.
  const idx w = 16, k = state.range(0), nc = 16;
  auto s = Matrix<float>::zeros(k * w, w);
  Rng rng(13);
  for (idx b = 0; b < k; ++b) {
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) {
        s(b * w + i, j) = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  }
  std::vector<float> tau(static_cast<std::size_t>(w));
  std::vector<float> scratch(static_cast<std::size_t>(1 + (k - 1) * w));
  kernels::stacked_geqr2(s.view(), w, k, tau.data(), scratch.data());
  auto c0 = gaussian_matrix<float>(k * w, nc, 14);
  Matrix<float> c(k * w, nc);
  for (auto _ : state) {
    c.view().copy_from(c0.view());
    kernels::stacked_apply(s.as_const(), w, k, tau.data(), c.view(), true);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kernels::stacked_apply_qt_flops(w, k, nc)));
}
BENCHMARK(BM_StackedApplyQt)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "dispatched_isa",
      caqr::kernels::simd::isa_name(caqr::kernels::simd::active_isa()));
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("affinity_cpus",
                              std::to_string(affinity_cpus()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
