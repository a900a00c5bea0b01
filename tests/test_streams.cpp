// Tests for the stream/event device timeline, the two-stream look-ahead
// CAQR schedule, the chrome-trace exporter, zero-width edge cases, and the
// thread-pool nesting / exception-propagation fixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "caqr/caqr.hpp"
#include "gpusim/device.hpp"
#include "gpusim/report.hpp"
#include "kernels/kernels.hpp"
#include "linalg/random_matrix.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr {
namespace {

using gpusim::BlockStats;
using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

GpuMachineModel clean_model() {
  auto m = GpuMachineModel::c2050();
  m.issue_stall_factor = 1.0;  // exact cycle arithmetic in expectations
  return m;
}

double overhead(const GpuMachineModel& m) { return m.kernel_launch_us * 1e-6; }

kernels::CostOnlyKernel latency_kernel(double cycles) {
  BlockStats s;
  s.issue_cycles = cycles;
  return kernels::CostOnlyKernel{"latency", s};
}

// --------------------------------------------------------------------------
// Stream timeline primitives
// --------------------------------------------------------------------------

// Two single-block (latency-floor-bound) kernels on independent streams use
// 1/14 of the SM pool each, so they overlap fully: the makespan is one
// kernel, not two — the whole point of the stream model.
TEST(Streams, LatencyBoundKernelsOverlap) {
  const auto model = clean_model();
  const double d = 1e6 / model.clock_hz();
  const double ovh = overhead(model);

  Device dev(model, ExecMode::ModelOnly);
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const auto k = latency_kernel(1e6);
  dev.launch(s1, k, 1);
  dev.launch(s2, k, 1);
  const double concurrent = dev.sync();
  EXPECT_NEAR(concurrent, ovh + d, (ovh + d) * 1e-12);

  Device serial(model, ExecMode::ModelOnly);
  serial.launch(k, 1);
  serial.launch(k, 1);
  EXPECT_NEAR(serial.elapsed_seconds(), 2 * (ovh + d), 1e-15);
  EXPECT_LT(concurrent, serial.elapsed_seconds());
}

// Two launches that each saturate the SM pool cannot speed up by
// overlapping: the fluid model is work-conserving, so the makespan equals
// the serial sum of core times (one launch overhead is hidden).
TEST(Streams, ComputeBoundSharingIsWorkConserving) {
  const auto model = clean_model();
  const double d = 28.0 * 1e6 / 14.0 / model.clock_hz();
  const double ovh = overhead(model);

  Device dev(model, ExecMode::ModelOnly);
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const auto k = latency_kernel(1e6);
  dev.launch(s1, k, 28);
  dev.launch(s2, k, 28);
  EXPECT_NEAR(dev.elapsed_seconds(), ovh + 2 * d, (ovh + 2 * d) * 1e-12);
}

// A DRAM-saturating kernel and a latency-bound (compute) kernel use
// different resources, so they overlap fully.
TEST(Streams, MemoryAndComputeBoundKernelsOverlap) {
  const auto model = clean_model();
  const double ovh = overhead(model);

  BlockStats mem;
  mem.gmem_bytes = model.dram_bw_gbs * 1e9 / 100.0;  // 10 ms of DRAM traffic
  const kernels::CostOnlyKernel mk{"mem", mem};
  const auto ck = latency_kernel(1e6);  // ~0.87 ms on one SM

  Device dev(model, ExecMode::ModelOnly);
  dev.launch(dev.create_stream(), mk, 1);
  dev.launch(dev.create_stream(), ck, 1);
  EXPECT_NEAR(dev.elapsed_seconds(), ovh + 0.01, 1e-12);
  EXPECT_EQ(dev.trace().size(), 2u);
}

// record_event / wait_event serialize across streams, including the waiting
// stream's own launch overhead.
TEST(Streams, EventSerializesAcrossStreams) {
  const auto model = clean_model();
  const double d = 1e6 / model.clock_hz();
  const double ovh = overhead(model);

  Device dev(model, ExecMode::ModelOnly);
  const auto s1 = dev.create_stream();
  const auto s2 = dev.create_stream();
  const auto k = latency_kernel(1e6);
  dev.launch(s1, k, 1);
  const auto e = dev.record_event(s1);
  dev.wait_event(s2, e);
  dev.launch(s2, k, 1);
  EXPECT_NEAR(dev.elapsed_seconds(), 2 * ovh + 2 * d, 1e-15);
}

// The legacy default stream is a device-wide barrier: it joins async work
// before running, exactly like the CUDA legacy stream.
TEST(Streams, DefaultStreamBarrier) {
  const auto model = clean_model();
  const double d = 1e6 / model.clock_hz();
  const double ovh = overhead(model);

  Device dev(model, ExecMode::ModelOnly);
  const auto k = latency_kernel(1e6);
  dev.launch(dev.create_stream(), k, 1);
  dev.launch(k, 1);  // legacy launch: joins the async stream first
  EXPECT_NEAR(dev.elapsed_seconds(), 2 * (ovh + d), 1e-15);
  ASSERT_EQ(dev.trace().size(), 2u);
  EXPECT_LE(dev.trace()[0].t_end, dev.trace()[1].t_start);
}

// A lone async stream followed by sync() reproduces the legacy serial
// timeline bit for bit: same launches, same arithmetic, same clock.
TEST(Streams, SingleAsyncStreamMatchesLegacyBitwise) {
  const auto model = GpuMachineModel::c2050();
  const auto k1 = latency_kernel(1e6);
  const auto k2 = latency_kernel(3e5);

  Device legacy(model, ExecMode::ModelOnly);
  legacy.launch(k1, 5);
  legacy.launch(k2, 40);
  legacy.launch(k1, 1);

  Device async(model, ExecMode::ModelOnly);
  const auto s = async.create_stream();
  async.launch(s, k1, 5);
  async.launch(s, k2, 40);
  async.launch(s, k1, 1);
  async.sync();

  EXPECT_DOUBLE_EQ(async.elapsed_seconds(), legacy.elapsed_seconds());
}

// With the concurrent-kernel limit forced to 1, streams still interleave
// correctly — kernels run back to back, overheads overlap execution.
TEST(Streams, ConcurrentKernelCapSerializesExecution) {
  auto model = clean_model();
  model.max_concurrent_kernels = 1;
  const double d = 1e6 / model.clock_hz();
  const double ovh = overhead(model);

  Device dev(model, ExecMode::ModelOnly);
  const auto k = latency_kernel(1e6);
  dev.launch(dev.create_stream(), k, 1);
  dev.launch(dev.create_stream(), k, 1);
  // The second stream's launch overhead is paid concurrently with the first
  // kernel's execution; only the execution spans serialize.
  EXPECT_NEAR(dev.elapsed_seconds(), ovh + 2 * d, 1e-15);
}

TEST(Streams, ProfilesAndResetTimeline) {
  const auto model = clean_model();
  Device dev(model, ExecMode::ModelOnly);
  const auto k = latency_kernel(1e6);
  dev.launch(dev.create_stream(), k, 2);
  dev.launch(dev.create_stream(), k, 3);

  const auto* p = dev.profile("latency");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->launches, 2);
  EXPECT_EQ(p->blocks, 5);

  dev.reset_timeline();
  EXPECT_DOUBLE_EQ(dev.elapsed_seconds(), 0.0);
  EXPECT_TRUE(dev.trace().empty());
  EXPECT_EQ(dev.profile("latency"), nullptr);
}

// --------------------------------------------------------------------------
// Look-ahead CAQR schedule
// --------------------------------------------------------------------------

CaqrOptions small_opts(CaqrSchedule schedule) {
  CaqrOptions opt;
  opt.schedule = schedule;
  opt.panel_width = 8;
  opt.tsqr.block_rows = 32;
  return opt;
}

// The split trailing update touches disjoint columns with the same kernels,
// so LookAhead must produce bit-identical results to Serial: packed factors,
// R, and the explicit Q.
template <typename T>
void expect_schedules_bitwise_identical(idx m, idx n, int seed) {
  const auto a = gaussian_matrix<T>(m, n, seed);
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);

  const auto fs = caqr_factor(dev, a.view(), small_opts(CaqrSchedule::Serial));
  const auto fl = caqr_factor(dev, a.view(), small_opts(CaqrSchedule::LookAhead));

  const auto& ps = fs.packed();
  const auto& pl = fl.packed();
  ASSERT_EQ(ps.rows(), pl.rows());
  ASSERT_EQ(ps.cols(), pl.cols());
  for (idx i = 0; i < ps.rows(); ++i) {
    for (idx j = 0; j < ps.cols(); ++j) {
      ASSERT_EQ(ps(i, j), pl(i, j)) << "packed mismatch at " << i << "," << j;
    }
  }

  const idx qcols = std::min(m, n);
  const auto qs = fs.form_q(dev, qcols);
  const auto ql = fl.form_q(dev, qcols);
  for (idx i = 0; i < m; ++i) {
    for (idx j = 0; j < qcols; ++j) {
      ASSERT_EQ(qs(i, j), ql(i, j)) << "Q mismatch at " << i << "," << j;
    }
  }
}

TEST(CaqrLookAhead, BitIdenticalToSerialTall) {
  expect_schedules_bitwise_identical<double>(300, 48, 1001);
}

TEST(CaqrLookAhead, BitIdenticalToSerialWide) {
  expect_schedules_bitwise_identical<double>(64, 160, 1002);
}

TEST(CaqrLookAhead, BitIdenticalToSerialRaggedFloat) {
  expect_schedules_bitwise_identical<float>(131, 29, 1003);
}

TEST(CaqrLookAhead, BitIdenticalToSerialSinglePanel) {
  expect_schedules_bitwise_identical<double>(96, 8, 1004);
}

// The factorization still satisfies A = Q R under the overlap schedule.
TEST(CaqrLookAhead, ReconstructsA) {
  const idx m = 200, n = 40;
  const auto a = gaussian_matrix<double>(m, n, 1005);
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);
  const auto f = caqr_factor(dev, a.view(), small_opts(CaqrSchedule::LookAhead));
  const auto q = f.form_q(dev, n);
  const auto r = f.r();
  for (idx i = 0; i < m; ++i) {
    for (idx j = 0; j < n; ++j) {
      double qr = 0;
      for (idx k = 0; k < n; ++k) qr += q(i, k) * r(k, j);
      ASSERT_NEAR(qr, a(i, j), 1e-10);
    }
  }
}

// Acceptance: on the paper's headline 1M x 192 SGEQRF (ModelOnly), the
// look-ahead schedule is strictly faster than Figure 4's serial schedule.
TEST(CaqrLookAhead, ModelOnlyStrictlyFasterAtPaperScale) {
  const idx m = 1 << 20, n = 192;
  auto seconds = [&](CaqrSchedule schedule) {
    Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
    CaqrOptions opt;
    opt.schedule = schedule;
    auto f = CaqrFactorization<float>::factor(
        dev, Matrix<float>::shape_only(m, n), opt);
    (void)f;
    return dev.elapsed_seconds();
  };
  const double t_serial = seconds(CaqrSchedule::Serial);
  const double t_look = seconds(CaqrSchedule::LookAhead);
  EXPECT_LT(t_look, t_serial);
  // Work conservation: overlap can hide overheads and latency slack but
  // cannot beat the serial schedule by more than what it hides.
  EXPECT_GT(t_look, 0.5 * t_serial);
}

// The simulated timeline is a pure function of the issue sequence:
// Functional and ModelOnly runs of the same schedule agree bit for bit,
// event by event.
TEST(CaqrLookAhead, FunctionalAndModelOnlyTimelinesBitIdentical) {
  const idx m = 1024, n = 96;
  const auto a = gaussian_matrix<float>(m, n, 1006);
  CaqrOptions opt;
  opt.schedule = CaqrSchedule::LookAhead;

  Device fdev(GpuMachineModel::c2050(), ExecMode::Functional);
  auto ff = caqr_factor(fdev, a.view(), opt);
  (void)ff;
  Device mdev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto mf = caqr_factor(mdev, a.view(), opt);
  (void)mf;

  EXPECT_DOUBLE_EQ(fdev.elapsed_seconds(), mdev.elapsed_seconds());
  const auto& ft = fdev.trace();
  const auto& mt = mdev.trace();
  ASSERT_EQ(ft.size(), mt.size());
  ASSERT_FALSE(ft.empty());
  for (std::size_t i = 0; i < ft.size(); ++i) {
    EXPECT_EQ(ft[i].name, mt[i].name);
    EXPECT_EQ(ft[i].stream, mt[i].stream);
    EXPECT_EQ(ft[i].blocks, mt[i].blocks);
    EXPECT_DOUBLE_EQ(ft[i].t_start, mt[i].t_start);
    EXPECT_DOUBLE_EQ(ft[i].t_end, mt[i].t_end);
  }
}

// The look-ahead trace really uses two streams with overlapping spans.
TEST(CaqrLookAhead, TraceShowsTwoOverlappingStreams) {
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  CaqrOptions opt;
  opt.schedule = CaqrSchedule::LookAhead;
  auto f = CaqrFactorization<float>::factor(
      dev, Matrix<float>::shape_only(1 << 16, 96), opt);
  (void)f;

  std::vector<int> streams;
  bool overlap = false;
  const auto& tr = dev.trace();
  for (const auto& e : tr) {
    if (std::find(streams.begin(), streams.end(), e.stream) == streams.end()) {
      streams.push_back(e.stream);
    }
    for (const auto& o : tr) {
      if (o.stream != e.stream && o.t_start < e.t_end && e.t_start < o.t_end) {
        overlap = true;
      }
    }
  }
  EXPECT_EQ(streams.size(), 2u);
  EXPECT_TRUE(overlap);
}

// --------------------------------------------------------------------------
// Zero-width edge cases (LAPACK xGEQRF / xORGQR semantics for n == 0)
// --------------------------------------------------------------------------

TEST(ZeroWidth, CaqrZeroColumns) {
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);
  const auto empty6 = Matrix<double>::zeros(6, 0);
  const auto f = caqr_factor(dev, empty6.view());
  EXPECT_EQ(f.rows(), 6);
  EXPECT_EQ(f.cols(), 0);
  EXPECT_EQ(f.r().rows(), 0);
  EXPECT_EQ(f.r().cols(), 0);
  EXPECT_DOUBLE_EQ(dev.elapsed_seconds(), 0.0);  // no launches

  // Q is the identity: form_q returns identity columns, apply_qt is a no-op.
  const auto q = f.form_q(dev, 3);
  EXPECT_EQ(q.rows(), 6);
  EXPECT_EQ(q.cols(), 3);
  for (idx i = 0; i < 6; ++i) {
    for (idx j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(q(i, j), i == j ? 1.0 : 0.0);
  }
  auto c = gaussian_matrix<double>(6, 2, 1100);
  const auto c0 = Matrix<double>::from(c.view().as_const());
  f.apply_qt(dev, c.view());
  for (idx i = 0; i < 6; ++i) {
    for (idx j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(c(i, j), c0(i, j));
  }
}

TEST(ZeroWidth, CaqrZeroRowsAndEmpty) {
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);
  const auto empty0 = Matrix<double>::zeros(0, 0);
  const auto f = caqr_factor(dev, empty0.view());
  EXPECT_EQ(f.rows(), 0);
  EXPECT_EQ(f.cols(), 0);
  const auto q = f.form_q(dev, 0);
  EXPECT_EQ(q.rows(), 0);
  EXPECT_EQ(q.cols(), 0);
}

TEST(ZeroWidth, TsqrZeroWidthPanel) {
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);
  const auto res = tsqr::tsqr(dev, Matrix<double>::zeros(8, 0).view());
  EXPECT_EQ(res.meta.width, 0);
  EXPECT_EQ(res.meta.rows, 8);
  EXPECT_EQ(res.r().rows(), 0);
  EXPECT_DOUBLE_EQ(dev.elapsed_seconds(), 0.0);

  // Applying the zero-width factor leaves the right-hand side untouched.
  auto c = gaussian_matrix<double>(8, 3, 1101);
  const auto c0 = Matrix<double>::from(c.view().as_const());
  tsqr::tsqr_apply(dev, gpusim::kDefaultStream, res.storage.view(), res.meta,
                   c.view(), tsqr::TsqrOptions{}, /*transpose_q=*/true);
  for (idx i = 0; i < 8; ++i) {
    for (idx j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(c(i, j), c0(i, j));
  }
  EXPECT_DOUBLE_EQ(dev.elapsed_seconds(), 0.0);
}

TEST(ZeroWidth, ApplyToZeroColumnRhs) {
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);
  const auto a = gaussian_matrix<double>(64, 16, 1102);
  const auto f = caqr_factor(dev, a.view());
  const double t = dev.elapsed_seconds();
  auto c = Matrix<double>::zeros(64, 0);
  f.apply_qt(dev, c.view());
  f.apply_q(dev, c.view());
  EXPECT_DOUBLE_EQ(dev.elapsed_seconds(), t);  // no launches issued
}

// --------------------------------------------------------------------------
// chrome://tracing export
// --------------------------------------------------------------------------

// Minimal structural JSON check: braces/brackets balance outside strings,
// strings terminate, and the document is a single object.
void expect_structurally_valid_json(const std::string& s) {
  ASSERT_FALSE(s.empty());
  ASSERT_EQ(s.front(), '{');
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(TraceJson, ParseableAndRoundTrips) {
  Device dev(GpuMachineModel::c2050(), ExecMode::Functional);
  const auto a = gaussian_matrix<float>(256, 32, 1200);
  CaqrOptions opt;
  opt.schedule = CaqrSchedule::LookAhead;
  auto f = caqr_factor(dev, a.view(), opt);
  (void)f;

  const std::string json = gpusim::trace_json(dev);
  expect_structurally_valid_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  const std::string path = testing::TempDir() + "caqr_trace_test.json";
  ASSERT_TRUE(json::write_json_file(path, json));
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::string back;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0) {
    back.append(buf, got);
  }
  std::fclose(fp);
  std::remove(path.c_str());
  EXPECT_EQ(back, json);
}

TEST(TraceJson, EmptyTimelineIsValid) {
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  const std::string json = gpusim::trace_json(dev);
  expect_structurally_valid_json(json);
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
  // otherData is spliced in as the JSON value it already is.
  EXPECT_EQ(gpusim::trace_json(dev, R"({"label":"a\"b","residual":null})"),
            R"({"displayTimeUnit":"ms","traceEvents":[],)"
            R"("otherData":{"label":"a\"b","residual":null}})");
}

// --------------------------------------------------------------------------
// Thread-pool regressions
// --------------------------------------------------------------------------

// A parallel_for issued from inside another parallel_for's item must run
// inline instead of aborting (the old code hard-CHECKed on nesting).
TEST(ThreadPoolRegression, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

// Device::launch reached from user code already running on the pool (the
// original crash): the nested functional launch degrades to inline serial.
TEST(ThreadPoolRegression, DeviceLaunchInsideParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> ok{0};
  pool.parallel_for(4, [&](std::size_t) {
    Device dev(GpuMachineModel::c2050(), ExecMode::Functional, &pool);
    const auto a = gaussian_matrix<double>(64, 8, 1300);
    const auto f = caqr_factor(dev, a.view());
    if (f.r().rows() == 8) ok.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 4);
}

// An exception thrown by a pool item — on whichever thread claimed it — is
// rethrown on the calling thread, and the pool stays usable afterwards.
TEST(ThreadPoolRegression, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 537) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolRegression, ExceptionOnFirstItem) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   64, [&](std::size_t i) {
                     if (i == 0) throw std::logic_error("first");
                   }),
               std::logic_error);
}

// Two threads submitting to the same pool at once: the pool runs one job at
// a time, the loser runs inline — either way every item executes exactly
// once.
TEST(ThreadPoolRegression, ConcurrentSubmittersAllItemsRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(100, [&](std::size_t) {
          count.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(count.load(), 4 * 20 * 100);
}

}  // namespace
}  // namespace caqr
