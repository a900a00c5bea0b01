// Tests for the batched QR serving layer (src/serve/): plan-cache hit/miss
// accounting and machine-model fingerprint invalidation, work-queue
// semantics (backpressure, deadlines, priority/FIFO dispatch), determinism
// of pooled results across worker counts, bit-identity of the fused
// same-shape batch path against solo factorizations, and Robust PCA routed
// through the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "rpca/rpca.hpp"
#include "serve/solver_pool.hpp"

namespace caqr::serve {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

template <typename T>
void expect_bits_equal(const Matrix<T>& a, const Matrix<T>& b,
                       const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------- PlanCache

TEST(PlanCache, MissThenHit) {
  PlanCache cache(8);
  const auto model = GpuMachineModel::c2050();
  auto first = cache.lookup<float>(model, 4096, 64);
  EXPECT_FALSE(first.hit);
  auto second = cache.lookup<float>(model, 4096, 64);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);
  // Identical keys return the identical plan object.
  EXPECT_EQ(first.plan.get(), second.plan.get());
  // Different shape, dtype, or requested algorithm: distinct entries.
  EXPECT_FALSE(cache.lookup<float>(model, 8192, 64).hit);
  EXPECT_FALSE(cache.lookup<double>(model, 4096, 64).hit);
  EXPECT_FALSE(
      cache.lookup<float>(model, 4096, 64, QrAlgorithm::Hybrid).hit);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(PlanCache, LruEvictionPastCapacity) {
  PlanCache cache(2);
  const auto model = GpuMachineModel::c2050();
  cache.lookup<float>(model, 1024, 32);
  cache.lookup<float>(model, 2048, 32);
  cache.lookup<float>(model, 4096, 32);  // evicts 1024 (least recent)
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup<float>(model, 4096, 32).hit);
  EXPECT_FALSE(cache.lookup<float>(model, 1024, 32).hit);  // re-inserted
}

TEST(PlanCache, ModelFingerprintInvalidates) {
  const auto c2050 = GpuMachineModel::c2050();
  GpuMachineModel tweaked = c2050;
  tweaked.dram_bw_gbs += 1.0;
  EXPECT_EQ(c2050.fingerprint(), GpuMachineModel::c2050().fingerprint());
  EXPECT_NE(c2050.fingerprint(), tweaked.fingerprint());
  EXPECT_NE(c2050.fingerprint(), GpuMachineModel::gtx480().fingerprint());

  PlanCache cache(8);
  EXPECT_FALSE(cache.lookup<float>(c2050, 4096, 64).hit);
  // Same shape on a changed model must MISS: stale plans never served.
  EXPECT_FALSE(cache.lookup<float>(tweaked, 4096, 64).hit);
  EXPECT_TRUE(cache.lookup<float>(c2050, 4096, 64).hit);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(PlanCache, PlanMatchesAutotuneAndPrediction) {
  const auto model = GpuMachineModel::c2050();
  const QrPlan p = make_plan<float>(model, 110592, 100);
  const auto tuned = autotune::autotune_block_size(model);
  EXPECT_EQ(p.tuned.block_rows, tuned.block_rows);
  EXPECT_EQ(p.tuned.panel_width, tuned.panel_width);
  EXPECT_EQ(p.caqr.panel_width, tuned.panel_width);
  EXPECT_EQ(p.caqr.tsqr.block_rows, tuned.block_rows);
  EXPECT_GT(p.predicted_caqr_seconds, 0.0);
  EXPECT_GT(p.predicted_hybrid_seconds, 0.0);
  // The paper's tall-skinny regime: CAQR must win at 110592 x 100.
  EXPECT_EQ(p.chosen, QrAlgorithm::Caqr);
  EXPECT_DOUBLE_EQ(
      p.predicted_caqr_seconds,
      predict_caqr_seconds<float>(model, 110592, 100, p.caqr));
}

// Many threads hammer a cold cache with a small key set: every key must be
// planned exactly once (misses publish a slot, planning runs outside the
// lock under per-key call_once; same-key racers wait on the slot instead of
// re-planning), and every returned plan for a key must be the same object.
TEST(PlanCache, ConcurrentMissesPlanEachKeyExactlyOnce) {
  PlanCache cache(64);
  const auto model = GpuMachineModel::c2050();
  constexpr int kThreads = 8;
  constexpr int kKeys = 5;
  constexpr int kRounds = 40;
  std::vector<std::array<std::shared_ptr<const QrPlan>, kKeys>> seen(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int k = (t + r) % kKeys;
        auto got = cache.lookup<float>(model, 1024 + 512 * k, 32);
        ASSERT_NE(got.plan, nullptr);
        EXPECT_EQ(got.plan->key.rows, 1024 + 512 * k);
        seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] =
            got.plan;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.plans_computed(), kKeys)
      << "duplicate planning sweeps under concurrent misses";
  EXPECT_EQ(cache.misses() + cache.hits(),
            static_cast<long long>(kThreads) * kRounds);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)],
                seen[0][static_cast<std::size_t>(k)])
          << "threads observed different plan objects for one key";
    }
  }
}

// --------------------------------------------------------------- SolverPool

// Holds a 1-worker pool at a latch so queue states can be set up exactly.
struct WorkerLatch {
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_fut{release.get_future()};

  std::future<RequestStatus> block(SolverPool& pool) {
    return pool.submit_task([this](gpusim::Device&) {
      started.set_value();
      release_fut.wait();
    });
  }
};

TEST(SolverPool, BackpressureRejectsPastHighWaterMark) {
  PoolOptions po;
  po.workers = 1;
  po.queue_capacity = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();  // worker busy, queue empty

  auto queued = pool.submit_task([](gpusim::Device&) {});  // queue now full
  auto rejected =
      pool.try_submit(Matrix<float>::shape_only(1024, 32));
  EXPECT_EQ(rejected.get().status, RequestStatus::Rejected);

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(queued.get(), RequestStatus::Done);
  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.completed, 2);
}

TEST(SolverPool, DeadlineExpiresWhileQueued) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  RequestOptions tight;
  tight.deadline_seconds = 1e-4;
  auto doomed = pool.submit(Matrix<float>::shape_only(4096, 64), tight);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  latch.release.set_value();
  EXPECT_EQ(doomed.get().status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(pool.stats().expired, 1);

  // A comfortable deadline on an idle pool runs normally.
  RequestOptions loose;
  loose.deadline_seconds = 60.0;
  EXPECT_EQ(pool.submit(Matrix<float>::shape_only(4096, 64), loose)
                .get()
                .status,
            RequestStatus::Done);
}

TEST(SolverPool, ShedsAtConfiguredDepthInsteadOfBlocking) {
  PoolOptions po;
  po.workers = 1;
  po.queue_capacity = 8;  // backpressure far away: shedding must act first
  po.shed_queue_depth = 2;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  auto q1 = pool.submit_task([](gpusim::Device&) {});
  auto q2 = pool.submit_task([](gpusim::Device&) {});  // depth now 2
  // Admission control: at the watermark the request is turned away
  // immediately with a typed status — submit() does not block and the
  // request never occupies a slot it would miss its deadline in.
  auto shed = pool.submit(Matrix<float>::shape_only(1024, 32));
  EXPECT_EQ(shed.get().status, RequestStatus::Shed);
  EXPECT_STREQ(request_status_name(RequestStatus::Shed), "shed");

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(q1.get(), RequestStatus::Done);
  EXPECT_EQ(q2.get(), RequestStatus::Done);
  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.completed, 3);
}

TEST(SolverPool, InfeasibleDeadlineShedAtAdmission) {
  PoolOptions po;
  po.workers = 1;
  po.shed_infeasible_deadlines = true;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  // Prime the service-time estimate with one completed solve.
  EXPECT_EQ(pool.submit(Matrix<float>::shape_only(4096, 64)).get().status,
            RequestStatus::Done);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();
  auto queued = pool.submit_task([](gpusim::Device&) {});

  // One job already waiting: the estimated queue wait alone exceeds this
  // deadline, so the request is shed at admission rather than admitted and
  // expired later.
  RequestOptions hopeless;
  hopeless.deadline_seconds = 1e-12;
  auto shed = pool.submit(Matrix<float>::shape_only(4096, 64), hopeless);
  EXPECT_EQ(shed.get().status, RequestStatus::Shed);

  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  EXPECT_EQ(queued.get(), RequestStatus::Done);
  pool.drain();
  EXPECT_EQ(pool.stats().shed, 1);
  EXPECT_EQ(pool.stats().expired, 0);
}

TEST(SolverPool, UnrecoveredSolveRetriesOnFreshDevice) {
  const auto a = gaussian_matrix<double>(256, 16, 77);

  // Clean pool: the FT outcome rides on every response.
  {
    PoolOptions po;
    po.workers = 1;
    SolverPool pool(po);
    RequestOptions req;
    req.algo = QrAlgorithm::Caqr;
    req.use_plan = false;
    const auto resp = pool.submit(Matrix<double>::from(a.view()), req).get();
    EXPECT_EQ(resp.status, RequestStatus::Done);
    EXPECT_EQ(resp.run_status.severity, ft::Severity::Ok);
    EXPECT_EQ(resp.solve_retries, 0);
  }

  // Worker device poisoned hard, detection-only FT: the first solve comes
  // back typed Unrecovered and the pool re-runs it once on a fresh device.
  PoolOptions po;
  po.workers = 1;
  po.fault.p_block_drop = 0.9;
  po.fault.seed = 5;
  po.ft.abft = true;
  po.ft.max_launch_retries = 0;  // detect, don't retry in place
  po.max_solve_retries = 1;
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;
  const auto resp = pool.submit(Matrix<double>::from(a.view()), req).get();
  EXPECT_EQ(resp.status, RequestStatus::Done);
  EXPECT_EQ(resp.solve_retries, 1);
  // The redo ran clean, so the merged outcome is Corrected — and the
  // response mirrors the result's own status.
  EXPECT_EQ(resp.run_status.severity, ft::Severity::Corrected);
  EXPECT_EQ(resp.result.run_status.severity, resp.run_status.severity);
  pool.drain();
  EXPECT_GE(pool.stats().solve_retries, 1);
}

TEST(SolverPool, FifoWithinPriority) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&order_mutex, &order, tag](gpusim::Device&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  RequestOptions lo;  // priority 1: dispatched after every priority 0
  lo.priority = 1;
  RequestOptions hi;
  hi.priority = 0;
  std::vector<std::future<RequestStatus>> futs;
  futs.push_back(pool.submit_task(record(10), lo));
  futs.push_back(pool.submit_task(record(0), hi));
  futs.push_back(pool.submit_task(record(11), lo));
  futs.push_back(pool.submit_task(record(1), hi));

  latch.release.set_value();
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);
  blocked.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
}

TEST(SolverPool, PlanCacheHitOnRepeatedShape) {
  PoolOptions po;
  po.workers = 2;
  po.mode = ExecMode::ModelOnly;
  SolverPool pool(po);

  auto first = pool.submit(Matrix<float>::shape_only(110592, 100)).get();
  EXPECT_EQ(first.status, RequestStatus::Done);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_EQ(first.result.used, QrAlgorithm::Caqr);
  EXPECT_GT(first.simulated_seconds, 0.0);

  auto second = pool.submit(Matrix<float>::shape_only(110592, 100)).get();
  EXPECT_EQ(second.status, RequestStatus::Done);
  EXPECT_TRUE(second.plan_cache_hit);
  // Cache hit cannot change the simulated schedule.
  EXPECT_DOUBLE_EQ(second.simulated_seconds, first.simulated_seconds);
  EXPECT_EQ(pool.plan_cache().hits(), 1);
  EXPECT_EQ(pool.plan_cache().misses(), 1);
}

// A planned request charges the same simulated time whether the pool runs
// the arithmetic or only the model: both modes serve through adaptive_qr.
// Covers every algorithm (the mixed-precision Gram pass needs the A100).
TEST(SolverPool, ModelOnlyCaqrChargesEqualFunctional) {
  const idx m = 4096, n = 64;
  const std::pair<GpuMachineModel, QrAlgorithm> cases[] = {
      {GpuMachineModel::c2050(), QrAlgorithm::Caqr},
      {GpuMachineModel::c2050(), QrAlgorithm::Hybrid},
      {GpuMachineModel::c2050(), QrAlgorithm::CholeskyQr2},
      {GpuMachineModel::c2050(), QrAlgorithm::CholeskyQr3},
      {GpuMachineModel::a100(), QrAlgorithm::CholeskyQr2Mixed},
  };
  for (const auto& [model, algo] : cases) {
    SCOPED_TRACE(static_cast<int>(algo));
    RequestOptions req;
    req.algo = algo;
    auto serve = [&](ExecMode mode) {
      PoolOptions po;
      po.workers = 1;
      po.mode = mode;
      po.model = model;
      SolverPool pool(po);
      return pool
          .submit(mode == ExecMode::Functional
                      ? gaussian_matrix<float>(m, n, 77)
                      : Matrix<float>::shape_only(m, n),
                  req)
          .get();
    };
    const QrResponse<float> fr = serve(ExecMode::Functional);
    const QrResponse<float> mr = serve(ExecMode::ModelOnly);
    ASSERT_EQ(fr.status, RequestStatus::Done);
    ASSERT_EQ(mr.status, RequestStatus::Done);
    EXPECT_EQ(fr.result.used, algo);
    EXPECT_EQ(mr.result.used, algo);
    EXPECT_GT(mr.simulated_seconds, 0.0);
    EXPECT_EQ(fr.simulated_seconds, mr.simulated_seconds);
  }
}

// The fused batch's per-problem loop (every algorithm but CAQR) serves
// ModelOnly placeholders through adaptive_qr too, and charges what the
// Functional batch charges. An Auto request with a condition estimate of 10
// plans a CholeskyQR variant.
TEST(ModelOnlyParity, SubmitBatchMatchesFunctional) {
  const idx m = 4096, n = 32;
  for (const auto algo : {QrAlgorithm::Hybrid, QrAlgorithm::CholeskyQr2,
                          QrAlgorithm::Auto}) {
    SCOPED_TRACE(static_cast<int>(algo));
    RequestOptions req;
    req.algo = algo;
    req.cond_estimate = 10;
    auto serve = [&](ExecMode mode) {
      PoolOptions po;
      po.workers = 1;
      po.mode = mode;
      SolverPool pool(po);
      std::vector<Matrix<float>> probs;
      for (int i = 0; i < 2; ++i) {
        probs.push_back(mode == ExecMode::Functional
                            ? gaussian_matrix<float>(m, n, 500 + i)
                            : Matrix<float>::shape_only(m, n));
      }
      return pool.submit_batch(std::move(probs), req).get();
    };
    const BatchResponse<float> fr = serve(ExecMode::Functional);
    const BatchResponse<float> mr = serve(ExecMode::ModelOnly);
    ASSERT_EQ(fr.status, RequestStatus::Done);
    ASSERT_EQ(mr.status, RequestStatus::Done);
    EXPECT_EQ(mr.result.used, fr.result.used);
    if (algo == QrAlgorithm::Auto) {
      EXPECT_TRUE(is_cholqr(mr.result.used));
    }
    ASSERT_EQ(mr.result.problems.size(), 2u);
    EXPECT_GT(mr.result.simulated_seconds, 0.0);
    EXPECT_EQ(mr.result.simulated_seconds, fr.result.simulated_seconds);
  }
}

// A wide CholeskyQR request is a typed error delivered through its future;
// the worker survives and serves the next request.
TEST(SolverPool, WideCholeskyQrFailsTypedAndPoolServesOn) {
  PoolOptions po;
  po.workers = 1;
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::CholeskyQr2;
  auto wide = pool.submit(gaussian_matrix<float>(16, 32, 78), req);
  EXPECT_THROW(wide.get(), CholQrShapeError);

  const auto next = pool.submit(gaussian_matrix<float>(256, 16, 79)).get();
  EXPECT_EQ(next.status, RequestStatus::Done);
  EXPECT_EQ(next.result.q.rows(), 256);
}

// An empty or mixed-shape batch is a typed error delivered through its
// future, not an abort on the worker; the worker serves on.
TEST(SolverPool, EmptyBatchFailsTypedAndPoolServesOn) {
  PoolOptions po;
  po.workers = 1;
  SolverPool pool(po);
  auto empty = pool.submit_batch(std::vector<Matrix<float>>{});
  try {
    empty.get();
    FAIL() << "an empty batch was served";
  } catch (const BatchShapeError& e) {
    EXPECT_EQ(e.problems, 0);
    EXPECT_EQ(e.mismatch, -1);
  }

  const auto next = pool.submit(gaussian_matrix<float>(256, 16, 80)).get();
  EXPECT_EQ(next.status, RequestStatus::Done);
  EXPECT_EQ(next.result.q.rows(), 256);
}

TEST(SolverPool, MixedShapeBatchFailsTypedAndPoolServesOn) {
  PoolOptions po;
  po.workers = 1;
  SolverPool pool(po);
  std::vector<Matrix<float>> mixed;
  mixed.push_back(gaussian_matrix<float>(256, 16, 81));
  mixed.push_back(gaussian_matrix<float>(256, 16, 82));
  mixed.push_back(gaussian_matrix<float>(128, 16, 83));
  auto bad = pool.submit_batch(std::move(mixed));
  try {
    bad.get();
    FAIL() << "a mixed-shape batch was served";
  } catch (const BatchShapeError& e) {
    EXPECT_EQ(e.problems, 3);
    EXPECT_EQ(e.mismatch, 2);
  }

  std::vector<Matrix<float>> same;
  same.push_back(gaussian_matrix<float>(256, 16, 84));
  same.push_back(gaussian_matrix<float>(256, 16, 85));
  const auto next = pool.submit_batch(std::move(same)).get();
  EXPECT_EQ(next.status, RequestStatus::Done);
  EXPECT_EQ(next.result.problems.size(), 2u);
}

TEST(SolverPool, DeterministicAcrossWorkerCounts) {
  const idx m = 512, n = 24, kReq = 10;
  std::vector<Matrix<float>> inputs;
  for (idx i = 0; i < kReq; ++i) {
    inputs.push_back(gaussian_matrix<float>(m, n, 100 + static_cast<int>(i)));
  }

  // Reference: single-shot adaptive_qr, one fresh device per problem (the
  // exact computation a pool worker performs).
  std::vector<QrSolveResult<float>> ref;
  for (const auto& a : inputs) {
    Device dev;
    ref.push_back(adaptive_qr(dev, a.view(), QrAlgorithm::Caqr));
  }

  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;  // verbatim options: must match inline exactly
  for (const int workers : {1, 2, 8}) {
    PoolOptions po;
    po.workers = workers;
    SolverPool pool(po);
    std::vector<std::future<QrResponse<float>>> futs;
    for (const auto& a : inputs) {
      futs.push_back(pool.submit(Matrix<float>::from(a.view()), req));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      QrResponse<float> resp = futs[i].get();
      ASSERT_EQ(resp.status, RequestStatus::Done);
      expect_bits_equal(resp.result.q, ref[i].q, "pooled Q vs solo");
      expect_bits_equal(resp.result.r, ref[i].r, "pooled R vs solo");
      EXPECT_DOUBLE_EQ(resp.result.simulated_seconds,
                       ref[i].simulated_seconds);
    }
  }
}

// -------------------------------------------------------------- batch fusion

TEST(FactorBatch, BitIdenticalToSoloRuns) {
  const idx m = 384, n = 32, k = 3;
  std::vector<Matrix<float>> inputs;
  for (idx i = 0; i < k; ++i) {
    inputs.push_back(gaussian_matrix<float>(m, n, 200 + static_cast<int>(i)));
  }

  // The default decomposition, and a custom tree_spec (a binary tree over
  // 64-row blocks) that the batch must honour exactly as the solo path does.
  CaqrOptions binary;
  binary.tsqr.tree_spec = [](idx rows, idx width) {
    tsqr::TsqrOptions t;
    t.block_rows = 64;
    t.arity = 2;
    return tsqr::uniform_tree_spec(rows, width, t);
  };
  for (const CaqrOptions& opt : {CaqrOptions{}, binary}) {
    SCOPED_TRACE(opt.tsqr.tree_spec ? "binary tree_spec" : "default spec");
    std::vector<QrSolveResult<float>> solo;
    for (const auto& a : inputs) {
      Device dev;
      solo.push_back(adaptive_qr(dev, a.view(), QrAlgorithm::Caqr, opt));
    }

    Device dev;
    std::vector<Matrix<float>> copies;
    for (const auto& a : inputs) {
      copies.push_back(Matrix<float>::from(a.view()));
    }
    auto batch = factor_batch(dev, std::move(copies), QrAlgorithm::Caqr, opt);
    ASSERT_EQ(batch.problems.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(batch.used, QrAlgorithm::Caqr);
    for (idx i = 0; i < k; ++i) {
      const auto& bp = batch.problems[static_cast<std::size_t>(i)];
      expect_bits_equal(bp.q, solo[static_cast<std::size_t>(i)].q, "batch Q");
      expect_bits_equal(bp.r, solo[static_cast<std::size_t>(i)].r, "batch R");
    }
    // One fused schedule, not k: fewer launches than the k solo runs issued.
    EXPECT_GT(batch.fused_launches, 0);
    EXPECT_LT(batch.simulated_seconds, k * solo.front().simulated_seconds);
  }
}

TEST(FactorBatch, FusedLaunchesVisibleInModelOnlyTimeline) {
  Device dev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  std::vector<Matrix<float>> probs;
  for (int i = 0; i < 4; ++i) {
    probs.push_back(Matrix<float>::shape_only(110592, 100));
  }
  auto batch = factor_batch(dev, std::move(probs), QrAlgorithm::Caqr);
  // Golden simulated time of the fused schedule, recorded when the SORGQR
  // walk started skipping the seed columns still equal to e_j: later
  // rewrites must not move the simulated clock by a single bit.
  EXPECT_EQ(batch.simulated_seconds, 0x1.a87486d61d043p-4);

  bool saw_factor = false, saw_apply = false;
  long long fused_ops = 0;
  for (const auto& p : dev.profiles()) {
    if (p.name.find("_batch") == std::string::npos) continue;
    fused_ops += p.launches;
    if (p.name.find("factor") != std::string::npos) saw_factor = true;
    if (p.name.find("apply") != std::string::npos) saw_apply = true;
  }
  EXPECT_TRUE(saw_factor);
  EXPECT_TRUE(saw_apply);
  EXPECT_EQ(fused_ops, static_cast<long long>(batch.fused_launches));
}

TEST(FactorBatch, ModelOnlyTimelineMatchesFunctional) {
  const idx m = 384, n = 32;
  auto make_inputs = [&](bool functional) {
    std::vector<Matrix<float>> v;
    for (int i = 0; i < 3; ++i) {
      v.push_back(functional ? gaussian_matrix<float>(m, n, 300 + i)
                             : Matrix<float>::shape_only(m, n));
    }
    return v;
  };
  Device fdev;
  Device mdev(GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto fb = factor_batch(fdev, make_inputs(true), QrAlgorithm::Caqr);
  auto mb = factor_batch(mdev, make_inputs(false), QrAlgorithm::Caqr);
  EXPECT_DOUBLE_EQ(fb.simulated_seconds, mb.simulated_seconds);
  EXPECT_EQ(fb.fused_launches, mb.fused_launches);
}

TEST(SolverPool, BatchThroughPoolMatchesSolo) {
  const idx m = 256, n = 16, k = 4;
  std::vector<Matrix<float>> inputs;
  for (idx i = 0; i < k; ++i) {
    inputs.push_back(gaussian_matrix<float>(m, n, 400 + static_cast<int>(i)));
  }
  std::vector<QrSolveResult<float>> solo;
  for (const auto& a : inputs) {
    Device dev;
    solo.push_back(adaptive_qr(dev, a.view(), QrAlgorithm::Caqr));
  }

  PoolOptions po;
  po.workers = 2;
  SolverPool pool(po);
  RequestOptions req;
  req.algo = QrAlgorithm::Caqr;
  req.use_plan = false;
  std::vector<Matrix<float>> copies;
  for (const auto& a : inputs) copies.push_back(Matrix<float>::from(a.view()));
  BatchResponse<float> resp =
      pool.submit_batch(std::move(copies), req).get();
  ASSERT_EQ(resp.status, RequestStatus::Done);
  ASSERT_EQ(resp.result.problems.size(), static_cast<std::size_t>(k));
  for (idx i = 0; i < k; ++i) {
    const auto& bp = resp.result.problems[static_cast<std::size_t>(i)];
    expect_bits_equal(bp.q, solo[static_cast<std::size_t>(i)].q, "pool batch Q");
    expect_bits_equal(bp.r, solo[static_cast<std::size_t>(i)].r, "pool batch R");
  }
}

// ------------------------------------------------------------ RPCA routing

TEST(PooledQrHook, RpcaThroughPoolMatchesInline) {
  LowRankPlusSparse spec;
  spec.rank = 2;
  spec.sparse_fraction = 0.05;
  auto planted = planted_low_rank_plus_sparse<double>(128, 16, spec, 91);

  rpca::RpcaOptions opt;
  opt.max_iterations = 30;

  Device inline_dev;
  auto inline_res =
      rpca::robust_pca(inline_dev, planted.observed.view(), opt);

  PoolOptions po;
  po.workers = 2;
  SolverPool pool(po);
  PooledQrHook hook(pool);
  rpca::RpcaOptions pooled_opt = opt;
  pooled_opt.svd.qr_hook = &hook;
  Device pooled_dev;
  auto pooled_res =
      rpca::robust_pca(pooled_dev, planted.observed.view(), pooled_opt);

  EXPECT_EQ(pooled_res.converged, inline_res.converged);
  EXPECT_EQ(pooled_res.iterations, inline_res.iterations);
  expect_bits_equal(pooled_res.low_rank, inline_res.low_rank,
                    "RPCA L through pool");
  expect_bits_equal(pooled_res.sparse, inline_res.sparse,
                    "RPCA S through pool");
  EXPECT_GT(pool.stats().completed, 0);
}

// ------------------------------------------------------- weighted fair share

TEST(SolverPool, FairShareServesByDeficitWeights) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  po.fair_share = true;
  po.tenant_weights[0] = 1.0;
  po.tenant_weights[1] = 0.5;  // one credit every second visit
  SolverPool pool(po);

  WorkerLatch latch;
  auto blocked = latch.block(pool);
  latch.started.get_future().wait();

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::future<RequestStatus>> futs;
  for (int i = 0; i < 4; ++i) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      RequestOptions req;
      req.tenant = tenant;
      futs.push_back(pool.submit_task(
          [tenant, &order_mu, &order](gpusim::Device&) {
            std::lock_guard<std::mutex> lk(order_mu);
            order.push_back(tenant);
          },
          req));
    }
  }
  latch.release.set_value();
  EXPECT_EQ(blocked.get(), RequestStatus::Done);
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);

  pool.drain();
  ASSERT_EQ(order.size(), 8u);
  // Deficit round-robin at weights 1.0 : 0.5 serves tenant 0 twice as often
  // while both queues are non-empty — tenant 0 drains strictly first.
  const auto last0 = std::find(order.rbegin(), order.rend(), 0);
  const auto last1 = std::find(order.rbegin(), order.rend(), 1);
  EXPECT_LT(last0 - order.rbegin(), 8 - 4)
      << "tenant 0 should finish within the first 5 serves";
  EXPECT_EQ(*last1, 1);
  const PoolStats s = pool.stats();
  // 4 measured requests + the latch job (default tenant 0).
  EXPECT_EQ(s.tenant_served.at(0), 5);
  EXPECT_EQ(s.tenant_served.at(1), 4);
  // Tenant 1's sub-1.0 visits are counted, never silent.
  EXPECT_GT(s.starved_rounds, 0);
  EXPECT_GT(s.tenant_starved.at(1), 0);
  EXPECT_EQ(s.tenant_starved.count(0), 0u);
}

TEST(SolverPool, FairShareCompletesAllTenantsWithExtremeWeights) {
  PoolOptions po;
  po.workers = 2;
  po.mode = ExecMode::ModelOnly;
  po.fair_share = true;
  po.tenant_weights[7] = 0.05;  // 20 visits per credit: starved but served
  SolverPool pool(po);
  std::vector<std::future<RequestStatus>> futs;
  for (int i = 0; i < 6; ++i) {
    for (int tenant : {3, 7}) {
      RequestOptions req;
      req.tenant = tenant;
      futs.push_back(pool.submit_task([](gpusim::Device&) {}, req));
    }
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), RequestStatus::Done);
  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.tenant_served.at(3), 6);
  EXPECT_EQ(s.tenant_served.at(7), 6);
}

// ------------------------------------------------- pre-solve deadline check

TEST(SolverPool, DeadlineExpiredDuringPlanningSkipsSolve) {
  PoolOptions po;
  po.workers = 1;
  po.mode = ExecMode::ModelOnly;
  // Deterministic pin for "the deadline passed between dequeue and solve":
  // the hook runs after plan resolution, before the pre-solve re-check.
  po.post_plan_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
  };
  SolverPool pool(po);

  RequestOptions req;
  req.deadline_seconds = 0.25;  // outlives the queue, not the planning stall
  auto resp = pool.submit(Matrix<float>::shape_only(1024, 32), req);
  EXPECT_EQ(resp.get().status, RequestStatus::DeadlineExpired);

  pool.drain();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.presolve_expired, 1);  // the expiry was caught BEFORE solving
}

}  // namespace
}  // namespace caqr::serve
