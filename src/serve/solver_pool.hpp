#pragma once

// SolverPool: the work queue of the batched QR serving layer.
//
// The ROADMAP north star is a production-scale service for the paper's
// killer workload — heavy concurrent traffic of same-shape tall-skinny
// factorizations (Robust PCA re-factors a 110,592 x 100 matrix every
// iteration, §VI). SolverPool models the standard deployment shape for
// that: N worker threads, EACH OWNING ITS OWN gpusim::Device (one simulated
// GPU per worker — the simulated analogue of a multi-GPU serving box),
// pulling requests from one bounded MPMC queue.
//
// Queue semantics:
//   * Bounded with backpressure. `submit` blocks while the queue is at the
//     high-water mark (PoolOptions::queue_capacity); `try_submit` instead
//     returns an already-satisfied RequestStatus::Rejected response.
//   * FIFO within priority: requests are dispatched in ascending
//     (priority, submission sequence) order — lower priority value first,
//     submission order within a priority level.
//   * Weighted fair share (opt-in, PoolOptions::fair_share): dispatch is
//     deficit round-robin across RequestOptions::tenant. Each scheduler
//     visit credits a tenant's deficit by its weight; the tenant serves one
//     request (its own priority/FIFO order) when the deficit reaches 1 and
//     pays 1 for it, so long-run service ratios match the weights. A tenant
//     passed over while holding work bumps the starvation counters in
//     PoolStats — sustained starvation of a low-weight tenant is visible,
//     never silent. Deficits reset when a tenant's queue empties (no credit
//     hoarding across idle periods).
//   * Per-request deadlines: a request whose host-clock deadline passed
//     before a worker picked it up is completed as DeadlineExpired without
//     running — and re-checked once more after plan resolution, immediately
//     before the solve, so a deadline that expired during planning is
//     answered without burning a full factorization. Deadlines bound
//     queueing+planning delay; they never abort a running factorization.
//   * Accepted work is always completed: the destructor drains the queue
//     before joining the workers.
//
// Determinism: a request's numerical result is a pure function of its input
// matrix and resolved options. Each request runs on a freshly reset device
// timeline, and the PlanCache is deterministic (plans are pure functions of
// their key), so the (Q, R) returned for a given request are bit-identical
// regardless of worker count, queue order, or cache hit vs miss — verified
// across 1/2/8 workers by tests/test_serve. Only scheduling metadata (which
// worker ran it, queueing delay) varies.
//
// Planning: with use_plan_cache on, workers resolve each request's
// algorithm and tuned block shape through a shared PlanCache — the second
// request of a shape skips the autotune sweep and both cost predictions.
// With it off, every request re-plans from scratch (the cache-off axis of
// bench_serve_throughput). Requests with use_plan=false bypass planning and
// run their CaqrOptions verbatim — the bit-compatibility mode PooledQrHook
// uses to match inline factorizations exactly.
//
// Thread safety: all public members are safe to call from any thread,
// including concurrently with workers. Responses are delivered through
// std::future. The pool itself must outlive every future's consumer... it
// owns the workers that fulfil them.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/profile.hpp"
#include "serve/batch.hpp"
#include "serve/plan_cache.hpp"
#include "svd/tall_skinny_svd.hpp"

namespace caqr::serve {

// Terminal state of a request.
enum class RequestStatus {
  Done,             // ran to completion; result fields are valid
  Rejected,         // never queued (backpressure or pool shutting down)
  DeadlineExpired,  // queued past its deadline; never ran
  Shed,             // refused by overload protection (see PoolOptions)
};

inline const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::Done: return "done";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::DeadlineExpired: return "deadline_expired";
    case RequestStatus::Shed: return "shed";
  }
  return "?";
}

// Pool-wide configuration, fixed at construction.
struct PoolOptions {
  int workers = 4;                    // worker threads == simulated devices
  std::size_t queue_capacity = 64;    // backpressure high-water mark
  gpusim::GpuMachineModel model = gpusim::GpuMachineModel::c2050();
  gpusim::ExecMode mode = gpusim::ExecMode::Functional;
  bool use_plan_cache = true;         // shared PlanCache vs re-plan per request
  std::size_t plan_cache_capacity = 64;
  // -- Overload protection (both off by default: existing pools keep the
  //    pure backpressure/deadline semantics documented above). --
  // Admission bound BELOW queue_capacity: a request arriving while the queue
  // already holds this many entries is completed as Shed immediately instead
  // of blocking (submit) or rejecting (try_submit). A shed caller gets a
  // typed answer in O(1) — under sustained 2x-capacity overload the pool
  // sheds the excess rather than letting every request's deadline expire in
  // the queue. 0 disables depth shedding.
  std::size_t shed_queue_depth = 0;
  // Deadline feasibility check at admission: estimate this request's
  // queueing delay as queue_depth * EMA(wall service seconds) / workers and
  // shed it if the estimate already exceeds its deadline budget — the
  // request was going to expire anyway, so answer now and save the slot.
  // Requests without deadlines are never shed by this rule.
  bool shed_infeasible_deadlines = false;
  // -- Worker-device fault environment. Every worker constructs its device
  //    with this injector + recovery policy, so served solves exercise the
  //    full ft/ ladder (tests and the chaos bench drive Unrecovered solves
  //    through here). Defaults: no injection, recovery off. --
  gpusim::FaultOptions fault;
  ft::FtOptions ft;
  // A solve that still reports Severity::Unrecovered after the
  // device-level ladder is re-run on a freshly constructed CLEAN device (no
  // injector, same model/policy) up to this many times; the retry's
  // simulated time is charged to the worker's timeline as "solve_retry".
  int max_solve_retries = 1;
  // -- Weighted fair-share scheduling (off by default: global
  //    priority/FIFO order across all tenants, exactly as before). --
  // Deficit round-robin across RequestOptions::tenant (see the header
  // comment). Within a tenant, requests still dispatch in (priority,
  // submission) order.
  bool fair_share = false;
  // Relative service weights per tenant id; tenants absent from the map
  // (and non-positive entries) get weight 1.0. Fractional weights are the
  // point: weight 0.25 means one served request per four scheduler visits,
  // with the skipped visits counted as starvation.
  std::map<int, double> tenant_weights;
  // Test seam: runs on the worker thread after plan resolution, before the
  // pre-solve deadline re-check — lets tests pin "deadline expired during
  // planning" deterministically. Must be thread-safe; null is off.
  std::function<void()> post_plan_hook;
};

// Per-request knobs.
struct RequestOptions {
  QrAlgorithm algo = QrAlgorithm::Auto;
  // Dispatch key, lower first; FIFO within equal priority.
  int priority = 0;
  // Fair-share scheduling class (a camera stream, a customer, ...). Only
  // consulted when PoolOptions::fair_share is on; weight comes from
  // PoolOptions::tenant_weights.
  int tenant = 0;
  // Host-clock budget from submission to dispatch; <= 0 means no deadline.
  double deadline_seconds = 0;
  // When true (the default), the worker resolves {algorithm, tuned block
  // shape} through planning (cached or not per PoolOptions) with `caqr` as
  // the base options. When false, `caqr` runs verbatim and Auto resolves by
  // prediction only — no tuning applied — so results are bit-identical to
  // an inline adaptive_qr with the same options.
  bool use_plan = true;
  CaqrOptions caqr;
  // Condition-number estimate for the input, when the caller has one
  // (iterative workloads like Robust PCA track it across refactorizations).
  // Gates the CholeskyQR-family candidates in the adaptive picker; <= 0
  // (unknown) restricts the picker to the Householder algorithms.
  double cond_estimate = 0;
};

// Response for a single factorization request.
template <typename T>
struct QrResponse {
  RequestStatus status = RequestStatus::Done;
  QrSolveResult<T> result;       // valid iff status == Done
  bool plan_cache_hit = false;   // plan served from the shared cache
  double plan_seconds = 0;       // host seconds spent resolving the plan
  double simulated_seconds = 0;  // device time on the worker's simulated GPU
  // Fault-tolerance outcome of the solve (mirrors result.run_status so
  // ModelOnly callers and logging see it without touching the factors).
  ft::RunStatus run_status;
  int solve_retries = 0;  // fresh-device re-runs of an Unrecovered solve
};

// Response for a fused same-shape batch request.
template <typename T>
struct BatchResponse {
  RequestStatus status = RequestStatus::Done;
  BatchQrResult<T> result;  // valid iff status == Done
  bool plan_cache_hit = false;
  double plan_seconds = 0;
};

// Counters + per-worker simulated busy time, snapshotted atomically.
struct PoolStats {
  long long submitted = 0;  // accepted into the queue
  long long completed = 0;  // ran to Done
  long long rejected = 0;   // refused at admission
  long long expired = 0;    // completed as DeadlineExpired
  long long shed = 0;       // refused by overload protection
  long long solve_retries = 0;  // fresh-device re-runs of Unrecovered solves
  // DeadlineExpired at the post-plan re-check (subset of `expired`): the
  // deadline lapsed between dequeue and solve, and the solve was skipped.
  long long presolve_expired = 0;
  // Fair-share starvation: scheduler visits that passed over a tenant with
  // queued work because its deficit had not yet accrued (total and by
  // tenant). A persistently growing count for a tenant is the signal its
  // weight is too low for its offered load.
  long long starved_rounds = 0;
  std::map<int, long long> tenant_starved;
  std::map<int, long long> tenant_served;  // requests dispatched per tenant
  // Simulated seconds each worker's device spent running requests. The pool
  // serves on `workers` independent simulated GPUs, so simulated serving
  // throughput is problems / makespan (the busiest device bounds the batch).
  std::vector<double> worker_busy_simulated_seconds;
  double makespan_simulated_seconds() const {
    double mk = 0;
    for (double s : worker_busy_simulated_seconds) mk = std::max(mk, s);
    return mk;
  }
};

class SolverPool {
 public:
  explicit SolverPool(PoolOptions opts = {})
      : opts_(std::move(opts)), cache_(opts_.plan_cache_capacity) {
    CAQR_CHECK(opts_.workers >= 1 && opts_.queue_capacity >= 1);
    busy_sim_.assign(static_cast<std::size_t>(opts_.workers), 0.0);
    threads_.reserve(static_cast<std::size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i) {
      threads_.emplace_back([this, i] { worker_main(i); });
    }
  }

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  // Drains the queue (accepted work always completes), then joins workers.
  ~SolverPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    for (auto& t : threads_) t.join();
  }

  const PoolOptions& options() const { return opts_; }

  // The shared plan cache (hit/miss/eviction counters live here).
  const PlanCache& plan_cache() const { return cache_; }

  // Submits one factorization; blocks while the queue is full. The matrix
  // is consumed. ModelOnly pools accept Matrix::shape_only placeholders.
  template <typename T>
  std::future<QrResponse<T>> submit(Matrix<T> a,
                                    const RequestOptions& req = {}) {
    return submit_impl(std::move(a), req, /*blocking=*/true);
  }

  // Non-blocking admission: a full queue (or stopping pool) yields an
  // already-satisfied Rejected response instead of waiting.
  template <typename T>
  std::future<QrResponse<T>> try_submit(Matrix<T> a,
                                        const RequestOptions& req = {}) {
    return submit_impl(std::move(a), req, /*blocking=*/false);
  }

  // Submits k same-shape problems as ONE queue entry served by one fused
  // factor_batch schedule on a single worker (see serve/batch.hpp). Blocks
  // while the queue is full. Auto resolves through planning like submit.
  template <typename T>
  std::future<BatchResponse<T>> submit_batch(std::vector<Matrix<T>> problems,
                                             const RequestOptions& req = {}) {
    auto prom = std::make_shared<std::promise<BatchResponse<T>>>();
    auto fut = prom->get_future();
    auto probs = std::make_shared<std::vector<Matrix<T>>>(std::move(problems));
    Job job;
    job.run = [this, prom, probs, req](gpusim::Device& dev, bool,
                                       Clock::time_point) {
      BatchResponse<T> resp;
      try {
        run_batch<T>(dev, *probs, req, resp);
        prom->set_value(std::move(resp));
        return RequestStatus::Done;
      } catch (...) {
        prom->set_exception(std::current_exception());
        return RequestStatus::Done;
      }
    };
    job.finish = [prom](RequestStatus s) {
      BatchResponse<T> resp;
      resp.status = s;
      prom->set_value(std::move(resp));
    };
    const Admit adm = enqueue(std::move(job), req, /*blocking=*/true);
    if (adm != Admit::Queued) {
      // job.finish was not called by the queue: answer here.
      BatchResponse<T> resp;
      resp.status = adm == Admit::Shed ? RequestStatus::Shed
                                       : RequestStatus::Rejected;
      prom->set_value(std::move(resp));
    }
    return fut;
  }

  // Escape hatch: run an arbitrary task on a worker's device (tests use it
  // to hold workers at a latch). Subject to the same queue/priority rules.
  std::future<RequestStatus> submit_task(
      std::function<void(gpusim::Device&)> fn, const RequestOptions& req = {},
      bool blocking = true) {
    auto prom = std::make_shared<std::promise<RequestStatus>>();
    auto fut = prom->get_future();
    Job job;
    job.run = [prom, fn = std::move(fn)](gpusim::Device& dev, bool,
                                         Clock::time_point) {
      try {
        fn(dev);
        prom->set_value(RequestStatus::Done);
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
      return RequestStatus::Done;
    };
    job.finish = [prom](RequestStatus s) { prom->set_value(s); };
    const Admit adm = enqueue(std::move(job), req, blocking);
    if (adm != Admit::Queued) {
      prom->set_value(adm == Admit::Shed ? RequestStatus::Shed
                                         : RequestStatus::Rejected);
    }
    return fut;
  }

  // Blocks until the queue is empty and no worker is running a request.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_drain_.wait(lock, [&] { return queued_ == 0 && active_ == 0; });
  }

  PoolStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    PoolStats s;
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.expired = expired_;
    s.shed = shed_;
    s.solve_retries = solve_retries_;
    s.presolve_expired = presolve_expired_;
    s.starved_rounds = starved_rounds_;
    s.tenant_starved = tenant_starved_;
    s.tenant_served = tenant_served_;
    s.worker_busy_simulated_seconds = busy_sim_;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Admission outcome: only Queued hands the job to a worker.
  enum class Admit { Queued, Rejected, Shed };

  struct Job {
    // Runs the request; returns its terminal status (Done, or
    // DeadlineExpired from the post-plan re-check). The promise is
    // fulfilled inside.
    std::function<RequestStatus(gpusim::Device&, bool has_deadline,
                                Clock::time_point deadline)>
        run;
    std::function<void(RequestStatus)> finish;  // terminal non-Done outcome
    bool has_deadline = false;
    Clock::time_point deadline{};
    int tenant = 0;
    Clock::time_point submitted{};  // for the queue-wait histogram
  };

  static double wall_seconds() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
  }

  template <typename T>
  std::future<QrResponse<T>> submit_impl(Matrix<T> a,
                                         const RequestOptions& req,
                                         bool blocking) {
    auto prom = std::make_shared<std::promise<QrResponse<T>>>();
    auto fut = prom->get_future();
    auto mat = std::make_shared<Matrix<T>>(std::move(a));
    Job job;
    job.run = [this, prom, mat, req](gpusim::Device& dev, bool has_deadline,
                                     Clock::time_point deadline) {
      QrResponse<T> resp;
      try {
        run_one<T>(dev, *mat, req, has_deadline, deadline, resp);
        const RequestStatus s = resp.status;
        prom->set_value(std::move(resp));
        return s;
      } catch (...) {
        prom->set_exception(std::current_exception());
        return RequestStatus::Done;  // exception delivered via the future
      }
    };
    job.finish = [prom](RequestStatus s) {
      QrResponse<T> resp;
      resp.status = s;
      prom->set_value(std::move(resp));
    };
    const Admit adm = enqueue(std::move(job), req, blocking);
    if (adm != Admit::Queued) {
      QrResponse<T> resp;
      resp.status = adm == Admit::Shed ? RequestStatus::Shed
                                       : RequestStatus::Rejected;
      prom->set_value(std::move(resp));
    }
    return fut;
  }

  // Resolves {algorithm, options} for a request, then runs it on `dev`.
  template <typename T>
  void run_one(gpusim::Device& dev, Matrix<T>& a, const RequestOptions& req,
               bool has_deadline, Clock::time_point deadline,
               QrResponse<T>& resp) {
    CAQR_PROF_SCOPE("serve.request_ns");
    const idx m = a.rows(), n = a.cols();
    QrAlgorithm algo;
    CaqrOptions opts;
    const double p0 = wall_seconds();
    resolve_plan<T>(m, n, req, algo, opts, resp.plan_cache_hit);
    resp.plan_seconds = wall_seconds() - p0;
    if (opts_.post_plan_hook) opts_.post_plan_hook();

    // Pre-solve re-check: the dequeue check bounds queueing delay, but an
    // uncached plan resolution (autotune sweep) can itself outlive a tight
    // deadline — answer DeadlineExpired now instead of burning the solve.
    if (has_deadline && Clock::now() > deadline) {
      static prof::Counter& c = prof::counter("serve.presolve_expired");
      c.add(1);
      resp.status = RequestStatus::DeadlineExpired;
      return;
    }

    // One dispatch on both clocks: adaptive_qr takes the ModelOnly pool's
    // shape_only placeholders and charges what a Functional run pays.
    const double t0 = dev.elapsed_seconds();
    resp.result = adaptive_qr(dev, a.view(), algo, opts);
    // Solve-level retry: an Unrecovered outcome (the device-level ladder
    // exhausted) is re-run on a freshly constructed CLEAN device — no
    // injector, same model and recovery policy. The retry's simulated
    // time is charged to the worker's timeline so simulated_seconds and
    // busy accounting stay honest.
    while (resp.result.run_status.severity == ft::Severity::Unrecovered &&
           resp.solve_retries < opts_.max_solve_retries) {
      ++resp.solve_retries;
      gpusim::Device clean(opts_.model, opts_.mode);
      clean.set_fault_tolerance(opts_.ft);
      QrSolveResult<T> redo = adaptive_qr(clean, a.view(), algo, opts);
      dev.add_external_seconds(clean.elapsed_seconds(), "solve_retry");
      // The failed attempt's counters carry over; its Unrecovered
      // severity does not — the retry superseded it, so the solve as a
      // whole is at worst Corrected unless the retry also failed.
      ft::RunStatus prior = resp.result.run_status;
      prior.severity = ft::Severity::Corrected;
      redo.run_status.merge(prior);
      redo.severity = redo.run_status.severity;
      resp.result = std::move(redo);
    }
    if (resp.solve_retries > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      solve_retries_ += resp.solve_retries;
    }
    resp.simulated_seconds = dev.elapsed_seconds() - t0;
    resp.run_status = resp.result.run_status;
  }

  template <typename T>
  void run_batch(gpusim::Device& dev, std::vector<Matrix<T>>& problems,
                 const RequestOptions& req, BatchResponse<T>& resp) {
    check_batch_shape(problems);
    const idx m = problems.front().rows(), n = problems.front().cols();
    QrAlgorithm algo;
    CaqrOptions opts;
    const double p0 = wall_seconds();
    resolve_plan<T>(m, n, req, algo, opts, resp.plan_cache_hit);
    resp.plan_seconds = wall_seconds() - p0;
    resp.result = factor_batch<T>(dev, std::move(problems), algo, opts);
  }

  template <typename T>
  void resolve_plan(idx m, idx n, const RequestOptions& req,
                    QrAlgorithm& algo, CaqrOptions& opts, bool& cache_hit) {
    CAQR_PROF_SCOPE("serve.plan_resolve_ns");
    algo = req.algo;
    opts = req.caqr;
    cache_hit = false;
    if (req.use_plan) {
      if (opts_.use_plan_cache) {
        const PlanCache::Lookup lk = cache_.lookup<T>(
            opts_.model, m, n, req.algo, req.caqr, req.cond_estimate);
        cache_hit = lk.hit;
        algo = lk.plan->chosen;
        opts = lk.plan->caqr;
      } else {
        const QrPlan p = make_plan<T>(opts_.model, m, n, req.algo, req.caqr,
                                      req.cond_estimate);
        algo = p.chosen;
        opts = p.caqr;
      }
    } else if (algo == QrAlgorithm::Auto) {
      // Verbatim options: resolve Auto by prediction only, no tuning.
      algo = pick_householder<T>(opts_.model, m, n, opts);
    }
  }

  // Admission. Anything but Queued means the job was NOT queued (caller
  // delivers the terminal response — the job's callbacks are untouched).
  Admit enqueue(Job job, const RequestOptions& req, bool blocking) {
    if (req.deadline_seconds > 0) {
      job.has_deadline = true;
      job.deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 req.deadline_seconds));
    }
    job.tenant = req.tenant;
    job.submitted = Clock::now();
    static prof::Counter& wait = prof::counter("serve.pool_lock_wait_ns");
    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    prof::lock_timed(lock, wait);
    // Overload protection runs BEFORE the backpressure wait: a shed caller
    // gets its typed answer immediately instead of blocking on a queue that
    // is already past the depth it is willing to serve.
    if (const Admit shed = shed_decision(req, job); shed != Admit::Queued) {
      ++shed_;
      return shed;
    }
    if (blocking) {
      cv_space_.wait(lock, [&] {
        return stopping_ || queued_ < opts_.queue_capacity;
      });
    }
    if (stopping_ || queued_ >= opts_.queue_capacity) {
      ++rejected_;
      return Admit::Rejected;
    }
    if (opts_.fair_share) {
      if (deficit_.emplace(req.tenant, 0.0).second) {
        rr_order_.push_back(req.tenant);
      }
      tenant_queues_[req.tenant].emplace(
          std::make_pair(req.priority, seq_++), std::move(job));
    } else {
      queue_.emplace(std::make_pair(req.priority, seq_++), std::move(job));
    }
    ++queued_;
    ++submitted_;
    lock.unlock();
    cv_work_.notify_one();
    return Admit::Queued;
  }

  // Per-tenant service weight; absent or non-positive entries mean 1.0.
  double tenant_weight(int tenant) const {
    const auto it = opts_.tenant_weights.find(tenant);
    return it == opts_.tenant_weights.end() || it->second <= 0 ? 1.0
                                                               : it->second;
  }

  // Next job per dispatch policy; call with mutex_ held and queued_ > 0.
  // Fair-share mode runs deficit round-robin: each visit to a tenant with
  // work credits its deficit by its weight; a deficit >= 1 buys one served
  // request, a visit that cannot afford one is a counted starvation skip.
  // Termination: every full cycle credits each non-empty tenant by its
  // weight, so within ceil(1/min_weight) cycles someone can afford a serve.
  Job pop_next_locked() {
    if (!opts_.fair_share) {
      auto it = queue_.begin();
      Job job = std::move(it->second);
      queue_.erase(it);
      --queued_;
      return job;
    }
    for (;;) {
      for (std::size_t n = 0; n < rr_order_.size(); ++n) {
        rr_pos_ = (rr_pos_ + 1) % rr_order_.size();
        const int tenant = rr_order_[rr_pos_];
        auto& q = tenant_queues_[tenant];
        if (q.empty()) continue;
        double& d = deficit_[tenant];
        d += tenant_weight(tenant);
        if (d < 1.0) {
          ++starved_rounds_;
          ++tenant_starved_[tenant];
          continue;
        }
        d -= 1.0;
        auto it = q.begin();
        Job job = std::move(it->second);
        q.erase(it);
        if (q.empty()) d = 0.0;  // no credit hoarding across idle periods
        --queued_;
        ++tenant_served_[tenant];
        return job;
      }
    }
  }

  // Overload-protection policy, called with mutex_ held. Two independent
  // rules, both opt-in via PoolOptions:
  //   * depth bound — the queue already holds shed_queue_depth entries;
  //   * deadline feasibility — the request's estimated queueing delay
  //     (depth x EMA wall service seconds / workers) exceeds its budget,
  //     so it would expire in the queue anyway.
  Admit shed_decision(const RequestOptions& req, const Job& job) const {
    if (opts_.shed_queue_depth > 0 && !stopping_ &&
        queued_ >= opts_.shed_queue_depth) {
      return Admit::Shed;
    }
    if (opts_.shed_infeasible_deadlines && job.has_deadline &&
        ema_service_seconds_ > 0) {
      const double est_wait = static_cast<double>(queued_) *
                              ema_service_seconds_ /
                              static_cast<double>(opts_.workers);
      if (est_wait > req.deadline_seconds) return Admit::Shed;
    }
    return Admit::Queued;
  }

  void worker_main(int widx) {
    // One simulated GPU per worker, constructed on the worker thread, armed
    // with the pool-wide fault environment (injector + recovery policy).
    gpusim::Device dev(opts_.model, opts_.mode);
    dev.set_fault_injection(opts_.fault);
    dev.set_fault_tolerance(opts_.ft);
    for (;;) {
      Job job;
      {
        static prof::Counter& wait =
            prof::counter("serve.pool_lock_wait_ns");
        std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
        prof::lock_timed(lock, wait);
        cv_work_.wait(lock, [&] { return stopping_ || queued_ > 0; });
        if (queued_ == 0) return;  // stopping and drained
        job = pop_next_locked();
        ++active_;
      }
      // One slot freed admits one blocked producer; notify_all here was a
      // thundering herd that serialized every producer through the mutex
      // on each dequeue.
      cv_space_.notify_one();
      {
        static prof::Histogram& qwait = prof::histogram("serve.queue_wait");
        qwait.record(std::chrono::duration<double, std::nano>(
                         Clock::now() - job.submitted)
                         .count());
      }
      if (job.has_deadline && Clock::now() > job.deadline) {
        // Count before fulfilling the promise: a waiter woken by the
        // response future must already see the stat it implies.
        bool drained;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++expired_;
          --active_;
          drained = queued_ == 0 && active_ == 0;
        }
        job.finish(RequestStatus::DeadlineExpired);
        if (drained) cv_drain_.notify_all();
        continue;
      }
      // Fresh timeline per request: simulated_seconds is the request's own
      // device time, and results cannot depend on what ran before.
      dev.reset_timeline();
      const double w0 = wall_seconds();
      const RequestStatus rs = job.run(dev, job.has_deadline, job.deadline);
      const double service = wall_seconds() - w0;
      bool drained;
      {
        static prof::Counter& wait =
            prof::counter("serve.pool_lock_wait_ns");
        prof::timed_lock<std::mutex> lock(mutex_, wait);
        busy_sim_[static_cast<std::size_t>(widx)] += dev.elapsed_seconds();
        if (rs == RequestStatus::Done) {
          // Wall service-time EMA feeding the deadline-feasibility shed
          // rule; a presolve-expired request never solved, so its (tiny)
          // service time would only drag the estimate down.
          ema_service_seconds_ = ema_service_seconds_ == 0
                                     ? service
                                     : 0.8 * ema_service_seconds_ +
                                           0.2 * service;
          ++completed_;
        } else {
          ++expired_;
          ++presolve_expired_;
        }
        --active_;
        drained = queued_ == 0 && active_ == 0;
      }
      // wait_drain's predicate is "queue empty and nothing active": waking
      // its waiters on EVERY completion stampeded them through the mutex
      // per request. Notify only at the drained edge they wait for.
      if (drained) cv_drain_.notify_all();
    }
  }

  const PoolOptions opts_;
  PlanCache cache_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   // queue became non-empty / stopping
  std::condition_variable cv_space_;  // queue dropped below capacity
  std::condition_variable cv_drain_;  // a request finished
  // Dispatch order: ascending (priority, submission sequence) — the single
  // global queue when fair_share is off, per-tenant queues under deficit
  // round-robin when it is on. `queued_` counts entries across both.
  std::map<std::pair<int, std::uint64_t>, Job> queue_;
  std::map<int, std::map<std::pair<int, std::uint64_t>, Job>> tenant_queues_;
  std::vector<int> rr_order_;  // tenants in first-seen order
  std::size_t rr_pos_ = 0;     // last tenant visited by the scheduler
  std::map<int, double> deficit_;
  std::map<int, long long> tenant_served_;
  std::map<int, long long> tenant_starved_;
  long long starved_rounds_ = 0;
  std::size_t queued_ = 0;
  std::uint64_t seq_ = 0;
  int active_ = 0;
  bool stopping_ = false;
  long long submitted_ = 0;
  long long completed_ = 0;
  long long rejected_ = 0;
  long long expired_ = 0;
  long long shed_ = 0;
  long long solve_retries_ = 0;
  long long presolve_expired_ = 0;
  double ema_service_seconds_ = 0;  // wall seconds per served request
  std::vector<double> busy_sim_;
  std::vector<std::thread> threads_;  // last: joins before members destruct
};

// svd::QrHook adapter: routes a tall-skinny-SVD (and hence Robust PCA)
// stage-1 QR through a SolverPool. Submits with use_plan=false and the
// caller's CaqrOptions verbatim, so the pooled factorization is
// bit-identical to the inline one it replaces; the simulated seconds the
// request took on the worker's device are returned for the caller to charge
// to its own timeline. Requires a Functional pool (the hook moves real
// factors back). Thread-safe: holds no mutable state beyond the pool
// pointer.
class PooledQrHook final : public svd::QrHook {
 public:
  explicit PooledQrHook(SolverPool& pool) : pool_(&pool) {}

  double qr(ConstMatrixView<float> a, const CaqrOptions& opt,
            Matrix<float>& q, Matrix<float>& r) override {
    return run<float>(a, opt, q, r);
  }
  double qr(ConstMatrixView<double> a, const CaqrOptions& opt,
            Matrix<double>& q, Matrix<double>& r) override {
    return run<double>(a, opt, q, r);
  }

 private:
  template <typename T>
  double run(ConstMatrixView<T> a, const CaqrOptions& opt, Matrix<T>& q,
             Matrix<T>& r) {
    CAQR_CHECK_MSG(
        pool_->options().mode == gpusim::ExecMode::Functional,
        "PooledQrHook needs a Functional pool (it returns real factors)");
    RequestOptions req;
    req.algo = QrAlgorithm::Caqr;
    req.use_plan = false;  // verbatim options => bit-identical to inline
    req.caqr = opt;
    QrResponse<T> resp = pool_->submit(Matrix<T>::from(a), req).get();
    CAQR_CHECK(resp.status == RequestStatus::Done);
    q = std::move(resp.result.q);
    r = std::move(resp.result.r);
    return resp.simulated_seconds;
  }

  SolverPool* pool_;
};

}  // namespace caqr::serve
