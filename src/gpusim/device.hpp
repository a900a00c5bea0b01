#pragma once

// The simulated GPU device: kernel launch engine + simulated stream timeline.
//
// A "kernel" is any type with:
//
//   void run_block(caqr::idx block) const;          // functional execution
//   BlockStats block_stats(caqr::idx block) const;  // closed-form cost
//   const char* name() const;
//
// launch() executes all blocks of a grid (in parallel on the host thread
// pool when ExecMode::Functional; skipped entirely when ExecMode::ModelOnly)
// and schedules the launch on a stream of the simulated device. A launch
// running alone costs, exactly as in the serial model:
//
//   t_compute = max( sum(block cycles) / num_SMs, max(block cycles) ) / f
//   t_mem     = sum(gmem bytes) / DRAM bandwidth
//   t_launch  = kernel launch overhead
//   t         = t_launch + max(t_compute, t_mem)          (roofline + floor)
//
// The max(..., max block cycles) term is the latency floor that makes
// shallow reduction trees win: a launch with 2 blocks cannot go faster than
// its slowest block regardless of how many SMs are idle.
//
// Streams. launch(stream, kernel, blocks) enqueues work on a per-stream
// timeline (CUDA-stream semantics: FIFO within a stream, concurrent across
// streams). record_event / wait_event express cross-stream dependencies.
// Pending work is resolved lazily — sync(), elapsed_seconds(), profiles()
// and trace() all force resolution — by an event-driven fluid simulation:
// kernels running concurrently share the SM pool and the DRAM bandwidth, so
// the instantaneous slowdown of every running kernel is
//
//   S = max(1, sum of SM-pool utilizations, sum of DRAM utilizations)
//
// where a kernel's utilizations are measured against its solo roofline time
// (a latency-floor-bound launch uses few SMs and leaves the rest for other
// streams; two bandwidth-bound kernels just split the DRAM pipe). This is
// work-conserving: overlap never makes the makespan worse than the serial
// schedule, and launch overhead is only paid where it lands on the critical
// path (each stream pays its own overheads, concurrently with other
// streams' execution). The legacy stream (kDefaultStream, used by the
// one-argument launch()) keeps the CUDA default-stream barrier semantics:
// it joins all async work before and after, so single-stream code sees the
// exact serial timeline of the original model.
//
// ModelOnly and Functional produce bit-identical timelines because
// block_stats() is the only input to the clock; resolution is a pure
// function of the issue sequence, so timelines are also independent of the
// host thread pool. Every resolved launch leaves a TraceEvent (stream,
// kernel, start, end, blocks, flops, bytes) for the chrome://tracing
// exporter in gpusim/report.hpp.
//
// Fault tolerance (ft/). set_fault_tolerance({.abft = true, ...}) arms ABFT
// guarding: every functional launch of a kernel that opts in
// (ft::HasAbft) is wrapped encode -> run -> verify, failed blocks are
// restored from a pre-launch snapshot and re-executed up to
// max_launch_retries times (each retry consumes a fresh launch ordinal, so
// recovery stays a pure function of the fault seed), and launch() returns a
// structured ft::Severity instead of silent success. The checksum work is
// charged to the performance model as one "<kernel>_abft" op per guarded
// launch — identical in ModelOnly, where no data exists but the overhead
// must still be visible. With fault tolerance off (the default) the launch
// path is unchanged: no extra ops, no extra arithmetic, bit-identical
// timelines to builds before the subsystem existed.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/profile.hpp"
#include "common/thread_pool.hpp"
#include "ft/abft.hpp"
#include "ft/ft.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/machine_model.hpp"
#include "gpusim/stats.hpp"
#include "linalg/matrix.hpp"

namespace caqr::gpusim {

enum class ExecMode {
  Functional,  // run the arithmetic AND account the cost
  ModelOnly,   // account the cost only (used for paper-scale benchmarks)
};

// Stream / event handles. Streams are cheap integer ids minted by
// create_stream(); events are one-shot timestamps minted by record_event().
using StreamId = int;
using EventId = std::int64_t;
inline constexpr StreamId kDefaultStream = 0;

// Kernels whose blocks fall into a few equivalence classes (full blocks vs
// the ragged tail, full tiles vs the last tile) can expose an aggregated
// view (StatsClass, gpusim/stats.hpp) so paper-scale ModelOnly launches
// cost O(classes), not O(blocks).
// Any iterable of StatsClass qualifies — kernels return an inline-storage
// SmallVec so the per-launch cost path stays off the heap.
template <typename K>
concept HasStatsSummary = requires(const K& k) {
  { *std::begin(k.stats_summary()) } -> std::convertible_to<StatsClass>;
  { std::end(k.stats_summary()) };
};

// Kernels that expose their writable output surface (a MatrixView) are
// eligible for bit-flip fault injection; kernels without one (cost-only,
// transpose) can only have blocks dropped.
template <typename K>
concept HasFaultSurface = requires(const K& k) {
  k.fault_surface();
};

class Device {
 public:
  explicit Device(GpuMachineModel model = GpuMachineModel::c2050(),
                  ExecMode mode = ExecMode::Functional,
                  ThreadPool* pool = nullptr)
      : model_(std::move(model)),
        mode_(mode),
        pool_(pool != nullptr ? pool : &ThreadPool::global()) {}

  const GpuMachineModel& model() const { return model_; }
  ExecMode mode() const { return mode_; }
  // The host pool that runs Functional launches' blocks.
  ThreadPool& pool() const { return *pool_; }
  void set_mode(ExecMode mode) { mode_ = mode; }

  // Mints a fresh asynchronous stream (ids >= 1; 0 is the legacy stream).
  StreamId create_stream() { return next_stream_++; }

  // Fault injection (gpusim/fault.hpp): seeded, deterministic corruption of
  // the functional path. Off by default; ModelOnly launches are unaffected
  // (there is no data to corrupt).
  void set_fault_injection(const FaultOptions& faults) { faults_ = faults; }
  const FaultOptions& fault_injection() const { return faults_; }
  const std::vector<FaultEvent>& fault_log() const { return fault_log_; }
  void clear_fault_log() { fault_log_.clear(); }

  // Fault tolerance (ft/ft.hpp): ABFT guarding + bounded launch retry.
  // Orthogonal to set_fault_injection — the injector creates faults, the
  // fault-tolerance layer detects and repairs them.
  void set_fault_tolerance(const ft::FtOptions& opt) { ft_ = opt; }
  const ft::FtOptions& fault_tolerance() const { return ft_; }
  const ft::Summary& ft_summary() const { return ft_summary_; }
  const std::vector<ft::LaunchReport>& ft_reports() const { return ft_log_; }
  void clear_ft_reports() {
    ft_log_.clear();
    ft_summary_ = ft::Summary{};
  }

  // Legacy entry point: launch on the default stream, which synchronizes
  // with all other streams before and after (CUDA default-stream behavior),
  // reproducing the original fully-serial timeline.
  template <typename Kernel>
  ft::Severity launch(const Kernel& kernel, idx num_blocks) {
    return launch(kDefaultStream, kernel, num_blocks);
  }

  template <typename Kernel>
  ft::Severity launch(StreamId stream, const Kernel& kernel, idx num_blocks) {
    CAQR_CHECK(num_blocks >= 0);
    if (num_blocks == 0) return ft::Severity::Ok;
    if (stream == kDefaultStream) sync();

    // Functional execution happens at issue time, in host program order;
    // callers must issue launches in an order consistent with their stream
    // dependencies (natural for any single-threaded host program).
    const long long ordinal = launch_ordinal_++;
    ft::Severity severity = ft::Severity::Ok;
    if (mode_ == ExecMode::Functional) {
      bool plain = true;
      if constexpr (ft::HasAbft<Kernel>) {
        if (ft_.abft) {
          severity = guarded_run(stream, kernel, num_blocks, ordinal);
          plain = false;
        }
      }
      if (plain) run_blocks(kernel, num_blocks, ordinal, nullptr);
    }

    enqueue_launch_cost(stream, kernel, num_blocks);
    if constexpr (ft::HasAbft<Kernel>) {
      // The checksum encode/verify (and the recovery snapshot traffic) is
      // real work: charge it in both exec modes so ModelOnly timelines show
      // the ABFT overhead.
      if (ft_.abft && ft_.charge_model) {
        CostAccum a;
        accum_stats(a, ft::abft_stats(kernel, ft_.recovery()), 1.0);
        enqueue_cost_op(stream, std::string(kernel.name()) + "_abft", 1, a,
                        0.0);
      }
    }
    if (stream == kDefaultStream) sync();
    return severity;
  }

  // Records the completion point of all work currently enqueued on `stream`.
  EventId record_event(StreamId stream) {
    const EventId e = next_event_++;
    PendingOp op;
    op.kind = PendingOp::Kind::Record;
    op.event = e;
    enqueue(stream, std::move(op));
    return e;
  }

  // Makes subsequent work on `stream` wait until `event` has completed.
  void wait_event(StreamId stream, EventId event) {
    CAQR_CHECK(event >= 0 && event < next_event_);
    PendingOp op;
    op.kind = PendingOp::Kind::Wait;
    op.event = event;
    enqueue(stream, std::move(op));
  }

  // Resolves all pending work and joins every stream at the resulting clock
  // (device-wide barrier). Returns the simulated clock.
  double sync() {
    resolve_pending();
    base_ = timeline_end();
    stream_time_.clear();
    return base_;
  }

  // Device-wide barrier that also holds the clock at `t` if `t` is in the
  // future — the multi-device synchronization primitive: DeviceGrid aligns
  // both endpoints of a transfer to max(their clocks) before charging the
  // link time on each. Returns the resulting clock.
  double wait_until(double t) {
    sync();
    if (t > base_) base_ = t;
    return base_;
  }

  // Explicit PCIe transfer between host and device memory (simulated time
  // only; data lives in host memory either way). Device-wide barrier. The
  // label defaults to the historical op name; dist::DeviceGrid charges its
  // per-link peer transfers through the same path under semantic labels so
  // they are distinguishable in profiles and traces.
  void transfer(double bytes, const PcieModel& link = PcieModel{},
                const std::string& label = "pcie_transfer") {
    const double t = link.transfer_seconds(bytes);
    external_op(label, t, bytes);
  }

  // Advance the simulated clock for work done off-device (e.g. the small
  // SVD of R on the CPU in the application pipeline). Device-wide barrier.
  void add_external_seconds(double t, const std::string& label) {
    CAQR_CHECK(t >= 0);
    external_op(label, t, 0.0);
  }

  double elapsed_seconds() const {
    resolve_pending();
    return timeline_end();
  }

  void reset_timeline() {
    // Streams mint fresh ids per request (look-ahead creates two per
    // factorization), so the per-stream entries cannot be reused by key —
    // but their op buffers can: park them on a small freelist so the next
    // request's queues start with warm capacity.
    for (auto& [s, q] : pending_) {
      if (spare_queues_.size() < kMaxSpareQueues) {
        q.clear();
        spare_queues_.push_back(std::move(q));
      }
    }
    pending_.clear();
    num_pending_ = 0;
    stream_time_.clear();
    event_time_.clear();
    event_base_ = next_event_;
    base_ = 0;
    profiles_.clear();
    trace_.clear();
  }

  // Per-kernel aggregation, insertion-order-independent (sorted by name).
  std::vector<KernelProfile> profiles() const {
    resolve_pending();
    std::vector<KernelProfile> out;
    out.reserve(profiles_.size());
    for (const auto& [_, p] : profiles_) out.push_back(p);
    return out;
  }

  const KernelProfile* profile(const std::string& name) const {
    resolve_pending();
    const auto it = profiles_.find(name);
    return it != profiles_.end() ? &it->second : nullptr;
  }

  // Resolved execution records in completion order (absolute simulated
  // seconds), the input to the chrome-trace exporter.
  const std::vector<TraceEvent>& trace() const {
    resolve_pending();
    return trace_;
  }

 private:
  struct PendingOp {
    enum class Kind { Launch, Record, Wait };
    Kind kind = Kind::Launch;
    std::string name;
    long long blocks = 0;
    double flops = 0;
    double bytes = 0;
    double solo_seconds = 0;  // roofline duration running alone, no overhead
    double u_compute = 0;     // average SM-pool utilization, in [0, 1]
    double u_mem = 0;         // average DRAM-bandwidth utilization, in [0, 1]
    double overhead = 0;      // host-side launch overhead, seconds
    EventId event = -1;       // Record / Wait payload
  };

  // FIFO over a flat vector with a consumed-prefix cursor. The pending
  // queues fill and fully drain on every timeline resolve; a std::deque
  // hands its blocks back to the heap each drain, so steady-state serving
  // paid ~tens of allocations per request just re-growing them. The vector
  // keeps its capacity across the fill/drain cycle.
  struct OpQueue {
    std::vector<PendingOp> ops;
    std::size_t head = 0;

    bool empty() const { return head == ops.size(); }
    PendingOp& front() { return ops[head]; }
    void push_back(PendingOp&& op) {
      if (empty() && head != 0) {
        ops.clear();
        head = 0;
      }
      ops.push_back(std::move(op));
    }
    void pop_front() {
      ++head;
      if (head == ops.size()) {
        ops.clear();
        head = 0;
      }
    }
    void clear() {
      ops.clear();
      head = 0;
    }
  };

  // One admitted kernel inside resolve_pending's event loop.
  struct Running {
    StreamId stream;
    PendingOp op;
    double start = 0;
    double remaining = 0;  // solo-seconds of work left
  };

  double t_compute_unfloored(double sum_cycles) const {
    return sum_cycles / model_.num_sms / model_.clock_hz();
  }

  struct CostAccum {
    double sum_cycles = 0;
    double max_cycles = 0;
    double bytes = 0;
    double flops = 0;
  };

  void accum_stats(CostAccum& a, const BlockStats& s, double count) const {
    const double cycles = s.issue_cycles * model_.issue_stall_factor +
                          s.smem_accesses * model_.smem_cycles_per_access +
                          s.syncs * model_.sync_cycles;
    a.sum_cycles += cycles * count;
    if (cycles > a.max_cycles) a.max_cycles = cycles;
    a.bytes += s.gmem_bytes * count;
    a.flops += s.flops * count;
  }

  void enqueue_cost_op(StreamId stream, std::string name, long long blocks,
                       const CostAccum& a, double overhead_seconds) {
    const double t_compute =
        std::max(a.sum_cycles / model_.num_sms, a.max_cycles) /
        model_.clock_hz();
    const double t_mem = a.bytes / (model_.dram_bw_gbs * 1e9);
    const double solo = std::max(t_compute, t_mem);
    PendingOp op;
    op.kind = PendingOp::Kind::Launch;
    op.name = std::move(name);
    op.blocks = blocks;
    op.flops = a.flops;
    op.bytes = a.bytes;
    op.solo_seconds = solo;
    // Average resource utilizations over the launch's solo duration; both
    // are <= 1 by the roofline definition. A zero-cost launch (e.g. a tree
    // level of pass-through singletons) holds no resources.
    op.u_compute = solo > 0 ? (t_compute_unfloored(a.sum_cycles) / solo) : 0.0;
    op.u_mem = solo > 0 ? (t_mem / solo) : 0.0;
    op.overhead = overhead_seconds;
    enqueue(stream, std::move(op));
  }

  template <typename Kernel>
  void enqueue_launch_cost(StreamId stream, const Kernel& kernel,
                           idx num_blocks) {
    CAQR_PROF_SCOPE("device.enqueue_cost_ns");
    CostAccum a;
    if constexpr (HasStatsSummary<Kernel>) {
      idx covered = 0;
      for (const StatsClass& c : kernel.stats_summary()) {
        accum_stats(a, c.stats, static_cast<double>(c.count));
        covered += c.count;
      }
      CAQR_CHECK_MSG(covered == num_blocks,
                     "stats_summary must cover every block exactly once");
    } else {
      for (idx b = 0; b < num_blocks; ++b) {
        accum_stats(a, kernel.block_stats(b), 1.0);
      }
    }
    enqueue_cost_op(stream, kernel.name(), num_blocks, a,
                    model_.kernel_launch_us * 1e-6);
  }

  // One functional execution attempt, with fault injection applied per the
  // injector options (subject to the kernel-name filter and the device-wide
  // fault budget). `subset`, when non-null, restricts the attempt to the
  // listed block ids — the ABFT retry path re-runs only failed blocks.
  template <typename Kernel>
  void run_blocks(const Kernel& kernel, idx num_blocks, long long ordinal,
                  const std::vector<idx>* subset) {
    const idx n =
        subset != nullptr ? static_cast<idx>(subset->size()) : num_blocks;
    if (n == 0) return;
    auto block_id = [&](idx i) {
      return subset != nullptr ? (*subset)[static_cast<std::size_t>(i)] : i;
    };
    const bool inject = faults_.enabled() && faults_.targets(kernel.name()) &&
                        faults_.budget_left(fault_log_.size()) != 0;
    if (!inject) {
      pool_->parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
        kernel.run_block(block_id(static_cast<idx>(i)));
      });
      return;
    }
    // Drop decisions are drawn before the parallel loop and flips are
    // applied after it, so the corruption is a pure function of
    // (seed, launch ordinal) — independent of thread scheduling.
    FaultPlan plan(faults_, ordinal, n,
                   faults_.budget_left(fault_log_.size()));
    pool_->parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
      if (!plan.drops(static_cast<idx>(i))) {
        kernel.run_block(block_id(static_cast<idx>(i)));
      }
    });
    for (idx i = 0; i < n; ++i) {
      if (plan.drops(i)) {
        fault_log_.push_back({FaultEvent::Kind::BlockDrop, kernel.name(),
                              ordinal, block_id(i), -1, -1, -1});
      }
    }
    if constexpr (HasFaultSurface<Kernel>) {
      if (plan.wants_bitflip()) {
        plan.apply_bitflip(kernel.fault_surface(), kernel.name(), ordinal,
                           fault_log_);
      }
    }
  }

  // ABFT-guarded execution: encode -> run -> verify -> (restore the failed
  // blocks from the pre-launch snapshot, re-run only them, verify again)
  // until clean or out of retries. Every retry consumes a fresh launch
  // ordinal, so the whole recovery trajectory is a pure function of the
  // injector seed. Detection-only mode (max_launch_retries == 0) skips the
  // snapshot and reports the first verification verdict.
  template <typename Kernel>
    requires ft::HasAbft<Kernel>
  ft::Severity guarded_run(StreamId stream, const Kernel& kernel,
                           idx num_blocks, long long first_ordinal) {
    const auto cert = ft::abft_encode(kernel);
    auto surface = kernel.fault_surface();
    using T = view_scalar_t<decltype(surface)>;
    Matrix<T> snap;
    if (ft_.recovery()) snap = Matrix<T>::from(surface.as_const());

    ++ft_summary_.guarded_launches;
    run_blocks(kernel, num_blocks, first_ordinal, nullptr);

    std::vector<idx> bad;
    bool bystander = false;
    ft::abft_verify(kernel, cert, ft_.tol_multiplier, bad, bystander);
    if (bad.empty() && !bystander) return ft::Severity::Ok;

    ft::LaunchReport rep;
    rep.kernel = kernel.name();
    rep.launch_ordinal = first_ordinal;
    int retries = 0;
    while ((!bad.empty() || bystander) && retries < ft_.max_launch_retries) {
      rep.faulty_blocks += static_cast<idx>(bad.size());
      rep.bystander_corruption = rep.bystander_corruption || bystander;
      ft::abft_restore(kernel, snap.as_const(), bad, bystander);
      if (!bad.empty()) {
        ft_summary_.retried_blocks += static_cast<long long>(bad.size());
        if (ft_.charge_model) {
          CostAccum a;
          for (idx b : bad) accum_stats(a, kernel.block_stats(b), 1.0);
          enqueue_cost_op(stream, std::string(kernel.name()) + "_retry",
                          static_cast<long long>(bad.size()), a,
                          model_.kernel_launch_us * 1e-6);
        }
        run_blocks(kernel, num_blocks, launch_ordinal_++, &bad);
      }
      ++retries;
      ++rep.attempts;
      bad.clear();
      bystander = false;
      ft::abft_verify(kernel, cert, ft_.tol_multiplier, bad, bystander);
    }

    if (bad.empty() && !bystander) {
      rep.severity = ft::Severity::Corrected;
      ++ft_summary_.corrected_launches;
      ft_log_.push_back(std::move(rep));
      return ft::Severity::Corrected;
    }
    rep.severity = ft::Severity::Unrecovered;
    rep.faulty_blocks += static_cast<idx>(bad.size());
    rep.unrecovered_blocks = static_cast<idx>(bad.size());
    rep.bystander_corruption = rep.bystander_corruption || bystander;
    ++ft_summary_.unrecovered_launches;
    ft_log_.push_back(std::move(rep));
    return ft::Severity::Unrecovered;
  }

  // Flat sorted-by-stream-id storage for the pending queues. Iteration
  // order (ascending stream id) matches the std::map it replaced, so
  // resolution order — and therefore traces — stay bit-identical; lookups
  // are a binary search over a handful of entries instead of pointer-chasing
  // map nodes on every timeline-resolve step.
  OpQueue& queue_for(StreamId s) const {
    auto it = std::lower_bound(
        pending_.begin(), pending_.end(), s,
        [](const std::pair<StreamId, OpQueue>& e, StreamId v) {
          return e.first < v;
        });
    if (it != pending_.end() && it->first == s) return it->second;
    it = pending_.emplace(it, s, OpQueue{});
    if (!spare_queues_.empty()) {
      it->second = std::move(spare_queues_.back());
      spare_queues_.pop_back();
    }
    return it->second;
  }

  void enqueue(StreamId stream, PendingOp op) {
    queue_for(stream).push_back(std::move(op));
    ++num_pending_;
  }

  // Recorded-event timestamps live in a flat array indexed by
  // (event id - event_base_); event_base_ advances on reset_timeline so the
  // array never grows with the lifetime total of minted events, only with
  // the events of the current timeline epoch. NaN marks a not-yet-recorded
  // slot (ids below event_base_ are from a previous epoch — by definition
  // unrecorded, exactly like the cleared map they replace).
  void set_event_time(EventId e, double t) const {
    const EventId i = e - event_base_;
    CAQR_CHECK(i >= 0);
    if (i >= static_cast<EventId>(event_time_.size())) {
      event_time_.resize(static_cast<std::size_t>(i) + 1,
                         std::numeric_limits<double>::quiet_NaN());
    }
    event_time_[static_cast<std::size_t>(i)] = t;
  }

  const double* find_event_time(EventId e) const {
    const EventId i = e - event_base_;
    if (i < 0 || i >= static_cast<EventId>(event_time_.size())) return nullptr;
    const double& v = event_time_[static_cast<std::size_t>(i)];
    return std::isnan(v) ? nullptr : &v;
  }

  double timeline_end() const {
    double t = base_;
    for (const auto& [_, st] : stream_time_) t = std::max(t, st);
    return t;
  }

  void external_op(const std::string& label, double t, double bytes) {
    sync();
    TraceEvent ev;
    ev.stream = kDefaultStream;
    ev.name = label;
    ev.t_start = base_;
    ev.t_end = base_ + t;
    ev.gmem_bytes = bytes;
    trace_.push_back(std::move(ev));
    base_ += t;
    auto& prof = profiles_[label];
    if (prof.name.empty()) prof.name = label;
    ++prof.launches;
    prof.gmem_bytes += bytes;
    prof.seconds += t;
  }

  double& stream_clock(StreamId s) const {
    // Linear scan: a timeline epoch touches a handful of streams, and the
    // vector clears (capacity retained) on every sync.
    for (auto& e : stream_time_) {
      if (e.first == s) return e.second;
    }
    stream_time_.emplace_back(s, base_);
    return stream_time_.back().second;
  }

  // Event-driven resolution of all pending stream work into absolute
  // timestamps, profiles and trace records. Deterministic: ties broken by
  // stream id / admission order; no dependence on host time.
  void resolve_pending() const {
    if (num_pending_ == 0) return;
    CAQR_PROF_SCOPE("device.resolve_ns");

    // Member scratch: resolve runs on every timeline query, and the running
    // set is tiny (<= max_concurrent_kernels), so reuse one buffer instead
    // of reallocating per call.
    auto& running = running_scratch_;
    running.clear();
    const std::size_t cap = static_cast<std::size_t>(
        std::max(1, model_.max_concurrent_kernels));
    auto stream_running = [&](StreamId s) {
      for (const auto& r : running) {
        if (r.stream == s) return true;
      }
      return false;
    };

    double now = base_;
    for (;;) {
      // Settle host-side ops (event records / waits) that are at the front
      // of an idle stream; loop to a fixed point since one settled record
      // can unblock waits on other streams.
      bool settled = true;
      while (settled) {
        settled = false;
        for (auto& [s, q] : pending_) {
          while (!q.empty() && !stream_running(s)) {
            PendingOp& front = q.front();
            if (front.kind == PendingOp::Kind::Record) {
              set_event_time(front.event, stream_clock(s));
            } else if (front.kind == PendingOp::Kind::Wait) {
              const double* et = find_event_time(front.event);
              if (et == nullptr) break;  // blocked: not yet recorded
              double& clk = stream_clock(s);
              clk = std::max(clk, *et);
            } else {
              break;  // launches are admitted by the arrival scan below
            }
            q.pop_front();
            --num_pending_;
            settled = true;
          }
        }
      }

      // Earliest launch arrival across idle streams (lowest stream id on
      // ties), subject to the device's concurrent-kernel limit.
      bool have_arrival = false;
      StreamId arrival_stream = 0;
      double arrival_t = 0;
      if (running.size() < cap) {
        for (auto& [s, q] : pending_) {
          if (q.empty() || stream_running(s)) continue;
          if (q.front().kind != PendingOp::Kind::Launch) continue;
          const double a = stream_clock(s) + q.front().overhead;
          if (!have_arrival || a < arrival_t) {
            have_arrival = true;
            arrival_stream = s;
            arrival_t = a;
          }
        }
      }

      if (running.empty()) {
        if (!have_arrival) {
          // Either everything drained, or a wait references an event that
          // is never recorded (a cyclic or dangling dependency).
          CAQR_CHECK_MSG(num_pending_ == 0,
                         "stream deadlock: wait_event on an event that is "
                         "never recorded");
          break;
        }
        now = std::max(now, arrival_t);
        auto& q = queue_for(arrival_stream);
        Running r{arrival_stream, std::move(q.front()), now, 0};
        r.remaining = r.op.solo_seconds;
        running.push_back(std::move(r));
        q.pop_front();
        --num_pending_;
        continue;
      }

      // Instantaneous sharing factor over the running set.
      double uc = 0, um = 0;
      for (const auto& r : running) {
        uc += r.op.u_compute;
        um += r.op.u_mem;
      }
      const double share = std::max({1.0, uc, um});

      // Earliest completion under the current sharing factor.
      std::size_t fin = 0;
      double fin_t = running[0].start + running[0].remaining;  // placeholder
      for (std::size_t i = 0; i < running.size(); ++i) {
        const double c = now + running[i].remaining * share;
        if (i == 0 || c < fin_t) {
          fin = i;
          fin_t = c;
        }
      }

      if (have_arrival && arrival_t < fin_t) {
        // A new kernel joins the running set before the next completion.
        const double dt = std::max(0.0, arrival_t - now);
        for (auto& r : running) r.remaining -= dt / share;
        now = std::max(now, arrival_t);
        auto& q = queue_for(arrival_stream);
        Running r{arrival_stream, std::move(q.front()), now, 0};
        r.remaining = r.op.solo_seconds;
        running.push_back(std::move(r));
        q.pop_front();
        --num_pending_;
        continue;
      }

      // Advance to the completion.
      const double dt = fin_t - now;
      for (std::size_t i = 0; i < running.size(); ++i) {
        running[i].remaining =
            i == fin ? 0.0 : running[i].remaining - dt / share;
      }
      now = fin_t;
      finish(running[fin], now);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(fin));
    }
  }

  template <typename RunningT>
  void finish(RunningT& r, double end) const {
    stream_clock(r.stream) = end;
    TraceEvent ev;
    ev.stream = r.stream;
    ev.name = r.op.name;
    ev.t_start = r.start;
    ev.t_end = end;
    ev.blocks = r.op.blocks;
    ev.flops = r.op.flops;
    ev.gmem_bytes = r.op.bytes;
    trace_.push_back(std::move(ev));
    auto& prof = profiles_[r.op.name];
    if (prof.name.empty()) prof.name = r.op.name;
    ++prof.launches;
    prof.blocks += r.op.blocks;
    prof.flops += r.op.flops;
    prof.gmem_bytes += r.op.bytes;
    // Launch overhead plus the (possibly contention-stretched) execution
    // span; on a lone stream this is exactly overhead + solo_seconds.
    prof.seconds += r.op.overhead + (end - r.start);
  }

  GpuMachineModel model_;
  ExecMode mode_;
  ThreadPool* pool_;
  StreamId next_stream_ = 1;
  EventId next_event_ = 0;
  FaultOptions faults_;
  std::vector<FaultEvent> fault_log_;
  ft::FtOptions ft_;
  ft::Summary ft_summary_;
  std::vector<ft::LaunchReport> ft_log_;
  long long launch_ordinal_ = 0;
  // Timeline state is logically part of the observable simulated clock;
  // resolution is forced from const accessors, hence mutable.
  mutable std::vector<std::pair<StreamId, OpQueue>> pending_;  // sorted by id
  mutable std::size_t num_pending_ = 0;
  // Flat per-stream clocks (linear-scanned, cleared on sync) and recorded
  // events (indexed by id - event_base_, NaN = unrecorded).
  mutable std::vector<std::pair<StreamId, double>> stream_time_;
  mutable std::vector<double> event_time_;
  mutable EventId event_base_ = 0;
  mutable double base_ = 0;  // device-wide floor (last full join)
  // Retired op buffers from reset_timeline, reused by the next epoch's
  // queues so steady-state serving stops re-growing them.
  static constexpr std::size_t kMaxSpareQueues = 8;
  mutable std::vector<OpQueue> spare_queues_;
  // profiles() must report sorted by name; stays a map (not on the
  // per-event resolve path).
  mutable std::map<std::string, KernelProfile> profiles_;
  mutable std::vector<TraceEvent> trace_;
  mutable std::vector<Running> running_scratch_;  // reused by resolve_pending
};

}  // namespace caqr::gpusim
