#pragma once

// Multi-tenant streaming service: N simulated camera streams, each an
// OnlineRpca pipeline, driven through serve::SolverPool.
//
// Request lifecycle of one frame (docs/ARCHITECTURE.md):
//
//   CameraStream::step                       (generate frame, deterministic)
//     -> SolverPool::submit_task             (tenant = stream id, weighted
//        [admission: shed / backpressure]     fair share, deadline, priority)
//     -> worker dequeues                     (deficit round-robin)
//        [deadline re-check at dequeue and after planning]
//     -> OnlineRpca::consume on the worker's device
//        (window evict+append -> leading subspace of R -> L/S split;
//         factor-drift refactor when the Gram detector trips)
//     -> per-stream latency histogram + simulated-seconds accounting
//
// Frames are deterministic functions of (stream seed, frame index) through
// the splittable Rng — no generator state exists, so a stream checkpoint is
// exactly its OnlineRpca state, and a frame skipped on deadline expiry is
// regenerated bit-identically on the next attempt.
//
// Stream migration: checkpoint_to/resume_from wrap the OnlineRpca
// checkpoint in one ft/checkpoint.hpp container (checksummed, atomic). A
// resumed stream continues BIT-identically on any worker's device — the
// factor state and retained frames travel; nothing depends on which
// simulated GPU runs the next frame. StreamServer::migrate_stream is the
// serving-layer wrapper the bench times.
//
// Latency percentiles export through prof::histogram ("stream.<id>.latency",
// wall ns from submission to completed solve) into the bench artifact;
// fair-share starvation lives in serve::PoolStats.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/profile.hpp"
#include "serve/solver_pool.hpp"
#include "stream/online_rpca.hpp"

namespace caqr::stream {

struct StreamConfig {
  int id = 0;                // tenant id in the pool; unique per stream
  std::uint64_t seed = 1;    // frame-content seed
  OnlineRpcaOptions rpca;
  double fps = 25.0;             // offered frame rate (feasibility model)
  double deadline_seconds = 0;   // host budget per frame; 0 = none
  int priority = 0;
  double weight = 1.0;           // fair-share weight (tenant_weights)
  // Synthetic scene: rank of the background subspace, fraction of pixels
  // carrying sparse foreground, and additive noise level.
  idx background_rank = 3;
  double sparse_fraction = 0.02;
  double noise = 1e-3;
  // A scene cut every this many frames rotates the background subspace
  // (exercises rank tracking); 0 = static scene.
  std::int64_t scene_shift_every = 0;
};

// One camera: deterministic synthetic frames + the online-RPCA state that
// consumes them. Device is passed per step (any worker may serve a frame).
template <typename T>
class CameraStream {
 public:
  explicit CameraStream(const StreamConfig& cfg)
      : cfg_(cfg), rpca_(cfg.rpca) {
    CAQR_CHECK(cfg.background_rank >= 1 &&
               cfg.background_rank <= cfg.rpca.cols);
  }

  const StreamConfig& config() const { return cfg_; }
  const OnlineRpca<T>& rpca() const { return rpca_; }
  OnlineRpca<T>& rpca() { return rpca_; }
  std::int64_t frames_seen() const { return rpca_.frames_seen(); }

  // The frame at `index`, a pure function of (seed, index): background
  // U_epoch * w_index (low rank across a window) + sparse spikes + noise.
  Matrix<T> make_frame(std::int64_t index) const {
    const idx rows = cfg_.rpca.frame_rows, cols = cfg_.rpca.cols;
    const idx r = cfg_.background_rank;
    Matrix<T> f = Matrix<T>::zeros(rows, cols);

    // Background factors are keyed on the scene epoch, far from the
    // per-frame stream ids so the two never collide.
    const std::int64_t epoch =
        cfg_.scene_shift_every > 0 ? index / cfg_.scene_shift_every : 0;
    Rng bg(cfg_.seed, 0x4261636BULL + static_cast<std::uint64_t>(epoch));
    std::vector<double> u(static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(r));
    std::vector<double> v(static_cast<std::size_t>(cols) *
                          static_cast<std::size_t>(r));
    for (auto& x : u) x = bg.normal();
    for (auto& x : v) x = bg.normal();

    Rng fr(cfg_.seed, static_cast<std::uint64_t>(index));
    // Per-frame mixing weights keep the window's column space rank-r while
    // varying frame to frame.
    std::vector<double> w(static_cast<std::size_t>(r));
    for (auto& x : w) x = 1.0 + 0.1 * fr.normal();
    for (idx j = 0; j < cols; ++j) {
      for (idx i = 0; i < rows; ++i) {
        double s = 0.0;
        for (idx k = 0; k < r; ++k) {
          s += w[static_cast<std::size_t>(k)] *
               u[static_cast<std::size_t>(k * rows + i)] *
               v[static_cast<std::size_t>(k * cols + j)];
        }
        f(i, j) = static_cast<T>(s + cfg_.noise * fr.normal());
      }
    }
    // Sparse foreground: a few large-magnitude spikes.
    const auto spikes = static_cast<std::int64_t>(
        cfg_.sparse_fraction * static_cast<double>(rows) *
        static_cast<double>(cols));
    for (std::int64_t s = 0; s < spikes; ++s) {
      const idx i = static_cast<idx>(fr.next_below(
          static_cast<std::uint64_t>(rows)));
      const idx j = static_cast<idx>(fr.next_below(
          static_cast<std::uint64_t>(cols)));
      f(i, j) += static_cast<T>(fr.uniform(5.0, 10.0) *
                                (fr.next_double() < 0.5 ? -1.0 : 1.0));
    }
    return f;
  }

  // Generates and consumes the next frame. Frame index == frames_seen, so
  // a frame dropped before consume (deadline expiry) is regenerated
  // bit-identically on retry.
  FrameOutput<T> step(gpusim::Device& dev) {
    const Matrix<T> f = make_frame(rpca_.frames_seen());
    return rpca_.consume(dev, f.view());
  }

  bool checkpoint_to(const std::string& path) const {
    ft::CheckpointWriter w;
    w.scalar("stream.id", static_cast<std::int64_t>(cfg_.id));
    w.scalar("stream.seed", cfg_.seed);
    rpca_.save(w, "stream.rpca.");
    return w.write(path);
  }

  // Resumes `cfg`'s stream from a checkpoint written by checkpoint_to.
  // Empty optional if the file is invalid or belongs to a different
  // (id, seed) — migrating the wrong stream is a refused, not silent, error.
  static std::optional<CameraStream<T>> resume_from(const StreamConfig& cfg,
                                                    const std::string& path) {
    const auto r = ft::CheckpointReader::load(path);
    if (!r) return std::nullopt;
    std::int64_t id = 0;
    std::uint64_t seed = 0;
    if (!r->scalar("stream.id", id) || id != cfg.id ||
        !r->scalar("stream.seed", seed) || seed != cfg.seed) {
      return std::nullopt;
    }
    auto rp = OnlineRpca<T>::load(*r, "stream.rpca.");
    if (!rp) return std::nullopt;
    CameraStream<T> out(cfg);
    out.rpca_ = std::move(*rp);
    return out;
  }

 private:
  StreamConfig cfg_;
  OnlineRpca<T> rpca_;
};

struct StreamServeOptions {
  serve::PoolOptions pool;  // fair_share + tenant_weights are wired here
  std::vector<StreamConfig> streams;
};

// Per-round service outcome across all streams.
struct RoundResult {
  long long done = 0;
  long long expired = 0;
  long long shed = 0;
  long long rejected = 0;
  // Largest per-frame simulated device time this round — the feasibility
  // number: a stream set is sustained at `fps` iff every frame's simulated
  // service time fits in 1/fps with `workers` devices sharing the load.
  double max_frame_sim_seconds = 0;
};

template <typename T>
class StreamServer {
 public:
  explicit StreamServer(StreamServeOptions opt) : opt_(std::move(opt)) {
    CAQR_CHECK(!opt_.streams.empty());
    opt_.pool.fair_share = true;
    for (const auto& s : opt_.streams) {
      opt_.pool.tenant_weights[s.id] = s.weight;
    }
    pool_ = std::make_unique<serve::SolverPool>(opt_.pool);
    for (const auto& s : opt_.streams) {
      streams_.push_back(std::make_unique<CameraStream<T>>(s));
      sim_seconds_.push_back(0.0);
      last_frame_sim_.push_back(0.0);
    }
  }

  static std::string latency_histogram_name(int stream_id) {
    return "stream." + std::to_string(stream_id) + ".latency";
  }

  std::size_t stream_count() const { return streams_.size(); }
  const CameraStream<T>& stream(std::size_t i) const { return *streams_[i]; }
  CameraStream<T>& stream(std::size_t i) { return *streams_[i]; }
  serve::SolverPool& pool() { return *pool_; }
  // Total simulated device seconds stream i's frames have consumed.
  double stream_sim_seconds(std::size_t i) const { return sim_seconds_[i]; }

  // Submits one frame per stream (concurrently — each stream has at most
  // one request in flight, so per-stream state is race-free), waits for the
  // round, and tallies outcomes.
  RoundResult run_round() {
    std::vector<std::future<serve::RequestStatus>> futs;
    futs.reserve(streams_.size());
    // Zeroed before submission (a slot is written only by its own stream's
    // task, so there is exactly one writer per slot per round).
    for (auto& s : last_frame_sim_) s = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const StreamConfig& cfg = streams_[i]->config();
      serve::RequestOptions req;
      req.tenant = cfg.id;
      req.priority = cfg.priority;
      req.deadline_seconds = cfg.deadline_seconds;
      prof::Histogram& lat = prof::histogram(latency_histogram_name(cfg.id));
      futs.push_back(pool_->submit_task(
          [this, i, t0, &lat](gpusim::Device& dev) {
            const FrameOutput<T> out = streams_[i]->step(dev);
            sim_seconds_[i] += out.simulated_seconds;
            last_frame_sim_[i] = out.simulated_seconds;
            lat.record(std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
          },
          req));
    }
    RoundResult res;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      switch (futs[i].get()) {
        case serve::RequestStatus::Done: ++res.done; break;
        case serve::RequestStatus::DeadlineExpired: ++res.expired; break;
        case serve::RequestStatus::Shed: ++res.shed; break;
        case serve::RequestStatus::Rejected: ++res.rejected; break;
      }
    }
    for (const double s : last_frame_sim_) {
      res.max_frame_sim_seconds = std::max(res.max_frame_sim_seconds, s);
    }
    return res;
  }

  // Checkpoints stream i, tears down its in-memory state, and resumes it
  // from disk — the serving-side migration the bench times. The pool keeps
  // running throughout; only the migrating stream pauses. False (stream
  // untouched) if the checkpoint round-trip fails validation.
  bool migrate_stream(std::size_t i, const std::string& path) {
    CAQR_CHECK(i < streams_.size());
    if (!streams_[i]->checkpoint_to(path)) return false;
    auto resumed =
        CameraStream<T>::resume_from(streams_[i]->config(), path);
    if (!resumed) return false;
    streams_[i] =
        std::make_unique<CameraStream<T>>(std::move(*resumed));
    return true;
  }

 private:
  StreamServeOptions opt_;
  std::unique_ptr<serve::SolverPool> pool_;
  std::vector<std::unique_ptr<CameraStream<T>>> streams_;
  std::vector<double> sim_seconds_;      // one writer per slot (its stream)
  std::vector<double> last_frame_sim_;   // this round's per-stream sim time
};

}  // namespace caqr::stream
