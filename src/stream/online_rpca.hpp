#pragma once

// Online Robust PCA over a sliding window of frames.
//
// The batch solver (rpca/rpca.hpp) re-runs the full QR -> small-SVD pipeline
// inside every SVT iteration of every solve. For a continuously running
// camera stream that is wasted work: consecutive windows share all but one
// frame, so the window's R factor — the only input the small SVD needs —
// can be maintained incrementally. Per frame this solver does:
//
//   1. evict the oldest frame block + append the new one (SlidingWindowQr:
//      amortized one panel factor + O(1) combines, vs a full window refactor
//      per SVT iteration in the batch path);
//   2. background subspace V_k = leading right singular vectors of the
//      window R capturing `rank_energy` of ||R||_F^2, found by a seeded
//      block subspace iteration (svd::leading_subspace_of_r, a few n x 8
//      products); when it does not settle, the full Jacobi SVD of R runs
//      instead, flagged per frame and counted ("stream.svd_fallbacks").
//      Either way the device is charged the small SVD of stage 2 of the
//      tall-skinny pipeline, so ModelOnly timelines are unchanged;
//   3. low-rank part of the new frame
//      L = f V_k V_k^T (two skinny GEMMs), sparse part S = shrink(f - L),
//      with the batch solver's default lambda at the frame's row count.
//
// Factor-drift detection: downdating by window re-blocking is verifier-
// bounded, not exact, so the maintained R accumulates backward error
// relative to a from-scratch factorization. The detector compares
// ||R||_F^2 against the running sum of squared frame norms (equal in exact
// arithmetic — the Gram trace is reduction-tree invariant); relative
// divergence beyond `drift_threshold` triggers a FULL REFACTOR from the
// retained raw frames. Every refactor is a typed DriftEvent, counted here
// and in the prof registry ("stream.drift_refactors") — never silent.

#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "baselines/gemm_model.hpp"
#include "common/profile.hpp"
#include "ft/checkpoint.hpp"
#include "linalg/blas3.hpp"
#include "linalg/norms.hpp"
#include "rpca/rpca.hpp"
#include "stream/sliding_window_qr.hpp"
#include "svd/tall_skinny_svd.hpp"

namespace caqr::stream {

struct OnlineRpcaOptions {
  idx cols = 64;           // feature width (downsampled pixels per row)
  idx frame_rows = 160;    // rows contributed by one frame block
  idx window_frames = 64;  // frames retained (window = frames x frame_rows)
  // l1 weight for the sparse part; 0 picks the batch solver's default at
  // the frame's max dimension.
  double lambda = 0.0;
  // Smallest k whose singular values capture this energy fraction is the
  // background rank.
  double rank_energy = 0.95;
  // Relative Gram-trace divergence that triggers a full refactor. The
  // default tolerates normal float accumulation over thousands of combines;
  // 0 forces a refactor every frame (used by tests to pin the drift path).
  double drift_threshold = 1e-3;
  int svd_max_sweeps = 60;
  double cpu_svd_gflops = 4.0;
  kernels::ReductionVariant variant =
      kernels::ReductionVariant::RegisterSerialTransposed;
};

// One counted factor-drift refactor (typed, per the batch solver's
// "never silently degrade" rule).
struct DriftEvent {
  std::int64_t frame_index = 0;  // 0-based frame that tripped the detector
  double gram_drift = 0.0;       // relative ||R||_F^2 divergence observed
};

template <typename T>
struct FrameOutput {
  Matrix<T> low_rank;    // frame_rows x cols background estimate
  Matrix<T> sparse;      // frame_rows x cols foreground (soft-thresholded)
  idx rank = 0;          // background subspace rank used
  double residual_ratio = 0.0;  // ||f - L - S||_F / ||f||_F
  bool warmup = false;   // window still under `cols` rows; no SVD ran
  bool drift_refactor = false;  // this frame triggered a full refactor
  bool svd_converged = true;
  // The subspace iteration did not settle and the full Jacobi SVD of the
  // window R ran instead (also counted in "stream.svd_fallbacks").
  bool svd_fallback = false;
  double simulated_seconds = 0.0;  // device time this frame consumed
};

template <typename T>
class OnlineRpca {
 public:
  explicit OnlineRpca(const OnlineRpcaOptions& opt)
      : opt_(opt), window_(opt.cols, opt.variant), subspace_(opt.cols) {
    CAQR_CHECK(opt.cols >= 1 && opt.frame_rows >= 1 && opt.window_frames >= 1);
    CAQR_CHECK(opt.frame_rows * opt.window_frames >= opt.cols);
  }

  const OnlineRpcaOptions& options() const { return opt_; }
  std::int64_t frames_seen() const { return frames_seen_; }
  const std::vector<DriftEvent>& drift_events() const { return drift_events_; }
  const SlidingWindowQr<T>& window() const { return window_; }
  // Non-const: reading the window R may lazily combine (and charge) once.
  SlidingWindowQr<T>& window() { return window_; }

  // Consumes one frame_rows x cols frame; returns its low-rank/sparse split.
  // Degenerate frames surface as tsqr::StreamUpdateError from the window
  // (typed — the serving layer refuses the request, the stream lives on).
  FrameOutput<T> consume(gpusim::Device& dev, ConstMatrixView<T> frame) {
    CAQR_CHECK(frame.rows() == opt_.frame_rows && frame.cols() == opt_.cols);
    const double t0 = dev.elapsed_seconds();
    FrameOutput<T> out{Matrix<T>::zeros(opt_.frame_rows, opt_.cols),
                       Matrix<T>::zeros(opt_.frame_rows, opt_.cols)};

    if (static_cast<idx>(frames_.size()) == opt_.window_frames) {
      window_.evict(dev);
      const double f2 = frob_sq(frames_.front().view());
      window_sq_ -= f2;
      frames_.pop_front();
    }
    window_.append(dev, frame);
    frames_.push_back(Matrix<T>::from(frame));
    window_sq_ += frob_sq(frame);

    const bool functional = dev.mode() == gpusim::ExecMode::Functional;
    if (window_.rows() < opt_.cols) {
      // Warmup: not enough rows for an R triangle yet. Everything is
      // foreground until the background model exists.
      out.warmup = true;
      if (functional) out.sparse.view().copy_from(frame);
      out.residual_ratio = 1.0;
      ++frames_seen_;
      out.simulated_seconds = dev.elapsed_seconds() - t0;
      return out;
    }

    // Factor-drift check on the maintained R (see header). ModelOnly runs
    // carry zero matrices, so the detector only runs functionally.
    if (functional) {
      const double r2 = frob_sq(window_.r(dev).view());
      const double drift =
          window_sq_ > 0 ? std::abs(r2 - window_sq_) / window_sq_ : 0.0;
      if (drift >= opt_.drift_threshold) {
        refactor(dev);
        out.drift_refactor = true;
        drift_events_.push_back(DriftEvent{frames_seen_, drift});
        prof::counter("stream.drift_refactors").add(1);
      }
    }

    // Background subspace of the window R -> frame split. The charge is the
    // full small SVD's whichever path computes the subspace, and the window
    // R is read (a lazy combine, charged) in both modes, so ModelOnly
    // timelines equal Functional ones.
    const Matrix<T>& r = window_.r(dev);
    svd::charge_small_svd(dev, opt_.cols, opt_.cpu_svd_gflops);
    baselines::charge_gemm(dev, opt_.frame_rows, opt_.cols, opt_.cols,
                           "stream_project");
    if (functional) {
      const auto ls =
          svd::leading_subspace_of_r(r.view(), opt_.rank_energy, subspace_);
      SvdResult<T> full;
      ConstMatrixView<T> vk = ls.v;
      out.rank = ls.rank;
      if (!ls.converged) {
        full = jacobi_svd(r.view(), opt_.svd_max_sweeps);
        out.svd_converged = full.converged;
        out.svd_fallback = true;
        static prof::Counter& fallbacks = prof::counter("stream.svd_fallbacks");
        fallbacks.add(1);
        double total = 0.0;
        for (const T s : full.sigma) total += static_cast<double>(s) * s;
        out.rank = std::max<idx>(
            svd::energy_rank(full.sigma.data(), opt_.cols,
                             opt_.rank_energy * total),
            1);
        vk = full.v.view().block(0, 0, opt_.cols, out.rank);
      }

      // L = (f V_k) V_k^T: two skinny GEMMs against the k leading right
      // singular vectors (charged above as one cols-wide projection).
      Matrix<T> proj = Matrix<T>::zeros(opt_.frame_rows, out.rank);
      gemm(Trans::No, Trans::No, T(1), frame, vk, T(0), proj.view());
      gemm(Trans::No, Trans::Yes, T(1), proj.view(), vk, T(0),
           out.low_rank.view());

      const double lambda = opt_.lambda > 0
                                ? opt_.lambda
                                : rpca::default_rpca_lambda(std::max(
                                      opt_.frame_rows, opt_.cols));
      for (idx j = 0; j < opt_.cols; ++j) {
        for (idx i = 0; i < opt_.frame_rows; ++i) {
          out.sparse(i, j) = frame(i, j) - out.low_rank(i, j);
        }
      }
      rpca::shrink(out.sparse.view(), static_cast<T>(lambda));

      double resid = 0.0;
      const double fnorm = frobenius_norm(frame);
      for (idx j = 0; j < opt_.cols; ++j) {
        for (idx i = 0; i < opt_.frame_rows; ++i) {
          const double d = static_cast<double>(frame(i, j)) -
                           out.low_rank(i, j) - out.sparse(i, j);
          resid += d * d;
        }
      }
      out.residual_ratio = fnorm > 0 ? std::sqrt(resid) / fnorm : 0.0;
    }
    ++frames_seen_;
    out.simulated_seconds = dev.elapsed_seconds() - t0;
    return out;
  }

  // -- Checkpoint: options, counters, retained raw frames, and the embedded
  //    window state — everything needed for a BIT-identical continuation on
  //    another worker's device (stream migration). --

  void save(ft::CheckpointWriter& w, const std::string& prefix) const {
    w.scalar(prefix + "cols", static_cast<std::int64_t>(opt_.cols));
    w.scalar(prefix + "frame_rows",
             static_cast<std::int64_t>(opt_.frame_rows));
    w.scalar(prefix + "window_frames",
             static_cast<std::int64_t>(opt_.window_frames));
    w.scalar(prefix + "lambda", opt_.lambda);
    w.scalar(prefix + "rank_energy", opt_.rank_energy);
    w.scalar(prefix + "drift_threshold", opt_.drift_threshold);
    w.scalar(prefix + "svd_max_sweeps", opt_.svd_max_sweeps);
    w.scalar(prefix + "cpu_svd_gflops", opt_.cpu_svd_gflops);
    w.scalar(prefix + "variant", static_cast<std::int32_t>(opt_.variant));
    w.scalar(prefix + "frames_seen", frames_seen_);
    w.scalar(prefix + "window_sq", window_sq_);
    w.scalar(prefix + "retained",
             static_cast<std::int64_t>(frames_.size()));
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      w.matrix(prefix + "frame." + std::to_string(i), frames_[i].view());
    }
    std::vector<std::int64_t> drift_frames;
    std::vector<double> drift_mags;
    for (const auto& e : drift_events_) {
      drift_frames.push_back(e.frame_index);
      drift_mags.push_back(e.gram_drift);
    }
    w.vec(prefix + "drift_frames", drift_frames);
    w.vec(prefix + "drift_mags", drift_mags);
    window_.save(w, prefix + "win.");
  }

  static std::optional<OnlineRpca<T>> load(const ft::CheckpointReader& r,
                                           const std::string& prefix) {
    OnlineRpcaOptions opt;
    std::int64_t cols = 0, frame_rows = 0, window_frames = 0, retained = 0;
    std::int32_t variant = 0;
    if (!r.scalar(prefix + "cols", cols) ||
        !r.scalar(prefix + "frame_rows", frame_rows) ||
        !r.scalar(prefix + "window_frames", window_frames) ||
        !r.scalar(prefix + "lambda", opt.lambda) ||
        !r.scalar(prefix + "rank_energy", opt.rank_energy) ||
        !r.scalar(prefix + "drift_threshold", opt.drift_threshold) ||
        !r.scalar(prefix + "svd_max_sweeps", opt.svd_max_sweeps) ||
        !r.scalar(prefix + "cpu_svd_gflops", opt.cpu_svd_gflops) ||
        !r.scalar(prefix + "variant", variant) ||
        !r.scalar(prefix + "retained", retained) || cols < 1 ||
        frame_rows < 1 || window_frames < 1 || retained < 0 ||
        retained > window_frames) {
      return std::nullopt;
    }
    const auto v = kernels::reduction_variant_from(variant);
    if (!v) return std::nullopt;
    opt.cols = static_cast<idx>(cols);
    opt.frame_rows = static_cast<idx>(frame_rows);
    opt.window_frames = static_cast<idx>(window_frames);
    opt.variant = *v;
    OnlineRpca<T> out(opt);
    if (!r.scalar(prefix + "frames_seen", out.frames_seen_) ||
        !r.scalar(prefix + "window_sq", out.window_sq_)) {
      return std::nullopt;
    }
    for (std::int64_t i = 0; i < retained; ++i) {
      Matrix<T> f;
      if (!r.matrix(prefix + "frame." + std::to_string(i), f) ||
          f.rows() != opt.frame_rows || f.cols() != opt.cols) {
        return std::nullopt;
      }
      out.frames_.push_back(std::move(f));
    }
    std::vector<std::int64_t> drift_frames;
    std::vector<double> drift_mags;
    if (!r.vec(prefix + "drift_frames", drift_frames) ||
        !r.vec(prefix + "drift_mags", drift_mags) ||
        drift_frames.size() != drift_mags.size()) {
      return std::nullopt;
    }
    for (std::size_t i = 0; i < drift_frames.size(); ++i) {
      out.drift_events_.push_back(DriftEvent{drift_frames[i], drift_mags[i]});
    }
    auto win = SlidingWindowQr<T>::load(r, prefix + "win.");
    if (!win || win->width() != opt.cols) return std::nullopt;
    out.window_ = std::move(*win);
    return out;
  }

 private:
  static double frob_sq(ConstMatrixView<T> a) {
    const double f = frobenius_norm(a);
    return f * f;
  }

  // Full refactor from the retained raw frames: a fresh left-deep window
  // (the bit-exact from-scratch factorization of the current contents),
  // charged in full to the device — the honest cost of recovering from
  // drift. The Gram baseline resets to the refactored contents.
  void refactor(gpusim::Device& dev) {
    SlidingWindowQr<T> fresh(opt_.cols, opt_.variant);
    double sq = 0.0;
    for (const auto& f : frames_) {
      fresh.append(dev, f.view());
      sq += frob_sq(f.view());
    }
    window_ = std::move(fresh);
    window_sq_ = sq;
  }

  OnlineRpcaOptions opt_;
  SlidingWindowQr<T> window_;
  std::deque<Matrix<T>> frames_;  // raw window contents, oldest first
  double window_sq_ = 0.0;        // running sum of squared frame norms
  std::int64_t frames_seen_ = 0;
  std::vector<DriftEvent> drift_events_;
  // Start block and scratch of the per-frame subspace iteration; holds no
  // state between frames (not checkpointed).
  svd::SubspaceWorkspace<T> subspace_;
};

}  // namespace caqr::stream
