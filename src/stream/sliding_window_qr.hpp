#pragma once

// SlidingWindowQr: the R factor of a rows x cols window of a row stream,
// maintained under append (new frame block) + evict (oldest frame block) at
// amortized panel cost instead of a from-scratch refactorization per frame.
//
// This is the streaming primitive the online video workload needs (ROADMAP
// item 4): a camera stream is an append-only row source, and the window the
// service factors every frame differs from the previous one by one appended
// block and one evicted block. Demmel-Grigori-Hoemmen-Langou's sequential
// CAQR analysis shows panel-at-a-time updating is communication-optimal for
// exactly this access pattern; the GPU-friendly primitive underneath is the
// same stacked-triangle combine TSQR uses (Thies & Röhrig-Zöllner).
//
// Algorithm: the two-stack sliding-window aggregation scheme, with
// "aggregate" = the R triangle of vertically stacked blocks and "combine" =
// the binary caterpillar step of tsqr/incremental.hpp (stack two W x W
// triangles, re-factor with stacked_geqr2). The combine is associative in
// exact arithmetic (R^T R terms add), so any grouping yields a valid R:
//
//   * back stack  — appended blocks, aggregated LEFT-DEEP as they arrive:
//     exactly the caterpillar chain of IncrementalTsqr, so an append-only
//     window's R is BIT-IDENTICAL to a from-scratch TSQR of the window run
//     over the same block decomposition (the combine arithmetic of
//     stacked_geqr2 only ever reads the upper triangles it stacks — see the
//     bit-identity tests against a caterpillar tsqr_factor tree spec).
//   * front stack — older blocks, each holding the precomputed SUFFIX
//     aggregate (this block combined with every younger front block). The
//     top of the front stack is the oldest block; evicting it is O(1).
//     When the front stack empties, the back stack is "flipped": suffix
//     aggregates are built newest-to-oldest (k-1 combines for k blocks) and
//     the back stack resets. Every block is flipped at most once, so the
//     amortized cost per append+evict is one block factor plus O(1)
//     combines — vs one factor + combine PER RETAINED BLOCK for a
//     from-scratch refactor (the >= 5x at window 10k x 64 gated in
//     BENCH_stream_serve.json).
//
// The window R after evictions combines front-suffix with back-aggregate —
// a different (but valid) reduction tree than from-scratch, so the
// downdated R is equivalent only up to backward error: the numerics
// Verifier's Gram-residual bound (condition-number independent) is the
// contract, enforced across cond 1e0..1e12 by tests/test_stream.cpp.
// Downdating by re-blocking was chosen over hyperbolic (Householder
// downdate) rotations deliberately: re-blocking is unconditionally stable,
// while downdating a nearly rank-deficient window is inherently
// ill-conditioned.
//
// Degenerate updates are TYPED errors (tsqr::StreamUpdateError), never
// asserts: a zero-row append or an evict/read that would leave the window
// under `cols` rows throws, so the serving layer refuses the request and
// keeps the stream alive.
//
// Every factor/combine is charged to the gpusim::Device timeline passed per
// call ("window_factor" / "window_combine" ops) — passing the device per
// call rather than binding it lets a checkpointed window resume on another
// worker's device (stream migration, ft/checkpoint.hpp).

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ft/checkpoint.hpp"
#include "gpusim/device.hpp"
#include "kernels/block_ops.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "tsqr/incremental.hpp"

namespace caqr::stream {

template <typename T>
class SlidingWindowQr {
 public:
  explicit SlidingWindowQr(idx width,
                           kernels::ReductionVariant variant =
                               kernels::ReductionVariant::
                                   RegisterSerialTransposed)
      : width_(width), variant_(variant) {
    CAQR_CHECK(width >= 1);
  }

  idx width() const { return width_; }
  idx rows() const { return total_rows_; }
  idx blocks() const {
    return static_cast<idx>(front_.size() + back_.size());
  }
  bool empty() const { return blocks() == 0; }

  // Lifetime counters (amortized-cost accounting for the bench).
  long long factors() const { return factors_; }
  long long combines() const { return combines_; }
  long long flips() const { return flips_; }

  // Appends one row block (>= 1 rows; heights >= width combine at full
  // panel efficiency). Charges one block factor plus one caterpillar
  // combine. A zero-row block is a typed StreamUpdateError.
  void append(gpusim::Device& dev, ConstMatrixView<T> block) {
    CAQR_CHECK(block.cols() == width_);
    if (block.rows() < 1) {
      throw tsqr::StreamUpdateError(
          tsqr::StreamUpdateError::Kind::ZeroRowAppend, block.rows(), width_,
          total_rows_);
    }
    const idx h = block.rows();
    Block b;
    b.rows = h;
    b.r = Matrix<T>::zeros(width_, width_);
    if (dev.mode() == gpusim::ExecMode::Functional) {
      Matrix<T> work = Matrix<T>::from(block);
      std::vector<T> tau(static_cast<std::size_t>(std::min(h, width_)));
      kernels::block_geqr2(work.view(), tau.data());
      const idx rrows = std::min(h, width_);
      for (idx j = 0; j < width_; ++j) {
        for (idx i = 0; i < std::min<idx>(j + 1, rrows); ++i) {
          b.r(i, j) = work(i, j);
        }
      }
    }
    charge_factor(dev, h);
    ++factors_;
    if (back_.empty()) {
      back_agg_ = b.r.clone();
    } else {
      back_agg_ = combine(dev, back_agg_, b.r);
    }
    back_.push_back(std::move(b));
    total_rows_ += h;
    cache_valid_ = false;
  }

  // Evicts the oldest block (the granularity of eviction is the granularity
  // of past appends). Amortized O(1) combines: a flip of the back stack
  // happens only when the front stack is exhausted, and each block is
  // flipped at most once in its lifetime. Throws a typed StreamUpdateError
  // when the evict would shrink the window below `width` rows (no room for
  // the R triangle). Returns the number of rows evicted.
  idx evict(gpusim::Device& dev) {
    if (empty()) {
      throw tsqr::StreamUpdateError(
          tsqr::StreamUpdateError::Kind::WindowUnderflow, 0, width_, 0);
    }
    const idx oldest =
        front_.empty() ? back_.front().rows : front_.back().block.rows;
    if (total_rows_ - oldest < width_) {
      throw tsqr::StreamUpdateError(
          tsqr::StreamUpdateError::Kind::WindowUnderflow, oldest, width_,
          total_rows_ - oldest);
    }
    if (front_.empty()) flip(dev);
    const idx evicted = front_.back().block.rows;
    front_.pop_back();
    total_rows_ -= evicted;
    cache_valid_ = false;
    return evicted;
  }

  // The window R (width x width, upper triangular, zeros below the
  // diagonal). Combines the two stacks on first read after a mutation (one
  // charged combine when both stacks are non-empty); cached until the next
  // append/evict. Reading an underfull window (< width rows) is a typed
  // StreamUpdateError.
  const Matrix<T>& r(gpusim::Device& dev) {
    if (total_rows_ < width_) {
      throw tsqr::StreamUpdateError(
          tsqr::StreamUpdateError::Kind::WindowUnderflow, 0, width_,
          total_rows_);
    }
    if (!cache_valid_) {
      if (front_.empty()) {
        cache_ = back_agg_.clone();
      } else if (back_.empty()) {
        cache_ = front_.back().suffix.clone();
      } else {
        cache_ = combine(dev, front_.back().suffix, back_agg_);
      }
      cache_valid_ = true;
    }
    return cache_;
  }

  // -- Checkpoint (ft/checkpoint.hpp): the full update state — per-block R
  //    triangles of both stacks, suffix aggregates, the back aggregate, and
  //    the cached window R — so a resumed window continues BIT-identically
  //    (same combines on the same values) on any device. Sections are
  //    namespaced under `prefix` so owners (OnlineRpca) can embed the
  //    window inside their own checkpoint. --

  void save(ft::CheckpointWriter& w, const std::string& prefix) const {
    w.scalar(prefix + "version", kStateVersion);
    w.scalar(prefix + "width", static_cast<std::int64_t>(width_));
    w.scalar(prefix + "variant", static_cast<std::int32_t>(variant_));
    w.scalar(prefix + "total_rows", static_cast<std::int64_t>(total_rows_));
    w.scalar(prefix + "factors", factors_);
    w.scalar(prefix + "combines", combines_);
    w.scalar(prefix + "flips", flips_);
    std::vector<std::int64_t> frows, brows;
    for (const auto& e : front_) frows.push_back(e.block.rows);
    for (const auto& b : back_) brows.push_back(b.rows);
    w.vec(prefix + "front_rows", frows);
    w.vec(prefix + "back_rows", brows);
    for (std::size_t i = 0; i < front_.size(); ++i) {
      w.matrix(prefix + "front_r." + std::to_string(i),
               front_[i].block.r.view());
      w.matrix(prefix + "front_suffix." + std::to_string(i),
               front_[i].suffix.view());
    }
    for (std::size_t i = 0; i < back_.size(); ++i) {
      w.matrix(prefix + "back_r." + std::to_string(i), back_[i].r.view());
    }
    if (!back_.empty()) w.matrix(prefix + "back_agg", back_agg_.view());
    w.scalar(prefix + "cache_valid",
             static_cast<std::uint8_t>(cache_valid_ ? 1 : 0));
    if (cache_valid_) w.matrix(prefix + "cache", cache_.view());
  }

  // Empty optional on any validation failure (missing/mis-shaped section):
  // the caller falls back to a fresh window instead of resuming garbage.
  static std::optional<SlidingWindowQr<T>> load(
      const ft::CheckpointReader& r, const std::string& prefix) {
    std::int32_t version = 0, variant = 0;
    std::int64_t width = 0, total_rows = 0;
    if (!r.scalar(prefix + "version", version) || version != kStateVersion ||
        !r.scalar(prefix + "width", width) || width < 1 ||
        !r.scalar(prefix + "variant", variant) ||
        !r.scalar(prefix + "total_rows", total_rows)) {
      return std::nullopt;
    }
    const auto v = kernels::reduction_variant_from(variant);
    if (!v) return std::nullopt;
    SlidingWindowQr<T> out(static_cast<idx>(width), *v);
    if (!r.scalar(prefix + "factors", out.factors_) ||
        !r.scalar(prefix + "combines", out.combines_) ||
        !r.scalar(prefix + "flips", out.flips_)) {
      return std::nullopt;
    }
    std::vector<std::int64_t> frows, brows;
    if (!r.vec(prefix + "front_rows", frows) ||
        !r.vec(prefix + "back_rows", brows)) {
      return std::nullopt;
    }
    std::int64_t rows_seen = 0;
    for (std::size_t i = 0; i < frows.size(); ++i) {
      FrontEntry e;
      e.block.rows = static_cast<idx>(frows[i]);
      if (e.block.rows < 1 ||
          !r.matrix(prefix + "front_r." + std::to_string(i), e.block.r) ||
          !r.matrix(prefix + "front_suffix." + std::to_string(i), e.suffix) ||
          e.block.r.rows() != width || e.block.r.cols() != width ||
          e.suffix.rows() != width || e.suffix.cols() != width) {
        return std::nullopt;
      }
      rows_seen += frows[i];
      out.front_.push_back(std::move(e));
    }
    for (std::size_t i = 0; i < brows.size(); ++i) {
      Block b;
      b.rows = static_cast<idx>(brows[i]);
      if (b.rows < 1 ||
          !r.matrix(prefix + "back_r." + std::to_string(i), b.r) ||
          b.r.rows() != width || b.r.cols() != width) {
        return std::nullopt;
      }
      rows_seen += brows[i];
      out.back_.push_back(std::move(b));
    }
    if (rows_seen != total_rows) return std::nullopt;
    out.total_rows_ = static_cast<idx>(total_rows);
    if (!out.back_.empty()) {
      if (!r.matrix(prefix + "back_agg", out.back_agg_) ||
          out.back_agg_.rows() != width || out.back_agg_.cols() != width) {
        return std::nullopt;
      }
    }
    std::uint8_t cached = 0;
    if (!r.scalar(prefix + "cache_valid", cached)) return std::nullopt;
    if (cached != 0) {
      if (!r.matrix(prefix + "cache", out.cache_) ||
          out.cache_.rows() != width || out.cache_.cols() != width) {
        return std::nullopt;
      }
      out.cache_valid_ = true;
    }
    return out;
  }

 private:
  static constexpr std::int32_t kStateVersion = 1;

  struct Block {
    idx rows = 0;
    Matrix<T> r;  // width x width, upper triangular, zeros below
  };
  struct FrontEntry {
    Block block;
    // This block's R combined with every younger front block (see header).
    Matrix<T> suffix;
  };

  // The binary caterpillar combine: R of [top; bottom] stacked, exactly the
  // arithmetic of IncrementalTsqr::push / the factor_tree kernel (only
  // upper-triangle entries are read, so results are bitwise comparable).
  Matrix<T> combine(gpusim::Device& dev, const Matrix<T>& top,
                    const Matrix<T>& bottom) {
    Matrix<T> out = Matrix<T>::zeros(width_, width_);
    if (dev.mode() == gpusim::ExecMode::Functional) {
      Matrix<T> stack = Matrix<T>::zeros(2 * width_, width_);
      stack.view().block(0, 0, width_, width_).copy_from(top.view());
      for (idx j = 0; j < width_; ++j) {
        for (idx i = 0; i <= j; ++i) stack(width_ + i, j) = bottom(i, j);
      }
      std::vector<T> tau(static_cast<std::size_t>(width_));
      std::vector<T> scratch(static_cast<std::size_t>(1 + width_));
      kernels::stacked_geqr2(stack.view(), width_, 2, tau.data(),
                             scratch.data());
      for (idx j = 0; j < width_; ++j) {
        for (idx i = 0; i <= j; ++i) out(i, j) = stack(i, j);
      }
    }
    charge_combine(dev);
    ++combines_;
    return out;
  }

  // Rebuilds the front stack from the back stack: suffix aggregates
  // newest-to-oldest, so the front top is the oldest block and carries the
  // aggregate of everything flipped. k - 1 combines for k blocks.
  void flip(gpusim::Device& dev) {
    CAQR_CHECK(front_.empty() && !back_.empty());
    for (std::size_t i = back_.size(); i-- > 0;) {
      FrontEntry e;
      e.suffix = front_.empty()
                     ? back_[i].r.clone()
                     : combine(dev, back_[i].r, front_.back().suffix);
      e.block = std::move(back_[i]);
      front_.push_back(std::move(e));
    }
    back_.clear();
    back_agg_ = Matrix<T>();
    ++flips_;
  }

  void charge_factor(gpusim::Device& dev, idx h) {
    kernels::CostOnlyKernel k{
        "window_factor",
        kernels::detail::householder_block_stats(
            kernels::block_geqr2_flops(h, width_),
            static_cast<double>(h) * width_,
            static_cast<double>(std::min(h, width_)),
            (2.0 * h * width_ + width_) * sizeof(T) *
                dev.model().tile_locality_penalty,
            kernels::cost_params(variant_), dev.model().uncoalesced_penalty,
            h, width_)};
    dev.launch(k, 1);
  }

  void charge_combine(gpusim::Device& dev) {
    kernels::CostOnlyKernel k{
        "window_combine",
        kernels::detail::householder_block_stats(
            kernels::stacked_geqr2_flops(width_, 2),
            2.0 * static_cast<double>(width_) * width_,
            static_cast<double>(width_),
            (2.0 * 2 * width_ * width_ + width_) * sizeof(T),
            kernels::cost_params(variant_),
            dev.model().uncoalesced_penalty)};
    dev.launch(k, 1);
  }

  idx width_;
  kernels::ReductionVariant variant_;
  std::vector<FrontEntry> front_;  // back() = oldest block (next evict)
  std::vector<Block> back_;        // oldest first; left-deep aggregate below
  Matrix<T> back_agg_;             // caterpillar R of the back stack
  Matrix<T> cache_;                // window R, valid iff cache_valid_
  bool cache_valid_ = false;
  idx total_rows_ = 0;
  long long factors_ = 0;
  long long combines_ = 0;
  long long flips_ = 0;
};

}  // namespace caqr::stream
