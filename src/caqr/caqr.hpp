#pragma once

// Communication-Avoiding QR (§II.C, §IV) — the paper's core contribution.
//
// The matrix is processed in panels of `panel_width` columns. Each panel is
// factored with TSQR entirely on the (simulated) GPU, then the trailing
// matrix is updated in two phases, mirroring the host pseudocode of Figure 4:
//
//   foreach panel:
//     factor            (small QRs down the panel)
//     foreach tree level: factor_tree
//     apply_qt_h        (horizontal update from level-0 reflectors)
//     foreach tree level: apply_qt_tree
//
// Figure 4 launches every kernel back-to-back on one timeline, so the
// factorization of panel k+1 can never overlap the (independent) trailing
// update of panel k. The default LookAhead schedule removes that false
// dependency with two device streams, the classic look-ahead of the CAQR
// literature (Demmel et al., arXiv:0809.2407):
//
//   panel stream P : factor(k) ─ apply panel k to the column tile of
//                    panel k+1 ─ factor(k+1) ─ ...
//   update stream U: apply panel k to the REST of the trailing matrix
//
// U waits (wait_event) for factor(k); P waits for U's rest-update of panel
// k-1 before touching panel k+1's tile. factor/factor_tree of panel k+1 —
// launch-overhead-heavy and latency-floor-bound — thus overlap the
// throughput-bound apply_qt_h/apply_qt_tree of panel k. The split update is
// bitwise identical to the one-launch update because every apply kernel
// processes trailing columns independently, so Serial and LookAhead produce
// the same R, the same packed reflectors, and the same Q.
//
// After each panel the grid is redrawn `panel_width` rows lower, so R ends
// up in the conventional upper triangle of the storage and the distributed
// reflectors below it. CaqrFactorization keeps the per-panel replay metadata
// so Q^T / Q can be applied to arbitrary right-hand sides and the explicit Q
// can be formed — all through the same simulated kernels (the paper notes
// SORGQR via CAQR is as efficient as the factorization itself).

// Fault tolerance and checkpoint/restart. factor() aggregates the
// ft::Severity of every launch (plus TSQR's panel-level recovery) into a
// ft::RunStatus available from status(). When the device policy enables
// recovery and schedule_fallback, a LookAhead run whose corruption survives
// the lower recovery levels is redone on the Serial schedule from the kept
// original input — graceful degradation instead of an abort. When
// CaqrOptions::checkpoint_path is set, the factorization writes a
// panel-granularity snapshot (ft/checkpoint.hpp) at each schedule's common
// consistency point — "panels 0..p factored and fully applied" — so a killed
// run restarted with the same options resumes from the last completed panel
// and produces bit-identical results; an invalid or truncated checkpoint is
// detected by its checksum and ignored (clean start).

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ft/checkpoint.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "linalg/flops.hpp"
#include "linalg/qr.hpp"
#include "numerics/finite_check.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr {

enum class CaqrSchedule {
  Serial,     // Figure 4 verbatim: one stream, every launch back-to-back
  LookAhead,  // two-stream look-ahead: factor k+1 overlaps update of k
};

struct CaqrOptions {
  idx panel_width = 16;  // W: grid column width
  CaqrSchedule schedule = CaqrSchedule::LookAhead;
  tsqr::TsqrOptions tsqr;

  // Checkpoint/restart. Non-empty: write a snapshot of the factorization
  // state every `checkpoint_every` completed panels (atomic tmp+rename),
  // and resume from a valid checkpoint at the same path if one exists.
  // Functional mode only — ModelOnly has no data to snapshot.
  std::string checkpoint_path;
  idx checkpoint_every = 1;
  // Test hook simulating a mid-factorization kill: stop after this many
  // panels complete (0 = run to the end). The returned factorization is
  // partial; only its checkpoint file is meaningful.
  idx halt_after_panels = 0;

  // Tile width used by the trailing update defaults to the panel width.
  tsqr::TsqrOptions panel_tsqr() const {
    tsqr::TsqrOptions t = tsqr;
    t.tile_cols = panel_width;
    return t;
  }
};

namespace detail {

// Entries of form_q's identity seed one pool item writes.
inline constexpr idx kSeedChunkElems = idx{1} << 18;

// form_q's rows x cols identity seed, written on `pool` in chunks of whole
// columns of about kSeedChunkElems entries; a seed of one chunk is written
// inline. At 110,592 x 100 a serial fill of fresh pages held one thread
// for ~30 ms, about 30% of a pooled form_q. The entries are only stored,
// so Q keeps its bits at any pool size.
template <typename T>
Matrix<T> identity_seed(ThreadPool& pool, idx rows, idx cols) {
  Matrix<T> q(rows, cols);
  const idx per = std::max<idx>(1, kSeedChunkElems / std::max<idx>(rows, 1));
  const idx chunks = (cols + per - 1) / per;
  // Two captures keep the std::function off the heap.
  pool.parallel_for(static_cast<std::size_t>(chunks), [&q, per](std::size_t c) {
    const idx j0 = static_cast<idx>(c) * per;
    const idx j1 = std::min(q.cols(), j0 + per);
    q.block(0, j0, q.rows(), j1 - j0).fill(T(0));
    for (idx j = j0; j < std::min(j1, q.rows()); ++j) q(j, j) = T(1);
  });
  return q;
}

// Checkpoint sections of one panel factor under the prefix `pre`: shape,
// block offsets, level-0 taus, then per tree level the group structure and
// taus. Shared by the single-device and the grid (dist/grid_ft.hpp)
// checkpoints.
template <typename T>
void write_panel_factor(ft::CheckpointWriter& w, const std::string& pre,
                        const tsqr::PanelFactor<T>& pf) {
  w.scalar(pre + "rows", static_cast<std::int64_t>(pf.rows));
  w.scalar(pre + "width", static_cast<std::int64_t>(pf.width));
  w.vec(pre + "offsets", pf.offsets());
  w.vec(pre + "taus0", pf.taus0);
  w.scalar(pre + "nlevels", static_cast<std::int64_t>(pf.num_levels()));
  for (idx l = 0; l < pf.num_levels(); ++l) {
    const auto& groups = pf.level_groups(l);
    const std::string lpre = pre + "l" + std::to_string(l) + ".";
    std::vector<idx> gsizes;
    for (idx g = 0; g < groups.size(); ++g) {
      gsizes.push_back(groups.group_size(g));
    }
    w.vec(lpre + "gsizes", gsizes);
    w.vec(lpre + "gdata", groups.data);
    w.vec(lpre + "taus", pf.taus[static_cast<std::size_t>(l)]);
  }
}

// Reads the panel factor at `pre` for a (rows, width) panel factored under
// `topt`. A valid checksum proves the file is intact, not that it was
// written for this run, and the kernels index storage by a panel's shape
// and replay structure unchecked. So the panel must be exactly what
// tsqr::replay_meta produces, with tau lengths to match; the shared meta is
// then reused, not rebuilt from the file. The caller checks that the panel
// shape itself is one its factorization can have.
template <typename T>
bool read_panel_factor(const ft::CheckpointReader& r, const std::string& pre,
                       idx rows, idx width, const tsqr::TsqrOptions& topt,
                       tsqr::PanelFactor<T>& pf) {
  pf.rows = rows;
  pf.width = width;
  pf.meta = tsqr::replay_meta(rows, width, topt);
  std::int64_t prows = 0, pwidth = 0, nlev = 0;
  std::vector<idx> offsets;
  if (!r.scalar(pre + "rows", prows) || prows != pf.rows ||
      !r.scalar(pre + "width", pwidth) || pwidth != pf.width ||
      !r.scalar(pre + "nlevels", nlev) || nlev != pf.num_levels() ||
      !r.vec(pre + "offsets", offsets) || offsets != pf.offsets() ||
      !r.vec(pre + "taus0", pf.taus0) ||
      pf.taus0.size() != static_cast<std::size_t>(pf.num_blocks() * width)) {
    return false;
  }
  for (idx l = 0; l < pf.num_levels(); ++l) {
    const GroupList& groups = pf.level_groups(l);
    const std::string lpre = pre + "l" + std::to_string(l) + ".";
    std::vector<idx> gsizes, gdata;
    std::vector<T> taus;
    if (!r.vec(lpre + "gsizes", gsizes) || !r.vec(lpre + "gdata", gdata) ||
        !r.vec(lpre + "taus", taus) || gdata != groups.data ||
        gsizes.size() != static_cast<std::size_t>(groups.size()) ||
        taus.size() != static_cast<std::size_t>(groups.size() * width)) {
      return false;
    }
    for (idx g = 0; g < groups.size(); ++g) {
      if (gsizes[static_cast<std::size_t>(g)] != groups.group_size(g)) {
        return false;
      }
    }
    pf.taus.push_back(std::move(taus));
  }
  return true;
}

}  // namespace detail

template <typename T>
class CaqrFactorization {
 public:
  // Factors `a` (consumed; any aspect ratio, empty dimensions allowed) on
  // `dev`. A matrix with zero rows or columns yields an empty factorization
  // (LAPACK xGEQRF semantics).
  static CaqrFactorization factor(gpusim::Device& dev, Matrix<T> a,
                                  const CaqrOptions& opt = {}) {
    CaqrFactorization f;
    f.a_ = std::move(a);
    f.opt_ = opt;
    CAQR_CHECK(f.a_.rows() >= 0 && f.a_.cols() >= 0);
    CAQR_CHECK(opt.panel_width >= 1);
    CAQR_CHECK(opt.tsqr.block_rows >= opt.panel_width);
    if (std::min(f.a_.rows(), f.a_.cols()) == 0) return f;
    const bool functional = dev.mode() == gpusim::ExecMode::Functional;
    if (functional) {
      CAQR_GUARD_FINITE(f.a_.view(), "caqr_factor:input");
    }

    idx first = 0;
    if (functional && !opt.checkpoint_path.empty()) first = f.try_resume();

    const ft::FtOptions& ftopt = dev.fault_tolerance();
    const ft::Summary before = dev.ft_summary();
    const bool keep_original = functional && ftopt.abft && ftopt.recovery() &&
                               ftopt.schedule_fallback &&
                               opt.schedule == CaqrSchedule::LookAhead;
    Matrix<T> original;
    std::vector<tsqr::PanelFactor<T>> original_panels;
    if (keep_original) {
      original = Matrix<T>::from(f.a_.as_const());
      original_panels = f.panels_;
    }

    if (opt.schedule == CaqrSchedule::LookAhead) {
      factor_lookahead(dev, f, first);
    } else {
      factor_serial(dev, f, first);
    }
    if (keep_original && !f.halted_ &&
        f.status_.severity == ft::Severity::Unrecovered) {
      // Schedule-level degradation: the two-stream run stayed corrupted
      // after launch retries and panel recomputes — redo everything on the
      // serial schedule from the kept input.
      f.a_ = std::move(original);
      f.panels_ = std::move(original_panels);
      f.status_.severity = ft::Severity::Ok;
      f.status_.schedule_fallback = true;
      factor_serial(dev, f, first);
      if (f.status_.severity == ft::Severity::Ok) {
        f.status_.severity = ft::Severity::Corrected;
      }
    }

    const ft::Summary after = dev.ft_summary();
    f.status_.corrected_launches =
        after.corrected_launches - before.corrected_launches;
    f.status_.unrecovered_launches =
        after.unrecovered_launches - before.unrecovered_launches;

    if (functional && !f.halted_ &&
        f.status_.severity != ft::Severity::Unrecovered) {
      CAQR_GUARD_FINITE(f.a_.view(), "caqr_factor:output");
    }
    return f;
  }

  // Fault-tolerance outcome of factor() (ft::RunStatus semantics);
  // status().ok() is false only when corruption survived every recovery
  // level that was enabled.
  const ft::RunStatus& status() const { return status_; }

  // True when the halt_after_panels test hook stopped the run early.
  bool halted() const { return halted_; }

  idx rows() const { return a_.rows(); }
  idx cols() const { return a_.cols(); }

  // The packed factorization (R in the upper triangle, distributed
  // reflectors below), analogous to LAPACK's GEQRF output format.
  const Matrix<T>& packed() const { return a_; }

  // Upper-triangular R (min(m,n) x n).
  Matrix<T> r() const { return extract_r(a_.view()); }

  // c := Q^T c (c has m rows).
  void apply_qt(gpusim::Device& dev, MatrixView<T> c) const {
    walk(dev, c, /*transpose_q=*/true);
  }

  // c := Q c.
  void apply_q(gpusim::Device& dev, MatrixView<T> c) const {
    walk(dev, c, /*transpose_q=*/false);
  }

  // Explicit m x qcols orthogonal factor (SORGQR equivalent); qcols == 0
  // yields an m x 0 matrix. Bit-identical to apply_q on
  // Matrix::identity(m, qcols), but skips the columns the identity leaves
  // zero (walk()). The seed is written on the device's pool. ModelOnly
  // seeds a storage-free placeholder and only charges the timeline.
  Matrix<T> form_q(gpusim::Device& dev, idx qcols) const {
    CAQR_CHECK(qcols >= 0 && qcols <= a_.rows());
    Matrix<T> q = dev.mode() == gpusim::ExecMode::Functional
                      ? detail::identity_seed<T>(dev.pool(), a_.rows(), qcols)
                      : Matrix<T>::shape_only(a_.rows(), qcols);
    walk(dev, q.view(), /*transpose_q=*/false, /*identity_seed=*/true);
    return q;
  }

 private:
  // Figure 4's host pseudocode: every launch on the (synchronous) legacy
  // stream. `first_panel` > 0 resumes mid-factorization (checkpoint).
  static void factor_serial(gpusim::Device& dev, CaqrFactorization& f,
                            idx first_panel) {
    const CaqrOptions& opt = f.opt_;
    const tsqr::TsqrOptions topt = opt.panel_tsqr();
    const idx m = f.a_.rows(), n = f.a_.cols();
    const idx kmax = m < n ? m : n;
    ft::Severity sev = ft::Severity::Ok;
    idx done = first_panel;
    for (idx c0 = first_panel * opt.panel_width; c0 < kmax;
         c0 += opt.panel_width) {
      const idx w = std::min(opt.panel_width, kmax - c0);
      const idx len = m - c0;
      auto panel = f.a_.block(c0, c0, len, w);
      f.panels_.push_back(tsqr_factor(dev, gpusim::kDefaultStream, panel,
                                      topt, &sev, &f.status_.panel_retries));
      const idx trailing_cols = n - c0 - w;
      if (trailing_cols > 0) {
        tsqr_apply(dev, gpusim::kDefaultStream, panel.as_const(),
                   f.panels_.back(), f.a_.block(c0, c0 + w, len, trailing_cols),
                   topt, /*transpose_q=*/true, &sev);
      }
      ++done;
      f.after_panel(dev, done);
      if (f.halted_) break;
    }
    f.status_.severity = ft::worse(f.status_.severity, sev);
  }

  // Two-stream look-ahead schedule. Dependency structure per panel p:
  //
  //   P: factor(p) ── record F_p ── [wait R_{p-1}] ── apply p → tile p+1
  //      ── factor(p+1) ── ...
  //   U: [wait F_p] ── apply p → rest ── record R_p
  //
  // The tile update (P) and the rest update (U) write disjoint columns and
  // only read panel p, so they run concurrently; factor(p+1) needs only the
  // tile. Functional execution happens at issue time, and the issue order
  // below is itself dependency-correct, so numerics are independent of the
  // stream timing.
  static void factor_lookahead(gpusim::Device& dev, CaqrFactorization& f,
                               idx first_panel) {
    const CaqrOptions& opt = f.opt_;
    const tsqr::TsqrOptions topt = opt.panel_tsqr();
    const idx m = f.a_.rows(), n = f.a_.cols();
    const idx kmax = m < n ? m : n;
    const gpusim::StreamId sp = dev.create_stream();  // panel / look-ahead
    const gpusim::StreamId su = dev.create_stream();  // trailing update

    std::vector<idx> starts;
    for (idx c0 = 0; c0 < kmax; c0 += opt.panel_width) starts.push_back(c0);
    const idx np = static_cast<idx>(starts.size());
    ft::Severity sev = ft::Severity::Ok;
    auto width_of = [&](idx p) {
      return std::min(opt.panel_width, kmax - starts[p]);
    };
    auto factor_panel = [&](idx p) {
      const idx c0 = starts[p];
      f.panels_.push_back(tsqr_factor(dev, sp,
                                      f.a_.block(c0, c0, m - c0, width_of(p)),
                                      topt, &sev, &f.status_.panel_retries));
    };

    factor_panel(first_panel);
    gpusim::EventId prev_rest = -1;  // U's rest-update of the previous panel
    for (idx p = first_panel; p < np; ++p) {
      const idx c0 = starts[p];
      const idx w = width_of(p);
      const idx len = m - c0;
      const auto panel = f.a_.view().block(c0, c0, len, w).as_const();
      const auto& meta = f.panels_[static_cast<std::size_t>(p)];
      const gpusim::EventId factored = dev.record_event(sp);

      const idx trailing = n - c0 - w;
      const idx next_w = p + 1 < np ? width_of(p + 1) : 0;
      const idx rest = trailing - next_w;
      if (next_w > 0) {
        // Look-ahead: bring panel p+1's columns fully up to date on the
        // panel stream. They last received panel p-1's update on U.
        if (prev_rest >= 0) dev.wait_event(sp, prev_rest);
        tsqr_apply(dev, sp, panel, meta, f.a_.block(c0, c0 + w, len, next_w),
                   topt, /*transpose_q=*/true, &sev);
      }
      if (rest > 0) {
        dev.wait_event(su, factored);
        tsqr_apply(dev, su, panel, meta,
                   f.a_.block(c0, c0 + w + next_w, len, rest), topt,
                   /*transpose_q=*/true, &sev);
        prev_rest = dev.record_event(su);
      }
      // Consistency point shared with the serial schedule: panels 0..p are
      // factored and fully applied (functional execution happens at issue
      // time). The checkpoint must precede factor_panel(p + 1).
      f.after_panel(dev, p + 1);
      if (f.halted_) break;
      if (p + 1 < np) factor_panel(p + 1);
    }
    f.status_.severity = ft::worse(f.status_.severity, sev);
  }

  // Q^T = Q_{np-1}^T ... Q_0^T walks the panels forward, Q in reverse.
  // `identity_seed` (form_q only) narrows the reverse walk the way xORGQR
  // does: before panel p's Q is applied, seed columns j < c0 are still e_j,
  // zero in the panel's rows [c0, m), and applying reflectors to a zero
  // column leaves +0 in every entry. So panel p targets only columns
  // [min(c0, ncols), ncols) and Q keeps its bits.
  void walk(gpusim::Device& dev, MatrixView<T> c, bool transpose_q,
            bool identity_seed = false) const {
    CAQR_CHECK(c.rows() == a_.rows());
    if (c.cols() == 0) return;
    const tsqr::TsqrOptions topt = opt_.panel_tsqr();
    const idx np = static_cast<idx>(panels_.size());
    for (idx i = 0; i < np; ++i) {
      const idx p = transpose_q ? i : np - 1 - i;
      const idx c0 = p * opt_.panel_width;
      const idx j0 = identity_seed ? std::min(c0, c.cols()) : 0;
      const auto& meta = panels_[static_cast<std::size_t>(p)];
      tsqr_apply(dev, gpusim::kDefaultStream,
                 a_.view().block(c0, c0, meta.rows, meta.width), meta,
                 c.block(c0, j0, meta.rows, c.cols() - j0), topt, transpose_q);
    }
  }

  idx num_panels() const {
    const idx kmax = std::min(a_.rows(), a_.cols());
    return (kmax + opt_.panel_width - 1) / opt_.panel_width;
  }

  // Called after `done` panels are factored and fully applied — the common
  // consistency point of both schedules.
  void after_panel(gpusim::Device& dev, idx done) {
    const idx total = num_panels();
    if (!opt_.checkpoint_path.empty() && opt_.checkpoint_every > 0 &&
        dev.mode() == gpusim::ExecMode::Functional &&
        (done % opt_.checkpoint_every == 0 || done == total)) {
      write_checkpoint(done);
    }
    if (opt_.halt_after_panels > 0 && done >= opt_.halt_after_panels &&
        done < total) {
      halted_ = true;
    }
  }

  void write_checkpoint(idx done) const {
    ft::CheckpointWriter w;
    w.scalar("rows", static_cast<std::int64_t>(a_.rows()));
    w.scalar("cols", static_cast<std::int64_t>(a_.cols()));
    w.scalar("panel_width", static_cast<std::int64_t>(opt_.panel_width));
    w.scalar("scalar_size", static_cast<std::int64_t>(sizeof(T)));
    w.scalar("done", static_cast<std::int64_t>(done));
    w.matrix("a", a_.view());
    for (idx p = 0; p < done; ++p) {
      detail::write_panel_factor(w, "p" + std::to_string(p) + ".",
                                 panels_[static_cast<std::size_t>(p)]);
    }
    w.write(opt_.checkpoint_path);
  }

  // Loads and validates a checkpoint at opt_.checkpoint_path; returns the
  // panel to resume from (0 = none / invalid / mismatched, i.e. clean start).
  idx try_resume() {
    const auto r = ft::CheckpointReader::load(opt_.checkpoint_path);
    if (!r) return 0;
    std::int64_t rows = 0, cols = 0, pw = 0, ssize = 0, done = 0;
    if (!r->scalar("rows", rows) || !r->scalar("cols", cols) ||
        !r->scalar("panel_width", pw) || !r->scalar("scalar_size", ssize) ||
        !r->scalar("done", done)) {
      return 0;
    }
    if (rows != a_.rows() || cols != a_.cols() || pw != opt_.panel_width ||
        ssize != static_cast<std::int64_t>(sizeof(T)) || done < 1 ||
        done > num_panels()) {
      return 0;
    }
    Matrix<T> a;
    if (!r->matrix("a", a) || a.rows() != a_.rows() ||
        a.cols() != a_.cols()) {
      return 0;
    }
    const tsqr::TsqrOptions topt = opt_.panel_tsqr();
    const idx kmax = std::min(a_.rows(), a_.cols());
    std::vector<tsqr::PanelFactor<T>> panels(static_cast<std::size_t>(done));
    for (std::int64_t p = 0; p < done; ++p) {
      const idx c0 = static_cast<idx>(p) * opt_.panel_width;
      if (!detail::read_panel_factor(
              *r, "p" + std::to_string(p) + ".", a_.rows() - c0,
              std::min(opt_.panel_width, kmax - c0), topt,
              panels[static_cast<std::size_t>(p)])) {
        return 0;
      }
    }
    a_ = std::move(a);
    panels_ = std::move(panels);
    status_.resumed_from_checkpoint = true;
    status_.resumed_at_panel = static_cast<idx>(done);
    return static_cast<idx>(done);
  }

  Matrix<T> a_;
  std::vector<tsqr::PanelFactor<T>> panels_;
  CaqrOptions opt_;
  ft::RunStatus status_;
  bool halted_ = false;
};

// One-call convenience: factor a copy of `a` and return the factorization.
template <typename VA>
CaqrFactorization<view_scalar_t<VA>> caqr_factor(gpusim::Device& dev,
                                                 const VA& a,
                                                 const CaqrOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  return CaqrFactorization<T>::factor(dev, Matrix<T>::from(cview(a)), opt);
}

}  // namespace caqr
