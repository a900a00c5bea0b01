#pragma once

// Grid-level fault tolerance: device-loss recovery for distributed CAQR.
//
// The transfer level is already handled underneath (DeviceGrid's checked
// transfers detect drops/flips by FNV checksum and recover by bounded
// resend-with-backoff; dist/device_grid.hpp). This header owns the next
// rung of the escalation ladder — losing a whole DEVICE mid-factorization:
//
//   1. resend     — link faults, absorbed inside transfer_payload.
//   2. resume     — a dead peer at a transfer rendezvous surfaces as
//                   DeviceLostError; the driver kills the device, MERGES its
//                   block rows into a neighboring survivor's shard, and
//                   resumes from the latest panel snapshot on the rebuilt
//                   grid. Panel records are keyed by global row ranges
//                   (dist/dist_caqr.hpp), so the completed prefix replays
//                   unchanged — this is the Demmel-Grigori-Hoemmen-Langou
//                   observation that any TSQR subtree is a pure function of
//                   its row blocks, not of the device that computed them.
//   3. recompute  — no usable snapshot (checkpointing off, or the loss hit
//                   before the first consistency point): restart the whole
//                   factorization from the retained input on the survivors.
//   4. report     — survivors or attempts exhausted: a typed Unrecovered
//                   GridCaqrResult with no factorization, never an abort or
//                   a hang.
//
// Shard merge keeps every invariant the factorization relies on: heights
// only grow (so the >= cols floor holds and R stays in shard 0), and old
// recorded row ranges — contiguous inside some earlier shard — remain
// contiguous inside exactly one merged shard, which is what lets
// DistCaqrFactorization::resume replay them on the rebuilt partition.
//
// Snapshots are the panel-boundary consistency points CAQR checkpointing
// established in PR 3 (same ft/checkpoint.hpp container and PanelFactor
// layout): the gathered working matrix plus the device-free panel records.
// They live in memory in the driver and, when GridRecoveryOptions::
// checkpoint_path is set, on disk too — save/load_grid_checkpoint round-trip
// a factorization across processes and across DIFFERENT grids (the on-disk
// form is partition-free; tests/test_ft.cpp re-scatters it over a merged
// partition). Snapshot capture is host-side bookkeeping and charges nothing
// to the simulated timelines; the modeled recovery cost is the lost work
// between the snapshot and the loss, which the attempt loop leaves on the
// clocks (bench/bench_dist_recovery.cpp measures exactly that).

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_caqr.hpp"
#include "dist/dist_matrix.hpp"
#include "ft/checkpoint.hpp"

namespace caqr::dist {

struct GridRecoveryOptions {
  // Panels between snapshots; 0 disables snapshots entirely (device loss
  // then always escalates to full recompute).
  idx checkpoint_every = 1;
  // Non-empty: every snapshot is also persisted here (atomic tmp+rename),
  // so a later process — or a rebuilt grid — can resume from disk.
  std::string checkpoint_path;
  // Total factorization attempts (first run + recoveries). Each device loss
  // consumes one attempt; the grid can lose at most max_attempts - 1
  // devices before the driver reports Unrecovered.
  int max_attempts = 4;
  // Permit rung 3 (full restart from the retained input) when no snapshot
  // is available. Off: a loss without a snapshot is immediately typed
  // Unrecovered — the detection-only analogue at grid scale.
  bool allow_recompute = true;
};

// A partition-free factorization snapshot: everything needed to continue
// after `done` panels on ANY partition whose shards the recorded row ranges
// fit inside (any merge-coarsening of the partition the panels ran on).
template <typename T>
struct GridCheckpoint {
  bool valid = false;
  idx done = 0;
  Matrix<T> working;  // gathered working matrix (reflectors + trailing)
  std::vector<idx> offsets;  // partition at snapshot time
  std::vector<typename DistCaqrFactorization<T>::PanelRecord> panels;
};

// Coarsens a partition to at most `max_shards` shards by repeatedly merging
// the pair of adjacent shards with the smallest combined height (keeps the
// partition balanced). Merging only ever grows shards, so every row range
// contiguous under the input stays contiguous under the result.
inline void coarsen_partition(std::vector<idx>& offsets, int max_shards) {
  CAQR_CHECK(max_shards >= 1 && offsets.size() >= 2);
  while (static_cast<int>(offsets.size()) - 1 > max_shards) {
    std::size_t best = 1;
    idx best_h = offsets[2] - offsets[0];
    for (std::size_t i = 2; i + 1 < offsets.size(); ++i) {
      const idx h = offsets[i + 1] - offsets[i - 1];
      if (h < best_h) {
        best_h = h;
        best = i;
      }
    }
    offsets.erase(offsets.begin() + static_cast<std::ptrdiff_t>(best));
  }
}

namespace detail {

// Deep copy of recorded panels (Matrix is move-only by design; the snapshot
// must not alias the live factorization's stages).
template <typename T>
std::vector<typename DistCaqrFactorization<T>::PanelRecord> clone_panel_records(
    const std::vector<typename DistCaqrFactorization<T>::PanelRecord>& in) {
  std::vector<typename DistCaqrFactorization<T>::PanelRecord> out;
  out.reserve(in.size());
  for (const auto& rec : in) {
    typename DistCaqrFactorization<T>::PanelRecord r2;
    r2.c0 = rec.c0;
    r2.w = rec.w;
    r2.local = rec.local;
    for (const auto& level : rec.cross) {
      typename DistCaqrFactorization<T>::CrossLevel l2;
      for (const auto& cg : level.groups) {
        typename DistCaqrFactorization<T>::CrossGroup g2;
        g2.member_rows = cg.member_rows;
        g2.taus = cg.taus;
        g2.stage = cg.stage.clone();
        l2.groups.push_back(std::move(g2));
      }
      r2.cross.push_back(std::move(l2));
    }
    out.push_back(std::move(r2));
  }
  return out;
}

}  // namespace detail

// Persists a snapshot (atomic tmp+rename; see ft/checkpoint.hpp). The
// shape scalars make a stale file from a different problem self-invalidating
// on load, like the single-device checkpoint.
template <typename T>
bool save_grid_checkpoint(const std::string& path, idx panel_width,
                          const GridCheckpoint<T>& ck) {
  ft::CheckpointWriter w;
  w.scalar("rows", static_cast<std::int64_t>(ck.working.rows()));
  w.scalar("cols", static_cast<std::int64_t>(ck.working.cols()));
  w.scalar("panel_width", static_cast<std::int64_t>(panel_width));
  w.scalar("scalar_size", static_cast<std::int64_t>(sizeof(T)));
  w.scalar("done", static_cast<std::int64_t>(ck.done));
  w.vec("offsets", ck.offsets);
  w.matrix("a", ck.working.view());
  for (std::size_t p = 0; p < ck.panels.size(); ++p) {
    const auto& rec = ck.panels[p];
    const std::string pre = "p" + std::to_string(p) + ".";
    w.scalar(pre + "c0", static_cast<std::int64_t>(rec.c0));
    w.scalar(pre + "w", static_cast<std::int64_t>(rec.w));
    w.scalar(pre + "nlocal", static_cast<std::int64_t>(rec.local.size()));
    for (std::size_t s = 0; s < rec.local.size(); ++s) {
      const auto& ls = rec.local[s];
      const std::string spre = pre + "s" + std::to_string(s) + ".";
      w.scalar(spre + "grow0", static_cast<std::int64_t>(ls.grow0));
      w.scalar(spre + "height", static_cast<std::int64_t>(ls.height));
      caqr::detail::write_panel_factor(w, spre, ls.f);
    }
    w.scalar(pre + "ncross", static_cast<std::int64_t>(rec.cross.size()));
    for (std::size_t l = 0; l < rec.cross.size(); ++l) {
      const std::string lpre = pre + "x" + std::to_string(l) + ".";
      const auto& level = rec.cross[l];
      w.scalar(lpre + "ngroups", static_cast<std::int64_t>(level.groups.size()));
      for (std::size_t g = 0; g < level.groups.size(); ++g) {
        const auto& cg = level.groups[g];
        const std::string gpre = lpre + "g" + std::to_string(g) + ".";
        w.vec(gpre + "member_rows", cg.member_rows);
        w.matrix(gpre + "stage", cg.stage.view());
        w.vec(gpre + "taus", cg.taus);
      }
    }
  }
  return w.write(path);
}

// Loads and validates a snapshot for the given problem shape and options.
// Any validation failure — missing file, corrupt container, mismatched
// shape — yields an invalid (clean-start) checkpoint, never garbage. As in
// CaqrFactorization::try_resume, a checksum-valid file is not trusted: every
// shape the factorization indexes storage by must be one a run under `opt`
// can record. Slices may come from a finer partition than the saved one
// (shard merges only coarsen), so each must lie inside one saved shard.
template <typename T>
GridCheckpoint<T> load_grid_checkpoint(const std::string& path, idx rows,
                                       idx cols, const DistCaqrOptions& opt) {
  GridCheckpoint<T> ck;
  const auto r = ft::CheckpointReader::load(path);
  if (!r) return ck;
  const idx pw = opt.panel_width;
  const idx kmax = std::min(rows, cols);
  std::int64_t frows = 0, fcols = 0, fpw = 0, fss = 0, done = 0;
  if (!r->scalar("rows", frows) || !r->scalar("cols", fcols) ||
      !r->scalar("panel_width", fpw) || !r->scalar("scalar_size", fss) ||
      !r->scalar("done", done)) {
    return ck;
  }
  if (frows != rows || fcols != cols || fpw != pw ||
      fss != static_cast<std::int64_t>(sizeof(T)) || done < 1 ||
      done > (kmax + pw - 1) / pw) {
    return ck;
  }
  if (!r->vec("offsets", ck.offsets) || ck.offsets.size() < 2 ||
      ck.offsets.front() != 0 || ck.offsets.back() != rows ||
      !std::all_of(ck.offsets.begin(), ck.offsets.end(),
                   [&](idx o) { return o >= 0 && o <= rows; })) {
    return ck;
  }
  for (std::size_t i = 0; i + 1 < ck.offsets.size(); ++i) {
    if (ck.offsets[i + 1] - ck.offsets[i] < cols) return ck;
  }
  if (!r->matrix("a", ck.working) || ck.working.rows() != rows ||
      ck.working.cols() != cols) {
    return ck;
  }
  auto inside_one_shard = [&](idx grow0, idx height) {
    for (std::size_t i = 0; i + 1 < ck.offsets.size(); ++i) {
      if (ck.offsets[i] <= grow0 && grow0 + height <= ck.offsets[i + 1]) {
        return true;
      }
    }
    return false;
  };
  const tsqr::TsqrOptions topt = opt.panel_tsqr();
  for (std::int64_t p = 0; p < done; ++p) {
    typename DistCaqrFactorization<T>::PanelRecord rec;
    const std::string pre = "p" + std::to_string(p) + ".";
    std::int64_t c0 = 0, w = 0, nlocal = 0, ncross = 0;
    if (!r->scalar(pre + "c0", c0) || !r->scalar(pre + "w", w) ||
        !r->scalar(pre + "nlocal", nlocal) ||
        !r->scalar(pre + "ncross", ncross) || c0 != p * pw ||
        w != std::min(pw, kmax - c0) || nlocal < 1 || ncross < 0) {
      return GridCheckpoint<T>{};
    }
    rec.c0 = static_cast<idx>(c0);
    rec.w = static_cast<idx>(w);
    for (std::int64_t s = 0; s < nlocal; ++s) {
      typename DistCaqrFactorization<T>::LocalSlice ls;
      const std::string spre = pre + "s" + std::to_string(s) + ".";
      std::int64_t grow0 = 0, height = 0;
      if (!r->scalar(spre + "grow0", grow0) ||
          !r->scalar(spre + "height", height) || grow0 < c0 ||
          grow0 >= rows || height < w || height > rows - grow0 ||
          !inside_one_shard(grow0, height) ||
          !caqr::detail::read_panel_factor(*r, spre, height, rec.w, topt,
                                           ls.f)) {
        return GridCheckpoint<T>{};
      }
      ls.grow0 = static_cast<idx>(grow0);
      ls.height = static_cast<idx>(height);
      rec.local.push_back(std::move(ls));
    }
    // Cross members are named by their slice's first row; the applies
    // address [row, row + w) of each and the k*w x w stage.
    auto is_slice_row = [&](idx row) {
      for (const auto& ls : rec.local) {
        if (ls.grow0 == row) return true;
      }
      return false;
    };
    for (std::int64_t l = 0; l < ncross; ++l) {
      typename DistCaqrFactorization<T>::CrossLevel level;
      const std::string lpre = pre + "x" + std::to_string(l) + ".";
      std::int64_t ngroups = 0;
      if (!r->scalar(lpre + "ngroups", ngroups) || ngroups < 0) {
        return GridCheckpoint<T>{};
      }
      for (std::int64_t g = 0; g < ngroups; ++g) {
        typename DistCaqrFactorization<T>::CrossGroup cg;
        const std::string gpre = lpre + "g" + std::to_string(g) + ".";
        if (!r->vec(gpre + "member_rows", cg.member_rows) ||
            !r->matrix(gpre + "stage", cg.stage) ||
            !r->vec(gpre + "taus", cg.taus)) {
          return GridCheckpoint<T>{};
        }
        const idx k = static_cast<idx>(cg.member_rows.size());
        if (k < 2 || cg.stage.rows() != k * rec.w ||
            cg.stage.cols() != rec.w ||
            cg.taus.size() != static_cast<std::size_t>(rec.w) ||
            !std::all_of(cg.member_rows.begin(), cg.member_rows.end(),
                         is_slice_row)) {
          return GridCheckpoint<T>{};
        }
        level.groups.push_back(std::move(cg));
      }
      rec.cross.push_back(std::move(level));
    }
    ck.panels.push_back(std::move(rec));
  }
  ck.done = static_cast<idx>(done);
  ck.valid = true;
  return ck;
}

// Index of the shard mapped to grid device `device`, or -1.
inline int shard_of_device(const std::vector<int>& devmap, int device) {
  for (std::size_t s = 0; s < devmap.size(); ++s) {
    if (devmap[s] == device) return static_cast<int>(s);
  }
  return -1;
}

// Removes shard `s` from the partition by merging its rows into the
// adjacent survivor (predecessor, or successor for shard 0) and dropping
// its device from the map. Heights only grow, so the >= cols floor and the
// containment of previously recorded row ranges are both preserved.
inline void merge_dead_shard(std::vector<idx>& offsets,
                             std::vector<int>& devmap, int s) {
  CAQR_CHECK(s >= 0 && s < static_cast<int>(devmap.size()));
  devmap.erase(devmap.begin() + s);
  if (devmap.empty()) return;  // no survivors; offsets left as-is
  const int boundary = s == 0 ? 1 : s;
  offsets.erase(offsets.begin() + boundary);
}

template <typename T>
struct GridCaqrResult {
  // Empty exactly when status.severity == Unrecovered with no completed
  // factorization (survivors or attempts exhausted).
  std::optional<DistCaqrFactorization<T>> f;
  ft::RunStatus status;
  int attempts = 1;
  std::vector<idx> partition;  // final partition in use
  std::vector<int> devices;    // final shard -> grid-device map
  bool used_checkpoint = false;  // at least one snapshot resume
  bool used_recompute = false;   // at least one full restart

  bool ok() const { return f.has_value() && status.ok(); }
};

// Rungs 2-4 of the escalation ladder. Factors `a` (a functional host
// matrix; the driver retains the view across attempts) over the grid's live
// devices, absorbing device losses by shard merge + snapshot resume /
// recompute until it either completes or runs out of survivors/attempts.
// Never throws for fault reasons and never hangs: every loss is a typed
// DeviceLostError from the checked-transfer layer, consumed here.
template <typename T>
GridCaqrResult<T> factor_with_recovery(
    DeviceGrid& grid, ConstMatrixView<T> a, const DistCaqrOptions& base,
    const GridRecoveryOptions& ropt = {},
    const typename DistCaqrFactorization<T>::PanelHook& user_hook = {}) {
  GridCaqrResult<T> res;
  const idx m = a.rows(), n = a.cols();
  const std::vector<int> live = grid.live_devices();
  CAQR_CHECK_MSG(!live.empty(), "no live devices");

  GridCheckpoint<T> snap;
  if (!ropt.checkpoint_path.empty()) {
    snap = load_grid_checkpoint<T>(ropt.checkpoint_path, m, n, base);
  }
  // The working partition. A disk snapshot dictates it (coarsened to the
  // live-device count so its recorded row ranges stay contiguous — an
  // even_partition of a different size would not be a coarsening); a clean
  // start gets the balanced partition over all live devices.
  std::vector<idx> offsets;
  std::vector<int> devmap;
  if (snap.valid) {
    offsets = snap.offsets;
    coarsen_partition(offsets, static_cast<int>(live.size()));
    devmap.assign(live.begin(),
                  live.begin() + (static_cast<std::ptrdiff_t>(offsets.size()) -
                                  1));
  } else {
    devmap = live;
    offsets = even_partition(m, static_cast<int>(devmap.size()), n);
  }
  ft::RunStatus agg;

  for (int attempt = 1; attempt <= ropt.max_attempts; ++attempt) {
    res.attempts = attempt;
    DistCaqrOptions opt = base;
    opt.devices = devmap;
    // An explicit cross tree is a property of a specific shard count. When
    // reassignment (or a snapshot's coarser partition) changes the count —
    // e.g. a loss INSIDE a node subtree shrinking that node's shard run —
    // re-derive the topology-aware tree for the survivor map on a
    // hierarchical grid, or fall back to the uniform consecutive tree on a
    // flat one. Correctness never depends on the tree shape (any validated
    // spec is bit-identical to its own single-device replay); only the
    // link schedule changes.
    if (!opt.cross_spec.empty() &&
        opt.cross_spec.shards() != static_cast<int>(devmap.size())) {
      opt.cross_spec = grid.hierarchy()
                           ? topology_cross_spec_for_devices(*grid.hierarchy(),
                                                             devmap)
                           : CrossSpec{};
    }
    auto hook = [&](const DistCaqrFactorization<T>& f, idx done) {
      if (ropt.checkpoint_every > 0 && done % ropt.checkpoint_every == 0 &&
          f.packed().functional()) {
        snap.valid = true;
        snap.done = done;
        snap.working = f.packed().gather();
        snap.offsets = f.packed().offsets();
        snap.panels = detail::clone_panel_records<T>(f.panels());
        if (!ropt.checkpoint_path.empty()) {
          save_grid_checkpoint(ropt.checkpoint_path, base.panel_width, snap);
        }
      }
      if (user_hook) user_hook(f, done);
    };
    try {
      std::optional<DistCaqrFactorization<T>> f;
      if (snap.valid) {
        if (attempt > 1 || !ropt.checkpoint_path.empty()) {
          res.used_checkpoint = true;
        }
        f = DistCaqrFactorization<T>::resume(
            grid, DistMatrix<T>::scatter(snap.working.as_const(), offsets),
            opt, detail::clone_panel_records<T>(snap.panels), snap.done, hook);
      } else {
        if (attempt > 1 && !ropt.allow_recompute) break;  // rung 4
        if (attempt > 1) res.used_recompute = true;
        f = DistCaqrFactorization<T>::factor(
            grid, DistMatrix<T>::scatter(a, offsets), opt, hook);
      }
      agg.merge(f->status());
      res.status = agg;
      res.partition = std::move(offsets);
      res.devices = std::move(devmap);
      res.f = std::move(f);
      return res;
    } catch (const DeviceLostError& e) {
      grid.kill_device(e.device);  // idempotent; records the loss
      ++agg.device_losses;
      agg.severity = ft::worse(agg.severity, ft::Severity::Corrected);
      const int s = shard_of_device(devmap, e.device);
      if (s < 0) break;  // loss outside our map: nothing to reassign
      merge_dead_shard(offsets, devmap, s);
      if (devmap.empty()) break;  // no survivors
    }
  }

  agg.severity = ft::Severity::Unrecovered;
  res.status = agg;
  res.partition = std::move(offsets);
  res.devices = std::move(devmap);
  return res;
}

}  // namespace caqr::dist
