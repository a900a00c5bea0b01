#pragma once

// Distributed CAQR over a DeviceGrid: the paper's four kernels run locally
// per device, stitched by a cross-device TSQR reduction tree.
//
// Per panel (global column offset c0, width w):
//
//   1. local factor — every device runs the ordinary single-device TSQR
//      (factor + local factor_tree levels) on its shard's slice of the
//      panel; only device 0's slice starts at local row c0 (R lives in
//      shard 0 by the partition invariant), the rest are fully active.
//   2. cross reduction — the devices' surviving w x w R triangles are
//      combined up a configurable-arity tree: each non-owner ships its
//      triangle over the interconnect (modeled + checked transfer), the
//      owner stacks the k triangles into a (k*w x w) staging matrix and
//      launches the same factor_tree kernel on it, and the root's new R is
//      copied back into the owner's shard. The stage (stacked reflectors)
//      and taus are recorded for replay.
//   3. trailing update — local apply_qt_h / apply_qt_tree per device, then
//      per cross level the w-row C slices of each member round-trip to the
//      owner, which applies the stacked reflectors (apply_qt_tree on the
//      stage) and ships the updated rows back.
//
// Bit-identity guarantee. The tree-combine and tree-apply arithmetic
// (stacked_geqr2 / stacked_apply, kernels/block_ops.hpp) are pure
// functions of the gathered stacked values, and stacked_apply never reads
// v block 0 — so combining triangles on an owner's staging matrix is
// bitwise equal to combining them in place in one device's panel, and the
// one storage divergence this leaves (a non-owner's stale root triangle,
// whose single-device twin holds the combine's reflector tails) is never
// read by any later kernel. A single-device CaqrFactorization run with
// TsqrOptions::tree_spec = dist_tree_spec(partition, ...) therefore
// reproduces the distributed Q and R bit-for-bit (tests/test_dist.cpp).
// Cross-device transfers go through DeviceGrid::transfer_payload, whose
// checksum-verified resends ship the sender's intact bytes — so recovered
// (Corrected) runs keep the same bit-identity; only an Unrecovered transfer
// (resend budget exhausted under injection) leaves corrupt bytes behind,
// and that is reported typed through status().
//
// Fault tolerance (ISSUE 8). Every panel record is DEVICE-FREE: local
// slices and cross-tree members are identified by their GLOBAL row ranges,
// and the executing device is resolved through the current partition plus
// the shard->device map (DistCaqrOptions::devices) at apply time. That is
// what makes recovery cheap (the Demmel-Grigori-Hoemmen-Langou tree
// property): when a device dies, dist/grid_ft.hpp merges the dead shard's
// row range into a survivor, re-scatters checkpointed state, and the
// already-recorded panels replay unchanged on the rebuilt grid — the row
// blocks and their combine order are properties of the matrix, not of the
// hardware they ran on. A dead peer discovered at a transfer rendezvous
// raises DeviceLostError out of factor()/apply; the recovery driver (not
// this class) owns the reassignment policy.
//
// Execution/timing model. Host-side fan-out over devices goes through
// common/thread_pool (each device's functional launches already
// parallel_for over blocks; nested parallel_for runs inline). Simulated
// clocks are per-device, so local phases overlap in simulated time even
// though the host issues sequentially; transfers rendezvous both endpoints
// (DeviceGrid::transfer_payload). ModelOnly grids run the identical issue
// sequence on storage-free shards/stages and produce bit-identical
// timelines and comm logs.

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "caqr/caqr.hpp"
#include "common/group_list.hpp"
#include "common/thread_pool.hpp"
#include "dist/device_grid.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/topology.hpp"
#include "kernels/kernels.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr::dist {

struct DistCaqrOptions {
  idx panel_width = 16;
  // Local (per-device) TSQR options; tree_spec must be left unset (the
  // driver owns the decomposition).
  tsqr::TsqrOptions tsqr;
  // Cross-device reduction-tree fan-in: 2 = binary, 4 = quad. Used only
  // when no explicit cross_spec is set.
  idx cross_arity = 2;
  // Explicit cross-device tree (dist/topology.hpp): per level, consecutive
  // survivor runs with the front member owning each combine. Empty = the
  // uniform consecutive-arity tree above. topology_cross_spec builds the
  // hierarchical shape (intra-node first, ceil(log2 K) slow-link waves);
  // must match the shard count of the partition the factorization runs on.
  CrossSpec cross_spec;
  // Shard -> grid-device map. Empty means the identity (shard d on device
  // d, requiring one shard per grid device). The recovery driver uses this
  // to run a factorization on a SURVIVOR SUBSET of a grid with dead
  // members; serve::make_dist_plan fills it with the live devices.
  std::vector<int> devices;

  tsqr::TsqrOptions panel_tsqr() const {
    tsqr::TsqrOptions t = tsqr;
    t.tile_cols = panel_width;
    return t;
  }
};

namespace detail {

// Bytes of one w x w upper triangle (what the R exchange ships).
inline double triangle_bytes(idx w, std::size_t scalar_size) {
  return 0.5 * static_cast<double>(w) * static_cast<double>(w + 1) *
         static_cast<double>(scalar_size);
}

}  // namespace detail

// TreeSpec provider replaying the distributed decomposition on one device:
// per active shard, the uniform local tree (same split_rows/arity
// construction the per-device tsqr_factor uses), merged level-by-level,
// followed by the cross-device levels over the shard root blocks — the
// SAME resolved levels the distributed driver runs (explicit cross_spec
// when set, uniform consecutive grouping by cross_arity otherwise), so the
// two can never drift apart. Capture of `partition` fixes the geometry, so
// the provider is a deterministic pure function of (rows, width) as
// TsqrOptions::tree_spec requires. The (rows, width) panel is assumed to
// start at global row partition.back() - rows — exactly how CAQR walks its
// panels.
inline std::function<tsqr::TreeSpec(idx, idx)> dist_tree_spec(
    std::vector<idx> partition, tsqr::TsqrOptions local, idx cross_arity,
    CrossSpec cross_spec = {}) {
  CAQR_CHECK(partition.size() >= 2 && cross_arity >= 2);
  local.tree_spec = nullptr;  // the provider must not recurse
  const auto cross_levels = resolve_cross_levels(
      static_cast<int>(partition.size()) - 1, cross_spec, cross_arity);
  return [partition = std::move(partition), local,
          cross_levels](idx rows, idx width) {
    const idx total = partition.back();
    const idx c0 = total - rows;
    tsqr::TreeSpec spec;
    spec.offsets.push_back(0);
    std::vector<idx> roots;  // global block index of each shard's local root
    std::vector<tsqr::TreeSpec> locals;
    const int n = static_cast<int>(partition.size()) - 1;
    for (int d = 0; d < n; ++d) {
      const idx lo = std::max(c0, partition[static_cast<std::size_t>(d)]);
      const idx h = partition[static_cast<std::size_t>(d) + 1] - lo;
      CAQR_CHECK(h >= width);
      tsqr::TreeSpec ls = tsqr::uniform_tree_spec(h, width, local);
      roots.push_back(spec.num_blocks());  // local root is local block 0
      for (std::size_t i = 1; i < ls.offsets.size(); ++i) {
        spec.offsets.push_back(lo - c0 + ls.offsets[i]);
      }
      locals.push_back(std::move(ls));
    }
    std::size_t max_local = 0;
    for (const auto& ls : locals) max_local = std::max(max_local, ls.levels.size());
    for (std::size_t l = 0; l < max_local; ++l) {
      GroupList groups;
      for (int d = 0; d < n; ++d) {
        const auto& ls = locals[static_cast<std::size_t>(d)];
        if (l >= ls.levels.size()) continue;  // local root passes through
        const auto& lgl = ls.levels[l];
        for (idx gi = 0; gi < lgl.size(); ++gi) {
          for (const idx b : lgl[gi]) {
            groups.append(roots[static_cast<std::size_t>(d)] + b);
          }
          groups.close_group();
        }
      }
      spec.levels.push_back(std::move(groups));
    }
    // Cross-device levels: shard indices translate to their local-root
    // block indices; the grouping is identical to factor_panel's.
    for (const auto& level : cross_levels) {
      GroupList groups;
      for (const auto& g : level) {
        for (const int s : g) {
          groups.append(roots[static_cast<std::size_t>(s)]);
        }
        groups.close_group();
      }
      spec.levels.push_back(std::move(groups));
    }
    return spec;
  };
}

// Single-device CaqrOptions whose factorization is bit-identical to the
// distributed run with `opt` over `partition` — the reference the tests
// and the scaling bench compare against. Honors opt.cross_spec, so the
// proof obligation covers topology-aware trees too (DESIGN.md §15).
inline CaqrOptions single_device_equivalent(const DistCaqrOptions& opt,
                                            std::vector<idx> partition) {
  CaqrOptions c;
  c.panel_width = opt.panel_width;
  c.schedule = CaqrSchedule::Serial;
  c.tsqr = opt.tsqr;
  c.tsqr.tree_spec = dist_tree_spec(std::move(partition), opt.panel_tsqr(),
                                    opt.cross_arity, opt.cross_spec);
  return c;
}

template <typename T>
class DistCaqrFactorization {
 public:
  // Replay metadata in GLOBAL row coordinates (device-free; see header
  // comment). Public so ft/grid_ft checkpointing can serialize it.
  struct LocalSlice {
    idx grow0 = 0;   // global row where this slice's panel area starts
    idx height = 0;  // slice rows (>= panel width)
    tsqr::PanelFactor<T> f;
  };
  // One cross-tree combine group: the owner's staging matrix holds the
  // stacked reflectors the later applies replay. Members are identified by
  // the global row of their root triangle (member_rows[0] = owner).
  struct CrossGroup {
    std::vector<idx> member_rows;
    Matrix<T> stage;     // (k*w x w) combined stack
    std::vector<T> taus;  // w scalars
  };
  struct CrossLevel {
    std::vector<CrossGroup> groups;
  };
  struct PanelRecord {
    idx c0 = 0;
    idx w = 0;
    std::vector<LocalSlice> local;  // one per shard active at factor time
    std::vector<CrossLevel> cross;
  };

  // Called after each completed panel (factor + trailing update) with the
  // number of panels done — the grid_ft checkpoint consistency point, and
  // the deterministic place for tests to kill devices mid-factorization.
  using PanelHook =
      std::function<void(const DistCaqrFactorization&, idx /*done*/)>;

  // Factors the sharded `a` (consumed) across the grid. Requires the tall
  // partition invariant (every shard >= cols rows) and one shard per mapped
  // device. Throws DeviceLostError if a transfer rendezvous finds a dead
  // peer — the caller (dist/grid_ft.hpp) owns recovery.
  static DistCaqrFactorization factor(DeviceGrid& grid, DistMatrix<T> a,
                                      const DistCaqrOptions& opt = {},
                                      const PanelHook& after_panel = {}) {
    DistCaqrFactorization f;
    f.init(grid, std::move(a), opt);
    f.run_from(grid, 0, after_panel);
    return f;
  }

  // Resumes a factorization whose first `first_panel` panels (records in
  // `panels`, trailing updates already applied to `a`) were completed by an
  // earlier run — possibly on a DIFFERENT partition: each recorded row
  // range only needs to be contiguous inside one current shard, which
  // shard-merge reassignment preserves. Runs the remaining panels on the
  // current partition/devices.
  static DistCaqrFactorization resume(DeviceGrid& grid, DistMatrix<T> a,
                                      const DistCaqrOptions& opt,
                                      std::vector<PanelRecord> panels,
                                      idx first_panel,
                                      const PanelHook& after_panel = {}) {
    DistCaqrFactorization f;
    f.init(grid, std::move(a), opt);
    CAQR_CHECK(static_cast<idx>(panels.size()) == first_panel);
    f.panels_ = std::move(panels);
    f.status_.resumed_from_checkpoint = true;
    f.status_.resumed_at_panel = first_panel;
    f.run_from(grid, first_panel, after_panel);
    return f;
  }

  idx rows() const { return a_.rows(); }
  idx cols() const { return a_.cols(); }
  const DistMatrix<T>& packed() const { return a_; }
  DistMatrix<T>& packed() { return a_; }
  const DistCaqrOptions& options() const { return opt_; }
  const std::vector<PanelRecord>& panels() const { return panels_; }

  // Aggregated fault-tolerance outcome: local launch ABFT severities plus
  // every cross-device transfer's checked result.
  const ft::RunStatus& status() const { return status_; }

  // Grid device executing shard s under the configured map.
  int device_of_shard(int s) const {
    return opt_.devices.empty() ? s
                                : opt_.devices[static_cast<std::size_t>(s)];
  }

  // Upper-triangular R (min(m,n) x n), read entirely from shard 0.
  Matrix<T> r() const {
    CAQR_CHECK(a_.functional());
    return extract_r(a_.shard(0).view());
  }

  // c := Q^T c / Q c for a DistMatrix sharded on the SAME partition as A.
  void apply_qt(DeviceGrid& grid, DistMatrix<T>& c) const {
    walk(grid, c, /*transpose_q=*/true);
  }
  void apply_q(DeviceGrid& grid, DistMatrix<T>& c) const {
    walk(grid, c, /*transpose_q=*/false);
  }

  // Explicit thin Q (m x qcols), block-row sharded like A.
  DistMatrix<T> form_q(DeviceGrid& grid, idx qcols) const {
    CAQR_CHECK(qcols >= 0 && qcols <= a_.rows());
    DistMatrix<T> q =
        a_.functional()
            ? DistMatrix<T>::identity(a_.rows(), qcols, a_.offsets())
            : DistMatrix<T>::shape_only(a_.rows(), qcols, a_.offsets());
    walk(grid, q, /*transpose_q=*/false, /*identity_seed=*/true);
    return q;
  }

  // The TsqrOptions::tree_spec provider a single device needs to replay
  // this factorization bit-for-bit. Only meaningful for factorizations that
  // ran start-to-finish on one partition (no mid-run reassignment).
  std::function<tsqr::TreeSpec(idx, idx)> equivalent_tree_spec() const {
    return dist_tree_spec(a_.offsets(), opt_.panel_tsqr(), opt_.cross_arity,
                          opt_.cross_spec);
  }

 private:
  bool functional() const { return a_.functional(); }

  // ModelOnly shards are storage-free, but block() of a null-data view
  // yields a non-null offset pointer — so payload views must be emptied
  // explicitly before they reach the checked transfer, which uses
  // data() == nullptr as its "model path" signal.
  ConstMatrixView<T> payload(ConstMatrixView<T> v) const {
    return functional() ? v : ConstMatrixView<T>{};
  }
  MatrixView<T> payload(MatrixView<T> v) const {
    return functional() ? v : MatrixView<T>{};
  }

  void init(DeviceGrid& grid, DistMatrix<T> a, const DistCaqrOptions& opt) {
    a_ = std::move(a);
    opt_ = opt;
    const int ns = a_.num_shards();
    if (opt_.devices.empty()) {
      CAQR_CHECK(ns == grid.size());
    } else {
      CAQR_CHECK(static_cast<int>(opt_.devices.size()) == ns);
      std::vector<char> seen(static_cast<std::size_t>(grid.size()), 0);
      for (const int d : opt_.devices) {
        CAQR_CHECK_MSG(d >= 0 && d < grid.size(), "device map out of range");
        CAQR_CHECK_MSG(seen[static_cast<std::size_t>(d)] == 0,
                       "device map must be injective (one shard per device)");
        seen[static_cast<std::size_t>(d)] = 1;
      }
    }
    CAQR_CHECK(opt_.panel_width >= 1 && opt_.cross_arity >= 2);
    if (!opt_.cross_spec.empty()) {
      CAQR_CHECK_MSG(opt_.cross_spec.shards() == ns,
                     "cross_spec was built for a different shard count");
      check_cross_spec(opt_.cross_spec, ns);
    }
    CAQR_CHECK(opt_.tsqr.block_rows >= opt_.panel_width);
    CAQR_CHECK_MSG(!opt_.tsqr.tree_spec,
                   "the distributed driver owns the tree decomposition");
    const idx n = a_.cols();
    for (int d = 0; d < ns; ++d) {
      CAQR_CHECK_MSG(a_.shard_rows(d) >= n,
                     "every shard needs at least cols rows (R in shard 0)");
    }
  }

  void run_from(DeviceGrid& grid, idx first_panel,
                const PanelHook& after_panel) {
    const idx m = a_.rows(), n = a_.cols();
    const idx kmax = std::min(m, n);
    if (kmax == 0) return;
    const tsqr::TsqrOptions topt = opt_.panel_tsqr();
    for (idx c0 = first_panel * opt_.panel_width; c0 < kmax;
         c0 += opt_.panel_width) {
      const idx w = std::min(opt_.panel_width, kmax - c0);
      PanelRecord rec;
      rec.c0 = c0;
      rec.w = w;
      factor_panel(grid, rec, topt);
      const idx trailing = n - c0 - w;
      if (trailing > 0) {
        apply_panel(grid, rec, topt, /*col0=*/c0 + w, trailing,
                    /*transpose_q=*/true, a_);
      }
      panels_.push_back(std::move(rec));
      if (after_panel) after_panel(*this, static_cast<idx>(panels_.size()));
    }
  }

  // Local row where the active panel area starts inside shard d.
  idx local_start(int d, idx c0) const { return d == 0 ? c0 : 0; }
  idx local_height(int d, idx c0) const {
    return a_.shard_rows(d) - local_start(d, c0);
  }

  // Shard of the CURRENT partition containing global rows [grow0, grow0+h).
  // Recorded slices are always contiguous inside one shard: reassignment
  // only ever MERGES adjacent shards, so old ranges never straddle.
  int shard_containing(const DistMatrix<T>& mat, idx grow0, idx h) const {
    const auto& off = mat.offsets();
    for (int s = 0; s + 1 < static_cast<int>(off.size()); ++s) {
      if (off[static_cast<std::size_t>(s)] <= grow0 &&
          grow0 + h <= off[static_cast<std::size_t>(s) + 1]) {
        return s;
      }
    }
    CAQR_CHECK_MSG(false, "recorded row range straddles the current partition");
    return -1;
  }

  // View of global rows [grow0, grow0+h) x cols [col0, col0+nc) of `mat`.
  MatrixView<T> range_view(DistMatrix<T>& mat, idx grow0, idx h, idx col0,
                           idx nc) const {
    const int s = shard_containing(mat, grow0, h);
    return mat.shard(s).block(grow0 - mat.row0(s), col0, h, nc);
  }

  // Executing device for a recorded row range: owner of the shard that
  // currently holds it.
  int device_of_range(idx grow0, idx h) const {
    return device_of_shard(shard_containing(a_, grow0, h));
  }

  // Folds a checked transfer's outcome into the run status; a dead peer
  // escalates to the recovery driver.
  void note_transfer(const TransferResult& r) const {
    if (r.peer_dead) throw DeviceLostError(r.dead_device);
    status_.severity = ft::worse(status_.severity, r.severity);
    status_.transfer_retries += r.retries;
    if (r.severity == ft::Severity::Corrected) ++status_.corrected_transfers;
    if (r.severity == ft::Severity::Unrecovered) {
      ++status_.unrecovered_transfers;
    }
  }

  void note_launch(ft::Severity sev) const {
    status_.severity = ft::worse(status_.severity, sev);
    if (sev == ft::Severity::Corrected) ++status_.corrected_launches;
    if (sev == ft::Severity::Unrecovered) ++status_.unrecovered_launches;
  }

  void factor_panel(DeviceGrid& grid, PanelRecord& rec,
                    const tsqr::TsqrOptions& topt) {
    const int ns = a_.num_shards();
    const idx c0 = rec.c0, w = rec.w;
    rec.local.resize(static_cast<std::size_t>(ns));

    // 1. Local TSQR per device (host fan-out through the shared pool; each
    // worker drives only its own device — the device map is injective).
    std::vector<ft::Severity> sev(static_cast<std::size_t>(ns),
                                  ft::Severity::Ok);
    std::vector<int> redo(static_cast<std::size_t>(ns), 0);
    ThreadPool::global().parallel_for(
        static_cast<std::size_t>(ns),
        [&](std::size_t d) {
          const int dd = static_cast<int>(d);
          LocalSlice& ls = rec.local[d];
          ls.grow0 = a_.row0(dd) + local_start(dd, c0);
          ls.height = local_height(dd, c0);
          ls.f = tsqr::tsqr_factor(
              grid.device(device_of_shard(dd)), gpusim::kDefaultStream,
              a_.shard(dd).block(local_start(dd, c0), c0, ls.height, w), topt,
              &sev[d], &redo[d]);
        });
    for (int d = 0; d < ns; ++d) {
      note_launch(sev[static_cast<std::size_t>(d)]);
      status_.panel_retries += redo[static_cast<std::size_t>(d)];
    }

    // 2. Cross-device reduction over the shard root triangles, following
    // the resolved tree (explicit cross_spec or uniform consecutive
    // grouping — the same levels dist_tree_spec merges for the replay).
    const auto cost = kernels::cost_params(topt.variant);
    for (const auto& spec_level :
         resolve_cross_levels(ns, opt_.cross_spec, opt_.cross_arity)) {
      CrossLevel level;
      for (const auto& members : spec_level) {
        const int owner = members.front();
        const idx k = static_cast<idx>(members.size());
        if (k < 2) continue;  // singleton survivor passes through
        CrossGroup cg;
        cg.stage = functional() ? Matrix<T>(k * w, w)
                                : Matrix<T>::shape_only(k * w, w);
        const int owner_dev = device_of_shard(owner);
        for (idx b = 0; b < k; ++b) {
          const int d = members[static_cast<std::size_t>(b)];
          const LocalSlice& ls = rec.local[static_cast<std::size_t>(d)];
          cg.member_rows.push_back(ls.grow0);
          // The member's root triangle (top w x w of its slice) rides the
          // link to the owner's stage; the checked transfer performs the
          // functional copy itself and resends on checksum mismatch.
          note_transfer(grid.transfer_payload<T>(
              device_of_shard(d), owner_dev,
              detail::triangle_bytes(w, sizeof(T)), "link_r_triangle",
              payload(a_.shard(d)
                          .block(local_start(d, c0), c0, w, w)
                          .as_const()),
              payload(cg.stage.block(b * w, 0, w, w))));
        }
        cg.taus.assign(static_cast<std::size_t>(w), T(0));
        GroupList stack_groups;
        stack_groups.push_group(stage_offsets(k, w));
        gpusim::Device& dev = grid.device(owner_dev);
        kernels::FactorTreeKernel<T> tk{cg.stage.view(), &stack_groups,
                                        cg.taus.data(), cost,
                                        dev.model().uncoalesced_penalty,
                                        dev.model().tile_locality_penalty};
        note_launch(dev.launch(gpusim::kDefaultStream, tk, tk.num_blocks()));
        if (functional()) {
          // The root's new R; the stage keeps the reflector tails the
          // applies replay (the combine never writes below the diagonals,
          // so this is exactly the single-device scatter-back at offset 0).
          a_.shard(owner)
              .block(local_start(owner, c0), c0, w, w)
              .copy_from(cg.stage.as_const().block(0, 0, w, w));
        }
        level.groups.push_back(std::move(cg));
      }
      if (!level.groups.empty()) rec.cross.push_back(std::move(level));
    }
  }

  // Slice indices of `rec` grouped by CURRENT executing device, preserving
  // slice order — after shard reassignment several recorded slices can land
  // on one device, and the repo-wide launch rule (one host thread per
  // device) requires serializing those.
  std::vector<std::vector<std::size_t>> slices_by_device(
      const PanelRecord& rec) const {
    std::vector<std::vector<std::size_t>> groups;
    std::vector<int> devs;
    for (std::size_t i = 0; i < rec.local.size(); ++i) {
      const LocalSlice& ls = rec.local[i];
      const int dev = device_of_range(ls.grow0, ls.height);
      std::size_t g = 0;
      for (; g < devs.size(); ++g) {
        if (devs[g] == dev) break;
      }
      if (g == devs.size()) {
        devs.push_back(dev);
        groups.emplace_back();
      }
      groups[g].push_back(i);
    }
    return groups;
  }

  // Applies the panel's Q^T (or Q) to columns [col0, col0 + nc) of `cmat`,
  // a matrix on the same partition — the sharded A itself for the trailing
  // update, or a separate right-hand side / Q seed from walk().
  void apply_panel(DeviceGrid& grid, const PanelRecord& rec,
                   const tsqr::TsqrOptions& topt, idx col0, idx nc,
                   bool transpose_q, DistMatrix<T>& cmat) const {
    if (nc == 0 || rec.w == 0) return;
    const idx c0 = rec.c0, w = rec.w;
    auto local_apply = [&] {
      const auto groups = slices_by_device(rec);
      std::vector<ft::Severity> sev(groups.size(), ft::Severity::Ok);
      ThreadPool::global().parallel_for(
          groups.size(),
          [&](std::size_t g) {
            for (const std::size_t i : groups[g]) {
              const LocalSlice& ls = rec.local[i];
              ft::Severity s = ft::Severity::Ok;
              tsqr::tsqr_apply(
                  grid.device(device_of_range(ls.grow0, ls.height)),
                  gpusim::kDefaultStream,
                  range_view(const_cast<DistMatrix<T>&>(a_), ls.grow0,
                             ls.height, c0, w)
                      .as_const(),
                  ls.f,
                  range_view(cmat, ls.grow0, ls.height, col0, nc), topt,
                  transpose_q, &s);
              sev[g] = ft::worse(sev[g], s);
            }
          });
      for (const ft::Severity s : sev) note_launch(s);
    };

    if (transpose_q) {
      local_apply();
      for (const CrossLevel& level : rec.cross) {
        cross_apply(grid, level, topt, w, nc, col0, cmat, /*transpose_q=*/true);
      }
    } else {
      for (auto it = rec.cross.rbegin(); it != rec.cross.rend(); ++it) {
        cross_apply(grid, *it, topt, w, nc, col0, cmat, /*transpose_q=*/false);
      }
      local_apply();
    }
  }

  // One cross level of the apply: each member's w-row C slice round-trips
  // to the owner, which runs apply_qt_tree against the recorded stage.
  void cross_apply(DeviceGrid& grid, const CrossLevel& level,
                   const tsqr::TsqrOptions& topt, idx w, idx nc, idx col0,
                   DistMatrix<T>& cmat, bool transpose_q) const {
    const auto cost = kernels::cost_params(topt.variant);
    for (const CrossGroup& cg : level.groups) {
      const idx k = static_cast<idx>(cg.member_rows.size());
      const int owner_dev = device_of_range(cg.member_rows.front(), w);
      const double slice_bytes =
          static_cast<double>(w) * static_cast<double>(nc) * sizeof(T);
      Matrix<T> cstack = functional() ? Matrix<T>(k * w, nc)
                                      : Matrix<T>::shape_only(k * w, nc);
      for (idx b = 0; b < k; ++b) {
        const idx grow0 = cg.member_rows[static_cast<std::size_t>(b)];
        note_transfer(grid.transfer_payload<T>(
            device_of_range(grow0, w), owner_dev, slice_bytes, "link_c_slice",
            payload(range_view(cmat, grow0, w, col0, nc).as_const()),
            payload(cstack.block(b * w, 0, w, nc))));
      }
      GroupList stack_groups;
      stack_groups.push_group(stage_offsets(k, w));
      gpusim::Device& dev = grid.device(owner_dev);
      kernels::ApplyQtTreeKernel<T> ak{cg.stage.view(),
                                       &stack_groups,
                                       cg.taus.data(),
                                       cstack.view(),
                                       topt.tile_cols,
                                       cost,
                                       dev.model().uncoalesced_penalty,
                                       dev.model().tile_locality_penalty,
                                       false,
                                       transpose_q};
      note_launch(dev.launch(gpusim::kDefaultStream, ak, ak.num_blocks()));
      for (idx b = 0; b < k; ++b) {
        const idx grow0 = cg.member_rows[static_cast<std::size_t>(b)];
        note_transfer(grid.transfer_payload<T>(
            owner_dev, device_of_range(grow0, w), slice_bytes, "link_c_slice",
            payload(cstack.as_const().block(b * w, 0, w, nc)),
            payload(range_view(cmat, grow0, w, col0, nc))));
      }
    }
  }

  // Full-factorization Q^T / Q walk over a same-partition DistMatrix.
  // `identity_seed` (form_q only) applies each panel to seed columns
  // [min(c0, qcols), qcols) alone: the columns before c0 are still zero in
  // the panel's rows, so Q keeps its bits (CaqrFactorization::walk).
  void walk(DeviceGrid& grid, DistMatrix<T>& c, bool transpose_q,
            bool identity_seed = false) const {
    CAQR_CHECK(c.rows() == a_.rows());
    CAQR_CHECK(c.offsets() == a_.offsets());
    if (c.cols() == 0) return;
    const tsqr::TsqrOptions topt = opt_.panel_tsqr();
    const idx np = static_cast<idx>(panels_.size());
    if (transpose_q) {
      for (idx p = 0; p < np; ++p) {
        apply_panel(grid, panels_[static_cast<std::size_t>(p)], topt, 0,
                    c.cols(), true, c);
      }
    } else {
      for (idx p = np - 1; p >= 0; --p) {
        const PanelRecord& rec = panels_[static_cast<std::size_t>(p)];
        const idx col0 = identity_seed ? std::min(rec.c0, c.cols()) : 0;
        apply_panel(grid, rec, topt, col0, c.cols() - col0, false, c);
      }
    }
  }

  static std::vector<idx> stage_offsets(idx k, idx w) {
    std::vector<idx> o;
    o.reserve(static_cast<std::size_t>(k));
    for (idx b = 0; b < k; ++b) o.push_back(b * w);
    return o;
  }

  DistMatrix<T> a_;
  DistCaqrOptions opt_;
  std::vector<PanelRecord> panels_;
  mutable ft::RunStatus status_;
};

// ModelOnly cost probe: the full distributed launch + transfer schedule on
// storage-free shards. Exact with respect to the simulator, like
// predict_caqr_seconds.
template <typename T>
double predict_dist_caqr_seconds(const gpusim::GpuMachineModel& model,
                                 const InterconnectModel& interconnect,
                                 int devices, idx m, idx n,
                                 const DistCaqrOptions& opt = {}) {
  DeviceGrid grid(devices, model, interconnect, gpusim::ExecMode::ModelOnly);
  DistCaqrOptions probe_opt = opt;
  probe_opt.devices.clear();  // identity map on the probe grid
  auto f = DistCaqrFactorization<T>::factor(
      grid, DistMatrix<T>::shape_only(m, n, devices), probe_opt);
  (void)f;
  return grid.elapsed_seconds();
}

// Topology-mirroring probe: a ModelOnly twin of `grid` — same device model,
// same interconnect SHAPE (flat crossbar or two-level hierarchy with the
// same node placement) — running opt's shard map so hierarchical link
// crossings are charged exactly where the real run would cross them. This
// is the cost model serve::make_dist_plan ranks candidate tree shapes with.
template <typename T>
double predict_dist_caqr_seconds(const DeviceGrid& grid, idx m, idx n,
                                 const DistCaqrOptions& opt) {
  const HierarchicalInterconnect* hier = grid.hierarchy();
  const int shards = opt.devices.empty()
                         ? grid.size()
                         : static_cast<int>(opt.devices.size());
  const gpusim::GpuMachineModel model = grid.device(0).model();
  DeviceGrid probe =
      hier ? DeviceGrid(grid.size(), model, *hier, gpusim::ExecMode::ModelOnly)
           : DeviceGrid(shards, model, grid.interconnect(),
                        gpusim::ExecMode::ModelOnly);
  DistCaqrOptions probe_opt = opt;
  if (!hier) probe_opt.devices.clear();  // identity map on the flat probe
  auto f = DistCaqrFactorization<T>::factor(
      probe, DistMatrix<T>::shape_only(m, n, shards), probe_opt);
  (void)f;
  return probe.elapsed_seconds();
}

}  // namespace caqr::dist
