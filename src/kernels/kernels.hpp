#pragma once

// The four CAQR kernels (§IV.D) as simulated-GPU kernels, plus the panel
// transpose preprocessing kernel and a generic cost-only kernel used by the
// analytically-modeled baselines.
//
// Each kernel is a value type holding views into the factorization state; a
// Device::launch() runs its blocks (functionally and/or cost-only). Blocks
// always write disjoint regions, so functional execution is deterministic
// for any thread-pool size.

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/group_list.hpp"
#include "common/small_vec.hpp"
#include "gpusim/stats.hpp"
#include "kernels/block_ops.hpp"
#include "kernels/cost_params.hpp"
#include "linalg/matrix.hpp"

namespace caqr::kernels {

using gpusim::BlockStats;

namespace detail {

// stats_summary return type: launch summaries hold a handful of classes
// (block heights x tile kinds), so inline storage keeps the per-launch
// ModelOnly cost path off the heap entirely.
using StatsSummary = SmallVec<gpusim::StatsClass, 8>;

// Class dedup by linear scan over inline storage — the keys are block
// heights or tree fan-ins, of which real launches have one or two; a
// std::map here costs a node allocation per class per launch.
using ClassCounts = SmallVec<std::pair<idx, idx>, 8>;

inline void bump_class(ClassCounts& counts, idx key, idx by = 1) {
  for (auto& [k, c] : counts) {
    if (k == key) {
      c += by;
      return;
    }
  }
  counts.push_back({key, by});
}

// Shared cost model for the Householder-core kernels: `flops` of useful
// arithmetic plus `staged_elems` block-staging element moves, under a given
// reduction-strategy parameterization.
inline BlockStats householder_block_stats(double flops, double staged_elems,
                                          double reflectors, double gmem_bytes,
                                          const KernelCostParams& p,
                                          double uncoalesced_penalty,
                                          idx block_h = 0, idx block_w = 0) {
  BlockStats s;
  s.flops = flops;
  const double fma32 = flops / 2.0 / 32.0;  // ideal 32-lane FMA issue slots
  s.issue_cycles = fma32 * p.issue_mult + staged_elems / 32.0;
  s.smem_accesses = fma32 * p.smem_per_fma32;
  s.syncs = reflectors * p.syncs_per_reflector;
  s.gmem_bytes = gmem_bytes * (p.coalesced ? 1.0 : uncoalesced_penalty);
  if (p.register_resident && block_h > 0 && block_w > 0) {
    // Block-shape effects behind the Figure 7 block-size optimum.
    const double elems = static_cast<double>(block_h) * block_w;
    if (static_cast<double>(block_w) > p.u_width_ref) {
      // u-broadcast replay: threads owning whole (or multiple) columns all
      // walk the full Householder vector through shared memory.
      s.smem_accesses +=
          fma32 * 0.5 * (static_cast<double>(block_w) / p.u_width_ref - 1.0);
    }
    if (elems > p.regfile_capacity_elems) {
      // The block no longer fits the register file: the overflow fraction
      // behaves like the shared-memory-resident variant.
      const double spill_fraction = 1.0 - p.regfile_capacity_elems / elems;
      s.smem_accesses += fma32 * p.spill_smem_per_fma32 * spill_fraction;
    }
  }
  return s;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// factor: independent QR of every row block of a panel.
// ---------------------------------------------------------------------------

template <typename T>
struct FactorKernel {
  MatrixView<T> panel;              // (panel rows) x w
  const std::vector<idx>* offsets;  // nblocks + 1 row offsets into panel
  T* taus;                          // w scalars per block, contiguous
  KernelCostParams cost;
  double uncoalesced_penalty = 8.0;
  double tile_penalty = 1.0;  // DRAM page-locality factor for tall tiles
  bool resident = false;      // cache-hot microbenchmark: no gmem traffic

  // Opts into ABFT guarding (ft/abft.hpp) for real scalar types; the
  // flop-counting scalar has no meaningful norms to checksum.
  static constexpr bool kAbftSupported = std::is_floating_point_v<T>;

  const char* name() const { return "factor"; }
  idx num_blocks() const { return static_cast<idx>(offsets->size()) - 1; }
  MatrixView<T> fault_surface() const { return panel; }

  void run_block(idx b) const {
    const idx r0 = (*offsets)[static_cast<std::size_t>(b)];
    const idx r1 = (*offsets)[static_cast<std::size_t>(b) + 1];
    const idx w = panel.cols();
    // For float and double, block_geqr2 stages the strided tall-panel
    // block into contiguous scratch (the host-side analogue of the kernel's
    // fast-memory tile), so the reflector sweeps never walk the panel
    // stride.
    block_geqr2(panel.block(r0, 0, r1 - r0, w), taus + b * w);
  }

  BlockStats block_stats(idx b) const {
    const idx r0 = (*offsets)[static_cast<std::size_t>(b)];
    const idx r1 = (*offsets)[static_cast<std::size_t>(b) + 1];
    return stats_for(r1 - r0);
  }

  // Paper-scale panels split into thousands of uniform blocks plus one
  // remainder: a handful of height classes covers the whole grid, so
  // ModelOnly cost accounting is O(classes) instead of O(blocks).
  detail::StatsSummary stats_summary() const {
    detail::ClassCounts height_counts;
    const idx nb = num_blocks();
    for (idx b = 0; b < nb; ++b) {
      detail::bump_class(height_counts,
                         (*offsets)[static_cast<std::size_t>(b) + 1] -
                             (*offsets)[static_cast<std::size_t>(b)]);
    }
    detail::StatsSummary out;
    for (const auto& [h, count] : height_counts) {
      out.push_back({stats_for(h), count});
    }
    return out;
  }

 private:
  BlockStats stats_for(idx h) const {
    const idx w = panel.cols();
    const double elems = static_cast<double>(h) * static_cast<double>(w);
    const double bytes =
        resident ? 0.0 : (2.0 * elems + w) * sizeof(T) * tile_penalty;
    return detail::householder_block_stats(block_geqr2_flops(h, w), elems,
                                           static_cast<double>(std::min(h, w)),
                                           bytes, cost, uncoalesced_penalty,
                                           h, w);
  }
};

// ---------------------------------------------------------------------------
// factor_tree: one reduction-tree combine per group of stacked R triangles.
// ---------------------------------------------------------------------------

template <typename T>
struct FactorTreeKernel {
  MatrixView<T> panel;  // the panel holding the R triangles being combined
  // groups[g] lists the panel-row offsets of the W x W triangles in group g;
  // the first entry receives the combined R.
  const GroupList* groups;
  T* taus;  // w scalars per group, contiguous
  KernelCostParams cost;
  double uncoalesced_penalty = 8.0;
  double tile_penalty = 1.0;
  bool resident = false;

  static constexpr bool kAbftSupported = std::is_floating_point_v<T>;

  const char* name() const { return "factor_tree"; }
  idx num_blocks() const { return groups->size(); }
  MatrixView<T> fault_surface() const { return panel; }

  void run_block(idx g) const {
    const auto rows = (*groups)[g];
    const idx k = static_cast<idx>(rows.size());
    const idx w = panel.cols();
    if (k < 2) return;  // singleton group passes through
    // Combines the k triangles in place. For float and double the staging
    // gathers them straight from the panel into the row-major tile and
    // scatters them back (kernels/block_ops.hpp).
    stacked_geqr2_scattered(panel, rows, taus + g * w);
  }

  BlockStats block_stats(idx g) const {
    return stats_for(groups->group_size(g));
  }

  // Uniform-arity trees have one or two distinct fan-ins per level: O(1)
  // classes for paper-scale ModelOnly accounting.
  detail::StatsSummary stats_summary() const {
    detail::ClassCounts fanin_counts;
    const idx ng = groups->size();
    for (idx g = 0; g < ng; ++g) {
      detail::bump_class(fanin_counts, groups->group_size(g));
    }
    detail::StatsSummary out;
    for (const auto& [k, count] : fanin_counts) {
      out.push_back({stats_for(k), count});
    }
    return out;
  }

 private:
  BlockStats stats_for(idx k) const {
    const idx w = panel.cols();
    if (k < 2) return BlockStats{};
    // Triangles are gathered from k distinct panel locations: the loads are
    // coalesced within a triangle row but the groups are scattered, so no
    // additional penalty beyond the variant's.
    const double elems = static_cast<double>(k) * w * w;
    const double bytes =
        resident ? 0.0 : (2.0 * elems + w) * sizeof(T) * tile_penalty;
    return detail::householder_block_stats(stacked_geqr2_flops(w, k), elems,
                                           static_cast<double>(w), bytes, cost,
                                           uncoalesced_penalty);
  }
};

// ---------------------------------------------------------------------------
// apply_qt_h: apply the level-0 Q^T of each factored panel block across the
// trailing matrix. Grid = (row blocks) x (column tiles).
// ---------------------------------------------------------------------------

template <typename T>
struct ApplyQtHKernel {
  ConstMatrixView<T> panel;         // factored panel (U below diagonals)
  const std::vector<idx>* offsets;  // nblocks + 1 row offsets into panel
  const T* taus;                    // w scalars per block
  MatrixView<T> trailing;           // same row space as panel
  idx tile_cols = 16;               // trailing-tile width per block
  KernelCostParams cost;
  double uncoalesced_penalty = 8.0;
  double tile_penalty = 1.0;
  bool resident = false;
  bool transpose_q = true;  // apply Q^T (factorization) or Q (form/apply Q)

  static constexpr bool kAbftSupported = std::is_floating_point_v<T>;

  const char* name() const { return transpose_q ? "apply_qt_h" : "apply_q_h"; }
  MatrixView<T> fault_surface() const { return trailing; }
  idx num_row_blocks() const { return static_cast<idx>(offsets->size()) - 1; }
  idx num_col_tiles() const {
    return (trailing.cols() + tile_cols - 1) / tile_cols;
  }
  idx num_blocks() const { return num_row_blocks() * num_col_tiles(); }

  void run_block(idx b) const {
    const idx rb = b / num_col_tiles();
    const idx ct = b % num_col_tiles();
    const idx r0 = (*offsets)[static_cast<std::size_t>(rb)];
    const idx r1 = (*offsets)[static_cast<std::size_t>(rb) + 1];
    const idx h = r1 - r0;
    const idx w = panel.cols();
    const idx c0 = ct * tile_cols;
    const idx nc = std::min(tile_cols, trailing.cols() - c0);
    // For float and double, block_apply stages the strided trailing tile
    // into contiguous scratch and reads the reflectors in place (each is
    // one contiguous column).
    block_apply(panel.block(r0, 0, h, w), taus + rb * w,
                trailing.block(r0, c0, h, nc), transpose_q);
  }

  BlockStats block_stats(idx b) const {
    const idx rb = b / num_col_tiles();
    const idx ct = b % num_col_tiles();
    const idx r0 = (*offsets)[static_cast<std::size_t>(rb)];
    const idx r1 = (*offsets)[static_cast<std::size_t>(rb) + 1];
    const idx nc = std::min(tile_cols, trailing.cols() - ct * tile_cols);
    return stats_for(r1 - r0, nc);
  }

  // Blocks fall into (distinct row-block heights) x (full tile, last tile)
  // classes; paper-scale launches have millions of blocks but only a
  // handful of classes.
  detail::StatsSummary stats_summary() const {
    detail::ClassCounts height_counts;
    const idx nrb = num_row_blocks();
    for (idx rb = 0; rb < nrb; ++rb) {
      detail::bump_class(height_counts,
                         (*offsets)[static_cast<std::size_t>(rb) + 1] -
                             (*offsets)[static_cast<std::size_t>(rb)]);
    }
    const idx tiles = num_col_tiles();
    const idx last_nc = trailing.cols() - (tiles - 1) * tile_cols;
    detail::StatsSummary out;
    for (const auto& [h, count] : height_counts) {
      if (tiles > 1) {
        out.push_back({stats_for(h, tile_cols), count * (tiles - 1)});
      }
      out.push_back({stats_for(h, last_nc), count});
    }
    return out;
  }

 private:
  BlockStats stats_for(idx h, idx nc) const {
    const idx w = panel.cols();
    // Staging: the C tile is loaded and stored; U is loaded once.
    const double tile_elems = static_cast<double>(h) * nc;
    const double u_elems = static_cast<double>(h) * w;
    const double bytes =
        resident ? 0.0
                 : (2.0 * tile_elems + u_elems) * sizeof(T) * tile_penalty;
    // Block-shape effects are governed by the C tile (h x nc): in the
    // register-resident design it is the tile that lives in the register
    // file (paper Figure 5/6), so tile width drives u-broadcast pressure
    // and tile size drives spill.
    return detail::householder_block_stats(
        block_apply_qt_flops(h, w, nc), tile_elems + u_elems,
        static_cast<double>(std::min(h, w)), bytes, cost, uncoalesced_penalty,
        h, nc);
  }
};

// ---------------------------------------------------------------------------
// apply_qt_tree: apply one tree level's stacked-triangle Q^T to the matching
// distributed rows of the trailing matrix. Grid = (groups) x (column tiles).
// ---------------------------------------------------------------------------

template <typename T>
struct ApplyQtTreeKernel {
  ConstMatrixView<T> panel;  // factored panel holding the tree-level U's
  const GroupList* groups;
  const T* taus;           // w scalars per group
  MatrixView<T> trailing;  // same row space as panel
  idx tile_cols = 16;
  KernelCostParams cost;
  double uncoalesced_penalty = 8.0;
  double tile_penalty = 1.0;
  bool resident = false;
  bool transpose_q = true;

  static constexpr bool kAbftSupported = std::is_floating_point_v<T>;

  const char* name() const {
    return transpose_q ? "apply_qt_tree" : "apply_q_tree";
  }
  MatrixView<T> fault_surface() const { return trailing; }
  idx num_col_tiles() const {
    return (trailing.cols() + tile_cols - 1) / tile_cols;
  }
  idx num_blocks() const { return groups->size() * num_col_tiles(); }

  void run_block(idx b) const {
    const idx g = b / num_col_tiles();
    const idx ct = b % num_col_tiles();
    const auto rows = (*groups)[g];
    const idx k = static_cast<idx>(rows.size());
    if (k < 2) return;
    const idx w = panel.cols();
    const idx c0 = ct * tile_cols;
    const idx nc = std::min(tile_cols, trailing.cols() - c0);

    // Applies the combine to the k row groups of the tile's columns in
    // place. For float and double the staging gathers the groups straight
    // into the row-major tile and scatters them back.
    stacked_apply_scattered(panel, rows, taus + g * w,
                            trailing.block(0, c0, trailing.rows(), nc),
                            transpose_q);
  }

  BlockStats block_stats(idx b) const {
    const idx g = b / num_col_tiles();
    const idx ct = b % num_col_tiles();
    const idx k = groups->group_size(g);
    const idx nc = std::min(tile_cols, trailing.cols() - ct * tile_cols);
    return stats_for(k, nc);
  }

  // Classes: (distinct group fan-ins k) x (full tile, last tile).
  detail::StatsSummary stats_summary() const {
    detail::ClassCounts fanin_counts;
    const idx ng = groups->size();
    for (idx g = 0; g < ng; ++g) {
      detail::bump_class(fanin_counts, groups->group_size(g));
    }
    const idx tiles = num_col_tiles();
    const idx last_nc = trailing.cols() - (tiles - 1) * tile_cols;
    detail::StatsSummary out;
    for (const auto& [k, count] : fanin_counts) {
      if (tiles > 1) {
        out.push_back({stats_for(k, tile_cols), count * (tiles - 1)});
      }
      out.push_back({stats_for(k, last_nc), count});
    }
    return out;
  }

 private:
  BlockStats stats_for(idx k, idx nc) const {
    if (k < 2) return BlockStats{};
    const idx w = panel.cols();
    const double c_elems = static_cast<double>(k) * w * nc;
    const double u_elems = static_cast<double>(k) * w * w;
    // The row groups are scattered across the matrix ("irregular and
    // somewhat sparse", §II.C): the tree update's traffic is charged an
    // extra 1.5x on top of the tile-locality penalty.
    const double bytes =
        resident ? 0.0
                 : (2.0 * c_elems + u_elems) * sizeof(T) * tile_penalty * 1.5;
    return detail::householder_block_stats(
        stacked_apply_qt_flops(w, k, nc), c_elems + u_elems,
        static_cast<double>(w), bytes, cost, uncoalesced_penalty);
  }
};

// ---------------------------------------------------------------------------
// transpose: out-of-place panel transpose preprocessing (§IV.E.4). The
// simulator keeps data column-major regardless (layout is a performance
// artifact, not a numerical one), so this kernel is cost-only: it charges
// the streaming read + strided write of the panel.
// ---------------------------------------------------------------------------

template <typename T>
struct TransposeKernel {
  idx rows = 0;
  idx cols = 0;
  idx block_rows = 128;

  const char* name() const { return "transpose"; }
  idx num_blocks() const { return (rows + block_rows - 1) / block_rows; }

  void run_block(idx) const {}

  BlockStats block_stats(idx b) const {
    const idx r0 = b * block_rows;
    return stats_for(std::min(block_rows, rows - r0));
  }

  // Every block is block_rows tall except a possible remainder: at most two
  // classes regardless of panel height.
  detail::StatsSummary stats_summary() const {
    const idx nb = num_blocks();
    const idx last_h = rows - (nb - 1) * block_rows;
    detail::StatsSummary out;
    if (nb > 1 && last_h != block_rows) {
      out.push_back({stats_for(block_rows), nb - 1});
      out.push_back({stats_for(last_h), 1});
    } else {
      out.push_back({stats_for(std::min(block_rows, rows)), nb});
    }
    return out;
  }

 private:
  BlockStats stats_for(idx h) const {
    BlockStats s;
    const double elems = static_cast<double>(h) * cols;
    // Staged through shared memory to keep both sides coalesced.
    s.issue_cycles = 2.0 * elems / 32.0;
    s.smem_accesses = 2.0 * elems / 32.0;
    s.syncs = 1.0;
    s.gmem_bytes = 2.0 * elems * sizeof(T);
    return s;
  }
};

// ---------------------------------------------------------------------------
// Cost-only kernel with uniform per-block stats, used by the analytically
// modeled baselines (their numerics run on the host reference routines).
// ---------------------------------------------------------------------------

struct CostOnlyKernel {
  const char* kname = "cost_only";
  BlockStats per_block;

  const char* name() const { return kname; }
  void run_block(idx) const {}
  BlockStats block_stats(idx) const { return per_block; }
};

}  // namespace caqr::kernels
