#pragma once

// Tall-Skinny QR (TSQR, §II.B) on the simulated GPU.
//
// The panel is split vertically into blocks of ~block_rows; each block is
// factored independently (`factor`), then the per-block R triangles are
// combined up a reduction tree (`factor_tree`) whose arity defaults to the
// paper's choice block_rows / width (a quad-tree for 64 x 16 blocks). All
// state — reflectors from every stage — lives in the panel itself plus the
// tau arrays recorded in PanelFactor, exactly like the paper's in-place
// scheme: the tree-level reflectors overwrite the R entries they consume.
//
// PanelFactor is the replay script: CAQR's trailing-matrix update and the
// later apply-Q/form-Q entry points re-walk the same offsets/groups.
//
// The factor and apply launch sequences are written once, over a span of
// k >= 1 same-shape panels (tsqr_factor_span, tsqr_apply_span): k == 1 is
// the solo path, and k > 1 runs each launch as one FusedKernel across the k
// panels, which is how serve/batch.hpp fuses a same-shape batch.
//
// Fault tolerance: every launch's ft::Severity folds into the optional
// `severity_out` argument, and when the device's policy enables recovery, an
// Unrecovered factorization (a launch whose corruption survived the ABFT
// retries) triggers a whole-panel recompute from the input saved before the
// first attempt — the poisoned subtree's reflectors are abandoned, not
// patched — up to FtOptions::max_panel_retries times.

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/group_list.hpp"
#include "common/profile.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "numerics/finite_check.hpp"

namespace caqr::tsqr {

// Explicit reduction-tree specification: the level-0 block decomposition
// plus the grouping of survivors at every tree level, expressed in level-0
// BLOCK INDICES (not row offsets). The combine arithmetic of a group is a
// pure function of the stacked R-triangle values, so any two factorizations
// that run the same spec over the same data produce bit-identical results —
// this is the seam dist:: uses to make a multi-device factorization (local
// trees per device + a cross-device tree over the device roots) bitwise
// reproducible by a single-device run of the merged spec.
struct TreeSpec {
  std::vector<idx> offsets;  // nblocks + 1 panel-row offsets, every block
                             // at least `width` rows tall
  // levels[l][g] lists the blocks whose surviving R triangles group g of
  // level l combines; the first listed block's triangle receives the
  // combined R. Every listed block must be a survivor (level-0 blocks are
  // all survivors; after a level only each group's first block survives;
  // blocks not listed in a level pass through unchanged). Singleton groups
  // are allowed and are no-ops. Each level is a flat GroupList (two arrays
  // per level, not one heap vector per group — this metadata is rebuilt per
  // panel on the serving hot path).
  std::vector<GroupList> levels;

  idx num_blocks() const { return static_cast<idx>(offsets.size()) - 1; }
};

struct TsqrOptions {
  idx block_rows = 128;  // H: nominal vertical block height (>= width)
  // Reduction-tree fan-in; 0 derives the paper's choice max(2, H / W).
  idx arity = 0;
  kernels::ReductionVariant variant =
      kernels::ReductionVariant::RegisterSerialTransposed;
  // Pre-transpose panels (out-of-place, §IV.E.4). Adds a transpose kernel
  // per panel; the reduction variant's cost parameters assume the matching
  // layout. Ignored (no transpose charged) for non-transposed variants.
  bool transposed_panels = true;
  // Trailing-matrix tile width for the CAQR update kernels.
  idx tile_cols = 16;
  // Explicit decomposition override for a (rows, width) panel; null uses
  // the uniform split_rows + effective_arity construction. The provider
  // must be deterministic: tsqr_factor may call it more than once (panel
  // retries) and replay relies on identical specs.
  std::function<TreeSpec(idx rows, idx width)> tree_spec;

  idx effective_arity(idx width) const {
    if (arity >= 2) return arity;
    const idx derived = width > 0 ? block_rows / width : 2;
    return derived >= 2 ? derived : 2;
  }
};

// Immutable replay structure of one panel decomposition, in PANEL-ROW
// coordinates (a TreeSpec translated through its own offsets): the level-0
// block offsets plus, per tree level, the row offsets of the R triangles
// each group combines. This is everything about a factorization that does
// NOT depend on the data — every panel of the same (rows, width, block_rows,
// arity) shape replays the identical structure, so PanelFactors share one
// ReplayMeta by shared_ptr instead of copying offsets + per-level GroupLists
// per panel (the last per-request metadata copies on the serve hot path).
struct ReplayMeta {
  std::vector<idx> offsets;       // nblocks + 1 panel-row offsets
  std::vector<GroupList> levels;  // per-level groups, panel-row offsets

  idx num_blocks() const { return static_cast<idx>(offsets.size()) - 1; }
};

// Translates a validated TreeSpec (block indices) into shared panel-row
// replay metadata.
inline std::shared_ptr<const ReplayMeta> make_replay_meta(
    const TreeSpec& spec) {
  auto meta = std::make_shared<ReplayMeta>();
  meta->offsets = spec.offsets;
  meta->levels.reserve(spec.levels.size());
  for (const auto& groups : spec.levels) {
    GroupList g;
    g.starts = groups.starts;
    g.data.resize(groups.data.size());
    for (std::size_t i = 0; i < groups.data.size(); ++i) {
      g.data[i] = meta->offsets[static_cast<std::size_t>(groups.data[i])];
    }
    meta->levels.push_back(std::move(g));
  }
  return meta;
}

// Metadata describing one panel's TSQR factorization: the shared immutable
// replay structure plus this factorization's tau scalars. The kernels take
// `const std::vector<idx>*` / `const GroupList*`, so they point straight
// into the shared ReplayMeta.
template <typename T>
struct PanelFactor {
  idx rows = 0;   // panel height
  idx width = 0;  // panel width
  // Shared replay structure; set by every factorization (never null after
  // tsqr_factor returns).
  std::shared_ptr<const ReplayMeta> meta;
  std::vector<T> taus0;  // width scalars per level-0 block
  // taus[l]: width scalars per group of tree level l. Functional
  // factorizations only: ModelOnly runs never execute blocks, so the outer
  // vector is left empty (level_taus returns nullptr, never dereferenced).
  std::vector<std::vector<T>> taus;

  const std::vector<idx>& offsets() const { return meta->offsets; }
  idx num_blocks() const { return meta ? meta->num_blocks() : 0; }
  idx num_levels() const {
    return meta ? static_cast<idx>(meta->levels.size()) : 0;
  }
  const GroupList& level_groups(idx l) const {
    return meta->levels[static_cast<std::size_t>(l)];
  }
  T* level_taus(idx l) {
    return taus.empty() ? nullptr : taus[static_cast<std::size_t>(l)].data();
  }
  const T* level_taus(idx l) const {
    return taus.empty() ? nullptr : taus[static_cast<std::size_t>(l)].data();
  }
};

// Splits `rows` into blocks of ~block_rows with every block >= width:
// the last block absorbs the remainder (height in [block_rows, 2*block_rows)
// when there are at least two blocks).
inline std::vector<idx> split_rows(idx rows, idx block_rows, idx width) {
  CAQR_CHECK(rows >= width);
  CAQR_CHECK(block_rows >= width);
  const idx nblocks = rows / block_rows > 1 ? rows / block_rows : 1;
  std::vector<idx> offsets;
  offsets.reserve(static_cast<std::size_t>(nblocks) + 1);
  for (idx b = 0; b < nblocks; ++b) offsets.push_back(b * block_rows);
  offsets.push_back(rows);
  return offsets;
}

// The default decomposition: split_rows level-0 blocks combined by a
// uniform-arity tree (consecutive runs of `effective_arity` survivors per
// level, last run possibly smaller, until one survives).
inline TreeSpec uniform_tree_spec(idx rows, idx width, const TsqrOptions& opt) {
  TreeSpec spec;
  spec.offsets = split_rows(rows, opt.block_rows, width);
  const idx nblocks = spec.num_blocks();
  const idx arity = opt.effective_arity(width);
  std::vector<idx> survivors;
  survivors.reserve(static_cast<std::size_t>(nblocks));
  for (idx b = 0; b < nblocks; ++b) survivors.push_back(b);
  while (static_cast<idx>(survivors.size()) > 1) {
    GroupList groups;
    groups.reserve(
        static_cast<idx>((survivors.size() + static_cast<std::size_t>(arity) -
                          1) /
                         static_cast<std::size_t>(arity)),
        static_cast<idx>(survivors.size()));
    std::vector<idx> next;
    for (std::size_t g = 0; g < survivors.size();
         g += static_cast<std::size_t>(arity)) {
      const std::size_t end =
          std::min(survivors.size(), g + static_cast<std::size_t>(arity));
      groups.push_group(survivors.begin() + static_cast<std::ptrdiff_t>(g),
                        survivors.begin() + static_cast<std::ptrdiff_t>(end));
      next.push_back(survivors[g]);
    }
    survivors = std::move(next);
    spec.levels.push_back(std::move(groups));
  }
  return spec;
}

namespace detail {

inline void check_tree_spec(const TreeSpec& spec, idx rows, idx width);

// The uniform spec is a pure function of (rows, width, block_rows, arity):
// serving replays the same few panel shapes per request, so rebuilding (and
// re-validating) the spec every time was the largest steady-state
// allocation source after the GroupList flattening. Memoize per thread —
// std::map node stability lets callers hold the reference across
// insertions, and worker threads each serve a handful of shapes, so the
// map stays tiny. Wiped wholesale if it ever grows past a bound (a serving
// mix cycling through >256 shapes per thread re-plans, it doesn't leak).
inline const TreeSpec& cached_uniform_spec(idx rows, idx width,
                                           const TsqrOptions& opt) {
  using Key = std::array<idx, 4>;
  thread_local std::map<Key, TreeSpec> cache;
  const idx arity = opt.effective_arity(width);
  const Key key{rows, width, opt.block_rows, arity};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  if (cache.size() >= 256) cache.clear();
  TreeSpec spec = uniform_tree_spec(rows, width, opt);
  check_tree_spec(spec, rows, width);
  return cache.emplace(key, std::move(spec)).first->second;
}

// Shared replay metadata for the uniform decomposition, memoized alongside
// the spec with the same key/bound policy. A warm hit is one shared_ptr
// copy — no allocation, no translation — which is what makes a PanelFactor
// metadata-free on the serving hot path.
inline std::shared_ptr<const ReplayMeta> cached_replay_meta(
    idx rows, idx width, const TsqrOptions& opt) {
  using Key = std::array<idx, 4>;
  thread_local std::map<Key, std::shared_ptr<const ReplayMeta>> cache;
  const idx arity = opt.effective_arity(width);
  const Key key{rows, width, opt.block_rows, arity};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  if (cache.size() >= 256) cache.clear();
  auto meta = make_replay_meta(cached_uniform_spec(rows, width, opt));
  return cache.emplace(key, std::move(meta)).first->second;
}

// Structural validation of a spec against a (rows, width) panel: well-formed
// offsets, every block tall enough to hold a W x W triangle, every group
// member a distinct current survivor.
inline void check_tree_spec(const TreeSpec& spec, idx rows, idx width) {
  const idx nblocks = spec.num_blocks();
  CAQR_CHECK_MSG(nblocks >= 1, "tree spec needs at least one block");
  CAQR_CHECK(spec.offsets.front() == 0 && spec.offsets.back() == rows);
  for (idx b = 0; b < nblocks; ++b) {
    CAQR_CHECK_MSG(spec.offsets[static_cast<std::size_t>(b) + 1] -
                           spec.offsets[static_cast<std::size_t>(b)] >=
                       width,
                   "every level-0 block must be at least `width` rows tall");
  }
  std::vector<char> survivor(static_cast<std::size_t>(nblocks), 1);
  for (const auto& groups : spec.levels) {
    std::vector<char> used(static_cast<std::size_t>(nblocks), 0);
    for (idx gi = 0; gi < groups.size(); ++gi) {
      const auto g = groups[gi];
      CAQR_CHECK(!g.empty());
      for (std::size_t i = 0; i < g.size(); ++i) {
        const idx b = g[i];
        CAQR_CHECK(b >= 0 && b < nblocks);
        CAQR_CHECK_MSG(survivor[static_cast<std::size_t>(b)] &&
                           !used[static_cast<std::size_t>(b)],
                       "tree spec group member is not a distinct survivor");
        used[static_cast<std::size_t>(b)] = 1;
        if (i > 0) survivor[static_cast<std::size_t>(b)] = 0;  // consumed
      }
    }
  }
  idx remaining = 0;
  for (const char s : survivor) remaining += s;
  CAQR_CHECK_MSG(remaining == 1, "tree spec must reduce to a single survivor");
}

}  // namespace detail

// Public seam of the structural spec validation (detail::check_tree_spec):
// aborts via CAQR_CHECK unless `spec` is a well-formed reduction tree for a
// (rows, width) panel. Custom tree_spec providers — the dist/ merged-replay
// specs and the topology-aware hierarchical trees in particular — are
// checked through this on every tsqr_factor call; tests and builders call
// it directly to validate emitted specs without running a factorization.
inline void validate_tree_spec(const TreeSpec& spec, idx rows, idx width) {
  detail::check_tree_spec(spec, rows, width);
}

// The decomposition of a (rows, width) panel under `opt`: the custom
// tree_spec when one is set (built, validated and translated per call),
// otherwise the per-thread memo of the uniform split, where a warm hit is
// one shared_ptr copy. This is the only place a panel's decomposition is
// chosen: solo, batched and checkpoint-resumed factorizations all replay
// what it returns. A zero-width panel is one block with no tree.
inline std::shared_ptr<const ReplayMeta> replay_meta(idx rows, idx width,
                                                     const TsqrOptions& opt) {
  if (width == 0) {
    auto meta = std::make_shared<ReplayMeta>();
    meta->offsets = {0, rows};
    return meta;
  }
  CAQR_PROF_SCOPE("tsqr.meta_build_ns");
  if (opt.tree_spec) {
    const TreeSpec custom = opt.tree_spec(rows, width);
    detail::check_tree_spec(custom, rows, width);
    return make_replay_meta(custom);
  }
  return detail::cached_replay_meta(rows, width, opt);
}

// One launchable kernel spanning the same-shape launches of k panels, the
// simulated analogue of a batched GPU kernel (cuBLAS geqrfBatched, MAGMA
// batched QR): fused block b runs the unchanged run_block of part
// b / blocks_per_part on that part's own storage. Blocks write disjoint
// outputs, so every part's results are bit-identical to its solo launch;
// Device::launch sums the parts' work over the SM pool, pays the launch
// overhead once, and floors the time at the slowest block of any part.
// Named "<kernel>_batch" so timelines show where fusion changed the
// schedule. Forwards stats_summary when the part type has one (paper-scale
// ModelOnly stays O(classes)). Carries no ABFT hooks, so fused launches are
// unguarded.
template <typename K>
struct FusedKernel {
  std::vector<K> parts;
  std::vector<idx> prefix{0};  // prefix[i] = first fused block of part i
  std::string label;

  void add(K part) {
    const idx blocks = part.num_blocks();
    if (label.empty()) {
      label = std::string(part.name()) + "_batch";
    }
    prefix.push_back(prefix.back() + blocks);
    parts.push_back(std::move(part));
  }

  const char* name() const { return label.c_str(); }
  idx num_blocks() const { return prefix.back(); }

  void run_block(idx b) const {
    const std::size_t p = part_of(b);
    parts[p].run_block(b - prefix[p]);
  }

  gpusim::BlockStats block_stats(idx b) const {
    const std::size_t p = part_of(b);
    return parts[p].block_stats(b - prefix[p]);
  }

  auto stats_summary() const
    requires gpusim::HasStatsSummary<K>
  {
    // Same-shape parts have identical summaries (block stats depend on
    // shapes and cost parameters, never on data): summarize part 0 once and
    // scale the class counts by the part count instead of concatenating k
    // identical copies.
    auto out = parts.front().stats_summary();
    const idx k = static_cast<idx>(parts.size());
    for (auto& c : out) c.count *= k;
    return out;
  }

 private:
  std::size_t part_of(idx b) const {
    // parts are same-shape, hence same block count: direct division.
    const idx per = prefix[1];
    return static_cast<std::size_t>(b / per);
  }
};

namespace detail {

// Launches kernel `make(i)` of each of k same-shape panels: the solo kernel
// itself when k == 1 (its own name and ABFT guard, nothing allocated), one
// FusedKernel spanning all k otherwise.
template <typename Make>
ft::Severity launch_span(gpusim::Device& dev, gpusim::StreamId stream,
                         std::size_t k, const Make& make) {
  if (k == 1) {
    const auto kernel = make(std::size_t{0});
    return dev.launch(stream, kernel, kernel.num_blocks());
  }
  FusedKernel<decltype(make(std::size_t{0}))> fused;
  {
    CAQR_PROF_SCOPE("serve.batch_stage_ns");
    fused.parts.reserve(k);
    for (std::size_t i = 0; i < k; ++i) fused.add(make(i));
  }
  return dev.launch(stream, fused, fused.num_blocks());
}

}  // namespace detail

// In-place TSQR factorization of k >= 1 same-shape panels with ONE launch
// sequence — transpose (when charged), factor, then factor_tree per level —
// every launch spanning all k panels (detail::launch_span; k == 1 is the
// solo factorization). `fs` holds k default-constructed PanelFactors on
// entry and the k factors, sharing one replay_meta(), on return. Every
// launch's severity folds into `severity_out`; there is no panel-level redo
// here (that is tsqr_factor's). Returns the number of launches issued.
template <typename T>
idx tsqr_factor_span(gpusim::Device& dev, gpusim::StreamId stream,
                     std::span<const MatrixView<T>> panels,
                     const TsqrOptions& opt, std::span<PanelFactor<T>> fs,
                     ft::Severity* severity_out = nullptr) {
  const std::size_t k = panels.size();
  CAQR_CHECK(k >= 1 && fs.size() == k);
  const idx rows = panels[0].rows();
  const idx width = panels[0].cols();
  CAQR_CHECK(rows >= width && width >= 0);
  for (const auto& p : panels) {
    CAQR_CHECK_MSG(p.rows() == rows && p.cols() == width,
                   "span panels must share one shape");
  }
  const std::shared_ptr<const ReplayMeta> shared =
      replay_meta(rows, width, opt);
  for (auto& f : fs) {
    f.rows = rows;
    f.width = width;
    f.meta = shared;
  }
  if (width == 0) return 0;
  const ReplayMeta& meta = *shared;
  const idx nblocks = meta.num_blocks();

  // Boundary guards only see data in Functional mode: ModelOnly panels are
  // storage-free placeholders. Taus are written by run_block and read by
  // apply — both functional-only. ModelOnly requests skip the allocation
  // (and its zero-fill): ~100 KB per paper-scale panel that would never be
  // touched. The kernels receive data() == nullptr, which no ModelOnly path
  // dereferences.
  const bool functional = dev.mode() == gpusim::ExecMode::Functional;
  if (functional) {
    for (std::size_t i = 0; i < k; ++i) {
      CAQR_GUARD_FINITE(panels[i], "tsqr_factor:input");
      fs[i].taus0.assign(static_cast<std::size_t>(nblocks * width), T(0));
      fs[i].taus.reserve(meta.levels.size());
    }
  }

  const auto cost = kernels::cost_params(opt.variant);
  const double pen = dev.model().uncoalesced_penalty;
  const double tile_pen = dev.model().tile_locality_penalty;
  ft::Severity sev = ft::Severity::Ok;
  idx launches = 0;
  auto launch = [&](const auto& make) {
    sev = ft::worse(sev, detail::launch_span(dev, stream, k, make));
    ++launches;
  };

  if (opt.transposed_panels &&
      opt.variant == kernels::ReductionVariant::RegisterSerialTransposed) {
    launch([&](std::size_t) {
      return kernels::TransposeKernel<T>{rows, width, opt.block_rows};
    });
  }
  launch([&](std::size_t i) {
    return kernels::FactorKernel<T>{panels[i], &meta.offsets,
                                    fs[i].taus0.data(), cost, pen, tile_pen};
  });
  // Reduction tree over the surviving R triangles, one launch per level.
  // The groups are already in panel-row coordinates inside the shared
  // ReplayMeta; only each factorization's taus are allocated here.
  for (const auto& groups : meta.levels) {
    if (functional) {
      for (auto& f : fs) {
        f.taus.emplace_back(static_cast<std::size_t>(groups.size()) *
                                static_cast<std::size_t>(width),
                            T(0));
      }
    }
    launch([&](std::size_t i) {
      T* tau_ptr = functional ? fs[i].taus.back().data() : nullptr;
      return kernels::FactorTreeKernel<T>{panels[i], &groups, tau_ptr,
                                          cost,      pen,     tile_pen};
    });
  }
  if (functional) {
    for (std::size_t i = 0; i < k; ++i) {
      CAQR_GUARD_FINITE(panels[i], "tsqr_factor:output");
    }
  }
  if (severity_out != nullptr) *severity_out = ft::worse(*severity_out, sev);
  return launches;
}

// Applies Q^T (transpose_q) or Q of k >= 1 same-shape factored panels, all
// from one tsqr_factor_span call (they share one ReplayMeta), to same-shape
// targets cs[i] in the panels' row space, with ONE launch sequence spanning
// all k: for Q^T = Q_L^T ... Q_1^T Q_0^T, apply_qt_h then apply_qt_tree up
// the levels; for Q = Q_0 Q_1 ... Q_L, down the tree, level 0 last.
// Zero-width panels and zero-column targets are no-ops. Every launch's
// severity folds into `severity_out`. Returns the number of launches issued.
template <typename T>
idx tsqr_apply_span(gpusim::Device& dev, gpusim::StreamId stream,
                    std::span<const ConstMatrixView<T>> panels,
                    std::span<const PanelFactor<T>> fs,
                    std::span<const MatrixView<T>> cs, const TsqrOptions& opt,
                    bool transpose_q, ft::Severity* severity_out = nullptr) {
  const std::size_t k = panels.size();
  CAQR_CHECK(k >= 1 && fs.size() == k && cs.size() == k);
  const PanelFactor<T>& f0 = fs[0];
  for (std::size_t i = 0; i < k; ++i) {
    CAQR_CHECK(fs[i].meta == f0.meta && fs[i].width == f0.width);
    CAQR_CHECK(panels[i].rows() == f0.rows && panels[i].cols() == f0.width);
    CAQR_CHECK(cs[i].rows() == f0.rows && cs[i].cols() == cs[0].cols());
  }
  if (cs[0].cols() == 0 || f0.width == 0) return 0;
  const auto cost = kernels::cost_params(opt.variant);
  const double pen = dev.model().uncoalesced_penalty;
  const double tile_pen = dev.model().tile_locality_penalty;

  ft::Severity sev = ft::Severity::Ok;
  auto launch = [&](const auto& make) {
    sev = ft::worse(sev, detail::launch_span(dev, stream, k, make));
  };
  auto launch_h = [&] {
    launch([&](std::size_t i) {
      return kernels::ApplyQtHKernel<T>{
          panels[i], &fs[i].offsets(), fs[i].taus0.data(), cs[i], opt.tile_cols,
          cost,      pen,              tile_pen,           false, transpose_q};
    });
  };
  auto launch_tree = [&](idx l) {
    launch([&](std::size_t i) {
      return kernels::ApplyQtTreeKernel<T>{
          panels[i], &fs[i].level_groups(l), fs[i].level_taus(l), cs[i],
          opt.tile_cols, cost, pen, tile_pen, false, transpose_q};
    });
  };

  const idx levels = f0.num_levels();
  if (transpose_q) {
    launch_h();
    for (idx l = 0; l < levels; ++l) launch_tree(l);
  } else {
    for (idx l = levels - 1; l >= 0; --l) launch_tree(l);
    launch_h();
  }
  if (severity_out != nullptr) *severity_out = ft::worse(*severity_out, sev);
  return levels + 1;
}

// In-place TSQR factorization of one `panel` on `dev`, with every kernel
// launched on `stream`. On return the panel holds R (top width x width,
// from the tree root at row offset 0) and the distributed reflectors of
// every stage. A zero-width panel is a well-defined no-op (LAPACK xGEQRF
// semantics for n == 0).
//
// `severity_out` (optional) is merged with the worst outcome of the whole
// factorization including panel-level recovery; `panel_retries_out`
// (optional) accumulates how many whole-panel recomputes ran.
template <typename T>
PanelFactor<T> tsqr_factor(gpusim::Device& dev, gpusim::StreamId stream,
                           MatrixView<T> panel, const TsqrOptions& opt,
                           ft::Severity* severity_out = nullptr,
                           int* panel_retries_out = nullptr) {
  const ft::FtOptions& ftopt = dev.fault_tolerance();
  ft::Severity sev = ft::Severity::Ok;
  const bool panel_redo = dev.mode() == gpusim::ExecMode::Functional &&
                          ftopt.abft && ftopt.recovery() &&
                          ftopt.max_panel_retries > 0 && panel.cols() > 0;
  Matrix<T> saved;
  if (panel_redo) saved = Matrix<T>::from(panel.as_const());
  auto attempt = [&] {
    PanelFactor<T> f;
    tsqr_factor_span<T>(dev, stream, {&panel, 1}, opt, {&f, 1}, &sev);
    return f;
  };
  PanelFactor<T> f = attempt();
  if (panel_redo) {
    int redo = 0;
    while (sev == ft::Severity::Unrecovered &&
           redo < ftopt.max_panel_retries) {
      panel.copy_from(saved.as_const());
      sev = ft::Severity::Ok;
      f = attempt();
      if (sev == ft::Severity::Ok) sev = ft::Severity::Corrected;
      ++redo;
    }
    if (panel_retries_out != nullptr) *panel_retries_out += redo;
  }
  if (severity_out != nullptr) *severity_out = ft::worse(*severity_out, sev);
  return f;
}

// Applies Q^T (transpose_q) or Q of one factored panel to `c`, which shares
// the panel's row space (c.rows() == panel.rows()), launching on `stream`.
// Zero-width panels and zero-column right-hand sides are no-ops.
template <typename T>
void tsqr_apply(gpusim::Device& dev, gpusim::StreamId stream,
                In<ConstMatrixView<T>> panel, const PanelFactor<T>& f,
                In<MatrixView<T>> c, const TsqrOptions& opt, bool transpose_q,
                ft::Severity* severity_out = nullptr) {
  tsqr_apply_span<T>(dev, stream, {&panel, 1}, {&f, 1}, {&c, 1}, opt,
                     transpose_q, severity_out);
}

// Convenience single-panel TSQR: factors a copy of `a` and returns
// (factored storage, metadata). R is the top width x width triangle of the
// factored storage.
template <typename T>
struct TsqrResult {
  Matrix<T> storage;  // factored panel (reflectors + R)
  PanelFactor<T> meta;

  Matrix<T> r() const {
    const idx w = meta.width;
    Matrix<T> out = Matrix<T>::zeros(w, w);
    for (idx j = 0; j < w; ++j) {
      for (idx i = 0; i <= j; ++i) out(i, j) = storage(i, j);
    }
    return out;
  }

  // Explicit thin Q (rows x width).
  Matrix<T> form_q(gpusim::Device& dev, const TsqrOptions& opt) const {
    Matrix<T> q = Matrix<T>::identity(meta.rows, meta.width);
    tsqr_apply(dev, gpusim::kDefaultStream, storage.view(), meta, q.view(), opt,
               /*transpose_q=*/false);
    return q;
  }
};

template <typename VA>
TsqrResult<view_scalar_t<VA>> tsqr(gpusim::Device& dev, const VA& a,
                                   const TsqrOptions& opt = {}) {
  using T = view_scalar_t<VA>;
  TsqrResult<T> out{Matrix<T>::from(cview(a)), {}};
  out.meta =
      tsqr_factor(dev, gpusim::kDefaultStream, out.storage.view(), opt);
  return out;
}

}  // namespace caqr::tsqr
