#pragma once

// Cost parameterization of the paper's four reduction strategies (§IV.E).
//
// All four strategies compute the same matrix-vector product + rank-1 update
// sequence; they differ in where the block lives (shared memory vs register
// file), how column reductions are carried out (parallel vs serial), and
// whether panels were pre-transposed for coalesced, broadcast-friendly
// access. Functionally the kernels are identical; the variant changes only
// the per-block cost counters, which is exactly the axis the paper tunes.
//
// The constants below were calibrated once so that the apply_qt_h microbench
// on 128 x 16 blocks reproduces the paper's reported 55 / 168 / 194 / 388
// GFLOPS ladder on the C2050 model, then frozen (see EXPERIMENTS.md).

#include <cstdint>
#include <optional>

namespace caqr::kernels {

enum class ReductionVariant {
  SmemParallelReduction,     // §IV.E.1: 55 GFLOPS
  SmemSerialReduction,       // §IV.E.2: 168 GFLOPS
  RegisterSerialReduction,   // §IV.E.3: 194 GFLOPS
  RegisterSerialTransposed,  // §IV.E.4: 388 GFLOPS (default)
};

// The variant stored as `v` (a checkpoint field), or nothing when `v` names
// no variant: cost_params would silently return zero costs for it.
inline std::optional<ReductionVariant> reduction_variant_from(std::int32_t v) {
  if (v < 0 ||
      v > static_cast<std::int32_t>(ReductionVariant::RegisterSerialTransposed)) {
    return std::nullopt;
  }
  return static_cast<ReductionVariant>(v);
}

struct KernelCostParams {
  // Multiplier on ideal FMA issue cycles (idle lanes in badly shaped
  // reductions, non-FMA instruction mix).
  double issue_mult = 1.0;
  // Shared-memory transactions per 32 lane-FMAs (operand staging, partial
  // sums, Householder-vector broadcast).
  double smem_per_fma32 = 1.0;
  // Block-wide barriers per processed reflector.
  double syncs_per_reflector = 2.0;
  // Whether global-memory block loads/stores are coalesced (pre-transposed
  // panels) or strided (column-major panels read row-wise).
  bool coalesced = true;
  // Register-file-resident layouts suffer two block-shape effects the
  // autotuner (Figure 7) trades off: shared-memory replay pressure when the
  // Householder vector is broadcast to threads owning wide column sets
  // (width beyond u_width_ref), and spilling once the block no longer fits
  // the per-thread register budget (63 registers x 64 threads on Fermi).
  bool register_resident = false;
  double u_width_ref = 16.0;
  double regfile_capacity_elems = 2560.0;
  double spill_smem_per_fma32 = 3.0;
};

inline KernelCostParams cost_params(ReductionVariant v) {
  switch (v) {
    case ReductionVariant::SmemParallelReduction:
      // Thread-per-row layout: consecutive parallel reductions leave most
      // lanes idle (issue_mult) and hammer shared memory, with a barrier per
      // reduction step.
      return {4.2, 11.1, 16.0, true, false};
    case ReductionVariant::SmemSerialReduction:
      // Full thread utilization, but every operand of every FMA is a
      // shared-memory access.
      return {1.0, 4.44, 2.0, true, false};
    case ReductionVariant::RegisterSerialReduction:
      // Operands in registers, but the cyclic ownership must be built by an
      // in-kernel transpose through shared memory on every call.
      return {1.0, 3.62, 2.0, true, true};
    case ReductionVariant::RegisterSerialTransposed:
      // Pre-transposed panels: registers feed the FMAs, shared memory only
      // carries per-column partials and the u broadcast.
      return {1.0, 0.95, 2.0, true, true};
  }
  return {};
}

inline const char* variant_name(ReductionVariant v) {
  switch (v) {
    case ReductionVariant::SmemParallelReduction:
      return "smem_parallel_reduction";
    case ReductionVariant::SmemSerialReduction:
      return "smem_serial_reduction";
    case ReductionVariant::RegisterSerialReduction:
      return "register_serial_reduction";
    case ReductionVariant::RegisterSerialTransposed:
      return "register_serial_transposed";
  }
  return "unknown";
}

}  // namespace caqr::kernels
