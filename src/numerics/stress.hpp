#pragma once

// Condition-number / column-scaling stress harness.
//
// Sweeps every QR path in the library — reference blocked Householder,
// TSQR under several reduction-tree shapes (binary, quad, flat, the paper's
// derived arity), incremental (streaming) TSQR, CAQR under both schedules,
// and the CholeskyQR2/3 family (with and without its Householder fallback:
// a CholeskyQR cell must verify OR report a typed breakdown, never return
// silent garbage) — over matrices with prescribed condition number (log-spaced
// 1e0..1e14) and uniform column scalings that push the data into the
// subnormal (1e-300) and near-overflow (1e300) regimes. Every run is checked
// with the Verifier; the harness returns the full table of reports so tests
// can assert `summary.pass()` and the bench driver can print / serialize it.
//
// Double precision only: the extreme scalings are unrepresentable in float.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "caqr/caqr.hpp"
#include "common/json.hpp"
#include "dist/dist_caqr.hpp"
#include "dist/grid_ft.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"
#include "tsqr/cholqr.hpp"
#include "tsqr/incremental.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr::numerics {

// Log-spaced condition numbers 10^0 .. 10^{max_exp}.
inline std::vector<double> log_spaced_conds(double max_exp = 14.0,
                                            int points = 8) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double t = points > 1 ? static_cast<double>(i) / (points - 1) : 0.0;
    out.push_back(std::pow(10.0, max_exp * t));
  }
  return out;
}

struct StressSpec {
  idx rows = 256;
  idx cols = 24;
  std::vector<double> conds = log_spaced_conds();
  // Uniform column scalings; 1e-300 lands the spectrum near the subnormal
  // range, 1e300 near overflow.
  std::vector<double> col_scales = {1e-300, 1.0, 1e300};
  // Additionally run each non-unit scale with only odd columns scaled
  // (mixed O(1) / extreme columns — the hardest case for Householder
  // generation).
  bool mixed_columns = false;
  std::uint64_t seed = 20260807;
  VerifyOptions verify;
};

struct StressRow {
  std::string path;        // which QR implementation
  double cond = 1.0;       // prescribed condition number
  double col_scale = 1.0;  // uniform column scaling applied to the input
  bool mixed = false;      // only odd columns scaled
  VerifyReport report;
};

struct StressSummary {
  std::vector<StressRow> rows;

  idx failures() const {
    idx n = 0;
    for (const auto& r : rows) n += r.report.pass ? 0 : 1;
    return n;
  }
  bool pass() const { return !rows.empty() && failures() == 0; }
};

namespace detail {

// One (matrix, path) cell of the sweep. Each path runs on a fresh
// functional device so fault/timeline state never leaks between cells.
template <typename Fn>
void stress_cell(StressSummary& out, const char* path, double cond,
                 double scale, bool mixed, Fn&& run) {
  StressRow row;
  row.path = path;
  row.cond = cond;
  row.col_scale = scale;
  row.mixed = mixed;
  row.report = run();
  out.rows.push_back(std::move(row));
}

}  // namespace detail

// Runs the full sweep. Every path sees the same generated matrices.
inline StressSummary run_stress(const StressSpec& spec) {
  using gpusim::Device;
  const idx m = spec.rows, n = spec.cols;
  CAQR_CHECK(m >= n && n >= 1);
  // Deep-ish trees even at stress sizes: ~8 level-0 blocks.
  const idx block_rows = std::max<idx>(n, m / 8 > 0 ? m / 8 : m);

  struct ScaleCase {
    double scale;
    bool mixed;
  };
  std::vector<ScaleCase> scale_cases;
  for (double s : spec.col_scales) {
    scale_cases.push_back({s, false});
    if (spec.mixed_columns && s != 1.0) scale_cases.push_back({s, true});
  }

  StressSummary out;
  for (double cond : spec.conds) {
    for (const ScaleCase& sc : scale_cases) {
      const Matrix<double> a =
          stress_matrix<double>(m, n, cond, sc.scale, spec.seed, sc.mixed);
      auto cell = [&](const char* path, auto&& run) {
        detail::stress_cell(out, path, cond, sc.scale, sc.mixed, run);
      };

      cell("reference_qr", [&] {
        Matrix<double> fac = Matrix<double>::from(a.view());
        std::vector<double> tau(static_cast<std::size_t>(n));
        geqrf(fac.view(), tau.data());
        const Matrix<double> q = form_q(fac.view(), tau.data(), n);
        const Matrix<double> r = extract_r(fac.view());
        return verify_qr(a.view(), q.view(), r.view(), spec.verify);
      });

      auto tsqr_cell = [&](idx arity) {
        tsqr::TsqrOptions topt;
        topt.block_rows = block_rows;
        topt.arity = arity;
        Device dev;
        auto res = tsqr::tsqr(dev, a.view(), topt);
        const Matrix<double> q = res.form_q(dev, topt);
        const Matrix<double> r = res.r();
        return verify_qr(a.view(), q.view(), r.view(), spec.verify);
      };
      cell("tsqr_binary", [&] { return tsqr_cell(2); });
      cell("tsqr_quad", [&] { return tsqr_cell(4); });
      // One combine over all blocks (flat tree), and the paper's derived
      // arity block_rows / width.
      cell("tsqr_flat", [&] { return tsqr_cell(m); });
      cell("tsqr_paper", [&] { return tsqr_cell(0); });

      cell("tsqr_incremental", [&] {
        Device dev;
        tsqr::IncrementalTsqr<double> inc(dev, n);
        for (idx r0 = 0; r0 < m; r0 += block_rows) {
          const idx h = std::min(block_rows, m - r0);
          inc.push(a.view().block(r0, 0, h, n));
        }
        return verify_r(a.view(), inc.r().view(), spec.verify);
      });

      auto caqr_cell = [&](CaqrSchedule sched) {
        CaqrOptions copt;
        copt.schedule = sched;
        copt.tsqr.block_rows = std::max(copt.panel_width, block_rows);
        Device dev;
        auto f = CaqrFactorization<double>::factor(
            dev, Matrix<double>::from(a.view()), copt);
        const Matrix<double> q = f.form_q(dev, n);
        const Matrix<double> r = f.r();
        return verify_qr(a.view(), q.view(), r.view(), spec.verify);
      };
      cell("caqr_serial", [&] { return caqr_cell(CaqrSchedule::Serial); });
      cell("caqr_lookahead",
           [&] { return caqr_cell(CaqrSchedule::LookAhead); });

      // CholeskyQR family: detection-or-accuracy across the whole grid.
      // With the TSQR fallback armed, every cell must verify (the fallback
      // absorbs Gram breakdowns at high cond / extreme scales). With it
      // disarmed, a cell must EITHER verify or report a typed breakdown with
      // empty factors — a CholeskyQR variant returning unreported garbage
      // fails the sweep.
      auto cholqr_cell = [&](tsqr::CholQrVariant variant, bool fallback) {
        tsqr::CholQrOptions copt;
        copt.variant = variant;
        copt.fallback_to_tsqr = fallback;
        copt.tsqr.block_rows = block_rows;
        Device dev;
        auto res =
            tsqr::cholqr(dev, Matrix<double>::from(a.view()), copt);
        if (res.breakdown && !res.fell_back) {
          // Typed refusal: no factors were returned, so there is nothing to
          // verify — the cell passes as "detected" only if the solver really
          // withheld the factors and flagged the run unrecovered.
          VerifyReport rep;
          rep.tolerance = verify_tolerance<double>(n, spec.verify);
          rep.has_q = false;
          rep.pass = res.q.rows() == 0 && res.r.rows() == 0 &&
                     res.severity == ft::Severity::Unrecovered;
          return rep;
        }
        return verify_qr(a.view(), res.q.view(), res.r.view(), spec.verify);
      };
      cell("cholqr2", [&] {
        return cholqr_cell(tsqr::CholQrVariant::CholQr2, true);
      });
      cell("cholqr3", [&] {
        return cholqr_cell(tsqr::CholQrVariant::CholQr3, true);
      });
      cell("cholqr2_strict", [&] {
        return cholqr_cell(tsqr::CholQrVariant::CholQr2, false);
      });
    }
  }
  return out;
}

// Same cond/scale sweep through the DISTRIBUTED CAQR driver: each cell
// scatters the generated matrix across a fresh N-device grid, factors with
// dist::DistCaqrFactorization, gathers Q and reads R from shard 0, and
// judges the result with the SAME Verifier bounds as the single-device
// paths — the distributed reduction earns no numerical slack. `devices` = 1
// exercises the grid plumbing with an empty cross tree.
//
// `nodes` > 1 runs the sweep on a HIERARCHICAL NodeGrid instead (devices
// split node-major across `nodes` nodes over a two-level interconnect) with
// the topology-aware cross tree — intra-node combines first, then
// ceil(log2(nodes)) slow-link waves. The tree shape changes the combine
// ORDER, so this pins down that topology-aware reductions hold the same
// backward-error bounds as the flat tree across the whole kappa x scale
// grid.
inline StressSummary run_stress_dist(const StressSpec& spec, int devices,
                                     int nodes = 1) {
  const idx m = spec.rows, n = spec.cols;
  CAQR_CHECK(devices >= 1 && m >= static_cast<idx>(devices) * n && n >= 1);
  CAQR_CHECK(nodes >= 1 && devices % nodes == 0);
  // Per-shard block rows: deep-ish local trees, ~8 level-0 blocks per
  // device, never below the panel width.
  const idx shard_rows = m / devices;
  const idx block_rows = std::max<idx>(n, shard_rows / 8 > 0 ? shard_rows / 8
                                                             : shard_rows);

  struct ScaleCase {
    double scale;
    bool mixed;
  };
  std::vector<ScaleCase> scale_cases;
  for (double s : spec.col_scales) {
    scale_cases.push_back({s, false});
    if (spec.mixed_columns && s != 1.0) scale_cases.push_back({s, true});
  }

  StressSummary out;
  for (double cond : spec.conds) {
    for (const ScaleCase& sc : scale_cases) {
      const Matrix<double> a =
          stress_matrix<double>(m, n, cond, sc.scale, spec.seed, sc.mixed);
      const char* cell_name = nodes > 1 ? "dist_caqr_hier" : "dist_caqr";
      detail::stress_cell(out, cell_name, cond, sc.scale, sc.mixed, [&] {
        dist::DistCaqrOptions dopt;
        dopt.tsqr.block_rows = std::max(dopt.panel_width, block_rows);
        auto run = [&](dist::DeviceGrid& grid) {
          auto f = dist::DistCaqrFactorization<double>::factor(
              grid, dist::DistMatrix<double>::scatter(a.view(), devices),
              dopt);
          const Matrix<double> q = f.form_q(grid, n).gather();
          const Matrix<double> r = f.r();
          return verify_qr(a.view(), q.view(), r.view(), spec.verify);
        };
        if (nodes > 1) {
          dist::NodeGrid grid(nodes, devices / nodes);
          dopt.cross_spec = grid.cross_spec();
          return run(grid);
        }
        dist::DeviceGrid grid(devices);
        return run(grid);
      });
    }
  }
  return out;
}

// ---- Fault-recovery sweep --------------------------------------------------
//
// Re-runs the CAQR corner of the kappa sweep with seeded fault injection
// armed (block drops or per-launch bit flips) AND the ft/ subsystem
// recovering inline (ABFT detect + bounded retry + panel redo + schedule
// fallback). A cell passes only if the run ends with no unrecovered
// severity and the Verifier report satisfies the same backward-error bounds
// as a fault-free run — recovery is judged against clean-run numerics, not
// against a loosened bar. Everything (matrix, injector, retry sequence) is
// seeded, so a passing configuration passes deterministically in CI.

struct RecoverSpec {
  idx rows = 256;
  idx cols = 24;
  std::vector<double> conds = log_spaced_conds(14.0, 5);
  double p_block_drop = 0.05;  // "drop" cells
  double p_bitflip = 0.5;      // "flip" cells (per launch)
  std::uint64_t seed = 20260807;        // matrix generator seed
  std::uint64_t fault_seed = 7001;      // first injector seed (one per cell)
  // A flip probability of 0.5 re-corrupts roughly every other retry, so the
  // sweep runs with a deeper launch-retry budget than the library default.
  // The apply-side checksum threshold is also tightened (16 vs the default
  // 512; the factor kernels verify by exact replay and ignore it). A flip
  // on an apply surface below the threshold is left in place as backward
  // error in A, and at 512*eps the escape window (~1e-10 absolute) exceeds
  // the *fault-free* Verifier bound this sweep judges cells against; at
  // 16*eps everything that escapes sits safely below it, while honest
  // checksum rounding stays orders of magnitude under the limit (a false
  // positive would persist across restore + rerun and burn the retry
  // budget, so that margin matters too).
  ft::FtOptions ft{.abft = true, .max_launch_retries = 8,
                   .max_panel_retries = 2, .schedule_fallback = true,
                   .tol_multiplier = 16.0};
  VerifyOptions verify;
};

struct RecoverRow {
  std::string path;   // caqr_serial / caqr_lookahead / dist_caqr
  std::string fault;  // "drop" / "flip" (grid rows: link_* / loss / chaos)
  double cond = 1.0;
  std::uint64_t fault_seed = 0;
  std::size_t faults_injected = 0;
  long long corrected_launches = 0;
  long long unrecovered_launches = 0;
  int panel_retries = 0;
  bool schedule_fallback = false;
  // Grid-level counters (zero on single-device rows).
  long long corrected_transfers = 0;
  long long transfer_retries = 0;
  int device_losses = 0;
  int attempts = 1;
  bool recovered = false;  // factor + form_q ended without unrecovered faults
  VerifyReport report;

  bool pass() const { return recovered && report.pass; }
};

struct RecoverSummary {
  std::vector<RecoverRow> rows;
  std::size_t total_faults = 0;

  idx failures() const {
    idx n = 0;
    for (const auto& r : rows) n += r.pass() ? 0 : 1;
    return n;
  }
  bool pass() const { return !rows.empty() && failures() == 0; }
};

inline RecoverSummary run_recover(const RecoverSpec& spec) {
  using gpusim::Device;
  const idx m = spec.rows, n = spec.cols;
  CAQR_CHECK(m >= n && n >= 1);
  const idx block_rows = std::max<idx>(n, m / 8 > 0 ? m / 8 : m);

  struct FaultCase {
    const char* name;
    double p_drop;
    double p_flip;
  };
  const FaultCase cases[] = {{"drop", spec.p_block_drop, 0.0},
                             {"flip", 0.0, spec.p_bitflip}};

  RecoverSummary out;
  std::uint64_t next_seed = spec.fault_seed;
  for (double cond : spec.conds) {
    const Matrix<double> a =
        stress_matrix<double>(m, n, cond, 1.0, spec.seed, false);
    for (const FaultCase& fc : cases) {
      for (CaqrSchedule sched :
           {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
        RecoverRow row;
        row.path = sched == CaqrSchedule::Serial ? "caqr_serial"
                                                 : "caqr_lookahead";
        row.fault = fc.name;
        row.cond = cond;
        row.fault_seed = next_seed++;

        Device dev;
        gpusim::FaultOptions faults;
        faults.p_block_drop = fc.p_drop;
        faults.p_bitflip = fc.p_flip;
        faults.seed = row.fault_seed;
        dev.set_fault_injection(faults);
        dev.set_fault_tolerance(spec.ft);

        CaqrOptions copt;
        copt.schedule = sched;
        copt.tsqr.block_rows = std::max(copt.panel_width, block_rows);
        auto f = CaqrFactorization<double>::factor(
            dev, Matrix<double>::from(a.view()), copt);
        const ft::RunStatus& st = f.status();
        // form_q's apply launches are guarded too but report only through
        // the device summary; diff the unrecovered count across the call.
        const long long unrec_before = dev.ft_summary().unrecovered_launches;
        const Matrix<double> q = f.form_q(dev, n);
        const Matrix<double> r = f.r();

        row.faults_injected = dev.fault_log().size();
        row.corrected_launches = dev.ft_summary().corrected_launches;
        row.unrecovered_launches = dev.ft_summary().unrecovered_launches;
        row.panel_retries = st.panel_retries;
        row.schedule_fallback = st.schedule_fallback;
        row.recovered =
            st.ok() && dev.ft_summary().unrecovered_launches == unrec_before;
        row.report = verify_qr(a.view(), q.view(), r.view(), spec.verify);
        out.total_faults += row.faults_injected;
        out.rows.push_back(std::move(row));
      }
    }
  }
  return out;
}

// Distributed fault-recovery sweep: the kappa sweep run through the grid
// recovery driver (dist/grid_ft.hpp) under seeded LINK faults and scheduled
// DEVICE LOSSES instead of launch-level injection. Four fault regimes per
// condition sample:
//
//   link_drop — every cross-device payload dropped with p_block_drop;
//               checksum-detected, recovered by resend. Must verify against
//               fault-free bounds (drops are always recoverable).
//   link_flip — one payload bit flipped with p_bitflip. Resend usually
//               recovers; a transfer whose whole resend budget is flipped
//               ends typed Unrecovered — accepted by the sweep as a typed
//               refusal, like the strict-CholeskyQR cells. Silent corruption
//               (clean status, failed Verifier) fails the sweep.
//   loss      — one scheduled device death mid-factorization. The driver
//               must absorb it (shard merge + snapshot resume or recompute)
//               and the survivors' result must verify.
//   chaos     — all three at once, judged like link_flip but additionally
//               requiring the loss to have been absorbed.
//
// Deterministic: matrix seed, link-fault seed, and the loss schedule fix
// the entire recovery trajectory.
inline RecoverSummary run_recover_dist(const RecoverSpec& spec, int devices) {
  const idx m = spec.rows, n = spec.cols;
  CAQR_CHECK(devices >= 1 && m >= static_cast<idx>(devices) * n && n >= 1);
  const idx shard_rows = m / devices;
  const idx block_rows = std::max<idx>(n, shard_rows / 8 > 0 ? shard_rows / 8
                                                             : shard_rows);

  struct FaultCase {
    const char* name;
    double p_drop;
    double p_flip;
    bool lose_device;
    bool typed_unrecovered_ok;  // Unrecovered is a pass if typed
  };
  std::vector<FaultCase> cases = {
      {"link_drop", spec.p_block_drop, 0.0, false, false},
      {"link_flip", 0.0, spec.p_bitflip, false, true},
  };
  if (devices >= 2) {
    cases.push_back({"loss", 0.0, 0.0, true, false});
    cases.push_back(
        {"chaos", spec.p_block_drop, spec.p_bitflip, true, true});
  }

  RecoverSummary out;
  std::uint64_t next_seed = spec.fault_seed;
  for (double cond : spec.conds) {
    const Matrix<double> a =
        stress_matrix<double>(m, n, cond, 1.0, spec.seed, false);
    for (const FaultCase& fc : cases) {
      RecoverRow row;
      row.path = "dist_caqr";
      row.fault = fc.name;
      row.cond = cond;
      row.fault_seed = next_seed++;

      dist::DeviceGrid grid(devices);
      dist::GridFtOptions gft;
      gft.link_faults.p_drop = fc.p_drop;
      gft.link_faults.p_flip = fc.p_flip;
      gft.link_faults.seed = row.fault_seed;
      if (fc.lose_device) {
        // Early enough to fire inside the FACTORIZATION (covered by the
        // recovery driver) in every sweep shape — even 2 devices x 1 panel,
        // whose reduction performs only a couple of transfers before the
        // driver hands the completed factorization back.
        gft.device_losses.push_back({/*device=*/1, /*at_transfer=*/2});
      }
      grid.set_fault_tolerance(gft);

      dist::DistCaqrOptions dopt;
      dopt.tsqr.block_rows = std::max(dopt.panel_width, block_rows);
      dist::GridRecoveryOptions ropt;
      ropt.checkpoint_every = 1;
      auto res =
          dist::factor_with_recovery<double>(grid, a.view(), dopt, ropt);

      // A scheduled loss can also fire AFTER the factorization completed,
      // during form_q's apply (a single-panel sweep shape performs its last
      // cross transfer early). The driver only covers the factorization;
      // here we do what a serving layer would: kill the dead device and
      // re-solve on the survivors.
      Matrix<double> q(0, 0);
      int extra_losses = 0;
      for (int redo = 0; redo < 3 && res.f.has_value(); ++redo) {
        try {
          q = res.f->form_q(grid, n).gather();
          break;
        } catch (const dist::DeviceLostError& e) {
          grid.kill_device(e.device);
          ++extra_losses;
          res = dist::factor_with_recovery<double>(grid, a.view(), dopt,
                                                   ropt);
        }
      }
      res.status.device_losses += extra_losses;

      row.attempts = res.attempts;
      if (res.f.has_value() && q.rows() == m) {
        const Matrix<double> r = res.f->r();
        // Read the factorization's status AFTER form_q: the apply path's
        // transfers are injected too, and their outcome belongs to this
        // cell. res.status already folded the factor phase in, so take the
        // (now form_q-extended) per-run status and graft on the driver's
        // cross-attempt severity and loss count instead of re-merging.
        ft::RunStatus st = res.f->status();
        st.severity = ft::worse(st.severity, res.status.severity);
        st.device_losses = res.status.device_losses;
        row.corrected_transfers = st.corrected_transfers;
        row.transfer_retries = st.transfer_retries;
        row.device_losses = st.device_losses;
        if (!st.ok() && fc.typed_unrecovered_ok) {
          // Typed refusal: the run reports Unrecovered instead of passing
          // off corrupt factors as clean. Counts as detected, not verified.
          row.recovered = true;
          row.report.tolerance = verify_tolerance<double>(n, spec.verify);
          row.report.has_q = false;
          row.report.pass = true;
        } else {
          row.recovered =
              st.ok() && (!fc.lose_device || st.device_losses >= 1);
          row.report = verify_qr(a.view(), q.view(), r.view(), spec.verify);
        }
      } else {
        row.corrected_transfers = res.status.corrected_transfers;
        row.transfer_retries = res.status.transfer_retries;
        row.device_losses = res.status.device_losses;
        row.recovered = fc.typed_unrecovered_ok && !res.status.ok();
        row.report.pass = row.recovered;
        row.report.has_q = false;
      }
      const auto cs = grid.comm_stats();
      row.faults_injected = static_cast<std::size_t>(
          cs.injected_drops + cs.injected_flips + row.device_losses);
      out.total_faults += row.faults_injected;
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

inline void print_recover(const RecoverSummary& s, std::FILE* f = stdout) {
  std::fprintf(f, "%-16s %-9s %-9s %-7s %-9s %-7s %-8s %-12s %s\n", "path",
               "fault", "cond", "faults", "corrected", "panels", "fallback",
               "residual", "pass");
  for (const auto& r : s.rows) {
    std::fprintf(f, "%-16s %-9s %-9.1e %-7zu %-9lld %-7d %-8s %-12.3e %s\n",
                 r.path.c_str(), r.fault.c_str(), r.cond, r.faults_injected,
                 r.corrected_launches + r.corrected_transfers,
                 r.panel_retries, r.schedule_fallback ? "yes" : "no",
                 r.report.residual, r.pass() ? "ok" : "FAIL");
  }
  std::fprintf(f, "%zu runs, %zu faults injected, %lld failures\n",
               s.rows.size(), s.total_faults,
               static_cast<long long>(s.failures()));
}

// JSON array of per-run recover rows.
inline std::string recover_json(const RecoverSummary& s) {
  json::Writer w;
  w.begin_array();
  for (const auto& r : s.rows) {
    w.begin_object().field("path", r.path).field("fault", r.fault);
    w.field("cond", r.cond).field("fault_seed", r.fault_seed);
    w.field("faults_injected", r.faults_injected);
    w.field("corrected_launches", r.corrected_launches);
    w.field("panel_retries", r.panel_retries);
    w.field("schedule_fallback", r.schedule_fallback);
    w.field("corrected_transfers", r.corrected_transfers);
    w.field("transfer_retries", r.transfer_retries);
    w.field("device_losses", r.device_losses).field("attempts", r.attempts);
    w.field("recovered", r.recovered);
    w.key("report").raw(verify_json_object(r.report)).end_object();
  }
  w.end_array();
  return w.str();
}

inline void print_stress(const StressSummary& s, std::FILE* f = stdout) {
  std::fprintf(f, "%-18s %-9s %-9s %-5s %-12s %-12s %-12s %s\n", "path",
               "cond", "scale", "mixed", "residual", "orthog", "gram", "pass");
  for (const auto& r : s.rows) {
    std::fprintf(f, "%-18s %-9.1e %-9.1e %-5s %-12.3e %-12.3e %-12.3e %s\n",
                 r.path.c_str(), r.cond, r.col_scale, r.mixed ? "yes" : "no",
                 r.report.residual, r.report.orthogonality,
                 r.report.gram_residual, r.report.pass ? "ok" : "FAIL");
  }
  std::fprintf(f, "%zu runs, %lld failures\n", s.rows.size(),
               static_cast<long long>(s.failures()));
}

// JSON array of per-run rows (one object per StressRow).
inline std::string stress_json(const StressSummary& s) {
  json::Writer w;
  w.begin_array();
  for (const auto& r : s.rows) {
    w.begin_object().field("path", r.path).field("cond", r.cond);
    w.field("col_scale", r.col_scale).field("mixed", r.mixed);
    w.key("report").raw(verify_json_object(r.report)).end_object();
  }
  w.end_array();
  return w.str();
}

}  // namespace caqr::numerics
