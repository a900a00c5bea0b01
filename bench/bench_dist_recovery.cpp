// E24 — Distributed fault-tolerance: recovery cost and survival.
//
// Three studies over the multi-device CAQR fault subsystem (dist/grid_ft):
//
//   1. Recovery overhead: modeled grid seconds of a FUNCTIONAL distributed
//      factorization under each fault regime vs the same run fault-free, on
//      N in {2,4,8} devices. Link-drop recovery costs a resend + backoff per
//      hit; a device loss costs a rendezvous timeout plus the re-run of the
//      panels since the last snapshot. The committed gate: the regimes that
//      recover TO COMPLETION (drop, loss) stay <= 2x the fault-free modeled
//      time at the max device count. (The flip/chaos regimes at p=0.5
//      saturate the resend budget by design and usually end typed
//      Unrecovered; their overheads are reported, not gated.)
//   2. Chaos survival grid: (link drop p=0.05) x (link flip p=0.5) x
//      (1 scheduled device loss) over N in {2,4,8}. Every cell must END —
//      typed, never an abort or hang. Drop-only cells must additionally be
//      BIT-IDENTICAL to the fault-free single-device reference (resent
//      payloads carry the sender's intact bytes, so recovery is invisible
//      to the numbers). Flip cells must verify under fault-free Verifier
//      bounds or report a typed Unrecovered — silent corruption fails.
//   3. Serve-layer overload: a SolverPool at 2x queue-capacity overload
//      with shedding armed. The gate: overload is absorbed by typed Shed
//      responses with ZERO deadline expiries, and an injected Unrecovered
//      solve is retried on a fresh device (solve_retries > 0 in stats).
//
// Writes BENCH_dist_recovery.json. Exit status is nonzero if any chaos cell
// aborts/hangs/fails its acceptance rule, the 8-device overhead gate fails,
// or the overload run sheds nothing / expires a deadline — CI gates on it.
//
// Flags: --quick (2,4 devices, smaller shapes)  --seed

#include <cstdio>
#include <string>
#include <vector>

#include "bench_artifact.hpp"
#include "caqr/caqr.hpp"
#include "common/cli.hpp"
#include "dist/device_grid.hpp"
#include "dist/grid_ft.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"
#include "serve/solver_pool.hpp"

namespace {

using namespace caqr;
using dist::DeviceGrid;
using dist::DistCaqrFactorization;
using dist::DistCaqrOptions;
using dist::DistMatrix;
using dist::GridFtOptions;
using dist::GridRecoveryOptions;

// Chaos-grid fault regimes (ISSUE acceptance parameters).
constexpr double kDropP = 0.05;
constexpr double kFlipP = 0.5;

struct FaultRegime {
  const char* name;
  double p_drop;
  double p_flip;
  bool lose_device;
};

constexpr FaultRegime kRegimes[] = {
    {"fault_free", 0.0, 0.0, false},
    {"drop", kDropP, 0.0, false},
    {"flip", 0.0, kFlipP, false},
    {"loss", 0.0, 0.0, true},
    {"chaos", kDropP, kFlipP, true},
};

struct CellResult {
  std::string regime;
  int devices = 0;
  bool completed = false;       // run ended (typed), never aborted/hung
  bool ok = false;              // cell's acceptance rule held
  bool bit_identical = false;   // vs fault-free single-device reference
  bool verified = false;
  bool typed_unrecovered = false;
  double residual = 0;
  double grid_seconds = 0;      // modeled time incl. recovery
  long long injected = 0;
  long long retried = 0;
  int device_losses = 0;
  int attempts = 0;
};

template <typename T>
bool bits_equal(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

DistCaqrOptions chaos_options(idx m, idx n, int devices) {
  DistCaqrOptions opt;
  opt.panel_width = 16;
  // Deep-ish local trees at bench shapes: ~4 level-0 blocks per shard.
  opt.tsqr.block_rows = std::max<idx>(
      opt.panel_width, std::max<idx>(n, m / devices / 4));
  return opt;
}

// Fault-free single-device reference with the equivalent tree spec: the
// bitwise yardstick for drop-only recovery.
struct Reference {
  Matrix<double> q;
  Matrix<double> r;
  Reference(const Matrix<double>& a, int devices)
      : q(0, 0), r(0, 0) {
    gpusim::Device dev;
    auto f = CaqrFactorization<double>::factor(
        dev, Matrix<double>::from(a.view()),
        dist::single_device_equivalent(
            chaos_options(a.rows(), a.cols(), devices),
            dist::even_partition(a.rows(), devices, a.cols())));
    q = f.form_q(dev, a.cols());
    r = f.r();
  }
};

// One chaos cell: recovery-driven distributed factorization + form_q under
// the regime's injection schedule. Losses that fire during the apply phase
// are absorbed the way a serving layer would: kill + re-solve on survivors.
CellResult run_cell(const Matrix<double>& a, int devices,
                    const FaultRegime& fr, const Reference& ref,
                    std::uint64_t fault_seed) {
  CellResult c;
  c.regime = fr.name;
  c.devices = devices;
  const idx n = a.cols();

  DeviceGrid grid(devices);
  GridFtOptions gft;
  gft.link_faults.p_drop = fr.p_drop;
  gft.link_faults.p_flip = fr.p_flip;
  gft.link_faults.seed = fault_seed;
  if (fr.lose_device) {
    gft.device_losses.push_back({/*device=*/1, /*at_transfer=*/6});
  }
  grid.set_fault_tolerance(gft);

  GridRecoveryOptions ropt;
  ropt.checkpoint_every = 1;
  auto res = dist::factor_with_recovery<double>(
      grid, a.view(), chaos_options(a.rows(), n, devices), ropt);
  Matrix<double> q(0, 0);
  int extra_losses = 0;
  for (int redo = 0; redo < 3 && res.f.has_value(); ++redo) {
    try {
      q = res.f->form_q(grid, n).gather();
      break;
    } catch (const dist::DeviceLostError& e) {
      grid.kill_device(e.device);
      ++extra_losses;
      res = dist::factor_with_recovery<double>(
          grid, a.view(), chaos_options(a.rows(), n, devices), ropt);
    }
  }
  c.completed = true;  // reaching here at all means no abort / no hang
  c.attempts = res.attempts;
  c.grid_seconds = grid.elapsed_seconds();
  const auto cs = grid.comm_stats();
  c.injected = cs.injected_drops + cs.injected_flips;
  c.retried = cs.retried_transfers;

  if (!res.f.has_value() || q.rows() != a.rows()) {
    c.typed_unrecovered = !res.status.ok();
    c.device_losses = res.status.device_losses + extra_losses;
    // Only a flip regime may end typed-Unrecovered; everything else must
    // recover outright.
    c.ok = c.typed_unrecovered && fr.p_flip > 0;
    return c;
  }
  const Matrix<double> r = res.f->r();
  ft::RunStatus st = res.f->status();  // includes form_q's apply transfers
  st.severity = ft::worse(st.severity, res.status.severity);
  c.device_losses = res.status.device_losses + extra_losses;
  c.typed_unrecovered = !st.ok();
  c.bit_identical = bits_equal(r, ref.r) && bits_equal(q, ref.q);
  const auto rep = numerics::verify_qr(a.view(), q.view(), r.view());
  c.verified = rep.pass;
  c.residual = rep.residual;

  if (c.typed_unrecovered) {
    c.ok = fr.p_flip > 0;  // typed refusal, acceptable under flips only
  } else if (fr.p_flip == 0.0 && !fr.lose_device) {
    // Fault-free and drop-only regimes: recovery must be bitwise invisible.
    c.ok = c.bit_identical && c.verified;
  } else {
    c.ok = c.verified && (!fr.lose_device || c.device_losses >= 1);
  }
  return c;
}

// Serve-layer overload: 2x queue-capacity burst against a shedding pool.
struct OverloadResult {
  long long submitted_total = 0;
  long long done = 0;
  long long shed = 0;
  long long expired = 0;
  long long solve_retries = 0;
  bool ok = false;
};

OverloadResult run_overload(std::uint64_t seed) {
  serve::PoolOptions po;
  po.workers = 2;
  po.queue_capacity = 16;
  po.shed_queue_depth = 8;
  po.shed_infeasible_deadlines = true;
  // Injected launch corruption with detection-only recovery: some solves
  // come back Unrecovered and must be retried on a fresh clean device.
  po.fault = {.p_block_drop = 0.3, .p_bitflip = 0.2, .seed = seed};
  po.ft = {.abft = true, .max_launch_retries = 0};
  po.max_solve_retries = 1;
  OverloadResult o;
  {
    serve::SolverPool pool(po);
    serve::RequestOptions req;
    req.algo = QrAlgorithm::Caqr;
    req.use_plan = false;
    req.deadline_seconds = 60.0;  // generous: only shedding may refuse
    const int burst = static_cast<int>(2 * po.queue_capacity);
    std::vector<std::future<serve::QrResponse<double>>> futs;
    futs.reserve(static_cast<std::size_t>(burst));
    for (int i = 0; i < burst; ++i) {
      futs.push_back(pool.submit(
          gaussian_matrix<double>(512, 32, seed + static_cast<unsigned>(i)),
          req));
    }
    o.submitted_total = burst;
    for (auto& f : futs) {
      const auto resp = f.get();
      if (resp.status == serve::RequestStatus::Done) ++o.done;
      if (resp.status == serve::RequestStatus::Shed) ++o.shed;
      if (resp.status == serve::RequestStatus::DeadlineExpired) ++o.expired;
    }
    pool.drain();
    const auto st = pool.stats();
    o.solve_retries = st.solve_retries;
    o.expired += st.expired - o.expired;  // stats view is authoritative
    o.ok = o.shed > 0 && o.expired == 0 && o.done + o.shed == burst &&
           o.solve_retries > 0;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20260809));

  const std::vector<int> counts = quick ? std::vector<int>{2, 4}
                                        : std::vector<int>{2, 4, 8};
  const idx m = quick ? 768 : 4096;
  const idx n = quick ? 32 : 64;

  json::Writer w = bench::begin_artifact();
  w.field("mode", quick ? "quick" : "full").field("drop_p", kDropP);
  w.field("flip_p", kFlipP).key("cells").begin_array();

  const Matrix<double> a = matrix_with_condition<double>(m, n, 1e6, seed);

  bool all_cells_ok = true;
  // Recovered-regime overhead (vs fault-free) at the max device count.
  double drop_overhead = 0, loss_overhead = 0;
  std::uint64_t fault_seed = seed ^ 0xD15FA17ULL;
  std::printf("Chaos grid, %lld x %lld f64 (drop p=%.2f, flip p=%.2f, 1 "
              "device loss):\n",
              static_cast<long long>(m), static_cast<long long>(n), kDropP,
              kFlipP);
  for (int devices : counts) {
    const Reference ref(a, devices);
    double fault_free_seconds = 0;
    for (const FaultRegime& fr : kRegimes) {
      const CellResult c = run_cell(a, devices, fr, ref, fault_seed++);
      if (std::string(fr.name) == "fault_free") {
        fault_free_seconds = c.grid_seconds;
      }
      const double overhead = fault_free_seconds > 0
                                  ? c.grid_seconds / fault_free_seconds
                                  : 0;
      if (devices == counts.back()) {
        if (std::string(fr.name) == "drop") drop_overhead = overhead;
        if (std::string(fr.name) == "loss") loss_overhead = overhead;
      }
      all_cells_ok = all_cells_ok && c.completed && c.ok;
      std::printf(
          "  N=%d %-10s %s  injected=%-3lld retried=%-3lld losses=%d "
          "attempts=%d  %.4fs (%.2fx)  %s\n",
          devices, c.regime.c_str(),
          c.typed_unrecovered
              ? "typed-unrecovered"
              : (c.bit_identical ? "bit-identical    " : "verified         "),
          c.injected, c.retried, c.device_losses, c.attempts, c.grid_seconds,
          overhead, c.ok ? "ok" : "FAIL");
      w.begin_object().field("regime", c.regime).field("devices", c.devices);
      w.field("completed", c.completed).field("ok", c.ok);
      w.field("bit_identical", c.bit_identical).field("verified", c.verified);
      w.field("typed_unrecovered", c.typed_unrecovered);
      w.field("residual", c.residual).field("grid_seconds", c.grid_seconds);
      w.field("overhead", overhead).field("injected", c.injected);
      w.field("retried", c.retried).field("device_losses", c.device_losses);
      w.field("attempts", c.attempts).end_object();
    }
  }
  w.end_array();

  std::printf("\nServe overload (2x capacity burst, shedding armed):\n");
  const OverloadResult ov = run_overload(seed);
  std::printf(
      "  submitted=%lld done=%lld shed=%lld expired=%lld solve_retries=%lld "
      " %s\n",
      ov.submitted_total, ov.done, ov.shed, ov.expired, ov.solve_retries,
      ov.ok ? "ok" : "FAIL");
  w.key("overload").begin_object().field("submitted", ov.submitted_total);
  w.field("done", ov.done).field("shed", ov.shed).field("expired", ov.expired);
  w.field("solve_retries", ov.solve_retries).field("ok", ov.ok).end_object();

  const bool overhead_ok = drop_overhead > 0 && drop_overhead <= 2.0 &&
                           loss_overhead > 0 && loss_overhead <= 2.0;
  w.field("max_devices_drop_overhead", drop_overhead);
  w.field("max_devices_loss_overhead", loss_overhead);
  w.field("overhead_gate", overhead_ok);
  bench::write_artifact("BENCH_dist_recovery.json", w);

  const bool ok = all_cells_ok && overhead_ok && ov.ok;
  std::printf("chaos cells %s, %d-device recovery overhead drop %.2fx / "
              "loss %.2fx (gate <= 2x) %s, overload %s\n%s\n",
              all_cells_ok ? "pass" : "FAIL", counts.back(), drop_overhead,
              loss_overhead, overhead_ok ? "pass" : "FAIL",
              ov.ok ? "pass" : "FAIL",
              ok ? "DIST RECOVERY PASS" : "DIST RECOVERY FAIL");
  return ok ? 0 : 1;
}
