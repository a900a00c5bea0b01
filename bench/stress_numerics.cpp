// Numerics stress harness + fault-injection demonstration.
//
// Part 1 sweeps every QR path (reference, TSQR tree shapes, incremental
// TSQR, CAQR both schedules) over condition numbers 1e0..1e14 and column
// scalings {1e-300, 1, 1e300}, verifying each run against the backward-error
// bounds (numerics/stress.hpp). Part 2 turns on seeded fault injection in
// the simulated device and shows that the factorization still "succeeds"
// (returns, finite-looking control flow) while the Verifier flags the
// corrupted result — the failure mode a naive success check misses.
//
// Exit status is nonzero if any clean run fails verification or if the
// injected faults go undetected, so CI can gate on it.
//
// Flags: --rows --cols --points (cond samples) --seed --quick
//        --fault-p (bit-flip/drop probability for part 2)
//        --recover (run the fault-RECOVERY sweep instead: same kappa sweep
//                   with injection armed AND ft/ recovery on; every cell
//                   must come back with clean fault-free-bound residuals)
//        --devices N (run the sweep through the DISTRIBUTED CAQR driver on
//                     an N-device grid, judged by the same Verifier bounds)
//        --nodes K   (with --devices: place the N devices across K nodes of
//                     a hierarchical NVLink/IB interconnect and reduce with
//                     the topology-aware cross-device tree; K must divide N)

#include <cstdio>
#include <string>

#include "bench_artifact.hpp"
#include "caqr/caqr.hpp"
#include "common/cli.hpp"
#include "gpusim/device.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/stress.hpp"
#include "numerics/verifier.hpp"

namespace {

using namespace caqr;
using numerics::VerifyReport;

// Fault-injection demo: same matrix, same CAQR call, device corrupted with
// probability p per launch/block. Returns the number of seeds (out of
// `trials`) where the Verifier flagged the corrupted factorization.
int fault_demo(idx rows, idx cols, double p, int trials) {
  const auto a = matrix_with_condition<double>(rows, cols, 1e4, 3);

  // Clean reference: must verify.
  {
    gpusim::Device dev;
    auto f = CaqrFactorization<double>::factor(dev,
                                               Matrix<double>::from(a.view()));
    const auto q = f.form_q(dev, cols);
    const auto r = f.r();
    const VerifyReport rep = numerics::verify_qr(a.view(), q.view(), r.view());
    std::printf("  clean run:              residual %.2e  %s\n", rep.residual,
                rep.pass ? "pass" : "FAIL");
    if (!rep.pass) return -1;
  }

  int detected = 0;
  for (int t = 0; t < trials; ++t) {
    gpusim::Device dev;
    gpusim::FaultOptions faults;
    faults.p_block_drop = p;
    faults.p_bitflip = p;
    faults.seed = 1000 + static_cast<std::uint64_t>(t);
    dev.set_fault_injection(faults);
    auto f = CaqrFactorization<double>::factor(dev,
                                               Matrix<double>::from(a.view()));
    const auto q = f.form_q(dev, cols);
    const auto r = f.r();
    // The naive check: the factorization returned and produced factors of
    // the right shape. It always "succeeds".
    const bool naive_ok = q.rows() == rows && r.cols() == cols;
    const VerifyReport rep = numerics::verify_qr(a.view(), q.view(), r.view());
    const std::size_t injected = dev.fault_log().size();
    if (injected > 0 && !rep.pass) ++detected;
    std::printf(
        "  seed %llu: %zu faults injected, naive check %s, verifier %s "
        "(residual %.2e)\n",
        static_cast<unsigned long long>(faults.seed), injected,
        naive_ok ? "passed" : "failed", rep.pass ? "passed" : "FLAGGED",
        rep.residual);
  }
  return detected;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);

  if (args.get_bool("recover", false)) {
    numerics::RecoverSpec rspec;
    rspec.rows = args.get_int("rows", quick ? 128 : 256);
    rspec.cols = args.get_int("cols", quick ? 16 : 24);
    rspec.conds = numerics::log_spaced_conds(
        14.0, static_cast<int>(args.get_int("points", quick ? 3 : 5)));
    rspec.seed = static_cast<std::uint64_t>(args.get_int("seed", 20260807));
    const double fp = args.get_double("fault-p", 0.0);
    if (fp > 0.0) {
      rspec.p_block_drop = fp;
      rspec.p_bitflip = fp;
    }
    const int rdev = static_cast<int>(args.get_int("devices", 0));
    if (rdev > 0) {
      // Grid-level chaos sweep: link drops/flips + a scheduled device loss
      // through the dist/grid_ft.hpp recovery driver.
      if (rspec.rows < static_cast<idx>(rdev) * rspec.cols) {
        rspec.rows = static_cast<idx>(rdev) * rspec.cols * 8;
        std::printf(
            "(rows raised to %lld so every shard holds >= cols rows)\n",
            static_cast<long long>(rspec.rows));
      }
      std::printf(
          "Distributed fault-recovery sweep: %lld x %lld on %d devices, %zu "
          "cond samples\n  link faults: p_drop %.3f / p_flip %.3f, checksums "
          "+ resend; 1 scheduled device loss per loss/chaos cell\n\n",
          static_cast<long long>(rspec.rows),
          static_cast<long long>(rspec.cols), rdev, rspec.conds.size(),
          rspec.p_block_drop, rspec.p_bitflip);
      const numerics::RecoverSummary rsum =
          numerics::run_recover_dist(rspec, rdev);
      numerics::print_recover(rsum);

      json::Writer w = bench::begin_artifact();
      w.field("devices", rdev).key("recover");
      w.raw(numerics::recover_json(rsum));
      w.field("total_faults", rsum.total_faults);
      bench::write_artifact("BENCH_stress_numerics_recover_dist.json", w);
      const bool ok = rsum.pass() && rsum.total_faults > 0;
      std::printf("%s\n", ok ? "DIST RECOVER PASS" : "DIST RECOVER FAIL");
      return ok ? 0 : 1;
    }
    std::printf(
        "Fault-recovery sweep: %lld x %lld, %zu cond samples, CAQR both "
        "schedules\n  injection: p_block_drop %.3f / p_bitflip %.3f, ABFT + "
        "retry (%d launch, %d panel) + fallback\n\n",
        static_cast<long long>(rspec.rows), static_cast<long long>(rspec.cols),
        rspec.conds.size(), rspec.p_block_drop, rspec.p_bitflip,
        rspec.ft.max_launch_retries, rspec.ft.max_panel_retries);
    const numerics::RecoverSummary rsum = numerics::run_recover(rspec);
    numerics::print_recover(rsum);

    json::Writer w = bench::begin_artifact();
    w.key("recover").raw(numerics::recover_json(rsum));
    w.field("total_faults", rsum.total_faults);
    bench::write_artifact("BENCH_stress_numerics_recover.json", w);
    // The sweep is vacuous if the injector never fired.
    const bool ok = rsum.pass() && rsum.total_faults > 0;
    std::printf("%s\n", ok ? "RECOVER PASS" : "RECOVER FAIL");
    return ok ? 0 : 1;
  }

  numerics::StressSpec spec;
  spec.rows = args.get_int("rows", quick ? 128 : 256);
  spec.cols = args.get_int("cols", quick ? 16 : 24);
  spec.conds = numerics::log_spaced_conds(
      14.0, static_cast<int>(args.get_int("points", quick ? 4 : 8)));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 20260807));
  spec.mixed_columns = !quick;

  const int devices = static_cast<int>(args.get_int("devices", 0));
  const int nodes = static_cast<int>(args.get_int("nodes", 1));
  if (devices > 0) {
    if (nodes < 1 || devices % nodes != 0) {
      std::printf("--nodes must divide --devices (got %d devices, %d nodes)\n",
                  devices, nodes);
      return 1;
    }
    if (spec.rows < static_cast<idx>(devices) * spec.cols) {
      spec.rows = static_cast<idx>(devices) * spec.cols * 8;
      std::printf("(rows raised to %lld so every shard holds >= cols rows)\n",
                  static_cast<long long>(spec.rows));
    }
    std::printf("Distributed stress sweep: %lld x %lld on %d devices "
                "(%d node%s), %zu cond samples x %zu scalings\n\n",
                static_cast<long long>(spec.rows),
                static_cast<long long>(spec.cols), devices, nodes,
                nodes == 1 ? "" : "s", spec.conds.size(),
                spec.col_scales.size());
    const numerics::StressSummary dsum =
        numerics::run_stress_dist(spec, devices, nodes);
    numerics::print_stress(dsum);

    json::Writer w = bench::begin_artifact();
    w.field("devices", devices).field("nodes", nodes);
    w.key("stress").raw(numerics::stress_json(dsum));
    bench::write_artifact("BENCH_stress_numerics_dist.json", w);
    const bool ok = dsum.pass();
    std::printf("%s\n", ok ? "DIST STRESS PASS" : "DIST STRESS FAIL");
    return ok ? 0 : 1;
  }

  std::printf("Numerics stress sweep: %lld x %lld, %zu cond samples x %zu "
              "scalings, all QR paths\n\n",
              static_cast<long long>(spec.rows),
              static_cast<long long>(spec.cols), spec.conds.size(),
              spec.col_scales.size());
  const numerics::StressSummary summary = numerics::run_stress(spec);
  numerics::print_stress(summary);

  const double fault_p = args.get_double("fault-p", 0.02);
  std::printf("\nFault injection (p = %.3f per block/launch):\n", fault_p);
  const int detected = fault_demo(spec.rows, spec.cols, fault_p, 5);
  std::printf("  verifier flagged %d of 5 corrupted runs\n", detected);

  json::Writer w = bench::begin_artifact();
  w.key("stress").raw(numerics::stress_json(summary));
  w.field("fault_detected_runs", detected);
  bench::write_artifact("BENCH_stress_numerics_verify.json", w);

  const bool ok = summary.pass() && detected >= 1;
  std::printf("%s\n", ok ? "STRESS PASS" : "STRESS FAIL");
  return ok ? 0 : 1;
}
