// Fault-tolerance overhead bench.
//
// Quantifies what the ft/ subsystem costs when nothing goes wrong:
//
//   1. ModelOnly, paper scale (default 1M x 192 doubles, C2050 model):
//      simulated CAQR time with ABFT checksums charged vs. the clean
//      baseline, per schedule — the "<kernel>_abft" ops the guard adds to
//      the stream timeline.
//   2. Functional, medium scale: host wall-clock of the guarded vs. the
//      unguarded factorization (encode + verify + snapshot actually run).
//   3. Checkpoint cost: payload size and host wall-clock per panel-granular
//      CAQR snapshot, and for one Robust PCA iteration snapshot.
//
// Writes BENCH_ft_overhead.json. Flags: --rows --cols --func-rows
// --func-cols --quick

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_artifact.hpp"
#include "caqr/caqr.hpp"
#include "common/cli.hpp"
#include "ft/checkpoint.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "linalg/random_matrix.hpp"
#include "rpca/rpca.hpp"

namespace {

using namespace caqr;
using gpusim::Device;
using gpusim::ExecMode;

double wall_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct ModelCell {
  const char* schedule;
  double seconds_off;
  double seconds_detect;  // ABFT encode + verify passes only
  double seconds_on;      // + recovery snapshot copy
  double detect_pct;
  double overhead_pct;
};

ModelCell model_cell(CaqrSchedule sched, const char* name, idx m, idx n) {
  CaqrOptions copt;
  copt.schedule = sched;
  // mode 0: ft off; 1: detect-only (no snapshot); 2: full recovery charge.
  auto run = [&](int mode) {
    Device dev(gpusim::GpuMachineModel::c2050(), ExecMode::ModelOnly);
    if (mode > 0) {
      ft::FtOptions ftopt;
      ftopt.abft = true;
      ftopt.max_launch_retries = mode == 1 ? 0 : 2;
      dev.set_fault_tolerance(ftopt);
    }
    auto f = CaqrFactorization<double>::factor(
        dev, Matrix<double>::shape_only(m, n), copt);
    (void)f;
    return dev.elapsed_seconds();
  };
  const double off = run(0);
  const double detect = run(1);
  const double on = run(2);
  return {name,
          off,
          detect,
          on,
          off > 0 ? (detect / off - 1.0) * 100.0 : 0.0,
          off > 0 ? (on / off - 1.0) * 100.0 : 0.0};
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const idx m = args.get_int("rows", quick ? 65536 : 1'000'000);
  const idx n = args.get_int("cols", quick ? 64 : 192);
  const idx fm = args.get_int("func-rows", quick ? 512 : 2048);
  const idx fn = args.get_int("func-cols", quick ? 32 : 64);

  std::printf("FT overhead bench\n\n");

  // 1. ModelOnly ABFT charge at paper scale.
  std::printf("ModelOnly CAQR %lld x %lld (C2050), ABFT charge:\n",
              static_cast<long long>(m), static_cast<long long>(n));
  const ModelCell cells[] = {
      model_cell(CaqrSchedule::Serial, "serial", m, n),
      model_cell(CaqrSchedule::LookAhead, "lookahead", m, n),
  };
  for (const auto& c : cells) {
    std::printf(
        "  %-10s ft off %.4f s   detect-only %.4f s (%+.1f%%)   "
        "detect+recover %.4f s (%+.1f%%)\n",
        c.schedule, c.seconds_off, c.seconds_detect, c.detect_pct,
        c.seconds_on, c.overhead_pct);
  }

  // 2. Functional wall-clock of the guard (encode + verify + snapshot).
  const auto a = matrix_with_condition<double>(fm, fn, 1e6, 7);
  auto func_run = [&](bool abft) {
    Device dev;
    if (abft) {
      ft::FtOptions ftopt;
      ftopt.abft = true;
      dev.set_fault_tolerance(ftopt);
    }
    const double t0 = wall_seconds();
    auto f = CaqrFactorization<double>::factor(dev,
                                               Matrix<double>::from(a.view()));
    (void)f;
    return wall_seconds() - t0;
  };
  func_run(false);  // warm up caches / thread pool
  const double func_off = func_run(false);
  const double func_on = func_run(true);
  std::printf(
      "\nFunctional CAQR %lld x %lld host wall-clock:\n"
      "  ft off %.4f s   ft on %.4f s   overhead %+.1f%%\n",
      static_cast<long long>(fm), static_cast<long long>(fn), func_off,
      func_on, func_off > 0 ? (func_on / func_off - 1.0) * 100.0 : 0.0);

  // 3. Checkpoint write cost at the functional size.
  const std::string ckpt_path = "BENCH_ft_overhead.ckpt";
  CaqrOptions copt;
  copt.checkpoint_path = ckpt_path;
  Device dev;
  const double ck0 = wall_seconds();
  auto f = CaqrFactorization<double>::factor(
      dev, Matrix<double>::from(a.view()), copt);
  const double ck_total = wall_seconds() - ck0;
  const idx panels = (fn + copt.panel_width - 1) / copt.panel_width;
  std::size_t ckpt_bytes = 0;
  if (std::FILE* cf = std::fopen(ckpt_path.c_str(), "rb")) {
    std::fseek(cf, 0, SEEK_END);
    ckpt_bytes = static_cast<std::size_t>(std::ftell(cf));
    std::fclose(cf);
  }
  const double ckpt_seconds_each =
      panels > 0 ? (ck_total - func_off) / static_cast<double>(panels) : 0.0;
  std::printf(
      "\nCheckpointing (every panel, %lld panels): final file %.2f MiB, "
      "~%.4f s per snapshot\n",
      static_cast<long long>(panels), ckpt_bytes / (1024.0 * 1024.0),
      ckpt_seconds_each);
  std::remove(ckpt_path.c_str());
  (void)f;

  // Robust PCA iteration snapshot at a small video-like size.
  const idx rm = quick ? 512 : 2048, rn = quick ? 16 : 32;
  const auto frames = gaussian_matrix<double>(rm, rn, 11);
  rpca::RpcaOptions ropt;
  ropt.max_iterations = 3;
  ropt.halt_after_iterations = 2;
  ropt.checkpoint_path = ckpt_path;
  Device rdev;
  const double rp0 = wall_seconds();
  auto rres = rpca::robust_pca(rdev, frames.view(), ropt);
  const double rp_total = wall_seconds() - rp0;
  std::size_t rpca_ckpt_bytes = 0;
  if (std::FILE* cf = std::fopen(ckpt_path.c_str(), "rb")) {
    std::fseek(cf, 0, SEEK_END);
    rpca_ckpt_bytes = static_cast<std::size_t>(std::ftell(cf));
    std::fclose(cf);
  }
  std::printf(
      "Robust PCA %lld x %lld: iteration snapshot %.2f MiB (%d iterations "
      "in %.3f s)\n",
      static_cast<long long>(rm), static_cast<long long>(rn),
      rpca_ckpt_bytes / (1024.0 * 1024.0), rres.iterations, rp_total);
  std::remove(ckpt_path.c_str());

  json::Writer w = bench::begin_artifact();
  w.key("model_only").begin_object().field("rows", m).field("cols", n);
  for (const ModelCell& c : cells) {
    w.key(c.schedule).begin_object();
    w.field("seconds_ft_off", c.seconds_off);
    w.field("seconds_detect_only", c.seconds_detect);
    w.field("seconds_ft_on", c.seconds_on);
    w.field("overhead_pct", c.overhead_pct).end_object();
  }
  w.end_object().key("functional").begin_object();
  w.field("rows", fm).field("cols", fn);
  w.field("wall_seconds_ft_off", func_off);
  w.field("wall_seconds_ft_on", func_on).end_object();
  w.key("checkpoint").begin_object();
  w.field("caqr_file_bytes", ckpt_bytes);
  w.field("caqr_seconds_each", ckpt_seconds_each);
  w.field("rpca_file_bytes", rpca_ckpt_bytes).end_object();
  bench::write_artifact("BENCH_ft_overhead.json", w);
  return 0;
}
