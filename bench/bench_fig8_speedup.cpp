// E3 — Figure 8: CAQR speedup over the best library SGEQRF across a grid of
// matrix shapes. The paper's figure is a scatter over sizes with a dashed
// crossover line: left of it (skinny) CAQR wins, right of it the libraries
// win. This bench prints the grid of speedups (CAQR time vs best of
// MAGMA-like / CULA-like / MKL-like) and marks the winning region.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/qr_baselines.hpp"
#include "bench_artifact.hpp"
#include "caqr/caqr.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "gpusim/report.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"

namespace {

using namespace caqr;

// Small functional twins of the timed (ModelOnly) pipeline, one per
// schedule; their Verifier reports ride along in the trace artifact.
std::string verification_other_data() {
  const idx vm = 1024, vn = 48;
  const auto a = matrix_with_condition<float>(vm, vn, 1e4, 11);
  json::Writer w;
  w.begin_object().key("verification").begin_array();
  bool all_pass = true;
  for (const CaqrSchedule sched :
       {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
    gpusim::Device dev;  // functional
    CaqrOptions opt;
    opt.schedule = sched;
    auto f = CaqrFactorization<float>::factor(
        dev, Matrix<float>::from(a.view()), opt);
    const auto q = f.form_q(dev, vn);
    const auto r = f.r();
    const auto rep = numerics::verify_qr(a.view(), q.view(), r.view());
    all_pass = all_pass && rep.pass;
    w.raw(numerics::verify_json_object(
        rep, sched == CaqrSchedule::Serial ? "caqr_serial_1024x48_f32"
                                           : "caqr_lookahead_1024x48_f32"));
  }
  w.end_array().end_object();
  std::printf("Functional verification (1024 x 48, f32, both schedules): %s\n",
              all_pass ? "pass" : "FAIL");
  return w.str();
}

double caqr_seconds(idx m, idx n) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  auto f = CaqrFactorization<float>::factor(dev, Matrix<float>::shape_only(m, n));
  (void)f;
  return dev.elapsed_seconds();
}

double best_library_seconds(idx m, idx n) {
  gpusim::Device d1(gpusim::GpuMachineModel::c2050(),
                    gpusim::ExecMode::ModelOnly);
  const double magma = baselines::hybrid_qr(d1, Matrix<float>::shape_only(m, n)).seconds;
  gpusim::Device d2(gpusim::GpuMachineModel::c2050(),
                    gpusim::ExecMode::ModelOnly);
  const double cula =
      baselines::gpu_blocked_qr(d2, Matrix<float>::shape_only(m, n)).seconds;
  gpusim::Device d3(gpusim::GpuMachineModel::c2050(),
                    gpusim::ExecMode::ModelOnly);
  const double mkl =
      baselines::cpu_blocked_qr(d3, Matrix<float>::shape_only(m, n),
                                gpusim::CpuMachineModel::nehalem_8core())
          .seconds;
  return std::min({magma, cula, mkl});
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::vector<idx> heights = {1024,  4096,   8192,   16384,
                                    65536, 262144, 1048576};
  const std::vector<idx> widths = {64, 192, 512, 1024, 2048, 4096, 8192};

  std::printf(
      "E3: Figure 8 — CAQR speedup vs best library SGEQRF "
      "(values > 1: CAQR wins; paper's dashed line separates the regions)\n\n");

  std::vector<std::string> header = {"height \\ width"};
  for (const idx w : widths) header.push_back(std::to_string(w));
  TextTable table(header);

  double max_speedup = 0;
  idx max_m = 0, max_n = 0;
  for (const idx m : heights) {
    table.cell(std::to_string(m));
    for (const idx n : widths) {
      if (n > m) {
        table.cell(std::string("-"));
        continue;
      }
      const double s = best_library_seconds(m, n) / caqr_seconds(m, n);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f%s", s, s >= 1.0 ? "" : " *");
      table.cell(std::string(buf));
      if (s > max_speedup) {
        max_speedup = s;
        max_m = m;
        max_n = n;
      }
    }
    table.end_row();
  }
  table.print();
  std::printf("\n(* library faster — right of the paper's crossover line)\n");
  std::printf("Max speedup: %.1fx at %lld x %lld (paper: up to 17x for "
              "extreme tall-skinny)\n",
              max_speedup, static_cast<long long>(max_m),
              static_cast<long long>(max_n));

  // Export the look-ahead stream timeline of the headline 1M x 192 run as
  // chrome://tracing JSON (load in chrome://tracing or ui.perfetto.dev).
  {
    gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                       gpusim::ExecMode::ModelOnly);
    auto f = CaqrFactorization<float>::factor(
        dev, Matrix<float>::shape_only(1048576, 192));
    (void)f;
    json::Writer w = bench::begin_artifact();
    gpusim::write_trace(w, dev, verification_other_data(),
                        /*host_profile=*/true);
    bench::write_artifact("BENCH_fig8_speedup_trace.json", w);
  }
  return 0;
}
