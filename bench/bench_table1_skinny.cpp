// E5 — Table I: SGEQRF performance on very tall-skinny matrices
// ({1k, 10k, 50k, 100k, 500k, 1M} x 192), single precision, C2050 model.
//
// Paper reference (GFLOPS):
//   size        CAQR   MAGMA   CULA   MKL
//   1k   x 192  39.6   5.01    2.99   3.12
//   10k  x 192  111    18.7    9.67   16.9
//   50k  x 192  174    20.8    9.42   22.8
//   100k x 192  180    18.8    8.90   21.4
//   500k x 192  194    12.4    8.40   17.8
//   1M   x 192  195    11.4    7.79   16.5

#include <cstdio>
#include <utility>
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

// Residual row for the trace artifact: the paper-scale runs above are
// ModelOnly (no data), so a small functional twin of the same CAQR pipeline
// supplies the backward-error evidence that the timed algorithm is correct.
std::string verification_other_data() {
  const idx vm = 2048, vn = 64;
  gpusim::Device dev;  // functional, default model
  const auto a = matrix_with_condition<float>(vm, vn, 1e4, 7);
  auto f = CaqrFactorization<float>::factor(dev, Matrix<float>::from(a.view()));
  const auto q = f.form_q(dev, vn);
  const auto r = f.r();
  const auto rep = numerics::verify_qr(a.view(), q.view(), r.view());
  std::printf("\nFunctional verification (CAQR %lld x %lld, f32, cond 1e4): "
              "residual %.2e, orthogonality %.2e — %s\n",
              static_cast<long long>(vm), static_cast<long long>(vn),
              rep.residual, rep.orthogonality, rep.pass ? "pass" : "FAIL");
  json::Writer w;
  w.begin_object().key("verification").begin_array();
  w.raw(numerics::verify_json_object(rep, "caqr_2048x64_f32_cond1e4"));
  w.end_array().end_object();
  return w.str();
}

struct Row {
  idx m;
  double paper_caqr, paper_magma, paper_cula, paper_mkl;
};

double caqr_gflops(idx m, idx n) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  auto a = Matrix<float>::shape_only(m, n);
  auto f = CaqrFactorization<float>::factor(dev, std::move(a));
  (void)f;
  return geqrf_flop_count(m, n) / dev.elapsed_seconds() * 1e-9;
}

double magma_gflops(idx m, idx n) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  auto r = baselines::hybrid_qr(dev, Matrix<float>::shape_only(m, n));
  return geqrf_flop_count(m, n) / r.seconds * 1e-9;
}

double cula_gflops(idx m, idx n) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  auto r = baselines::gpu_blocked_qr(dev, Matrix<float>::shape_only(m, n));
  return geqrf_flop_count(m, n) / r.seconds * 1e-9;
}

double mkl_gflops(idx m, idx n) {
  gpusim::Device dev(gpusim::GpuMachineModel::c2050(),
                     gpusim::ExecMode::ModelOnly);
  auto r = baselines::cpu_blocked_qr(dev, Matrix<float>::shape_only(m, n),
                                     gpusim::CpuMachineModel::nehalem_8core());
  return geqrf_flop_count(m, n) / r.seconds * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const idx n = args.get_int("n", 192);

  std::printf("E5: Table I — very tall-skinny SGEQRF, single precision GFLOPS\n");
  std::printf("(paper values in parentheses)\n\n");

  const Row rows[] = {
      {1000, 39.6, 5.01, 2.99, 3.12},   {10000, 111, 18.7, 9.67, 16.9},
      {50000, 174, 20.8, 9.42, 22.8},   {100000, 180, 18.8, 8.90, 21.4},
      {500000, 194, 12.4, 8.40, 17.8},  {1000000, 195, 11.4, 7.79, 16.5},
  };

  TextTable table({"matrix", "CAQR", "MAGMA-like", "CULA-like", "MKL-like"});
  for (const auto& row : rows) {
    char label[32], c0[48], c1[48], c2[48], c3[48];
    std::snprintf(label, sizeof(label), "%lldk x %lld",
                  static_cast<long long>(row.m / 1000),
                  static_cast<long long>(n));
    std::snprintf(c0, sizeof(c0), "%.1f (%.1f)", caqr_gflops(row.m, n),
                  row.paper_caqr);
    std::snprintf(c1, sizeof(c1), "%.1f (%.1f)", magma_gflops(row.m, n),
                  row.paper_magma);
    std::snprintf(c2, sizeof(c2), "%.1f (%.1f)", cula_gflops(row.m, n),
                  row.paper_cula);
    std::snprintf(c3, sizeof(c3), "%.1f (%.1f)", mkl_gflops(row.m, n),
                  row.paper_mkl);
    table.add_row({label, c0, c1, c2, c3});
  }
  table.print();

  // Headline claim (§V.D): up to 17x vs GPU libraries, 12x vs MKL at 1M x 192.
  const double caqr1m = caqr_gflops(1000000, n);
  std::printf("\nSpeedup at 1M x %lld: %.1fx vs MAGMA-like, %.1fx vs "
              "CULA-like, %.1fx vs MKL-like\n",
              static_cast<long long>(n), caqr1m / magma_gflops(1000000, n),
              caqr1m / cula_gflops(1000000, n), caqr1m / mkl_gflops(1000000, n));
  std::printf("Paper (\xc2\xa7V.D): up to 17x vs GPU libraries (195 / 11.4), "
              "12x vs MKL (195 / 16.5)\n");

  // Serial (Figure 4) vs look-ahead schedule at 1M x n, plus a chrome-trace
  // export of the look-ahead stream timeline.
  {
    auto run = [&](CaqrSchedule schedule, gpusim::Device& dev) {
      CaqrOptions opt;
      opt.schedule = schedule;
      auto f = CaqrFactorization<float>::factor(
          dev, Matrix<float>::shape_only(1000000, n), opt);
      (void)f;
      return dev.elapsed_seconds();
    };
    gpusim::Device dserial(gpusim::GpuMachineModel::c2050(),
                           gpusim::ExecMode::ModelOnly);
    gpusim::Device dlook(gpusim::GpuMachineModel::c2050(),
                         gpusim::ExecMode::ModelOnly);
    const double t_serial = run(CaqrSchedule::Serial, dserial);
    const double t_look = run(CaqrSchedule::LookAhead, dlook);
    std::printf("\nSchedule at 1M x %lld: serial %.3f ms, look-ahead %.3f ms "
                "(%.1f%% saved by overlap)\n",
                static_cast<long long>(n), t_serial * 1e3, t_look * 1e3,
                100.0 * (t_serial - t_look) / t_serial);
    json::Writer w = bench::begin_artifact();
    gpusim::write_trace(w, dlook, verification_other_data(),
                        /*host_profile=*/true);
    bench::write_artifact("BENCH_table1_skinny_trace.json", w);
  }
  return 0;
}
