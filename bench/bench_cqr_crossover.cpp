// CholeskyQR crossover map for the serve-layer adaptive picker.
//
// Sweeps (shape x dtype x condition-estimate bucket x machine model) through
// serve::make_plan — the exact picker the PlanCache memoizes — and records
// every candidate's predicted time, which algorithm the picker chose, and a
// ModelOnly simulation of the chosen algorithm on a fresh device. Because
// predictions ARE ModelOnly probes, the predicted-vs-simulated agreement is
// a consistency check of the whole plan->execute plumbing (tuned options
// must round-trip through the plan identically), not a statement about real
// hardware.
//
// Acceptance (BENCH_cqr_crossover.json "acceptance" block):
//   * at least one (shape, dtype) region where the picker selects
//     CholeskyQR2 and |predicted - simulated| / simulated <= 15%;
//   * every CholeskyQR pick happens under the variant's admissibility bound
//     (no pick without a condition estimate).
//
// Flags: --quick (smaller sweep).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_artifact.hpp"
#include "common/cli.hpp"
#include "serve/plan_cache.hpp"
#include "serve/solver_pool.hpp"

namespace {

using namespace caqr;
using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

const char* algo_name(QrAlgorithm a) {
  switch (a) {
    case QrAlgorithm::Auto: return "auto";
    case QrAlgorithm::Caqr: return "caqr";
    case QrAlgorithm::Hybrid: return "hybrid";
    case QrAlgorithm::CholeskyQr2: return "cholqr2";
    case QrAlgorithm::CholeskyQr3: return "cholqr3";
    case QrAlgorithm::CholeskyQr2Mixed: return "cholqr2_mixed";
  }
  return "?";
}

struct Row {
  const char* model;
  idx m, n;
  int scalar_size;
  double cond_hint;
  serve::QrPlan plan;
  double simulated = 0;  // ModelOnly run of the chosen algorithm
  double rel_err = 0;    // |predicted(chosen) - simulated| / simulated
};

double predicted_of_chosen(const serve::QrPlan& p) {
  switch (p.chosen) {
    case QrAlgorithm::Caqr: return p.predicted_caqr_seconds;
    case QrAlgorithm::Hybrid: return p.predicted_hybrid_seconds;
    case QrAlgorithm::CholeskyQr2: return p.predicted_cholqr2_seconds;
    case QrAlgorithm::CholeskyQr3: return p.predicted_cholqr3_seconds;
    case QrAlgorithm::CholeskyQr2Mixed:
      return p.predicted_cholqr2_mixed_seconds;
    default: return 0;
  }
}

// Runs the chosen algorithm's full ModelOnly schedule on a fresh device —
// the same charges a serve worker would issue for this plan.
template <typename T>
double simulate_chosen(const GpuMachineModel& model, idx m, idx n,
                       const serve::QrPlan& p) {
  Device dev(model, ExecMode::ModelOnly);
  if (is_cholqr(p.chosen)) {
    (void)tsqr::cholqr(dev, Matrix<T>::shape_only(m, n), p.cholqr);
  } else if (p.chosen == QrAlgorithm::Caqr) {
    auto f = CaqrFactorization<T>::factor(dev, Matrix<T>::shape_only(m, n),
                                          p.caqr);
    (void)f;
  } else {
    (void)baselines::hybrid_qr(dev, Matrix<T>::shape_only(m, n));
  }
  return dev.elapsed_seconds();
}

template <typename T>
Row run_cell(const char* model_name, const GpuMachineModel& model, idx m,
             idx n, double cond_hint) {
  Row r;
  r.model = model_name;
  r.m = m;
  r.n = n;
  r.scalar_size = static_cast<int>(sizeof(T));
  r.cond_hint = cond_hint;
  r.plan = serve::make_plan<T>(model, m, n, QrAlgorithm::Auto, {}, cond_hint);
  r.simulated = simulate_chosen<T>(model, m, n, r.plan);
  const double pred = predicted_of_chosen(r.plan);
  r.rel_err = r.simulated > 0 ? std::abs(pred - r.simulated) / r.simulated
                              : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);

  struct Shape {
    idx m, n;
  };
  std::vector<Shape> shapes = {{110592, 100}, {65536, 64}, {16384, 32}};
  if (!quick) {
    shapes.push_back({262144, 48});
    shapes.push_back({8192, 128});
    shapes.push_back({4096, 512});
  }
  // 2 (bucket 0) is inside the TF32 mixed bound, 1e1 sits inside every
  // native variant's float bound, 1e2 exercises the CQR2-vs-CQR3 edge
  // (float CQR2 tops out at ~362, bucket upper 1e3), 1e6 is
  // double-CQR2-only territory, and 0 (no estimate) must disable the whole
  // family.
  const std::vector<double> hints = {2.0, 1e1, 1e2, 1e6, 0.0};
  struct ModelCase {
    const char* name;
    GpuMachineModel model;
  };
  const ModelCase models[] = {{"c2050", GpuMachineModel::c2050()},
                              {"a100", GpuMachineModel::a100()}};

  std::vector<Row> rows;
  for (const auto& mc : models) {
    for (const auto& s : shapes) {
      for (const double hint : hints) {
        rows.push_back(run_cell<float>(mc.name, mc.model, s.m, s.n, hint));
        if (!quick) {
          rows.push_back(run_cell<double>(mc.name, mc.model, s.m, s.n, hint));
        }
      }
    }
  }

  std::printf("%-7s %-8s %-5s %-6s %-9s %-14s %12s %12s %8s\n", "model",
              "rows", "cols", "dtype", "cond", "chosen", "predicted",
              "simulated", "relerr");
  bool cqr2_region = false;      // picker chose CQR2 with <= 15% agreement
  bool inadmissible_pick = false;  // any CholeskyQR pick without a hint
  for (const auto& r : rows) {
    std::printf("%-7s %-8lld %-5lld %-6s %-9.1e %-14s %10.4f ms %10.4f ms %7.2f%%\n",
                r.model, static_cast<long long>(r.m),
                static_cast<long long>(r.n),
                r.scalar_size == 4 ? "float" : "double", r.cond_hint,
                algo_name(r.plan.chosen), predicted_of_chosen(r.plan) * 1e3,
                r.simulated * 1e3, r.rel_err * 100.0);
    if (r.plan.chosen == QrAlgorithm::CholeskyQr2 && r.rel_err <= 0.15) {
      cqr2_region = true;
    }
    if (is_cholqr(r.plan.chosen) && !(r.cond_hint > 0)) {
      inadmissible_pick = true;
    }
  }

  json::Writer w = bench::begin_artifact();
  w.field("mode", "ModelOnly").key("results").begin_array();
  for (const Row& r : rows) {
    w.begin_object().field("model", r.model).field("rows", r.m);
    w.field("cols", r.n);
    w.field("dtype", r.scalar_size == 4 ? "float" : "double");
    w.field("cond_hint", r.cond_hint);
    w.field("cond_bucket", r.plan.key.cond_bucket);
    w.field("chosen", algo_name(r.plan.chosen));
    w.key("predicted_seconds").begin_object();
    w.field("caqr", r.plan.predicted_caqr_seconds);
    w.field("hybrid", r.plan.predicted_hybrid_seconds);
    w.field("cholqr2", r.plan.predicted_cholqr2_seconds);
    w.field("cholqr3", r.plan.predicted_cholqr3_seconds);
    w.field("cholqr2_mixed", r.plan.predicted_cholqr2_mixed_seconds);
    w.end_object().field("simulated_seconds", r.simulated);
    w.field("rel_err", r.rel_err).end_object();
  }
  w.end_array().key("acceptance").begin_object();
  w.field("cholqr2_region_within_15pct", cqr2_region);
  w.field("no_inadmissible_cholqr_pick", !inadmissible_pick).end_object();
  bench::write_artifact("BENCH_cqr_crossover.json", w);

  std::printf(
      "\nCholeskyQR2 region with <= 15%% predicted-vs-simulated error: %s\n"
      "No CholeskyQR pick without an admissible condition estimate:  %s\n",
      cqr2_region ? "yes" : "NO (acceptance FAILED)",
      inadmissible_pick ? "NO (acceptance FAILED)" : "yes");
  return (cqr2_region && !inadmissible_pick) ? 0 : 1;
}
