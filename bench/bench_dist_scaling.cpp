// E17 — Distributed CAQR scaling on the simulated device grid.
//
// Four studies, all over the paper's serving shape (1M x 192, f32) unless
// noted, every timing from ModelOnly grid simulation (bit-identical to the
// functional timeline, tests/test_dist.cpp):
//
//   1. Strong scaling: fixed 1M x 192 problem on N in {1,2,4,8} devices
//      over the PCIe-like interconnect. Reported speedup is vs the SAME
//      driver at N = 1, so it isolates the grid + communication overhead.
//   2. Weak scaling: fixed 128Ki rows PER device, N in {1,2,4,8}.
//   3. Communication volume: the distributed CAQR's measured link bytes
//      (w x w R triangles + w-row trailing slices) against the analytic
//      volume of (a) naively gathering every remote shard to one device and
//      (b) a single monolithic TSQR tree over the full width (one n x n
//      triangle per remote device) — the paper's communication-avoidance
//      argument, now with modeled-transfer receipts.
//   4. Interconnect/tree shape: 8-device strong-scaling point under
//      NVLink-like links and under a quad cross tree.
//   5. Hierarchy: the 8 devices placed on K in {1,2,4} nodes of a two-level
//      NVLink/IB interconnect, reduced with the topology-aware cross tree
//      (dist/topology.hpp). Reports per-tier (intra/inter) bytes and
//      transfer counts, the inter-node wave count against the expected
//      ceil(log2 K), and measured cross-device words against the
//      Demmel-Grigori-Hoemmen-Langou lower bound Omega(n^2 log P): the
//      bench FAILS if measured/bound exceeds the (1 + ceil(log2 P))^2
//      polylog cap — the "communication-optimal up to polylog factors"
//      claim as a tested exit gate.
//
// A functional bit-identity block rides along: the distributed Q and R are
// compared BIT for BIT against the single-device CAQR run with the
// equivalent tree spec (dist::single_device_equivalent). Quick mode checks
// two small shapes; full mode (the committed BENCH_dist_scaling.json) adds
// the 1M x 192 shape, every case over N in {1,2,4,8}.
//
// Writes BENCH_dist_scaling.json (incl. the "hierarchy" block) and the
// 8-device ModelOnly chrome trace BENCH_dist_scaling_trace.json (pid =
// device, link ops on both endpoints). Exit status is nonzero if the
// 8-device strong-scaling speedup is not > 1, any bit-identity case fails,
// or the hierarchy study misses its wave count or lower-bound cap — CI
// gates on it.
//
// Flags: --quick (small bit-identity shapes only)  --seed

#include <cstdio>
#include <string>
#include <vector>

#include "bench_artifact.hpp"
#include "caqr/caqr.hpp"
#include "common/cli.hpp"
#include "dist/device_grid.hpp"
#include "dist/dist_caqr.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/interconnect.hpp"
#include "dist/topology.hpp"
#include "gpusim/report.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"

namespace {

using namespace caqr;
using dist::DeviceGrid;
using dist::DistCaqrFactorization;
using dist::DistCaqrOptions;
using dist::DistMatrix;
using dist::InterconnectModel;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

constexpr idx kRows = 1 << 20;  // the paper's 1M-row serving shape
constexpr idx kCols = 192;
constexpr idx kWeakRowsPerDevice = 1 << 17;

DistCaqrOptions bench_options() {
  DistCaqrOptions opt;
  opt.panel_width = 16;
  opt.tsqr.block_rows = 4096;
  return opt;
}

struct ScalingPoint {
  int devices = 1;
  double seconds = 0;
  dist::CommStats comm;
};

// One ModelOnly distributed factorization; returns elapsed grid time and
// the comm receipts. Also dumps the 8-device chrome trace when asked.
ScalingPoint run_model_only(idx m, idx n, int devices,
                            const InterconnectModel& link, idx cross_arity,
                            const char* trace_path = nullptr) {
  DeviceGrid grid(devices, GpuMachineModel::c2050(), link,
                  ExecMode::ModelOnly);
  DistCaqrOptions opt = bench_options();
  opt.cross_arity = cross_arity;
  auto f = DistCaqrFactorization<float>::factor(
      grid, DistMatrix<float>::shape_only(m, n, devices), opt);
  (void)f;
  ScalingPoint p;
  p.devices = devices;
  p.seconds = grid.elapsed_seconds();
  p.comm = grid.comm_stats();
  if (trace_path != nullptr) {
    json::Writer w = bench::begin_artifact();
    dist::write_grid_trace(w, grid);
    bench::write_artifact(trace_path, w);
  }
  return p;
}

// Analytic volume of shipping every remote shard to device 0 once (the
// communication-naive "gather and factor locally" alternative).
double naive_gather_bytes(idx m, idx n, int devices) {
  const auto o = dist::even_partition(m, devices, n);
  double bytes = 0;
  for (int d = 1; d < devices; ++d) {
    bytes += static_cast<double>(o[static_cast<std::size_t>(d) + 1] -
                                 o[static_cast<std::size_t>(d)]) *
             static_cast<double>(n) * sizeof(float);
  }
  return bytes;
}

// Analytic volume of one monolithic TSQR tree over the full width: each
// remote device ships a single n x n triangle up a binary tree (log2 N
// levels, N-1 sends total).
double single_tree_bytes(idx n, int devices) {
  return static_cast<double>(devices - 1) * 0.5 * static_cast<double>(n) *
         static_cast<double>(n + 1) * sizeof(float);
}

int ceil_log2(int k) {
  int levels = 0;
  for (int w = 1; w < k; w *= 2) ++levels;
  return levels;
}

// Demmel-Grigori-Hoemmen-Langou lower bound on the cross-device words a
// P-leaf reduction of an n-wide factorization must move: Omega(n^2 log P),
// instantiated here as (n^2 / 2) * ceil(log2 P) — each of the log P tree
// levels has to ship at least one n x n triangle across the cut. P = 1
// (everything local to one node/device) moves nothing and the bound is 0.
double dghl_bound_words(idx n, int p) {
  return 0.5 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(ceil_log2(p));
}

struct HierPoint {
  int nodes = 1;
  int devices_per_node = 1;
  double seconds_topo = 0;
  double seconds_uniform = 0;
  int inter_waves = 0;
  dist::CommStats comm;
};

// One ModelOnly factorization on a NodeGrid with the topology-aware cross
// tree, plus the same problem under the plain uniform binary tree on the
// SAME hierarchical machine (so the seconds are comparable).
HierPoint run_hier(idx m, idx n, int nodes, int devices_per_node) {
  const int devices = nodes * devices_per_node;
  HierPoint h;
  h.nodes = nodes;
  h.devices_per_node = devices_per_node;

  dist::NodeGrid grid(nodes, devices_per_node, GpuMachineModel::c2050(),
                      dist::HierarchicalInterconnect::nvlink_islands(
                          devices_per_node),
                      ExecMode::ModelOnly);
  DistCaqrOptions opt = bench_options();
  opt.cross_spec = grid.cross_spec();
  h.inter_waves = dist::inter_levels(opt.cross_spec, grid.node_of_shards());
  auto f = DistCaqrFactorization<float>::factor(
      grid, DistMatrix<float>::shape_only(m, n, devices), opt);
  (void)f;
  h.seconds_topo = grid.elapsed_seconds();
  h.comm = grid.comm_stats();

  dist::NodeGrid flat(nodes, devices_per_node, GpuMachineModel::c2050(),
                      dist::HierarchicalInterconnect::nvlink_islands(
                          devices_per_node),
                      ExecMode::ModelOnly);
  DistCaqrOptions uopt = bench_options();
  auto uf = DistCaqrFactorization<float>::factor(
      flat, DistMatrix<float>::shape_only(m, n, devices), uopt);
  (void)uf;
  h.seconds_uniform = flat.elapsed_seconds();
  return h;
}

struct BitIdentityCase {
  idx m = 0;
  idx n = 0;
  int devices = 1;
  bool identical = false;
  bool verified = true;  // Verifier pass (small shapes only)
  double residual = 0;
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

// Functional distributed run vs the single-device run with the equivalent
// tree spec. `verify` additionally runs the backward-error Verifier (kept
// off the 1M shape, where the bitwise check against the already-verified
// single-device solver is the meaningful statement).
BitIdentityCase check_bit_identity(const Matrix<float>& a, int devices,
                                   bool verify) {
  BitIdentityCase c;
  c.m = a.rows();
  c.n = a.cols();
  c.devices = devices;

  DistCaqrOptions opt = bench_options();
  // Deep local trees even at the small shapes.
  opt.tsqr.block_rows =
      std::min<idx>(opt.tsqr.block_rows,
                    std::max<idx>(opt.panel_width, a.rows() / devices / 4));

  DeviceGrid grid(devices);
  auto df = DistCaqrFactorization<float>::factor(
      grid, DistMatrix<float>::scatter(a.view(), devices), opt);
  const Matrix<float> dq = df.form_q(grid, a.cols()).gather();
  const Matrix<float> dr = df.r();

  gpusim::Device dev;
  auto sf = CaqrFactorization<float>::factor(
      dev, Matrix<float>::from(a.view()),
      dist::single_device_equivalent(
          opt, dist::even_partition(a.rows(), devices, a.cols())));
  const Matrix<float> sq = sf.form_q(dev, a.cols());
  const Matrix<float> sr = sf.r();

  c.identical = bits_equal(dr, sr) && bits_equal(dq, sq);
  if (verify) {
    const auto rep = numerics::verify_qr(a.view(), dq.view(), dr.view());
    c.verified = rep.pass;
    c.residual = rep.residual;
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 17));

  const std::vector<int> counts = {1, 2, 4, 8};
  json::Writer w = bench::begin_artifact();
  w.field("mode", quick ? "quick" : "full");

  // ---- 1. strong scaling ---------------------------------------------------
  std::printf("Strong scaling, %lld x %lld f32, PCIe-like links:\n",
              static_cast<long long>(kRows), static_cast<long long>(kCols));
  std::vector<ScalingPoint> strong;
  for (int n : counts) {
    strong.push_back(run_model_only(
        kRows, kCols, n, InterconnectModel::pcie_switch(), 2,
        n == 8 ? "BENCH_dist_scaling_trace.json" : nullptr));
  }
  const double t1 = strong.front().seconds;
  w.key("strong_scaling").begin_array();
  for (const auto& p : strong) {
    const double speedup = t1 / p.seconds;
    std::printf("  N=%d  %.4f s  speedup %.2fx  comm %.1f MiB in %lld "
                "transfers (%.4f s link time)\n",
                p.devices, p.seconds, speedup, p.comm.bytes / (1 << 20),
                p.comm.transfers, p.comm.seconds);
    w.begin_object().field("devices", p.devices).field("seconds", p.seconds);
    w.field("speedup", speedup).field("comm_bytes", p.comm.bytes);
    w.field("comm_transfers", p.comm.transfers);
    w.field("comm_seconds", p.comm.seconds).end_object();
  }
  w.end_array();
  const double speedup8 = t1 / strong.back().seconds;

  // ---- 2. weak scaling -----------------------------------------------------
  std::printf("\nWeak scaling, %lld rows/device x %lld:\n",
              static_cast<long long>(kWeakRowsPerDevice),
              static_cast<long long>(kCols));
  w.key("weak_scaling").begin_array();
  double weak1 = 0;
  for (const int n : counts) {
    const auto p = run_model_only(kWeakRowsPerDevice * n, kCols, n,
                                  InterconnectModel::pcie_switch(), 2);
    if (n == 1) weak1 = p.seconds;
    const double eff = weak1 / p.seconds;
    std::printf("  N=%d  %lld rows  %.4f s  efficiency %.2f\n", n,
                static_cast<long long>(kWeakRowsPerDevice) * n, p.seconds,
                eff);
    w.begin_object().field("devices", n);
    w.field("rows", kWeakRowsPerDevice * n).field("seconds", p.seconds);
    w.field("efficiency", eff).end_object();
  }
  w.end_array();

  // ---- 3. communication volume --------------------------------------------
  std::printf("\nCommunication volume at %lld x %lld (measured vs analytic):\n",
              static_cast<long long>(kRows), static_cast<long long>(kCols));
  w.key("comm_volume").begin_array();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int n = counts[i];
    const double caqr = strong[i].comm.bytes;
    const double naive = naive_gather_bytes(kRows, kCols, n);
    const double tree = single_tree_bytes(kCols, n);
    std::printf("  N=%d  caqr %.1f MiB   naive gather %.1f MiB   single "
                "%lld-wide tree %.2f MiB\n",
                n, caqr / (1 << 20), naive / (1 << 20),
                static_cast<long long>(kCols), tree / (1 << 20));
    w.begin_object().field("devices", n).field("caqr_bytes", caqr);
    w.field("naive_gather_bytes", naive);
    w.field("single_tree_bytes", tree).end_object();
  }
  w.end_array();

  // ---- 4. interconnect / tree shape ---------------------------------------
  const auto nvlink8 =
      run_model_only(kRows, kCols, 8, InterconnectModel::nvlink(), 2);
  const auto quad8 =
      run_model_only(kRows, kCols, 8, InterconnectModel::pcie_switch(), 4);
  std::printf("\n8-device variants: pcie/binary %.4f s   nvlink/binary %.4f "
              "s   pcie/quad %.4f s\n",
              strong.back().seconds, nvlink8.seconds, quad8.seconds);
  w.key("variants_8dev").begin_object();
  w.field("pcie_binary", strong.back().seconds);
  w.field("nvlink_binary", nvlink8.seconds);
  w.field("pcie_quad", quad8.seconds).end_object();

  // ---- 5. hierarchy + communication lower bound ----------------------------
  const int kHierDevices = 8;
  const double bound_total = dghl_bound_words(kCols, kHierDevices);
  const double cap_total =
      (1.0 + ceil_log2(kHierDevices)) * (1.0 + ceil_log2(kHierDevices));
  std::printf("\nHierarchy: %d devices on K nodes (NVLink intra / IB inter), "
              "topology-aware tree\n  DGHL bound %.0f words total (cap "
              "%.0fx):\n",
              kHierDevices, bound_total, cap_total);
  bool hier_ok = true;
  w.key("hierarchy").begin_object().field("rows", kRows);
  w.field("cols", kCols).field("devices", kHierDevices);
  w.field("dghl_bound_words_total", bound_total);
  w.field("polylog_cap_total", cap_total).key("points").begin_array();
  for (const int k : {1, 2, 4}) {
    const HierPoint h = run_hier(kRows, kCols, k, kHierDevices / k);
    const double words_total = h.comm.bytes / sizeof(float);
    const double words_inter = h.comm.inter_bytes / sizeof(float);
    const double ratio_total = words_total / bound_total;
    const double bound_inter = dghl_bound_words(kCols, k);
    const double cap_inter =
        (1.0 + ceil_log2(k)) * (1.0 + ceil_log2(k));
    const double ratio_inter =
        bound_inter > 0 ? words_inter / bound_inter : 0;
    const int expected_waves = ceil_log2(k);
    const bool point_ok =
        h.inter_waves == expected_waves && ratio_total <= cap_total &&
        (k == 1 ? h.comm.inter_bytes == 0 : ratio_inter <= cap_inter);
    hier_ok = hier_ok && point_ok;
    char inter_note[64] = "";
    if (k > 1) {
      std::snprintf(inter_note, sizeof(inter_note),
                    "  inter %.2fx its bound (cap %.0fx)", ratio_inter,
                    cap_inter);
    }
    std::printf(
        "  K=%d (x%d)  %.4f s (uniform %.4f s)  intra %.2f MiB/%lld  inter "
        "%.2f MiB/%lld  waves %d (want %d)  total %.0f words = %.2fx bound"
        "%s  %s\n",
        k, h.devices_per_node, h.seconds_topo, h.seconds_uniform,
        h.comm.intra_bytes / (1 << 20), h.comm.intra_transfers,
        h.comm.inter_bytes / (1 << 20), h.comm.inter_transfers, h.inter_waves,
        expected_waves, words_total, ratio_total, inter_note,
        point_ok ? "ok" : "FAIL");
    w.begin_object().field("nodes", k);
    w.field("devices_per_node", h.devices_per_node);
    w.field("seconds_topo", h.seconds_topo);
    w.field("seconds_uniform", h.seconds_uniform);
    w.field("intra_bytes", h.comm.intra_bytes);
    w.field("intra_transfers", h.comm.intra_transfers);
    w.field("inter_bytes", h.comm.inter_bytes);
    w.field("inter_transfers", h.comm.inter_transfers);
    w.field("inter_waves", h.inter_waves);
    w.field("inter_waves_expected", expected_waves);
    w.field("measured_words_total", words_total);
    w.field("ratio_total", ratio_total);
    w.field("measured_words_inter", words_inter);
    w.field("dghl_bound_words_inter", bound_inter);
    w.field("ratio_inter", ratio_inter);
    w.field("polylog_cap_inter", cap_inter);
    w.field("pass", point_ok).end_object();
  }
  w.end_array().field("pass", hier_ok).end_object();

  // ---- 5. functional bit-identity ------------------------------------------
  std::printf("\nBit-identity vs single-device equivalent tree:\n");
  bool all_identical = true;
  w.key("bit_identity").begin_array();
  struct Shape {
    idx m, n;
    bool verify;
  };
  std::vector<Shape> shapes = {{8192, 64, true}, {32768, 128, true}};
  if (!quick) shapes.push_back({kRows, kCols, false});
  for (const Shape& s : shapes) {
    // Conditioned inputs where the Verifier also runs; a plain Gaussian
    // fill at the 1M shape (generation is O(m n^2) otherwise).
    const Matrix<float> a =
        s.verify ? matrix_with_condition<float>(s.m, s.n, 1e5, seed)
                 : gaussian_matrix<float>(s.m, s.n, seed);
    for (int n : counts) {
      const auto c = check_bit_identity(a, n, s.verify);
      all_identical = all_identical && c.identical && c.verified;
      std::printf("  %7lld x %-4lld N=%d  %s%s\n",
                  static_cast<long long>(c.m), static_cast<long long>(c.n),
                  c.devices, c.identical ? "bit-identical" : "MISMATCH",
                  s.verify ? (c.verified ? ", verifier ok" : ", verifier FAIL")
                           : "");
      w.begin_object().field("m", c.m).field("n", c.n);
      w.field("devices", c.devices).field("identical", c.identical);
      w.field("verified", c.verified).field("residual", c.residual);
      w.end_object();
    }
  }
  w.end_array();
  bench::write_artifact("BENCH_dist_scaling.json", w);

  const bool ok = speedup8 > 1.0 && all_identical && hier_ok;
  std::printf(
      "8-device strong-scaling speedup %.2fx, bit-identity %s, hierarchy "
      "lower-bound gate %s\n%s\n",
      speedup8, all_identical ? "pass" : "FAIL", hier_ok ? "pass" : "FAIL",
      ok ? "DIST SCALING PASS" : "DIST SCALING FAIL");
  return ok ? 0 : 1;
}
