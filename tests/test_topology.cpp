// Tests for the topology layer (src/dist/topology.hpp and friends): the
// two-level HierarchicalInterconnect, NodeGrid placement, the topology-aware
// cross-device reduction tree and its structural invariants, the comm-volume
// receipts that pin down the communication-avoiding property (inter-node
// waves == ceil(log2 K), inter-node sends == K-1 per reduction, intra-node
// traffic independent of the inter-node link class), BIT-identity of
// hierarchical specs against the single-device replay, the typed
// PartitionError, grid-FT recovery when the lost device sits inside a node
// subtree, and the topology-aware plan probe.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "caqr/caqr.hpp"
#include "dist/device_grid.hpp"
#include "dist/dist_caqr.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/grid_ft.hpp"
#include "dist/interconnect.hpp"
#include "dist/topology.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"
#include "serve/plan_cache.hpp"

namespace caqr::dist {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::GpuMachineModel;

template <typename T>
void expect_bits_equal(const Matrix<T>& a, const Matrix<T>& b,
                       const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << "," << j << ")";
    }
  }
}

int ceil_log2(int k) {
  int levels = 0;
  for (int w = 1; w < k; w *= 2) ++levels;
  return levels;
}

// ------------------------------------------------ hierarchical interconnect

TEST(HierarchicalInterconnect, PlacementAndPerPairLinks) {
  const auto hier = HierarchicalInterconnect::nvlink_islands(4);
  EXPECT_EQ(hier.node_of(0), 0);
  EXPECT_EQ(hier.node_of(3), 0);
  EXPECT_EQ(hier.node_of(4), 1);
  EXPECT_EQ(hier.node_of(7), 1);
  EXPECT_TRUE(hier.same_node(1, 2));
  EXPECT_FALSE(hier.same_node(3, 4));
  EXPECT_EQ(hier.link_between(1, 2).name, std::string("nvlink"));
  EXPECT_EQ(hier.link_between(3, 4).name, std::string("ib_network"));
  // Crossing the slow tier costs strictly more for the same payload.
  EXPECT_GT(hier.transfer_seconds(3, 4, 1 << 20),
            hier.transfer_seconds(1, 2, 1 << 20));
}

TEST(HierarchicalInterconnect, FingerprintCoversBothTiersAndWidth) {
  const auto a = HierarchicalInterconnect::nvlink_islands(4);
  auto b = a;
  b.inter = InterconnectModel::pcie_switch();
  auto c = a;
  c.devices_per_node = 2;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_NE(a.fingerprint(), HierarchicalInterconnect::pcie_islands(4)
                                 .fingerprint());
  EXPECT_EQ(a.fingerprint(),
            HierarchicalInterconnect::nvlink_islands(4).fingerprint());
}

TEST(NodeGrid, PlacesDevicesNodeMajor) {
  NodeGrid grid(2, 4);
  EXPECT_EQ(grid.size(), 8);
  EXPECT_EQ(grid.nodes(), 2);
  EXPECT_EQ(grid.devices_per_node(), 4);
  ASSERT_NE(grid.hierarchy(), nullptr);
  EXPECT_EQ(grid.node_of(3), 0);
  EXPECT_EQ(grid.node_of(4), 1);
  EXPECT_EQ(grid.devices_in_node(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(grid.node_of_shards(),
            (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1}));
  // The hierarchy digest keys the grid fingerprint: same geometry matches,
  // a different inter-node tier does not.
  NodeGrid same(2, 4);
  EXPECT_EQ(grid.fingerprint(), same.fingerprint());
  NodeGrid pcie(2, 4, GpuMachineModel::c2050(),
                HierarchicalInterconnect::pcie_islands(4));
  EXPECT_NE(grid.fingerprint(), pcie.fingerprint());
  NodeGrid regrouped(4, 2);
  EXPECT_NE(grid.fingerprint(), regrouped.fingerprint());
}

// --------------------------------------------------- cross-spec structure

TEST(CrossSpec, TopologySpecReducesIntraNodeFirst) {
  // 8 shards over 4 nodes: one flat combine per node, then a binary tree
  // over the node roots {0, 2, 4, 6}.
  const auto spec = topology_cross_spec({0, 0, 1, 1, 2, 2, 3, 3});
  ASSERT_EQ(spec.depth(), 3);
  EXPECT_EQ(spec.shards(), 8);
  EXPECT_EQ(spec.levels[0],
            (std::vector<std::vector<int>>{{0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  EXPECT_EQ(spec.levels[1], (std::vector<std::vector<int>>{{0, 2}, {4, 6}}));
  EXPECT_EQ(spec.levels[2], (std::vector<std::vector<int>>{{0, 4}}));
}

TEST(CrossSpec, InterNodeWavesAreCeilLog2K) {
  for (int k : {1, 2, 3, 4, 5, 8}) {
    for (int dpn : {1, 2, 4}) {
      std::vector<int> node_of;
      for (int node = 0; node < k; ++node) {
        for (int d = 0; d < dpn; ++d) node_of.push_back(node);
      }
      const auto spec = topology_cross_spec(node_of);
      EXPECT_EQ(inter_levels(spec, node_of), ceil_log2(k))
          << k << " nodes x " << dpn << " devices";
      check_cross_spec(spec, k * dpn);  // aborts on violation
    }
  }
  // Arity-4 inter tree: ceil(log4 K) slow waves instead.
  const auto quad = topology_cross_spec({0, 1, 2, 3, 4, 5, 6, 7}, 0, 4);
  EXPECT_EQ(inter_levels(quad, {0, 1, 2, 3, 4, 5, 6, 7}), 2);
}

TEST(CrossSpec, IntraArityControlsTheFastPhase) {
  // arity-2 intra phase on a 4-wide node: two aligned intra levels, then
  // one inter level.
  const auto spec = topology_cross_spec({0, 0, 0, 0, 1, 1, 1, 1}, 2);
  ASSERT_EQ(spec.depth(), 3);
  EXPECT_EQ(spec.levels[0],
            (std::vector<std::vector<int>>{{0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  EXPECT_EQ(spec.levels[1], (std::vector<std::vector<int>>{{0, 2}, {4, 6}}));
  EXPECT_EQ(spec.levels[2], (std::vector<std::vector<int>>{{0, 4}}));
}

TEST(CrossSpec, EmptySpecResolvesToUniformConsecutiveTree) {
  const auto levels = resolve_cross_levels(5, CrossSpec{}, 2);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0],
            (std::vector<std::vector<int>>{{0, 1}, {2, 3}, {4}}));
  EXPECT_EQ(levels[1], (std::vector<std::vector<int>>{{0, 2}, {4}}));
  EXPECT_EQ(levels[2], (std::vector<std::vector<int>>{{0, 4}}));
}

TEST(CrossSpecDeathTest, MalformedSpecsAbortBeforeArithmetic) {
  // Non-consecutive group: breaks the stacking-order invariant.
  CrossSpec skip;
  skip.levels = {{{0, 2}, {1, 3}}, {{0, 1}}};
  EXPECT_DEATH(check_cross_spec(skip, 4), "consecutive");
  // Does not reduce to shard 0.
  CrossSpec wrong_root;
  wrong_root.levels = {{{0}, {1, 2, 3}}};
  EXPECT_DEATH(check_cross_spec(wrong_root, 4), "shard 0");
  // Level that misses a survivor.
  CrossSpec partial;
  partial.levels = {{{0, 1}}};
  EXPECT_DEATH(check_cross_spec(partial, 3), "cover");
}

// ------------------------------------------------- comm-volume receipts

TEST(Topology, SinglePanelReductionShipsKMinus1InterTriangles) {
  // Single panel (n == panel_width): the factor's cross reduction is one
  // tree walk. On K=4 nodes x 2 devices that is 4 intra-node triangles
  // (one per node) and exactly K-1 = 3 inter-node triangles, of which
  // ceil(log2 K) = 2 land on the root device.
  const idx m = 256, n = 8;
  const auto a = matrix_with_condition<double>(m, n, 1e2, 13);
  NodeGrid grid(4, 2);
  DistCaqrOptions dopt;
  dopt.panel_width = n;
  dopt.tsqr.block_rows = 16;
  dopt.cross_spec = grid.cross_spec();
  auto f = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), 8), dopt);
  (void)f;

  const auto s = grid.comm_stats();
  EXPECT_EQ(s.intra_transfers, 4);
  EXPECT_EQ(s.inter_transfers, 3);
  EXPECT_DOUBLE_EQ(s.intra_bytes + s.inter_bytes, s.bytes);
  int into_root = 0;
  for (const auto& rec : grid.comm_log()) {
    EXPECT_EQ(rec.inter_node, !grid.hierarchy()->same_node(rec.src, rec.dst));
    if (rec.inter_node && rec.dst == 0) ++into_root;
  }
  EXPECT_EQ(into_root, 2);  // ceil(log2 4)
}

TEST(Topology, IntraTrafficIndependentOfInterLinkClass) {
  // Swap ONLY the inter-node tier (IB -> PCIe-class): every intra-node
  // receipt — count, bytes, seconds — must be unchanged, while the
  // inter-node seconds move with the link model.
  const idx m = 256, n = 16;
  DistCaqrOptions dopt;
  dopt.panel_width = 8;
  dopt.tsqr.block_rows = 16;

  auto run = [&](HierarchicalInterconnect hier) {
    NodeGrid grid(2, 2, GpuMachineModel::c2050(), hier, ExecMode::ModelOnly);
    DistCaqrOptions opt = dopt;
    opt.cross_spec = grid.cross_spec();
    auto f = DistCaqrFactorization<double>::factor(
        grid, DistMatrix<double>::shape_only(m, n, 4), opt);
    (void)f;
    return grid.comm_stats();
  };

  const auto ib = run(HierarchicalInterconnect::nvlink_islands(2));
  auto pcie_inter = HierarchicalInterconnect::nvlink_islands(2);
  pcie_inter.inter = InterconnectModel::pcie_switch();
  const auto sw = run(pcie_inter);

  ASSERT_GT(ib.intra_transfers, 0);
  ASSERT_GT(ib.inter_transfers, 0);
  EXPECT_EQ(ib.intra_transfers, sw.intra_transfers);
  EXPECT_DOUBLE_EQ(ib.intra_bytes, sw.intra_bytes);
  EXPECT_DOUBLE_EQ(ib.intra_seconds, sw.intra_seconds);
  EXPECT_EQ(ib.inter_transfers, sw.inter_transfers);
  EXPECT_DOUBLE_EQ(ib.inter_bytes, sw.inter_bytes);
  EXPECT_NE(ib.inter_seconds, sw.inter_seconds);
}

// ----------------------------------------------------------- bit-identity

void check_hier_bit_identity(int devices, int nodes) {
  SCOPED_TRACE(testing::Message() << devices << " devices over " << nodes
                                  << " nodes");
  const idx m = 256, n = 24;
  const auto a = matrix_with_condition<double>(m, n, 1e6, 42);

  NodeGrid grid(nodes, devices / nodes);
  DistCaqrOptions dopt;
  dopt.panel_width = 8;
  dopt.tsqr.block_rows = std::max<idx>(8, m / devices / 4);
  dopt.cross_spec = grid.cross_spec();

  auto df = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), devices), dopt);

  const auto partition = even_partition(m, devices, n);
  Device dev;
  auto sf = CaqrFactorization<double>::factor(
      dev, Matrix<double>::from(a.view()),
      single_device_equivalent(dopt, partition));

  expect_bits_equal(sf.r(), df.r(), "R");
  expect_bits_equal(sf.form_q(dev, n), df.form_q(grid, n).gather(), "Q");
  const auto rep = numerics::verify_qr(
      a.view(), df.form_q(grid, n).gather().view(), df.r().view());
  EXPECT_TRUE(rep.pass) << "residual " << rep.residual;
}

TEST(Topology, HierarchicalSpecBitIdenticalToSingleDevice) {
  for (int devices : {2, 4, 8}) {
    for (int nodes : {1, 2, 4}) {
      if (nodes > devices) continue;
      check_hier_bit_identity(devices, nodes);
    }
  }
}

TEST(Topology, IntraAritySpecStaysBitIdentical) {
  const idx m = 512, n = 16;
  const auto a = matrix_with_condition<double>(m, n, 1e4, 17);
  NodeGrid grid(2, 4);
  DistCaqrOptions dopt;
  dopt.panel_width = 8;
  dopt.tsqr.block_rows = 16;
  dopt.cross_spec = grid.cross_spec(/*intra_arity=*/2);
  auto df = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), 8), dopt);
  Device dev;
  auto sf = CaqrFactorization<double>::factor(
      dev, Matrix<double>::from(a.view()),
      single_device_equivalent(dopt, even_partition(m, 8, n)));
  expect_bits_equal(sf.r(), df.r(), "R under arity-2 intra phase");
  expect_bits_equal(sf.form_q(dev, n), df.form_q(grid, n).gather(),
                    "Q under arity-2 intra phase");
}

// -------------------------------------------------- typed partition error

TEST(DistMatrixError, InfeasiblePartitionThrowsTypedTriple) {
  try {
    even_partition(10, 4, 8);  // needs >= 32 rows
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.rows, 10);
    EXPECT_EQ(e.min_rows, 8);
    EXPECT_EQ(e.devices, 4);
    EXPECT_NE(std::string(e.what()).find("10"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4 devices"), std::string::npos);
  }
  // Feasible boundary case still works.
  EXPECT_EQ(even_partition(32, 4, 8), (std::vector<idx>{0, 8, 16, 24, 32}));
}

// ------------------------------------------------- grid FT on a NodeGrid

TEST(TopologyFt, DeviceLossInsideNodeSubtreeRecovers) {
  // Kill a device in the middle of node 0's subtree mid-run: the recovery
  // driver re-derives the topology spec for the 3 survivors (still
  // node-major) and the factorization completes and verifies.
  const idx m = 256, n = 32;
  const auto a = matrix_with_condition<double>(m, n, 1e5, 203);
  NodeGrid grid(2, 2);
  GridFtOptions gft;
  gft.device_losses.push_back({1, 2});  // device 1 = node 0, second member
  grid.set_fault_tolerance(gft);

  DistCaqrOptions dopt;
  dopt.panel_width = 8;
  dopt.tsqr.block_rows = 16;
  dopt.cross_spec = grid.cross_spec();

  GridRecoveryOptions ropt;
  ropt.checkpoint_every = 1;
  const auto res = factor_with_recovery<double>(grid, a.view(), dopt, ropt);
  ASSERT_TRUE(res.f.has_value());
  EXPECT_GE(res.status.device_losses, 1);
  EXPECT_EQ(grid.num_alive(), 3);
  EXPECT_EQ(static_cast<int>(res.devices.size()), 3);
  for (const int d : res.devices) EXPECT_NE(d, 1);

  NodeGrid gq(2, 2);
  const Matrix<double> q = res.f->form_q(gq, n).gather();
  EXPECT_TRUE(
      numerics::verify_qr(a.view(), q.view(), res.f->r().view()).pass);
}

// ------------------------------------------------- topology-aware plans

TEST(TopologyPlan, ProbePicksNoWorseThanUniformBinary) {
  NodeGrid grid(2, 4, GpuMachineModel::c2050(),
                HierarchicalInterconnect::nvlink_islands(4),
                ExecMode::ModelOnly);
  const auto plan = serve::make_dist_plan<double>(grid, 1 << 15, 96);
  EXPECT_GT(plan.predicted_caqr_seconds, 0.0);
  if (!plan.dist_caqr.cross_spec.empty()) {
    check_cross_spec(plan.dist_caqr.cross_spec, grid.size());
  }
  // The probe minimizes over candidates that include the plain uniform
  // binary tree, so the pick can never be slower than it.
  DistCaqrOptions uniform = plan.dist_caqr;
  uniform.cross_arity = 2;
  uniform.cross_spec = CrossSpec{};
  const double uniform_t =
      predict_dist_caqr_seconds<double>(grid, 1 << 15, 96, uniform);
  EXPECT_LE(plan.predicted_caqr_seconds, uniform_t * (1 + 1e-12));
}

TEST(TopologyPlan, HierarchyDigestKeysTheCache) {
  serve::PlanCache cache(8);
  NodeGrid grid(2, 4, GpuMachineModel::c2050(),
                HierarchicalInterconnect::nvlink_islands(4),
                ExecMode::ModelOnly);
  EXPECT_FALSE(cache.lookup_dist<double>(grid, 8192, 64).hit);
  NodeGrid same(2, 4, GpuMachineModel::c2050(),
                HierarchicalInterconnect::nvlink_islands(4),
                ExecMode::ModelOnly);
  EXPECT_TRUE(cache.lookup_dist<double>(same, 8192, 64).hit);
  // Same device count, different node shape or inter tier: fresh plan.
  NodeGrid regrouped(4, 2, GpuMachineModel::c2050(),
                     HierarchicalInterconnect::nvlink_islands(2),
                     ExecMode::ModelOnly);
  EXPECT_FALSE(cache.lookup_dist<double>(regrouped, 8192, 64).hit);
  NodeGrid pcie(2, 4, GpuMachineModel::c2050(),
                HierarchicalInterconnect::pcie_islands(4),
                ExecMode::ModelOnly);
  EXPECT_FALSE(cache.lookup_dist<double>(pcie, 8192, 64).hit);
}

}  // namespace
}  // namespace caqr::dist
