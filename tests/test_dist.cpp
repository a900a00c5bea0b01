// Tests for the multi-device subsystem (src/dist/): block-row partitioning,
// grid fingerprints, rendezvous transfer semantics, the TreeSpec seam that
// lets one device replay the distributed decomposition, BIT-identity of the
// distributed CAQR driver against its single-device equivalent across
// shapes and device counts, ModelOnly vs Functional timeline/comm-log
// equality, comm-volume accounting, and the distributed plan-cache path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "caqr/caqr.hpp"
#include "dist/device_grid.hpp"
#include "dist/dist_caqr.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/interconnect.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"
#include "serve/plan_cache.hpp"
#include "tsqr/tsqr.hpp"

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
      ASSERT_EQ(a(i, j), b(i, j))
          << what << " at (" << i << "," << j << ")";
    }
  }
}

// ------------------------------------------------------------ partitioning

TEST(DistMatrix, EvenPartitionSpreadsRemainderForward) {
  const auto o = even_partition(10, 3, 3);
  EXPECT_EQ(o, (std::vector<idx>{0, 4, 7, 10}));
  // Exact division.
  EXPECT_EQ(even_partition(12, 4, 3), (std::vector<idx>{0, 3, 6, 9, 12}));
  // One device: the trivial partition.
  EXPECT_EQ(even_partition(7, 1, 7), (std::vector<idx>{0, 7}));
}

TEST(DistMatrix, ScatterGatherRoundTrip) {
  const auto a = matrix_with_condition<double>(64, 8, 1e3, 11);
  const auto m = DistMatrix<double>::scatter(a.view(), 3);
  EXPECT_EQ(m.num_shards(), 3);
  EXPECT_EQ(m.rows(), 64);
  expect_bits_equal(a, m.gather(), "scatter/gather");
}

// ------------------------------------------------------------ grid basics

TEST(DeviceGrid, FingerprintCoversLinkModelAndCount) {
  const DeviceGrid pcie4(4);
  const DeviceGrid pcie4b(4);
  EXPECT_EQ(pcie4.fingerprint(), pcie4b.fingerprint());
  const DeviceGrid nvlink4(4, GpuMachineModel::c2050(),
                           InterconnectModel::nvlink());
  EXPECT_NE(pcie4.fingerprint(), nvlink4.fingerprint());
  const DeviceGrid pcie8(8);
  EXPECT_NE(pcie4.fingerprint(), pcie8.fingerprint());
  const DeviceGrid gtx4(4, GpuMachineModel::gtx480());
  EXPECT_NE(pcie4.fingerprint(), gtx4.fingerprint());
}

TEST(DeviceGrid, TransferRendezvousAlignsBothClocks) {
  DeviceGrid grid(2, GpuMachineModel::c2050(),
                  InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  grid.device(0).add_external_seconds(1.0, "head_start");
  const double bytes = 5e9;  // 1 s at 5 GB/s
  const double done = grid.transfer(0, 1, bytes, "link_test");
  const double t = grid.interconnect().transfer_seconds(bytes);
  EXPECT_NEAR(done, 1.0 + t, 1e-12);
  // Both endpoints sit at the completion time: the idle destination was
  // pulled forward to the rendezvous before the link time was charged.
  EXPECT_NEAR(grid.device(0).elapsed_seconds(), 1.0 + t, 1e-12);
  EXPECT_NEAR(grid.device(1).elapsed_seconds(), 1.0 + t, 1e-12);
  // Both devices account the op under the label.
  EXPECT_NE(grid.device(0).profile("link_test"), nullptr);
  EXPECT_NE(grid.device(1).profile("link_test"), nullptr);
  ASSERT_EQ(grid.comm_log().size(), 1u);
  EXPECT_EQ(grid.comm_log()[0].src, 0);
  EXPECT_EQ(grid.comm_log()[0].dst, 1);
  EXPECT_DOUBLE_EQ(grid.comm_log()[0].bytes, bytes);
  // Same-device transfers cross no link and charge nothing.
  grid.transfer(1, 1, 1e12);
  EXPECT_EQ(grid.comm_log().size(), 1u);
}

// ---------------------------------------------------------- TreeSpec seam

TEST(TreeSpec, UniformProviderMatchesDefaultBitwise) {
  const auto a = matrix_with_condition<double>(192, 12, 1e5, 5);
  tsqr::TsqrOptions plain;
  plain.block_rows = 24;
  tsqr::TsqrOptions provided = plain;
  provided.tree_spec = [plain](idx rows, idx width) {
    return tsqr::uniform_tree_spec(rows, width, plain);
  };

  Device d1, d2;
  auto r1 = tsqr::tsqr(d1, a.view(), plain);
  auto r2 = tsqr::tsqr(d2, a.view(), provided);
  expect_bits_equal(r1.r(), r2.r(), "R via explicit uniform spec");
  expect_bits_equal(r1.form_q(d1, plain), r2.form_q(d2, provided),
                    "Q via explicit uniform spec");
}

// ----------------------------------------------------------- bit-identity

struct BitIdentityCase {
  idx m, n;
  int devices;
  idx cross_arity;
};

void check_bit_identity(const BitIdentityCase& c) {
  SCOPED_TRACE(testing::Message()
               << c.m << "x" << c.n << " on " << c.devices
               << " devices, cross arity " << c.cross_arity);
  const auto a = matrix_with_condition<double>(c.m, c.n, 1e6, 42);

  DistCaqrOptions dopt;
  dopt.panel_width = 8;
  dopt.cross_arity = c.cross_arity;
  dopt.tsqr.block_rows = std::max<idx>(dopt.panel_width,
                                       c.m / c.devices / 4);

  DeviceGrid grid(c.devices);
  auto df = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), c.devices), dopt);

  const auto partition = even_partition(c.m, c.devices, c.n);
  Device dev;
  auto sf = CaqrFactorization<double>::factor(
      dev, Matrix<double>::from(a.view()),
      single_device_equivalent(dopt, partition));

  expect_bits_equal(sf.r(), df.r(), "R");
  expect_bits_equal(sf.form_q(dev, c.n), df.form_q(grid, c.n).gather(), "Q");

  // Numerics sanity on top of the identity.
  const auto rep = numerics::verify_qr(a.view(), df.form_q(grid, c.n).gather().view(),
                                       df.r().view());
  EXPECT_TRUE(rep.pass) << "residual " << rep.residual;
}

TEST(DistCaqr, BitIdenticalToSingleDevice256x24) {
  for (int devices : {1, 2, 4, 8}) {
    check_bit_identity({256, 24, devices, 2});
  }
}

TEST(DistCaqr, BitIdenticalToSingleDevice512x40) {
  for (int devices : {1, 2, 4, 8}) {
    check_bit_identity({512, 40, devices, 2});
  }
}

TEST(DistCaqr, BitIdenticalToSingleDevice384x16) {
  for (int devices : {1, 2, 4, 8}) {
    check_bit_identity({384, 16, devices, 2});
  }
}

TEST(DistCaqr, BitIdenticalUnderQuadCrossTree) {
  check_bit_identity({512, 24, 8, 4});
  check_bit_identity({256, 16, 4, 4});
}

TEST(DistCaqr, ApplyQtMatchesSingleDevice) {
  const idx m = 192, n = 16, nrhs = 5;
  const auto a = matrix_with_condition<double>(m, n, 1e4, 7);
  const auto b = matrix_with_condition<double>(m, nrhs, 1e2, 9);

  DistCaqrOptions dopt;
  dopt.tsqr.block_rows = 32;
  DeviceGrid grid(4);
  auto df = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), 4), dopt);
  auto db = DistMatrix<double>::scatter(b.view(), df.packed().offsets());
  df.apply_qt(grid, db);

  Device dev;
  auto sf = CaqrFactorization<double>::factor(
      dev, Matrix<double>::from(a.view()),
      single_device_equivalent(dopt, even_partition(m, 4, n)));
  Matrix<double> sb = Matrix<double>::from(b.view());
  sf.apply_qt(dev, sb.view());

  expect_bits_equal(sb, db.gather(), "Q^T b");

  // And back: apply_q inverts apply_qt bitwise against the same reference.
  df.apply_q(grid, db);
  sf.apply_q(dev, sb.view());
  expect_bits_equal(sb, db.gather(), "Q Q^T b");
}

// ------------------------------------------- ModelOnly vs Functional

TEST(DistCaqr, ModelOnlyTimelineMatchesFunctional) {
  const idx m = 256, n = 16;
  const auto a = matrix_with_condition<double>(m, n, 1e3, 3);
  DistCaqrOptions dopt;
  dopt.tsqr.block_rows = 32;

  DeviceGrid fgrid(4, GpuMachineModel::c2050(),
                   InterconnectModel::pcie_switch(), ExecMode::Functional);
  auto ff = DistCaqrFactorization<double>::factor(
      fgrid, DistMatrix<double>::scatter(a.view(), 4), dopt);
  (void)ff.form_q(fgrid, n);

  DeviceGrid mgrid(4, GpuMachineModel::c2050(),
                   InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  auto mf = DistCaqrFactorization<double>::factor(
      mgrid, DistMatrix<double>::shape_only(m, n, 4), dopt);
  (void)mf.form_q(mgrid, n);

  // Same comm log, bit for bit.
  ASSERT_EQ(fgrid.comm_log().size(), mgrid.comm_log().size());
  for (std::size_t i = 0; i < fgrid.comm_log().size(); ++i) {
    const auto& fr = fgrid.comm_log()[i];
    const auto& mr = mgrid.comm_log()[i];
    EXPECT_EQ(fr.src, mr.src);
    EXPECT_EQ(fr.dst, mr.dst);
    EXPECT_EQ(fr.bytes, mr.bytes);
    EXPECT_EQ(fr.seconds, mr.seconds);
    EXPECT_EQ(fr.start, mr.start);
    EXPECT_EQ(fr.label, mr.label);
  }

  // Same per-device timeline, event for event.
  EXPECT_EQ(fgrid.elapsed_seconds(), mgrid.elapsed_seconds());
  for (int d = 0; d < 4; ++d) {
    const auto& ft = fgrid.device(d).trace();
    const auto& mt = mgrid.device(d).trace();
    ASSERT_EQ(ft.size(), mt.size()) << "device " << d;
    for (std::size_t i = 0; i < ft.size(); ++i) {
      EXPECT_EQ(ft[i].name, mt[i].name) << "device " << d << " event " << i;
      EXPECT_EQ(ft[i].t_start, mt[i].t_start);
      EXPECT_EQ(ft[i].t_end, mt[i].t_end);
      EXPECT_EQ(ft[i].blocks, mt[i].blocks);
    }
  }

  // The link ops are visible in the combined chrome trace.
  const std::string trace = grid_trace_json(mgrid);
  EXPECT_NE(trace.find("link_r_triangle"), std::string::npos);
  EXPECT_NE(trace.find("link_c_slice"), std::string::npos);
}

TEST(DistCaqr, CommVolumeAccountsTriangleAndSlices) {
  // Single panel (n == panel_width), no trailing matrix: the factor ships
  // exactly one R triangle; form_q then round-trips one w-row slice of the
  // n-column Q seed per cross level.
  const idx m = 128, n = 8;
  const auto a = matrix_with_condition<double>(m, n, 1e2, 13);
  DistCaqrOptions dopt;
  dopt.panel_width = n;
  dopt.tsqr.block_rows = 16;
  DeviceGrid grid(2);
  auto f = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), 2), dopt);

  auto s = grid.comm_stats();
  EXPECT_EQ(s.transfers, 1);
  EXPECT_DOUBLE_EQ(s.bytes, 0.5 * n * (n + 1) * sizeof(double));

  (void)f.form_q(grid, n);
  s = grid.comm_stats();
  // + slice in and slice out for the one non-owner member.
  EXPECT_EQ(s.transfers, 3);
  EXPECT_DOUBLE_EQ(s.bytes, 0.5 * n * (n + 1) * sizeof(double) +
                                2.0 * n * n * sizeof(double));
}

// ---------------------------------------------------------- plan cache

TEST(PlanCacheDist, GridFingerprintAndCountKeyPlans) {
  serve::PlanCache cache(8);
  DeviceGrid grid4(4, GpuMachineModel::c2050(),
                   InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  auto first = cache.lookup_dist<double>(grid4, 8192, 64);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(first.plan->key.devices, 4);
  EXPECT_EQ(first.plan->key.model_fingerprint, grid4.fingerprint());
  EXPECT_EQ(first.plan->chosen, QrAlgorithm::Caqr);
  EXPECT_GT(first.plan->predicted_caqr_seconds, 0.0);
  EXPECT_EQ(first.plan->dist_caqr.panel_width, first.plan->tuned.panel_width);

  // Same grid geometry: hit, identical plan object.
  DeviceGrid same(4, GpuMachineModel::c2050(),
                  InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  auto second = cache.lookup_dist<double>(same, 8192, 64);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());

  // Different link model, device count, or dtype: self-invalidating miss.
  DeviceGrid nv4(4, GpuMachineModel::c2050(), InterconnectModel::nvlink(),
                 ExecMode::ModelOnly);
  EXPECT_FALSE(cache.lookup_dist<double>(nv4, 8192, 64).hit);
  DeviceGrid grid8(8, GpuMachineModel::c2050(),
                   InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  EXPECT_FALSE(cache.lookup_dist<double>(grid8, 8192, 64).hit);
  EXPECT_FALSE(cache.lookup_dist<float>(grid4, 8192, 64).hit);
  // The single-device path never collides with grid keys.
  EXPECT_FALSE(
      cache.lookup<double>(GpuMachineModel::c2050(), 8192, 64).hit);
}

// ------------------------------------------------------------- grid FT

TEST(GridFt, DropRecoveryIsBitIdenticalAndCounted) {
  const idx m = 256, n = 24;
  const auto a = matrix_with_condition<double>(m, n, 1e5, 21);
  DistCaqrOptions dopt;
  dopt.panel_width = 8;
  dopt.tsqr.block_rows = 32;

  DeviceGrid clean(4);
  auto cf = DistCaqrFactorization<double>::factor(
      clean, DistMatrix<double>::scatter(a.view(), 4), dopt);
  const Matrix<double> cq = cf.form_q(clean, n).gather();

  DeviceGrid faulty(4);
  GridFtOptions gft;
  gft.link_faults.p_drop = 0.1;
  gft.link_faults.seed = 7;
  faulty.set_fault_tolerance(gft);
  auto ff = DistCaqrFactorization<double>::factor(
      faulty, DistMatrix<double>::scatter(a.view(), 4), dopt);
  const Matrix<double> fq = ff.form_q(faulty, n).gather();

  // Seeded drops really fired, were detected, and were resent.
  const auto s = faulty.comm_stats();
  ASSERT_GT(s.injected_drops, 0);
  EXPECT_EQ(s.checksum_mismatches, s.injected_drops);
  EXPECT_GE(s.retried_transfers, s.injected_drops);
  EXPECT_EQ(s.failed_transfers, 0);
  EXPECT_EQ(ff.status().severity, ft::Severity::Corrected);
  EXPECT_GT(ff.status().corrected_transfers, 0);
  EXPECT_GE(ff.status().transfer_retries, ff.status().corrected_transfers);

  // A resend ships the sender's intact bytes: recovery is invisible to the
  // numbers, bit for bit.
  expect_bits_equal(cf.r(), ff.r(), "R under recovered drops");
  expect_bits_equal(cq, fq, "Q under recovered drops");
}

TEST(GridFt, ModelOnlyTimelineMatchesFunctionalUnderDrops) {
  const idx m = 256, n = 16;
  const auto a = matrix_with_condition<double>(m, n, 1e3, 3);
  DistCaqrOptions dopt;
  dopt.tsqr.block_rows = 32;
  GridFtOptions gft;
  gft.link_faults.p_drop = 0.15;
  gft.link_faults.seed = 11;

  DeviceGrid fgrid(4, GpuMachineModel::c2050(),
                   InterconnectModel::pcie_switch(), ExecMode::Functional);
  fgrid.set_fault_tolerance(gft);
  auto ff = DistCaqrFactorization<double>::factor(
      fgrid, DistMatrix<double>::scatter(a.view(), 4), dopt);
  (void)ff.form_q(fgrid, n);

  DeviceGrid mgrid(4, GpuMachineModel::c2050(),
                   InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  mgrid.set_fault_tolerance(gft);
  auto mf = DistCaqrFactorization<double>::factor(
      mgrid, DistMatrix<double>::shape_only(m, n, 4), dopt);
  (void)mf.form_q(mgrid, n);

  // Fault decisions key on (seed, transfer ordinal), and ModelOnly flags
  // injected corruption without bytes: the whole recovery trajectory —
  // resends, backoff charges, counters — replays identically.
  const auto fs = fgrid.comm_stats();
  const auto ms = mgrid.comm_stats();
  ASSERT_GT(fs.injected_drops, 0);
  EXPECT_EQ(fs.injected_drops, ms.injected_drops);
  EXPECT_EQ(fs.retried_transfers, ms.retried_transfers);
  EXPECT_EQ(fs.checksum_mismatches, ms.checksum_mismatches);
  ASSERT_EQ(fgrid.comm_log().size(), mgrid.comm_log().size());
  for (std::size_t i = 0; i < fgrid.comm_log().size(); ++i) {
    EXPECT_EQ(fgrid.comm_log()[i].label, mgrid.comm_log()[i].label);
    EXPECT_EQ(fgrid.comm_log()[i].seconds, mgrid.comm_log()[i].seconds);
    EXPECT_EQ(fgrid.comm_log()[i].start, mgrid.comm_log()[i].start);
  }
  EXPECT_EQ(fgrid.elapsed_seconds(), mgrid.elapsed_seconds());
}

TEST(GridFt, DeadPeerTransferFailsTypedAfterTimeout) {
  DeviceGrid grid(2);
  grid.kill_device(1);
  EXPECT_EQ(grid.num_alive(), 1);

  Matrix<double> src(4, 4);
  Matrix<double> dst(4, 4);
  src.view().fill(1.0);
  const double before = grid.device(0).elapsed_seconds();
  const TransferResult r = grid.transfer_payload<double>(
      0, 1, 128.0, "link_test", src.as_const(), dst.view());
  EXPECT_TRUE(r.peer_dead);
  EXPECT_EQ(r.dead_device, 1);
  EXPECT_EQ(r.severity, ft::Severity::Unrecovered);
  EXPECT_FALSE(r.ok());
  // The survivor waited out the configured timeout — charged, then typed
  // failure. Never a hang.
  const double timeout = grid.fault_tolerance().rendezvous_timeout_us * 1e-6;
  EXPECT_NEAR(grid.device(0).elapsed_seconds(), before + timeout, 1e-12);
  EXPECT_EQ(grid.comm_stats().rendezvous_timeouts, 1);
  EXPECT_EQ(grid.comm_stats().failed_transfers, 1);

  // The legacy double-returning API surfaces the same condition as a typed
  // exception.
  EXPECT_THROW(grid.transfer(0, 1, 128.0), DeviceLostError);
}

TEST(GridFt, KillDeviceChangesFingerprintAndDegradesPlans) {
  DeviceGrid grid(4, GpuMachineModel::c2050(),
                  InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  serve::PlanCache cache(8);
  const auto healthy = cache.lookup_dist<double>(grid, 8192, 64);
  EXPECT_EQ(healthy.plan->key.devices, 4);
  const std::uint64_t fp0 = grid.fingerprint();

  grid.kill_device(2);
  EXPECT_NE(grid.fingerprint(), fp0);
  EXPECT_EQ(grid.num_alive(), 3);
  EXPECT_EQ(grid.live_devices(), (std::vector<int>{0, 1, 3}));

  // Health is part of the plan key: the stale 4-device plan stops matching
  // and the fresh plan routes shards onto the survivors only.
  const auto degraded = cache.lookup_dist<double>(grid, 8192, 64);
  EXPECT_FALSE(degraded.hit);
  EXPECT_EQ(degraded.plan->key.devices, 3);
  EXPECT_EQ(degraded.plan->dist_caqr.devices, (std::vector<int>{0, 1, 3}));
  // Idempotent kill: no further generation bump.
  const std::uint64_t fp1 = grid.fingerprint();
  grid.kill_device(2);
  EXPECT_EQ(grid.fingerprint(), fp1);
}

TEST(GridFt, FaultCountersExportedInGridTrace) {
  const idx m = 128, n = 8;
  const auto a = matrix_with_condition<double>(m, n, 1e2, 13);
  DistCaqrOptions dopt;
  dopt.panel_width = n;
  dopt.tsqr.block_rows = 16;
  DeviceGrid grid(2);
  GridFtOptions gft;
  gft.link_faults.p_drop = 0.5;
  gft.link_faults.seed = 3;
  grid.set_fault_tolerance(gft);
  auto f = DistCaqrFactorization<double>::factor(
      grid, DistMatrix<double>::scatter(a.view(), 2), dopt);
  (void)f.form_q(grid, n);

  const std::string trace = grid_trace_json(grid);
  // One process per device: device 1's launches are pid 1.
  EXPECT_NE(trace.find("\"ph\":\"X\",\"pid\":1,"), std::string::npos);
  EXPECT_NE(trace.find("\"commStats\""), std::string::npos);
  EXPECT_NE(trace.find("\"retried_transfers\""), std::string::npos);
  EXPECT_NE(trace.find("\"checksum_mismatches\""), std::string::npos);
  EXPECT_NE(trace.find("\"injected_drops\""), std::string::npos);
  // Recovery traffic is first-class in the trace: the resend op carries a
  // "_retry" label on both endpoints.
  if (grid.comm_stats().retried_transfers > 0) {
    EXPECT_NE(trace.find("_retry"), std::string::npos);
  }
}

TEST(PlanCacheDist, FasterLinkPredictsFasterPlan) {
  DeviceGrid pcie(8, GpuMachineModel::c2050(),
                  InterconnectModel::pcie_switch(), ExecMode::ModelOnly);
  DeviceGrid nvlink(8, GpuMachineModel::c2050(), InterconnectModel::nvlink(),
                    ExecMode::ModelOnly);
  const auto slow = serve::make_dist_plan<double>(pcie, 1 << 16, 128);
  const auto fast = serve::make_dist_plan<double>(nvlink, 1 << 16, 128);
  EXPECT_LT(fast.predicted_caqr_seconds, slow.predicted_caqr_seconds);
}

}  // namespace
}  // namespace caqr::dist
