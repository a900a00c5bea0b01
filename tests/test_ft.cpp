// Fault-tolerance subsystem tests (src/ft/): ABFT detection inside
// Device::launch, bounded retry / panel redo / schedule fallback recovery,
// performance-model charging of the checks, checkpoint/restart for CAQR and
// Robust PCA, and the injector's targeting knobs.
//
// Suite names deliberately avoid the numerics-checks CI filter
// (Verifier|FiniteCheck|...|FaultInjection): these tests exercise the
// recovery machinery, not the assertion-heavy numerics build.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "caqr/caqr.hpp"
#include "dist/device_grid.hpp"
#include "dist/dist_caqr.hpp"
#include "dist/grid_ft.hpp"
#include "ft/checkpoint.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/verifier.hpp"
#include "rpca/rpca.hpp"

namespace caqr {
namespace {

using gpusim::Device;
using gpusim::ExecMode;
using gpusim::FaultOptions;

ft::FtOptions abft_on(int launch_retries = 8, int panel_retries = 2) {
  ft::FtOptions f;
  f.abft = true;
  f.max_launch_retries = launch_retries;
  f.max_panel_retries = panel_retries;
  return f;
}

FaultOptions inject(double p_drop, double p_flip, std::uint64_t seed) {
  FaultOptions f;
  f.p_block_drop = p_drop;
  f.p_bitflip = p_flip;
  f.seed = seed;
  return f;
}

CaqrOptions small_caqr(CaqrSchedule sched) {
  CaqrOptions copt;
  copt.schedule = sched;
  copt.panel_width = 8;
  copt.tsqr.block_rows = 16;
  return copt;
}

struct CaqrRun {
  Matrix<double> q{0, 0};
  Matrix<double> r{0, 0};
  ft::RunStatus status;
  ft::Summary device_summary;
  std::size_t faults = 0;
};

CaqrRun run_caqr(const Matrix<double>& a, const CaqrOptions& copt,
                 const ft::FtOptions& ftopt, const FaultOptions& faults) {
  Device dev;
  dev.set_fault_injection(faults);
  dev.set_fault_tolerance(ftopt);
  auto f =
      CaqrFactorization<double>::factor(dev, Matrix<double>::from(a.view()), copt);
  CaqrRun out;
  out.status = f.status();
  out.q = f.form_q(dev, a.cols());
  out.r = f.r();
  out.device_summary = dev.ft_summary();
  out.faults = dev.fault_log().size();
  return out;
}

void expect_bit_identical(const Matrix<double>& x, const Matrix<double>& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  for (idx j = 0; j < x.cols(); ++j) {
    ASSERT_EQ(std::memcmp(x.view().col(j), y.view().col(j),
                          sizeof(double) * static_cast<std::size_t>(x.rows())),
              0)
        << "column " << j << " differs bitwise";
  }
}

// ---- ABFT: no false positives, bit-transparent when clean ------------------

TEST(FtAbft, CleanSweepNoFalsePositives) {
  for (CaqrSchedule sched : {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
    for (double scale : {1e-300, 1.0, 1e300}) {
      Matrix<double> a = stress_matrix<double>(128, 16, 1e10, scale, 91, false);
      const CaqrRun run =
          run_caqr(a, small_caqr(sched), abft_on(), FaultOptions{});
      EXPECT_EQ(run.status.severity, ft::Severity::Ok)
          << "schedule " << static_cast<int>(sched) << " scale " << scale;
      EXPECT_EQ(run.device_summary.corrected_launches, 0);
      EXPECT_EQ(run.device_summary.unrecovered_launches, 0);
      EXPECT_GT(run.device_summary.guarded_launches, 0);
      EXPECT_TRUE(
          numerics::verify_qr(a.view(), run.q.view(), run.r.view()).pass);
    }
  }
}

TEST(FtAbft, CleanResultBitIdenticalToUnguardedRun) {
  const auto a = matrix_with_condition<double>(160, 24, 1e6, 92);
  const CaqrOptions copt = small_caqr(CaqrSchedule::Serial);
  const CaqrRun plain = run_caqr(a, copt, ft::FtOptions{}, FaultOptions{});
  const CaqrRun guarded = run_caqr(a, copt, abft_on(), FaultOptions{});
  expect_bit_identical(plain.r, guarded.r);
  expect_bit_identical(plain.q, guarded.q);
}

// Regression guard for the arena-backed, contiguity-staged kernels: across
// the stress sweep's 1e±300 column scalings, a run that recovers from block
// drops through ABFT retries must land on EXACTLY the bits of the fault-free
// unguarded run — drops are always above detection tolerance, recovery
// replays the same deterministic kernels on restored inputs, and staging
// changes layout, not arithmetic. (Bitflips are excluded: a flip below the
// checksum tolerance is legitimately left in place.)
TEST(FtRecovery, RecoveredResultBitIdenticalToFaultFreeAcrossScales) {
  for (double scale : {1e-300, 1.0, 1e300}) {
    Matrix<double> a = stress_matrix<double>(128, 16, 1e8, scale, 97, false);
    const CaqrOptions copt = small_caqr(CaqrSchedule::Serial);
    const CaqrRun clean = run_caqr(a, copt, ft::FtOptions{}, FaultOptions{});
    const CaqrRun rec =
        run_caqr(a, copt, abft_on(), inject(0.08, 0.0, 4243));
    EXPECT_GT(rec.faults, 0u) << "scale " << scale;
    EXPECT_TRUE(rec.status.ok()) << "scale " << scale;
    expect_bit_identical(clean.r, rec.r);
    expect_bit_identical(clean.q, rec.q);
  }
}

// ---- Detection and recovery ------------------------------------------------

TEST(FtRecovery, DetectionOnlyReportsSameSeedRecoversWithRetries) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 93);
  const FaultOptions faults = inject(0.05, 0.5, 4243);

  // Retries disabled: the run completes (never aborts) but the corruption is
  // detected and reported as unrecovered.
  const CaqrRun detect =
      run_caqr(a, small_caqr(CaqrSchedule::Serial), abft_on(0, 0), faults);
  EXPECT_GT(detect.faults, 0u);
  EXPECT_EQ(detect.status.severity, ft::Severity::Unrecovered);
  EXPECT_FALSE(detect.status.ok());
  EXPECT_GT(detect.device_summary.unrecovered_launches, 0);

  // Same injector seed, retries on: fully recovered and numerically clean.
  const CaqrRun recover =
      run_caqr(a, small_caqr(CaqrSchedule::Serial), abft_on(), faults);
  EXPECT_GT(recover.faults, 0u);
  EXPECT_TRUE(recover.status.ok());
  EXPECT_EQ(recover.device_summary.unrecovered_launches, 0);
  EXPECT_TRUE(
      numerics::verify_qr(a.view(), recover.q.view(), recover.r.view()).pass);
}

TEST(FtRecovery, DetectionReportsCarryLaunchDiagnostics) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 94);
  Device dev;
  dev.set_fault_injection(inject(0.0, 1.0, 11));  // flip every launch
  dev.set_fault_tolerance(abft_on(0, 0));         // detect only
  auto f = CaqrFactorization<double>::factor(dev,
                                             Matrix<double>::from(a.view()),
                                             small_caqr(CaqrSchedule::Serial));
  (void)f;
  ASSERT_FALSE(dev.ft_reports().empty());
  for (const auto& rep : dev.ft_reports()) {
    EXPECT_FALSE(rep.kernel.empty());
    EXPECT_GE(rep.launch_ordinal, 0);
    EXPECT_EQ(rep.severity, ft::Severity::Unrecovered);
  }
  dev.clear_ft_reports();
  EXPECT_TRUE(dev.ft_reports().empty());
}

TEST(FtRecovery, BlockDropsRecoverOnBothSchedules) {
  const auto a = matrix_with_condition<double>(192, 24, 1e8, 95);
  for (CaqrSchedule sched : {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
    const CaqrRun run =
        run_caqr(a, small_caqr(sched), abft_on(), inject(0.05, 0.0, 777));
    EXPECT_GT(run.faults, 0u);
    EXPECT_TRUE(run.status.ok());
    EXPECT_EQ(run.device_summary.unrecovered_launches, 0);
    EXPECT_TRUE(
        numerics::verify_qr(a.view(), run.q.view(), run.r.view()).pass);
  }
}

TEST(FtRecovery, BitflipsRecoverOnBothSchedules) {
  const auto a = matrix_with_condition<double>(192, 24, 1e8, 96);
  for (CaqrSchedule sched : {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
    const CaqrRun run =
        run_caqr(a, small_caqr(sched), abft_on(), inject(0.0, 0.5, 778));
    EXPECT_GT(run.faults, 0u);
    EXPECT_TRUE(run.status.ok());
    EXPECT_EQ(run.device_summary.unrecovered_launches, 0);
    EXPECT_TRUE(
        numerics::verify_qr(a.view(), run.q.view(), run.r.view()).pass);
  }
}

TEST(FtRecovery, RecoveryIsDeterministicUnderFixedSeed) {
  const auto a = matrix_with_condition<double>(160, 16, 1e4, 97);
  const FaultOptions faults = inject(0.05, 0.5, 5150);
  const CaqrOptions copt = small_caqr(CaqrSchedule::LookAhead);
  const CaqrRun r1 = run_caqr(a, copt, abft_on(), faults);
  const CaqrRun r2 = run_caqr(a, copt, abft_on(), faults);
  EXPECT_EQ(r1.faults, r2.faults);
  EXPECT_EQ(r1.device_summary.corrected_launches,
            r2.device_summary.corrected_launches);
  expect_bit_identical(r1.r, r2.r);
  expect_bit_identical(r1.q, r2.q);
  // (The recovered result is NOT asserted bit-identical to a fault-free run:
  // a flip in a low-order mantissa bit can sit below the ABFT detection
  // threshold, in which case it is deliberately left in place — the
  // verifier bounds, checked above in the recovery tests, are the
  // contract.)
}

TEST(FtRecovery, PanelRedoRecoversExhaustedLaunchRetries) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 98);
  // Drop every block of every "factor" launch until the fault budget runs
  // out: the first panel's factor launch fails, its single in-place retry
  // fails again, then the panel-level redo replays the whole panel against
  // an exhausted injector and succeeds.
  FaultOptions faults = inject(1.0, 0.0, 12);
  faults.only_kernel = "factor";
  faults.max_faults = 16;  // first launch (8 blocks) + one full retry
  const CaqrRun run =
      run_caqr(a, small_caqr(CaqrSchedule::Serial), abft_on(1, 1), faults);
  EXPECT_EQ(run.faults, 16u);
  EXPECT_GT(run.status.panel_retries, 0);
  EXPECT_EQ(run.status.severity, ft::Severity::Corrected);
  EXPECT_TRUE(
      numerics::verify_qr(a.view(), run.q.view(), run.r.view()).pass);
}

TEST(FtRecovery, LookAheadFallsBackToSerialWhenPanelStaysPoisoned) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 99);
  // No panel redo budget: once launch retries are exhausted the look-ahead
  // run is poisoned, and the factorization restarts under the Serial
  // schedule from the saved input (injector exhausted by then).
  FaultOptions faults = inject(1.0, 0.0, 13);
  faults.only_kernel = "factor";
  faults.max_faults = 16;
  const CaqrRun run =
      run_caqr(a, small_caqr(CaqrSchedule::LookAhead), abft_on(1, 0), faults);
  EXPECT_TRUE(run.status.schedule_fallback);
  EXPECT_EQ(run.status.severity, ft::Severity::Corrected);
  EXPECT_TRUE(run.status.ok());
  EXPECT_TRUE(
      numerics::verify_qr(a.view(), run.q.view(), run.r.view()).pass);

  // Same faults and schedule, fallback disabled: the run ends unrecovered
  // (but still returns).
  ft::FtOptions no_fallback = abft_on(1, 0);
  no_fallback.schedule_fallback = false;
  const CaqrRun stuck =
      run_caqr(a, small_caqr(CaqrSchedule::LookAhead), no_fallback, faults);
  EXPECT_FALSE(stuck.status.schedule_fallback);
  EXPECT_EQ(stuck.status.severity, ft::Severity::Unrecovered);
}

TEST(FtRecovery, RobustPcaCompletesUnderFaults) {
  LowRankPlusSparse spec;
  spec.rank = 4;
  spec.sparse_fraction = 0.05;
  spec.sparse_magnitude = 1.0;
  auto planted = planted_low_rank_plus_sparse<double>(200, 30, spec, 101);

  rpca::RpcaOptions opt;
  opt.max_iterations = 60;

  Device clean_dev;
  const auto clean = rpca::robust_pca(clean_dev, planted.observed.view(), opt);
  ASSERT_TRUE(clean.converged);

  Device dev;
  dev.set_fault_injection(inject(0.02, 0.3, 4321));
  dev.set_fault_tolerance(abft_on());
  const auto res = rpca::robust_pca(dev, planted.observed.view(), opt);
  EXPECT_GT(dev.fault_log().size(), 0u);
  EXPECT_EQ(dev.ft_summary().unrecovered_launches, 0);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.residual, opt.tolerance);
  // Sub-threshold (undetectable) flips may survive recovery, so the result
  // is compared to the fault-free decomposition numerically, not bitwise.
  double diff2 = 0.0, ref2 = 0.0;
  for (idx j = 0; j < clean.low_rank.cols(); ++j) {
    for (idx i = 0; i < clean.low_rank.rows(); ++i) {
      const double d = res.low_rank(i, j) - clean.low_rank(i, j);
      diff2 += d * d;
      ref2 += clean.low_rank(i, j) * clean.low_rank(i, j);
    }
  }
  EXPECT_LE(std::sqrt(diff2), 1e-6 * std::sqrt(ref2));
}

// ---- Performance-model charging --------------------------------------------

TEST(FtModel, AbftCostChargedInModelOnly) {
  CaqrOptions copt = small_caqr(CaqrSchedule::Serial);

  Device base(gpusim::GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto f0 = CaqrFactorization<double>::factor(
      base, Matrix<double>::shape_only(4096, 64), copt);
  (void)f0;
  const double t_off = base.elapsed_seconds();
  EXPECT_EQ(base.profile("factor_abft"), nullptr);

  Device dev(gpusim::GpuMachineModel::c2050(), ExecMode::ModelOnly);
  dev.set_fault_tolerance(abft_on());
  auto f1 = CaqrFactorization<double>::factor(
      dev, Matrix<double>::shape_only(4096, 64), copt);
  (void)f1;
  const double t_on = dev.elapsed_seconds();

  // Every guarded kernel shows its checksum traffic as a distinct op.
  for (const char* op : {"factor_abft", "factor_tree_abft", "apply_qt_h_abft",
                         "apply_qt_tree_abft"}) {
    const auto* p = dev.profile(op);
    ASSERT_NE(p, nullptr) << op;
    EXPECT_GT(p->seconds, 0.0) << op;
  }
  EXPECT_GT(t_on, t_off);
}

TEST(FtModel, TimelineUnchangedWithFtOff) {
  CaqrOptions copt = small_caqr(CaqrSchedule::LookAhead);
  Device base(gpusim::GpuMachineModel::c2050(), ExecMode::ModelOnly);
  auto f0 = CaqrFactorization<double>::factor(
      base, Matrix<double>::shape_only(4096, 64), copt);
  (void)f0;

  Device dev(gpusim::GpuMachineModel::c2050(), ExecMode::ModelOnly);
  dev.set_fault_tolerance(ft::FtOptions{});  // explicit default: FT off
  auto f1 = CaqrFactorization<double>::factor(
      dev, Matrix<double>::shape_only(4096, 64), copt);
  (void)f1;
  EXPECT_EQ(base.elapsed_seconds(), dev.elapsed_seconds());  // bitwise
}

// ---- Checkpoint / restart --------------------------------------------------

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// Writes every section of `src` to `path` (a fresh, checksum-valid file),
// with section `name`'s payload replaced by `bytes`.
void write_with_section(const ft::CheckpointReader& src,
                        const std::string& path, const std::string& name,
                        const std::string& bytes) {
  ft::CheckpointWriter w;
  for (const std::string& s : src.section_names()) {
    std::vector<char> raw;
    ASSERT_TRUE(src.vec(s, raw)) << s;
    if (s == name) {
      w.bytes(s, bytes.data(), bytes.size());
    } else {
      w.bytes(s, raw.data(), raw.size());
    }
  }
  ASSERT_TRUE(w.write(path));
}

TEST(FtCheckpoint, CaqrHaltAndResumeBitIdentical) {
  const auto a = matrix_with_condition<double>(192, 32, 1e6, 102);
  for (CaqrSchedule sched : {CaqrSchedule::Serial, CaqrSchedule::LookAhead}) {
    const std::string path = temp_path(sched == CaqrSchedule::Serial
                                           ? "ft_ckpt_serial.bin"
                                           : "ft_ckpt_lookahead.bin");
    std::remove(path.c_str());

    CaqrOptions copt = small_caqr(sched);
    const CaqrRun full = run_caqr(a, copt, ft::FtOptions{}, FaultOptions{});

    // Run 1: checkpoint every panel, simulate a kill after panel 2 of 4.
    copt.checkpoint_path = path;
    copt.halt_after_panels = 2;
    Device d1;
    auto f1 = CaqrFactorization<double>::factor(
        d1, Matrix<double>::from(a.view()), copt);
    EXPECT_TRUE(f1.halted());
    EXPECT_FALSE(f1.status().resumed_from_checkpoint);

    // Run 2: fresh device and input, same checkpoint path, no halt.
    copt.halt_after_panels = 0;
    Device d2;
    auto f2 = CaqrFactorization<double>::factor(
        d2, Matrix<double>::from(a.view()), copt);
    EXPECT_FALSE(f2.halted());
    EXPECT_TRUE(f2.status().resumed_from_checkpoint);
    EXPECT_EQ(f2.status().resumed_at_panel, 2);

    const Matrix<double> q = f2.form_q(d2, a.cols());
    expect_bit_identical(full.r, f2.r());
    expect_bit_identical(full.q, q);
    std::remove(path.c_str());
  }
}

TEST(FtCheckpoint, CorruptOrTruncatedCheckpointFallsBackToCleanStart) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 103);
  const std::string path = temp_path("ft_ckpt_corrupt.bin");
  std::remove(path.c_str());

  CaqrOptions copt = small_caqr(CaqrSchedule::Serial);
  copt.checkpoint_path = path;
  copt.halt_after_panels = 1;
  {
    Device dev;
    auto f = CaqrFactorization<double>::factor(
        dev, Matrix<double>::from(a.view()), copt);
    ASSERT_TRUE(f.halted());
  }
  copt.halt_after_panels = 0;
  const auto valid = ft::CheckpointReader::load(path);
  ASSERT_TRUE(valid.has_value());

  // Flip one payload byte: the checksum mismatch must reject the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  {
    Device dev;
    auto f = CaqrFactorization<double>::factor(
        dev, Matrix<double>::from(a.view()), copt);
    EXPECT_FALSE(f.status().resumed_from_checkpoint);
    const Matrix<double> q = f.form_q(dev, a.cols());
    EXPECT_TRUE(numerics::verify_qr(a.view(), q.view(), f.r().view()).pass);
  }

  // Truncate the file mid-payload: the size check must reject it too.
  {
    std::FILE* src = std::fopen(path.c_str(), "rb");
    ASSERT_NE(src, nullptr);
    std::fseek(src, 0, SEEK_END);
    const long size = std::ftell(src);
    std::fseek(src, 0, SEEK_SET);
    std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), src), bytes.size());
    std::fclose(src);
    std::FILE* dst = std::fopen(path.c_str(), "wb");
    ASSERT_NE(dst, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, dst);
    std::fclose(dst);
  }
  {
    Device dev;
    auto f = CaqrFactorization<double>::factor(
        dev, Matrix<double>::from(a.view()), copt);
    EXPECT_FALSE(f.status().resumed_from_checkpoint);
    const Matrix<double> q = f.form_q(dev, a.cols());
    EXPECT_TRUE(numerics::verify_qr(a.view(), q.view(), f.r().view()).pass);
  }

  // Checksum-valid files whose contents do not fit this run: the resume
  // must check every shape the kernels index by, not trust the file. The
  // unmodified rewrite shows the crafted files are otherwise resumable.
  auto raw = [&](const std::string& name) {
    std::vector<char> bytes;
    EXPECT_TRUE(valid->vec(name, bytes)) << name;
    return std::string(bytes.begin(), bytes.end());
  };
  std::string short_a;  // a 64 x 16 "a" section for a 128 x 16 run
  {
    const std::int64_t dims[2] = {64, a.cols()};
    short_a.append(reinterpret_cast<const char*>(dims), sizeof(dims));
    for (idx j = 0; j < a.cols(); ++j) {
      short_a.append(reinterpret_cast<const char*>(a.view().col(j)),
                     64 * sizeof(double));
    }
  }
  std::string short_taus = raw("p0.taus0");
  short_taus.resize(short_taus.size() - sizeof(double));
  std::string far_group = raw("p0.l0.gdata");
  const idx outside = 1 << 20;  // a group row far below the 128-row panel
  std::memcpy(far_group.data() + far_group.size() - sizeof(idx), &outside,
              sizeof(idx));
  struct Crafted {
    const char* what;
    std::string section, bytes;
    bool resumes;
  };
  const Crafted cases[] = {
      {"unmodified", "done", raw("done"), true},
      {"wrong a shape", "a", short_a, false},
      {"short taus0", "p0.taus0", short_taus, false},
      {"group row outside the panel", "p0.l0.gdata", far_group, false},
  };
  for (const Crafted& c : cases) {
    SCOPED_TRACE(c.what);
    write_with_section(*valid, path, c.section, c.bytes);
    Device dev;
    auto f = CaqrFactorization<double>::factor(
        dev, Matrix<double>::from(a.view()), copt);
    EXPECT_EQ(f.status().resumed_from_checkpoint, c.resumes);
    const Matrix<double> q = f.form_q(dev, a.cols());
    EXPECT_TRUE(numerics::verify_qr(a.view(), q.view(), f.r().view()).pass);
  }
  std::remove(path.c_str());
}

TEST(FtCheckpoint, CheckpointRoundTripPreservesSections) {
  const std::string path = temp_path("ft_ckpt_roundtrip.bin");
  std::remove(path.c_str());

  Matrix<double> m(3, 2);
  for (idx j = 0; j < 2; ++j)
    for (idx i = 0; i < 3; ++i) m(i, j) = 10.0 * static_cast<double>(j) + i;

  ft::CheckpointWriter w;
  w.scalar("answer", static_cast<std::int64_t>(42));
  w.scalar("pi", 3.25);
  w.vec("taus", std::vector<double>{1.0, -2.5, 0.125});
  w.matrix("m", m.view());
  ASSERT_TRUE(w.write(path));

  const auto r = ft::CheckpointReader::load(path);
  ASSERT_TRUE(r.has_value());
  std::int64_t answer = 0;
  double pi = 0;
  std::vector<double> taus;
  Matrix<double> m2;
  ASSERT_TRUE(r->scalar("answer", answer));
  ASSERT_TRUE(r->scalar("pi", pi));
  ASSERT_TRUE(r->vec("taus", taus));
  ASSERT_TRUE(r->matrix("m", m2));
  EXPECT_EQ(answer, 42);
  EXPECT_EQ(pi, 3.25);
  EXPECT_EQ(taus, (std::vector<double>{1.0, -2.5, 0.125}));
  expect_bit_identical(m, m2);
  EXPECT_FALSE(r->has("missing"));
  std::remove(path.c_str());
}

// Empty sections round-trip without copying from or to a null pointer (the
// sanitizer build flags memcpy on null even for zero bytes).
TEST(FtCheckpoint, EmptySectionsRoundTrip) {
  const std::string path = temp_path("ft_ckpt_empty.bin");
  std::remove(path.c_str());

  ft::CheckpointWriter w;
  w.vec("none", std::vector<double>{});
  w.matrix("flat", Matrix<float>(0, 3).view());
  ASSERT_TRUE(w.write(path));

  const auto r = ft::CheckpointReader::load(path);
  ASSERT_TRUE(r.has_value());
  std::vector<double> none{7.0};
  Matrix<float> flat;
  ASSERT_TRUE(r->vec("none", none));
  ASSERT_TRUE(r->matrix("flat", flat));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(flat.rows(), 0);
  EXPECT_EQ(flat.cols(), 3);
  std::remove(path.c_str());
}

TEST(FtCheckpoint, RpcaHaltAndResumeBitIdentical) {
  LowRankPlusSparse spec;
  spec.rank = 3;
  spec.sparse_fraction = 0.05;
  auto planted = planted_low_rank_plus_sparse<double>(160, 24, spec, 104);
  const std::string path = temp_path("ft_ckpt_rpca.bin");
  std::remove(path.c_str());

  rpca::RpcaOptions opt;
  opt.max_iterations = 40;

  Device clean_dev;
  const auto full = rpca::robust_pca(clean_dev, planted.observed.view(), opt);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 4);

  opt.checkpoint_path = path;
  opt.halt_after_iterations = 3;
  {
    Device dev;
    const auto part = rpca::robust_pca(dev, planted.observed.view(), opt);
    EXPECT_FALSE(part.converged);
    EXPECT_EQ(part.iterations, 3);
    EXPECT_FALSE(part.resumed_from_checkpoint);
  }
  opt.halt_after_iterations = 0;
  {
    Device dev;
    const auto res = rpca::robust_pca(dev, planted.observed.view(), opt);
    EXPECT_TRUE(res.resumed_from_checkpoint);
    EXPECT_EQ(res.resumed_at_iteration, 3);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, full.iterations);
    expect_bit_identical(full.sparse, res.sparse);
    expect_bit_identical(full.low_rank, res.low_rank);
  }
  std::remove(path.c_str());
}

// ---- Injector targeting knobs ----------------------------------------------

TEST(FtTargeting, MaxFaultsCapsTotalInjectedEvents) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 105);
  FaultOptions faults = inject(1.0, 1.0, 14);
  faults.max_faults = 1;
  Device dev;
  dev.set_fault_injection(faults);
  auto f = CaqrFactorization<double>::factor(dev,
                                             Matrix<double>::from(a.view()),
                                             small_caqr(CaqrSchedule::Serial));
  (void)f;
  EXPECT_EQ(dev.fault_log().size(), 1u);
}

TEST(FtTargeting, OnlyKernelRestrictsInjection) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 106);
  FaultOptions faults = inject(0.0, 1.0, 15);
  faults.only_kernel = "factor_tree";
  Device dev;
  dev.set_fault_injection(faults);
  auto f = CaqrFactorization<double>::factor(dev,
                                             Matrix<double>::from(a.view()),
                                             small_caqr(CaqrSchedule::Serial));
  (void)f;
  ASSERT_GT(dev.fault_log().size(), 0u);
  for (const auto& ev : dev.fault_log()) {
    EXPECT_EQ(ev.kernel, "factor_tree");
  }
}

TEST(FtTargeting, SingleDeterministicFaultIsRecovered) {
  const auto a = matrix_with_condition<double>(128, 16, 1e4, 107);
  FaultOptions faults = inject(0.0, 1.0, 16);
  faults.only_kernel = "factor";
  faults.max_faults = 1;
  const CaqrRun run =
      run_caqr(a, small_caqr(CaqrSchedule::Serial), abft_on(), faults);
  EXPECT_EQ(run.faults, 1u);
  EXPECT_TRUE(run.status.ok());
  EXPECT_TRUE(
      numerics::verify_qr(a.view(), run.q.view(), run.r.view()).pass);
}

// ---- Grid checkpoint + device-loss recovery (dist/grid_ft.hpp) -------------

dist::DistCaqrOptions small_dist(idx pw = 8, idx br = 16) {
  dist::DistCaqrOptions d;
  d.panel_width = pw;
  d.tsqr.block_rows = br;
  return d;
}

bool copy_file(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) return false;
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return false;
  }
  char buf[4096];
  std::size_t got = 0;
  bool ok = true;
  while ((got = std::fread(buf, 1, sizeof buf, in)) > 0) {
    ok = ok && std::fwrite(buf, 1, got, out) == got;
  }
  std::fclose(in);
  return std::fclose(out) == 0 && ok;
}

TEST(FtGridCheckpoint, SnapshotRoundTripPreservesDistState) {
  const idx m = 192, n = 32;
  const auto a = matrix_with_condition<double>(m, n, 1e5, 201);
  const std::string path = temp_path("grid_ckpt_roundtrip.bin");
  std::remove(path.c_str());

  dist::DeviceGrid grid(4);
  dist::GridRecoveryOptions ropt;
  ropt.checkpoint_every = 1;
  ropt.checkpoint_path = path;
  const auto res = dist::factor_with_recovery<double>(grid, a.view(),
                                                      small_dist(), ropt);
  ASSERT_TRUE(res.ok());

  // The file holds the final snapshot: all 4 panels, the partition in use,
  // and the packed working matrix — a DistMatrix restore in one read.
  const auto ck =
      dist::load_grid_checkpoint<double>(path, m, n, small_dist());
  ASSERT_TRUE(ck.valid);
  EXPECT_EQ(ck.done, n / small_dist().panel_width);
  EXPECT_EQ(ck.offsets, res.partition);
  ASSERT_EQ(ck.panels.size(), static_cast<std::size_t>(ck.done));
  expect_bit_identical(res.f->packed().gather(), ck.working);

  // Shape/dtype mismatches self-invalidate instead of resuming garbage.
  EXPECT_FALSE(
      dist::load_grid_checkpoint<double>(path, m + 1, n, small_dist()).valid);
  EXPECT_FALSE(
      dist::load_grid_checkpoint<double>(path, m, n, small_dist(16)).valid);
  EXPECT_FALSE(
      dist::load_grid_checkpoint<float>(path, m, n, small_dist()).valid);
  std::remove(path.c_str());
}

TEST(FtGridCheckpoint, MidReductionResumeAcrossRebuiltGrid) {
  const idx m = 192, n = 32;
  const auto a = matrix_with_condition<double>(m, n, 1e5, 202);
  const std::string path = temp_path("grid_ckpt_mid.bin");
  const std::string mid = temp_path("grid_ckpt_mid_copy.bin");
  std::remove(path.c_str());
  std::remove(mid.c_str());

  // Run 1 on a 4-device grid, stashing the on-disk snapshot as it looked
  // after panel 2 of 4 — a mid-reduction consistency point.
  dist::DeviceGrid grid4(4);
  dist::GridRecoveryOptions ropt;
  ropt.checkpoint_every = 1;
  ropt.checkpoint_path = path;
  const auto full = dist::factor_with_recovery<double>(
      grid4, a.view(), small_dist(), ropt,
      [&](const dist::DistCaqrFactorization<double>&, idx done) {
        if (done == 2) {
          ASSERT_TRUE(copy_file(path, mid));
        }
      });
  ASSERT_TRUE(full.ok());

  // Run 2: a REBUILT, smaller grid (as after losing half the machines)
  // resumes from the mid-run snapshot. The 4-shard partition is coarsened
  // to the 2 survivors; recorded row ranges stay contained, so panels 1-2
  // replay bit-identically and panels 3-4 are computed fresh.
  dist::DeviceGrid grid2(2);
  dist::GridRecoveryOptions r2;
  r2.checkpoint_every = 0;
  r2.checkpoint_path = mid;
  const auto resumed = dist::factor_with_recovery<double>(grid2, a.view(),
                                                          small_dist(), r2);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed.used_checkpoint);
  EXPECT_FALSE(resumed.used_recompute);
  EXPECT_EQ(static_cast<int>(resumed.partition.size()) - 1, 2);

  dist::DeviceGrid gq(2);
  const Matrix<double> q = resumed.f->form_q(gq, n).gather();
  EXPECT_TRUE(numerics::verify_qr(a.view(), q.view(), resumed.f->r().view())
                  .pass);
  // The leading panels came from the snapshot, so their R rows match the
  // 4-device run bit for bit.
  const auto& r4 = full.f->r();
  const auto& r2m = resumed.f->r();
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < std::min<idx>(16, j + 1); ++i) {
      ASSERT_EQ(r4(i, j), r2m(i, j)) << "replayed R differs at (" << i << ","
                                     << j << ")";
    }
  }
  std::remove(path.c_str());
  std::remove(mid.c_str());
}

// Checksum-valid copies of a mid-run grid snapshot whose contents do not fit
// the run must fall back to a clean start: load_grid_checkpoint checks every
// shape the resume indexes storage by instead of trusting the file.
class FtGridCheckpointCrafted : public testing::Test {
 protected:
  static constexpr idx m = 192, n = 32;

  void SetUp() override {
    // One file per test: ctest runs the cases in parallel processes.
    path = testing::TempDir() + "grid_ckpt_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".bin";
    a = matrix_with_condition<double>(m, n, 1e5, 203);
    std::remove(path.c_str());
    // The snapshot after panel 2 of 4 on 4 devices: four slices and a
    // two-level cross tree per panel.
    dist::DeviceGrid grid(4);
    dist::GridRecoveryOptions ropt;
    ropt.checkpoint_path = path;
    ropt.checkpoint_every = 2;
    ropt.max_attempts = 1;
    auto hook = [&](const dist::DistCaqrFactorization<double>&, idx done) {
      if (done == 2) valid = ft::CheckpointReader::load(path);
    };
    ASSERT_TRUE(dist::factor_with_recovery<double>(grid, a.view(),
                                                   small_dist(), ropt, hook)
                    .ok());
    ASSERT_TRUE(valid.has_value());
  }
  void TearDown() override { std::remove(path.c_str()); }

  std::string raw(const std::string& name) const {
    std::vector<char> bytes;
    EXPECT_TRUE(valid->vec(name, bytes)) << name;
    return std::string(bytes.begin(), bytes.end());
  }
  // Matrix section bytes (dims, then column-major data) of the top `rows`
  // rows of the matrix section `name`.
  std::string top_rows(const std::string& name, idx rows) const {
    Matrix<double> full;
    EXPECT_TRUE(valid->matrix(name, full)) << name;
    const std::int64_t dims[2] = {rows, full.cols()};
    std::string out(reinterpret_cast<const char*>(dims), sizeof(dims));
    for (idx j = 0; j < full.cols(); ++j) {
      out.append(reinterpret_cast<const char*>(full.view().col(j)),
                 static_cast<std::size_t>(rows) * sizeof(double));
    }
    return out;
  }
  // Rewrites the snapshot with section `name` replaced by `bytes`, resumes
  // a fresh 4-device grid from it, and returns whether the snapshot was
  // used. The factorization must be correct either way.
  bool resumes_with(const std::string& name, const std::string& bytes) {
    write_with_section(*valid, path, name, bytes);
    dist::DeviceGrid grid(4);
    dist::GridRecoveryOptions ropt;
    ropt.checkpoint_every = 0;
    ropt.checkpoint_path = path;
    const auto res =
        dist::factor_with_recovery<double>(grid, a.view(), small_dist(), ropt);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) return res.used_checkpoint;
    dist::DeviceGrid gq(4);
    const Matrix<double> q = res.f->form_q(gq, n).gather();
    EXPECT_TRUE(
        numerics::verify_qr(a.view(), q.view(), res.f->r().view()).pass);
    return res.used_checkpoint;
  }

  Matrix<double> a;
  std::string path;
  std::optional<ft::CheckpointReader> valid;
};

TEST_F(FtGridCheckpointCrafted, WrongAShapeFallsBackToCleanStart) {
  EXPECT_TRUE(resumes_with("done", raw("done")));  // the rewrite is sound
  EXPECT_FALSE(resumes_with("a", top_rows("a", m / 2)));
}

TEST_F(FtGridCheckpointCrafted, ShortTaus0FallsBackToCleanStart) {
  std::string taus = raw("p0.s1.taus0");
  taus.resize(taus.size() - sizeof(double));
  EXPECT_FALSE(resumes_with("p0.s1.taus0", taus));
}

TEST_F(FtGridCheckpointCrafted, WrongHeightCrossStageFallsBackToCleanStart) {
  // A k = 2 group's stage is 2w x w; keep only the owner's w rows.
  const idx w = small_dist().panel_width;
  EXPECT_FALSE(resumes_with("p1.x0.g0.stage", top_rows("p1.x0.g0.stage", w)));
}

TEST_F(FtGridCheckpointCrafted, WrongPanelOrSliceShapeFallsBackToCleanStart) {
  auto int_bytes = [](std::int64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  EXPECT_FALSE(resumes_with("p1.c0", int_bytes(0)));  // panel 1 starts at w
  EXPECT_FALSE(resumes_with("p0.w", int_bytes(16)));
  EXPECT_FALSE(resumes_with("p0.s3.grow0", int_bytes(m)));  // below the rows
  std::int64_t height = 0;
  ASSERT_TRUE(valid->scalar("p0.s2.height", height));
  EXPECT_FALSE(resumes_with("p0.s2.height", int_bytes(height + 1)));
}

TEST(FtGridRecovery, ScheduledDeviceLossRecoversByShardMerge) {
  const idx m = 192, n = 32;
  const auto a = matrix_with_condition<double>(m, n, 1e5, 203);
  dist::DeviceGrid grid(4);
  dist::GridFtOptions gft;
  gft.device_losses.push_back({1, 2});  // kill device 1 at transfer #2
  grid.set_fault_tolerance(gft);

  dist::GridRecoveryOptions ropt;
  ropt.checkpoint_every = 1;
  const auto res = dist::factor_with_recovery<double>(grid, a.view(),
                                                      small_dist(), ropt);
  ASSERT_TRUE(res.f.has_value());
  EXPECT_GE(res.attempts, 2);
  EXPECT_GE(res.status.device_losses, 1);
  EXPECT_EQ(res.status.severity, ft::Severity::Corrected);
  EXPECT_EQ(grid.num_alive(), 3);
  // The dead device's shard was merged into a survivor.
  EXPECT_EQ(static_cast<int>(res.devices.size()), 3);
  for (const int d : res.devices) EXPECT_NE(d, 1);

  dist::DeviceGrid gq(4);
  const Matrix<double> q = res.f->form_q(gq, n).gather();
  EXPECT_TRUE(
      numerics::verify_qr(a.view(), q.view(), res.f->r().view()).pass);
}

TEST(FtGridRecovery, LossWithoutSnapshotOrRecomputeIsTypedUnrecovered) {
  const idx m = 128, n = 16;
  const auto a = matrix_with_condition<double>(m, n, 1e4, 204);
  dist::DeviceGrid grid(2);
  dist::GridFtOptions gft;
  gft.device_losses.push_back({0, 1});
  grid.set_fault_tolerance(gft);

  // Detection-only at grid scale: no snapshots, no restart rung. The loss
  // must surface as a typed result — never an exception, never a hang.
  dist::GridRecoveryOptions ropt;
  ropt.checkpoint_every = 0;
  ropt.allow_recompute = false;
  const auto res = dist::factor_with_recovery<double>(grid, a.view(),
                                                      small_dist(8, 16), ropt);
  EXPECT_FALSE(res.ok());
  EXPECT_FALSE(res.f.has_value());
  EXPECT_EQ(res.status.severity, ft::Severity::Unrecovered);
  EXPECT_GE(res.status.device_losses, 1);
}

}  // namespace
}  // namespace caqr
