// Condition-number / column-scaling stress sweep (tentpole acceptance) and
// degenerate-input coverage across every QR path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "caqr/caqr.hpp"
#include "gpusim/device.hpp"
#include "linalg/qr.hpp"
#include "linalg/random_matrix.hpp"
#include "numerics/stress.hpp"
#include "numerics/verifier.hpp"
#include "tsqr/tsqr.hpp"

namespace caqr {
namespace {

using numerics::VerifyReport;

TEST(Stress, AllPathsPassAcrossConditionAndScaleSweep) {
  numerics::StressSpec spec;
  spec.rows = 96;
  spec.cols = 12;
  spec.conds = {1e0, 1e7, 1e14};
  spec.col_scales = {1e-300, 1.0, 1e300};
  spec.mixed_columns = true;
  const numerics::StressSummary s = numerics::run_stress(spec);
  EXPECT_GT(s.rows.size(), 0u);
  for (const auto& row : s.rows) {
    EXPECT_TRUE(row.report.pass)
        << row.path << " cond " << row.cond << " scale " << row.col_scale
        << (row.mixed ? " (mixed)" : "") << ": residual "
        << row.report.residual << ", orthogonality "
        << row.report.orthogonality << ", gram " << row.report.gram_residual
        << ", tol " << row.report.tolerance;
  }
  EXPECT_TRUE(s.pass());
}

TEST(Stress, JsonSerializationCoversEveryRow) {
  numerics::StressSpec spec;
  spec.rows = 48;
  spec.cols = 8;
  spec.conds = {1e0};
  spec.col_scales = {1.0};
  auto s = numerics::run_stress(spec);
  // A failed run with a non-finite report and a quoted path name must
  // still serialize as valid JSON: null metrics, escaped strings.
  numerics::StressRow bad;
  bad.path = "cholqr \"strict\"";
  bad.report.residual = std::numeric_limits<double>::quiet_NaN();
  bad.report.orthogonality = std::numeric_limits<double>::infinity();
  bad.report.finite = false;
  s.rows.push_back(bad);
  const std::string json = numerics::stress_json(s);
  std::size_t objects = 0;
  for (std::size_t pos = json.find("\"path\""); pos != std::string::npos;
       pos = json.find("\"path\"", pos + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, s.rows.size());
  EXPECT_NE(json.find(R"({"path":"cholqr \"strict\"","cond":1,"col_scale":1,)"
                      R"("mixed":false,"report":{"residual":null,)"
                      R"("orthogonality":null,"gram_residual":0,)"
                      R"("tolerance":0,"finite":false,"pass":false}}])"),
            std::string::npos)
      << json;
}

// --- Satellite 4: degenerate inputs through every path ---

struct Factors {
  Matrix<double> q;
  Matrix<double> r;
};

Factors via_reference(const Matrix<double>& a) {
  Matrix<double> fac = Matrix<double>::from(a.view());
  std::vector<double> tau(
      static_cast<std::size_t>(std::min(a.rows(), a.cols())));
  geqrf(fac.view(), tau.data());
  return {form_q(fac.view(), tau.data(), std::min(a.rows(), a.cols())),
          extract_r(fac.view())};
}

Factors via_tsqr(const Matrix<double>& a) {
  gpusim::Device dev;
  tsqr::TsqrOptions opt;
  opt.block_rows = std::max<idx>(a.cols(), 8);
  auto res = tsqr::tsqr(dev, a.view(), opt);
  return {res.form_q(dev, opt), res.r()};
}

Factors via_caqr(const Matrix<double>& a) {
  gpusim::Device dev;
  CaqrOptions opt;
  opt.panel_width = 4;
  opt.tsqr.block_rows = std::max<idx>(a.cols(), 8);
  auto f =
      CaqrFactorization<double>::factor(dev, Matrix<double>::from(a.view()), opt);
  return {f.form_q(dev, std::min(a.rows(), a.cols())), f.r()};
}

void expect_valid_factorization(const Matrix<double>& a, const char* label) {
  for (const auto path : {&via_reference, &via_tsqr, &via_caqr}) {
    const Factors f = (*path)(a);
    ASSERT_TRUE(numerics::finite_check(f.q.view())) << label;
    ASSERT_TRUE(numerics::finite_check(f.r.view())) << label;
    const VerifyReport rep =
        numerics::verify_qr(a.view(), f.q.view(), f.r.view());
    EXPECT_TRUE(rep.pass) << label << ": residual " << rep.residual
                          << ", orthogonality " << rep.orthogonality;
  }
}

TEST(Degenerate, AllZeroMatrix) {
  const auto a = Matrix<double>::zeros(32, 6);
  expect_valid_factorization(a, "all-zero");
  // Zero columns must yield tau == 0 (H == I) reflectors in the reference
  // path, not NaN from 0/0.
  Matrix<double> fac = Matrix<double>::from(a.view());
  std::vector<double> tau(6, -1.0);
  geqrf(fac.view(), tau.data());
  for (const double t : tau) EXPECT_EQ(t, 0.0);
  for (idx j = 0; j < 6; ++j) {
    for (idx i = 0; i < 32; ++i) EXPECT_EQ(fac(i, j), 0.0);
  }
}

TEST(Degenerate, SingleRowMatrix) {
  // 1 x 1: the only reflector sees an empty tail -> tau == 0, R == A.
  Matrix<double> a(1, 1);
  a(0, 0) = 3.5;
  expect_valid_factorization(a, "1x1");
  Matrix<double> fac = Matrix<double>::from(a.view());
  double tau = -1.0;
  geqrf(fac.view(), &tau);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(fac(0, 0), 3.5);
}

TEST(Degenerate, SquareMatrix) {
  const auto a = matrix_with_condition<double>(12, 12, 1e5, 21);
  expect_valid_factorization(a, "square");
}

TEST(Degenerate, DuplicateColumnRankDeficient) {
  auto a = matrix_with_condition<double>(40, 6, 1e2, 22);
  // Make the matrix exactly rank-deficient: col 3 duplicates col 1.
  for (idx i = 0; i < 40; ++i) a(i, 3) = a(i, 1);
  expect_valid_factorization(a, "duplicate-column");
  // The dependent column's diagonal entry collapses to roundoff level and
  // the trailing reflector of the zeroed subcolumn stays tau-finite.
  const Factors f = via_reference(a);
  EXPECT_LT(std::abs(f.r(3, 3)), 1e-12 * std::abs(f.r(0, 0)));
}

TEST(Degenerate, SingleRowBlockEqualsWidth) {
  // rows == cols == block_rows: TSQR degenerates to one block, no tree.
  const auto a = matrix_with_condition<double>(8, 8, 1e3, 23);
  gpusim::Device dev;
  tsqr::TsqrOptions opt;
  opt.block_rows = 8;
  auto res = tsqr::tsqr(dev, a.view(), opt);
  EXPECT_EQ(res.meta.num_blocks(), 1);
  EXPECT_EQ(res.meta.num_levels(), 0);
  const auto q = res.form_q(dev, opt);
  EXPECT_TRUE(numerics::verify_qr(a.view(), q.view(), res.r().view()).pass);
}

}  // namespace
}  // namespace caqr
