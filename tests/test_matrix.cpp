// Tests for the Matrix container and view composition.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "linalg/matrix.hpp"

namespace caqr {
namespace {

TEST(Matrix, ColumnMajorLayout) {
  Matrix<float> a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  a(1, 1) = 5;
  a(2, 1) = 6;
  const float* d = a.data();
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[1], 2);
  EXPECT_EQ(d[2], 3);
  EXPECT_EQ(d[3], 4);
  EXPECT_EQ(d[4], 5);
  EXPECT_EQ(d[5], 6);
}

TEST(Matrix, ZerosIdentityFrom) {
  auto z = Matrix<double>::zeros(4, 3);
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < 4; ++i) EXPECT_EQ(z(i, j), 0.0);
  }
  auto e = Matrix<double>::identity(4, 3);
  for (idx j = 0; j < 3; ++j) {
    for (idx i = 0; i < 4; ++i) EXPECT_EQ(e(i, j), i == j ? 1.0 : 0.0);
  }
  auto c = Matrix<double>::from(e.view());
  EXPECT_EQ(c(2, 2), 1.0);
  EXPECT_EQ(c(3, 2), 0.0);
}

TEST(Matrix, BlockViewsShareStorage) {
  auto a = Matrix<float>::zeros(6, 6);
  auto b = a.block(2, 3, 2, 2);
  b(0, 0) = 9.0f;
  b(1, 1) = 8.0f;
  EXPECT_EQ(a(2, 3), 9.0f);
  EXPECT_EQ(a(3, 4), 8.0f);
  EXPECT_EQ(b.ld(), 6);

  // Nested blocks compose offsets.
  auto inner = a.view().block(1, 1, 4, 4).block(1, 2, 2, 2);
  inner(0, 0) = 5.0f;
  EXPECT_EQ(a(2, 3), 5.0f);
}

TEST(Matrix, CopyFromRespectsLeadingDimension) {
  auto a = Matrix<float>::zeros(5, 5);
  auto src = Matrix<float>::identity(2, 2);
  a.block(1, 1, 2, 2).copy_from(src.view());
  EXPECT_EQ(a(1, 1), 1.0f);
  EXPECT_EQ(a(2, 2), 1.0f);
  EXPECT_EQ(a(1, 2), 0.0f);
  EXPECT_EQ(a(0, 0), 0.0f);
}

// A contiguous view (ld == rows, or a single column) is filled and copied
// as one run: same bits as the column loops, NaN payloads included, and no
// entry outside the view is touched.
TEST(Matrix, CopyFromAndFillOnContiguousViewsKeepBits) {
  Matrix<float> src(6, 4), dst(6, 4), strided(9, 4);
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < 6; ++i) {
      const std::uint32_t u = 0x7fa00000u + static_cast<std::uint32_t>(i + 6 * j);
      std::memcpy(&src(i, j), &u, sizeof(u));  // NaNs with payloads
    }
  }
  dst.view().fill(1.0f);
  dst.view().block(0, 1, 6, 2).copy_from(src.view().block(0, 1, 6, 2));
  strided.view().fill(2.0f);
  strided.view().block(0, 3, 6, 1).copy_from(src.view().block(0, 3, 6, 1));
  for (idx j = 0; j < 4; ++j) {
    for (idx i = 0; i < 6; ++i) {
      const float want = j == 1 || j == 2 ? src(i, j) : 1.0f;
      EXPECT_EQ(std::memcmp(&dst(i, j), &want, sizeof(float)), 0);
    }
  }
  for (idx i = 0; i < 6; ++i) {
    EXPECT_EQ(std::memcmp(&strided(i, 3), &src(i, 3), sizeof(float)), 0);
  }
  for (idx i = 6; i < 9; ++i) EXPECT_EQ(strided(i, 3), 2.0f);

  dst.view().block(0, 2, 6, 2).fill(-0.0f);
  for (idx i = 0; i < 6; ++i) {
    EXPECT_TRUE(std::signbit(dst(i, 3)));
    EXPECT_EQ(dst(i, 0), 1.0f);
  }
}

TEST(Matrix, MoveTransfersOwnership) {
  Matrix<double> a(3, 3);
  a(0, 0) = 7.0;
  const double* ptr = a.data();
  Matrix<double> b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b(0, 0), 7.0);
  EXPECT_TRUE(a.empty());
}

TEST(Matrix, CloneIsDeep) {
  auto a = Matrix<float>::identity(3, 3);
  auto b = a.clone();
  b(0, 0) = 42.0f;
  EXPECT_EQ(a(0, 0), 1.0f);
}

TEST(Matrix, EmptyMatrixIsSafe) {
  Matrix<float> a(0, 0);
  EXPECT_TRUE(a.empty());
  auto v = a.view();
  v.fill(1.0f);  // no-op, must not crash
  EXPECT_EQ(v.rows(), 0);
}

TEST(MatrixView, ConstConversion) {
  auto a = Matrix<float>::identity(2, 2);
  MatrixView<float> mv = a.view();
  ConstMatrixView<float> cv = mv;  // implicit
  EXPECT_EQ(cv(0, 0), 1.0f);
  EXPECT_EQ(cv.block(0, 1, 2, 1)(1, 0), 1.0f);
}

TEST(MatrixView, SetIdentityOnRectangular) {
  auto a = Matrix<float>::zeros(3, 5);
  a.view().set_identity();
  for (idx j = 0; j < 5; ++j) {
    for (idx i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), i == j ? 1.0f : 0.0f);
  }
}

}  // namespace
}  // namespace caqr
