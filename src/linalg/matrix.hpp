#pragma once

// Column-major dense matrix container and non-owning views.
//
// Storage follows the LAPACK convention: element (i, j) lives at
// data[i + j * ld] with ld >= rows. Views are cheap value types; algorithms
// take views so they compose over sub-blocks without copying — the CAQR grid
// decomposition is expressed entirely through MatrixView::block().

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"

namespace caqr {

using idx = std::int64_t;

// Non-deduced-context alias: a parameter declared In<ConstMatrixView<T>>
// accepts ConstMatrixView<T> and MatrixView<T> (via implicit conversion)
// alike, with T deduced from the other arguments (scalars, tau pointers,
// or the output view).
template <typename T>
using In = typename std::type_identity<T>::type;

template <typename T>
class ConstMatrixView;
template <typename T>
class MatrixView;

// Scalar type of a view type, and a uniform read-only adapter so generic
// read-only functions (norms, SVD, extract_r) accept either view kind.
template <typename V>
struct view_traits;
template <typename T>
struct view_traits<ConstMatrixView<T>> {
  using scalar = T;
};
template <typename T>
struct view_traits<MatrixView<T>> {
  using scalar = T;
};
template <typename V>
using view_scalar_t = typename view_traits<std::remove_cvref_t<V>>::scalar;

template <typename V>
ConstMatrixView<view_scalar_t<V>> cview(const V& v) {
  return v;
}

template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, idx rows, idx cols, idx ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CAQR_DCHECK(rows >= 0 && cols >= 0 && ld >= rows);
  }

  const T* data() const { return data_; }
  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  idx ld() const { return ld_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  // True when the entries are one run of rows * cols in memory.
  bool contiguous() const { return ld_ == rows_ || cols_ <= 1; }

  const T& operator()(idx i, idx j) const {
    CAQR_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * ld_];
  }

  // Pointer to the top of column j.
  const T* col(idx j) const {
    CAQR_DCHECK(j >= 0 && j < cols_);
    return data_ + j * ld_;
  }

  ConstMatrixView block(idx i0, idx j0, idx m, idx n) const {
    CAQR_DCHECK(i0 >= 0 && j0 >= 0 && m >= 0 && n >= 0);
    CAQR_DCHECK(i0 + m <= rows_ && j0 + n <= cols_);
    return ConstMatrixView(data_ + i0 + j0 * ld_, m, n, ld_);
  }

 private:
  const T* data_ = nullptr;
  idx rows_ = 0;
  idx cols_ = 0;
  idx ld_ = 0;
};

template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, idx rows, idx cols, idx ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CAQR_DCHECK(rows >= 0 && cols >= 0 && ld >= rows);
  }

  operator ConstMatrixView<T>() const {
    return ConstMatrixView<T>(data_, rows_, cols_, ld_);
  }
  ConstMatrixView<T> as_const() const {
    return ConstMatrixView<T>(data_, rows_, cols_, ld_);
  }

  T* data() const { return data_; }
  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  idx ld() const { return ld_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  bool contiguous() const { return ld_ == rows_ || cols_ <= 1; }

  T& operator()(idx i, idx j) const {
    CAQR_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * ld_];
  }

  T* col(idx j) const {
    CAQR_DCHECK(j >= 0 && j < cols_);
    return data_ + j * ld_;
  }

  MatrixView block(idx i0, idx j0, idx m, idx n) const {
    CAQR_DCHECK(i0 >= 0 && j0 >= 0 && m >= 0 && n >= 0);
    CAQR_DCHECK(i0 + m <= rows_ && j0 + n <= cols_);
    return MatrixView(data_ + i0 + j0 * ld_, m, n, ld_);
  }

  // fill and copy_from treat a contiguous view as one run: same entries,
  // same bits, without a loop per column.
  void fill(T value) const {
    if (contiguous()) {
      std::fill_n(data_, rows_ * cols_, value);
      return;
    }
    for (idx j = 0; j < cols_; ++j) {
      T* c = col(j);
      for (idx i = 0; i < rows_; ++i) c[i] = value;
    }
  }

  void set_identity() const {
    fill(T(0));
    const idx k = rows_ < cols_ ? rows_ : cols_;
    for (idx i = 0; i < k; ++i) (*this)(i, i) = T(1);
  }

  void copy_from(ConstMatrixView<T> src) const {
    CAQR_CHECK(src.rows() == rows_ && src.cols() == cols_);
    if (contiguous() && src.contiguous()) {
      std::copy_n(src.data(), rows_ * cols_, data_);
      return;
    }
    for (idx j = 0; j < cols_; ++j) {
      T* dst = col(j);
      const T* s = src.col(j);
      for (idx i = 0; i < rows_; ++i) dst[i] = s[i];
    }
  }

 private:
  T* data_ = nullptr;
  idx rows_ = 0;
  idx cols_ = 0;
  idx ld_ = 0;
};

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(idx rows, idx cols) : rows_(rows), cols_(cols) {
    CAQR_CHECK(rows >= 0 && cols >= 0);
    buffer_.reset(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  }

  static Matrix zeros(idx rows, idx cols) {
    Matrix m(rows, cols);
    m.view().fill(T(0));
    return m;
  }

  static Matrix identity(idx rows, idx cols) {
    Matrix m(rows, cols);
    m.view().set_identity();
    return m;
  }

  static Matrix from(ConstMatrixView<T> src) {
    Matrix m(src.rows(), src.cols());
    m.view().copy_from(src);
    return m;
  }

  // Dimensions-only placeholder with NO backing storage, for
  // gpusim::ExecMode::ModelOnly simulations at scales whose data would not
  // fit in host memory (e.g. 1M x 8192 floats). Any arithmetic touching its
  // elements is undefined; only shape queries and cost accounting are valid.
  static Matrix shape_only(idx rows, idx cols) {
    Matrix m;
    CAQR_CHECK(rows >= 0 && cols >= 0);
    m.rows_ = rows;
    m.cols_ = cols;
    return m;
  }

  Matrix(Matrix&& other) noexcept
      : buffer_(std::move(other.buffer_)),
        rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      buffer_ = std::move(other.buffer_);
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
    }
    return *this;
  }
  Matrix(const Matrix&) = delete;
  Matrix& operator=(const Matrix&) = delete;

  // Explicit deep copy; copying large matrices should be visible at call sites.
  Matrix clone() const { return from(view()); }

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  idx ld() const { return rows_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  T* data() { return buffer_.data(); }
  const T* data() const { return buffer_.data(); }

  T& operator()(idx i, idx j) {
    CAQR_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return buffer_.data()[i + j * rows_];
  }
  const T& operator()(idx i, idx j) const {
    CAQR_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return buffer_.data()[i + j * rows_];
  }

  MatrixView<T> view() {
    return MatrixView<T>(buffer_.data(), rows_, cols_, rows_);
  }
  ConstMatrixView<T> view() const {
    return ConstMatrixView<T>(buffer_.data(), rows_, cols_, rows_);
  }
  ConstMatrixView<T> as_const() const { return view(); }

  MatrixView<T> block(idx i0, idx j0, idx m, idx n) {
    return view().block(i0, j0, m, n);
  }
  ConstMatrixView<T> block(idx i0, idx j0, idx m, idx n) const {
    return view().block(i0, j0, m, n);
  }

 private:
  AlignedBuffer<T> buffer_;
  idx rows_ = 0;
  idx cols_ = 0;
};

}  // namespace caqr
