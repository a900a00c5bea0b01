#pragma once

// Sharded matrices for the device grid: block-row (the CAQR decomposition)
// and 2D block-cyclic (the dense-solver layout of ScaLAPACK and the 3D-QR
// literature).
//
// A DistMatrix owns one contiguous row slice ("shard") per device: shard d
// holds global rows [row0(d), row0(d) + shard_rows(d)) across ALL columns,
// stored as an ordinary host-resident Matrix (the simulator keeps all data
// in host memory; device residency is a cost-model concept). Block-row
// sharding is the natural decomposition for TSQR/CAQR: each device factors
// its own row blocks locally and only w x w R triangles and w-row slices of
// the trailing matrix ever cross the interconnect.
//
// PARTITION CONSTRAINT: every block-row shard must be at least `cols` rows
// tall, so the full upper-triangular R (and every panel's surviving root
// triangle) lives in shard 0 — the cross-device reduction always roots at
// device 0. A shape that cannot satisfy it (rows < devices * cols) is a
// TYPED error: even_partition throws PartitionError carrying the offending
// (rows, min_rows, devices) triple, so serving and recovery layers can
// refuse the shape instead of aborting the process.
//
// ModelOnly grids get storage-free shards (Matrix::shape_only), mirroring
// the single-device convention for paper-scale cost runs.

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "dist/device_grid.hpp"
#include "linalg/matrix.hpp"

namespace caqr::dist {

// Typed rejection of an unsatisfiable block-row partition: thrown (never an
// abort) when `rows` cannot give each of `devices` shards at least
// `min_rows` (= the matrix's cols at every factorization call site) rows.
// Carries the offending triple so callers can log, shrink the grid, or
// refuse the request.
struct PartitionError : std::runtime_error {
  PartitionError(idx rows_, idx min_rows_, int devices_)
      : std::runtime_error(
            "block-row partition infeasible: " + std::to_string(rows_) +
            " rows over " + std::to_string(devices_) +
            " devices leaves a shard under the " + std::to_string(min_rows_) +
            "-row floor (need rows >= devices * cols)"),
        rows(rows_),
        min_rows(min_rows_),
        devices(devices_) {}
  idx rows = 0;
  idx min_rows = 0;
  int devices = 0;
};

// Row offsets of an even block-row partition: devices+1 entries, first 0,
// last `rows`, each slice height >= min_rows (earlier slices absorb the
// remainder one row each). Throws PartitionError unless
// rows >= devices * min_rows (see header comment).
inline std::vector<idx> even_partition(idx rows, int devices, idx min_rows) {
  CAQR_CHECK(devices >= 1 && rows >= 0 && min_rows >= 0);
  if (rows < static_cast<idx>(devices) * min_rows) {
    throw PartitionError(rows, min_rows, devices);
  }
  const idx base = rows / devices;
  const idx rem = rows % devices;
  std::vector<idx> offsets;
  offsets.reserve(static_cast<std::size_t>(devices) + 1);
  idx r0 = 0;
  for (int d = 0; d < devices; ++d) {
    offsets.push_back(r0);
    r0 += base + (d < rem ? 1 : 0);
  }
  offsets.push_back(rows);
  return offsets;
}

template <typename T>
class DistMatrix {
 public:
  DistMatrix() = default;

  // Functional scatter: copies `a` into per-device shards under the even
  // partition (or an explicit one via the 3-argument overload).
  static DistMatrix scatter(ConstMatrixView<T> a, int devices) {
    return scatter(a, even_partition(a.rows(), devices, a.cols()));
  }

  static DistMatrix scatter(ConstMatrixView<T> a, std::vector<idx> offsets) {
    DistMatrix m;
    m.init(a.rows(), a.cols(), std::move(offsets), /*functional=*/true);
    for (int d = 0; d < m.num_shards(); ++d) {
      m.shard(d).view().copy_from(
          a.block(m.row0(d), 0, m.shard_rows(d), a.cols()));
    }
    return m;
  }

  // Storage-free shards for ModelOnly cost runs at paper scale.
  static DistMatrix shape_only(idx rows, idx cols, int devices) {
    DistMatrix m;
    m.init(rows, cols, even_partition(rows, devices, cols),
           /*functional=*/false);
    return m;
  }

  // Distributed identity with `qcols` columns (the form_q seed): shard d is
  // rows [row0(d), row0(d)+h) of eye(rows, qcols).
  static DistMatrix identity(idx rows, idx qcols, std::vector<idx> offsets) {
    DistMatrix m;
    m.init(rows, qcols, std::move(offsets), /*functional=*/true);
    for (int d = 0; d < m.num_shards(); ++d) {
      MatrixView<T> s = m.shard(d).view();
      s.fill(T(0));
      for (idx i = 0; i < m.shard_rows(d); ++i) {
        const idx g = m.row0(d) + i;
        if (g < qcols) s(i, g) = T(1);
      }
    }
    return m;
  }

  static DistMatrix shape_only(idx rows, idx cols, std::vector<idx> offsets) {
    DistMatrix m;
    m.init(rows, cols, std::move(offsets), /*functional=*/false);
    return m;
  }

  idx rows() const { return rows_; }
  idx cols() const { return cols_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool functional() const { return functional_; }
  const std::vector<idx>& offsets() const { return offsets_; }

  idx row0(int d) const { return offsets_[static_cast<std::size_t>(d)]; }
  idx shard_rows(int d) const {
    return offsets_[static_cast<std::size_t>(d) + 1] -
           offsets_[static_cast<std::size_t>(d)];
  }
  Matrix<T>& shard(int d) { return shards_[static_cast<std::size_t>(d)]; }
  const Matrix<T>& shard(int d) const {
    return shards_[static_cast<std::size_t>(d)];
  }

  // Functional gather into one host matrix (for verification / comparison).
  Matrix<T> gather() const {
    CAQR_CHECK_MSG(functional_, "cannot gather a shape-only DistMatrix");
    Matrix<T> out(rows_, cols_);
    for (int d = 0; d < num_shards(); ++d) {
      out.block(row0(d), 0, shard_rows(d), cols_)
          .copy_from(shard(d).view());
    }
    return out;
  }

 private:
  void init(idx rows, idx cols, std::vector<idx> offsets, bool functional) {
    CAQR_CHECK(rows >= 0 && cols >= 0);
    CAQR_CHECK(static_cast<idx>(offsets.size()) >= 2);
    CAQR_CHECK(offsets.front() == 0 && offsets.back() == rows);
    rows_ = rows;
    cols_ = cols;
    functional_ = functional;
    offsets_ = std::move(offsets);
    const int n = static_cast<int>(offsets_.size()) - 1;
    shards_.reserve(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      const idx h = offsets_[static_cast<std::size_t>(d) + 1] -
                    offsets_[static_cast<std::size_t>(d)];
      CAQR_CHECK(h >= 1);
      shards_.push_back(functional ? Matrix<T>(h, cols)
                                   : Matrix<T>::shape_only(h, cols));
    }
  }

  idx rows_ = 0;
  idx cols_ = 0;
  bool functional_ = true;
  std::vector<idx> offsets_;
  std::vector<Matrix<T>> shards_;
};

}  // namespace caqr::dist
