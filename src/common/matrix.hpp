// Dense row-major matrix of doubles.
//
// The replica-selection decision variable is the traffic matrix
// P ∈ R^{|C| x |N|} (clients x replicas).  All solvers in src/optim and
// src/core operate on this type.  It is deliberately minimal: contiguous
// storage, bounds-checked accessors in debug builds, and the handful of
// linear-algebra helpers the algorithms actually need.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace edr {

// The solver hot loops shared by Matrix, common::SparseAllocation and the
// engines' flat scratch vectors.  Each one is a plain index-order loop, so
// every caller sees the same operations in the same order.

/// y[i] += a * x[i].
inline void axpy(std::span<double> y, double a, std::span<const double> x) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

/// y[i] += x[i].
inline void accumulate(std::span<double> y, std::span<const double> x) {
  assert(y.size() == x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

/// sqrt(Σ (a[i] - b[i])²), summed in index order.
[[nodiscard]] inline double l2_distance(std::span<const double> a,
                                        std::span<const double> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r (a client's allocation across replicas).
  [[nodiscard]] std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> flat() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const double> flat() const {
    return {data_.data(), data_.size()};
  }

  /// Sum of column c (a replica's total assigned traffic s_n).
  [[nodiscard]] double col_sum(std::size_t c) const {
    assert(c < cols_);
    double sum = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) sum += data_[r * cols_ + c];
    return sum;
  }

  /// Sum of row r (a client's total received traffic).
  [[nodiscard]] double row_sum(std::size_t r) const {
    assert(r < rows_);
    double sum = 0.0;
    for (double v : row(r)) sum += v;
    return sum;
  }

  /// All column sums at once (avoids |N| passes over the data).
  [[nodiscard]] std::vector<double> col_sums() const {
    std::vector<double> sums;
    col_sums(sums);
    return sums;
  }

  /// col_sums without the per-call allocation: `sums` is resized to cols()
  /// and overwritten.  The per-round hot loops (objective, feasibility
  /// checks) pass a reused scratch vector here.
  void col_sums(std::vector<double>& sums) const {
    sums.assign(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) accumulate(sums, row(r));
  }

  void fill(double value) { std::ranges::fill(data_, value); }

  /// Re-shape in place and set every entry to `fill`, reusing the existing
  /// buffer when capacity allows — the allocation-free reset the solver
  /// scratch matrices rely on in their per-round hot loops.
  void reshape(std::size_t rows, std::size_t cols, double fill = 0.0) {
    const std::size_t size = checked_size(rows, cols);
    rows_ = rows;
    cols_ = cols;
    data_.assign(size, fill);
  }

  /// this += scale * other (same shape required).
  void axpy(double scale, const Matrix& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    edr::axpy(flat(), scale, other.flat());
  }

  void scale(double factor) {
    for (double& v : data_) v *= factor;
  }

  /// Frobenius distance to another matrix of the same shape.
  [[nodiscard]] double distance(const Matrix& other) const {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    return l2_distance(flat(), other.flat());
  }

  [[nodiscard]] double frobenius_norm() const {
    double sum = 0.0;
    for (double v : data_) sum += v * v;
    return std::sqrt(sum);
  }

  [[nodiscard]] double max_abs() const {
    double best = 0.0;
    for (double v : data_) best = std::max(best, std::abs(v));
    return best;
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  /// rows*cols with an overflow guard: a wrapped product would turn an
  /// absurd dimension request into a small, silently-wrong allocation
  /// instead of the loud failure callers can act on.
  static std::size_t checked_size(std::size_t rows, std::size_t cols) {
    if (cols != 0 && rows > SIZE_MAX / cols)
      throw std::length_error("Matrix: rows * cols overflows size_t");
    return rows * cols;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace edr
