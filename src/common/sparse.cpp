#include "common/sparse.hpp"

#include <stdexcept>

namespace edr::common {

SparsityPattern::SparsityPattern(const Matrix& mask)
    : rows_(mask.rows()), cols_(mask.cols()) {
  if (mask.size() > UINT32_MAX)
    throw std::length_error(
        "SparsityPattern: more than 2^32 - 1 potential entries");
  row_ptr_.assign(rows_ + 1, 0);
  col_ptr_.assign(cols_ + 1, 0);

  std::size_t nnz = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c)
      if (mask(r, c) != 0.0) ++nnz;
    row_ptr_[r + 1] = static_cast<std::uint32_t>(nnz);
  }
  col_of_.reserve(nnz);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      if (mask(r, c) != 0.0) {
        col_of_.push_back(static_cast<std::uint32_t>(c));
        ++col_ptr_[c + 1];
      }
  for (std::size_t c = 0; c < cols_; ++c) col_ptr_[c + 1] += col_ptr_[c];

  // Column-major view: walking rows in ascending order per column keeps
  // sparse column reductions in dense row-major summation order.
  row_of_.resize(nnz);
  pos_.resize(nnz);
  std::vector<std::uint32_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      const std::uint32_t c = col_of_[i];
      const std::uint32_t slot = cursor[c]++;
      row_of_[slot] = static_cast<std::uint32_t>(r);
      pos_[slot] = static_cast<std::uint32_t>(i);
    }
  }
}

void SparseAllocation::col_sums(std::vector<double>& sums) const {
  sums.assign(pattern_->cols(), 0.0);
  // Row-major walk so each column accumulates in ascending-row order — the
  // same order (and therefore the same bits) as the dense col_sums sweep.
  for (std::size_t r = 0; r < pattern_->rows(); ++r) {
    const auto cols = pattern_->row_cols(r);
    const auto vals = row(r);
    for (std::size_t i = 0; i < cols.size(); ++i) sums[cols[i]] += vals[i];
  }
}

void SparseAllocation::to_dense(Matrix& out) const {
  out.reshape(pattern_->rows(), pattern_->cols(), 0.0);
  for (std::size_t r = 0; r < pattern_->rows(); ++r) {
    const auto cols = pattern_->row_cols(r);
    const auto vals = row(r);
    for (std::size_t i = 0; i < cols.size(); ++i) out(r, cols[i]) = vals[i];
  }
}

void SparseAllocation::from_dense(const Matrix& dense) {
  assert(dense.rows() == pattern_->rows() &&
         dense.cols() == pattern_->cols());
  for (std::size_t r = 0; r < pattern_->rows(); ++r) {
    const auto cols = pattern_->row_cols(r);
    const auto vals = row(r);
    for (std::size_t i = 0; i < cols.size(); ++i)
      vals[i] = dense(r, cols[i]);
  }
}

}  // namespace edr::common
