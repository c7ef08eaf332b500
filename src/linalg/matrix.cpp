#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/chaos.h"
#include "linalg/simd.h"

namespace robotune::linalg {

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

std::vector<double> Matrix::matvec(std::span<const double> x) const {
  require(x.size() == cols_, "matvec: dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * stride_;
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) sum += row_ptr[c] * x[c];
    y[r] = sum;
  }
  return y;
}

std::vector<double> Matrix::matvec_transposed(std::span<const double> x) const {
  require(x.size() == rows_, "matvec_transposed: dimension mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * stride_;
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row_ptr[c] * xr;
  }
  return y;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  require(cols_ == rhs.rows_, "matmul: dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  // Column-panel blocking: for each tile of output columns the streamed
  // slice of rhs is n_k * kColTile doubles, small enough to stay in L1/L2
  // across all rows of the output.  Only the j loop is tiled — k remains
  // the innermost accumulation, ascending, so every out(i, j) sums its
  // terms in the same order as the unblocked loop (bit-identical result).
  // The j loop vectorizes 4 output columns per step: lanes are
  // independent outputs, each still accumulating over k in scalar order.
  constexpr std::size_t kColTile = 64;
  for (std::size_t jb = 0; jb < rhs.cols_; jb += kColTile) {
    const std::size_t je = std::min(rhs.cols_, jb + kColTile);
    for (std::size_t i = 0; i < rows_; ++i) {
      double* out_row = out.data_.data() + i * out.stride_;
      for (std::size_t k = 0; k < cols_; ++k) {
        const double aik = (*this)(i, k);
        if (aik == 0.0) continue;
        const double* rhs_row = rhs.data_.data() + k * rhs.stride_;
        std::size_t j = jb;
        const simd::v4d va = simd::broadcast(aik);
        for (; j + simd::kLanes <= je; j += simd::kLanes) {
          simd::store(out_row + j,
                      simd::load(out_row + j) + va * simd::load(rhs_row + j));
        }
        for (; j < je; ++j) {
          out_row[j] += aik * rhs_row[j];
        }
      }
    }
  }
  return out;
}

void Matrix::reserve_square(std::size_t cap) {
  require(rows_ == cols_, "reserve_square: matrix must be square");
  if (cap <= square_capacity()) return;
  std::vector<double> grown(cap * cap, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * stride_, cols_, grown.data() + r * cap);
  }
  data_ = std::move(grown);
  stride_ = cap;
}

bool Matrix::grow_square() {
  require(rows_ == cols_, "grow_square: matrix must be square");
  if (rows_ + 1 > square_capacity()) return false;
  ++rows_;
  ++cols_;
  return true;
}

void Matrix::shrink_square(std::size_t n) {
  require(rows_ == cols_, "shrink_square: matrix must be square");
  require(n <= rows_, "shrink_square: cannot grow");
  rows_ = n;
  cols_ = n;
}

Matrix Matrix::multiply_transposed(const Matrix& rhs) const {
  require(cols_ == rhs.cols_, "multiply_transposed: dimension mismatch");
  // Gram fast path (A Aᵀ with rhs == this): only the lower triangle is
  // computed; out(i,j) and out(j,i) are the same ascending-order dot, so
  // mirroring is bit-identical to computing both.
  const bool gram = this == &rhs;
  Matrix out(rows_, rhs.rows_);
  const std::size_t depth = cols_;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::span<const double> a = row(i);
    const std::size_t j_end = gram ? i + 1 : rhs.rows_;
    std::size_t j = 0;
    // Four output columns per sweep: each lane is an independent output
    // whose reduction over k stays in ascending scalar order, so the
    // result is bit-identical to the naive dot() loop (including the
    // unblocked scalar tail below).
    for (; j + simd::kLanes <= j_end; j += simd::kLanes) {
      const double* b0 = rhs.data_.data() + j * rhs.stride_;
      const double* b1 = rhs.data_.data() + (j + 1) * rhs.stride_;
      const double* b2 = rhs.data_.data() + (j + 2) * rhs.stride_;
      const double* b3 = rhs.data_.data() + (j + 3) * rhs.stride_;
      simd::v4d acc = simd::broadcast(0.0);
      for (std::size_t k = 0; k < depth; ++k) {
        acc = acc + simd::broadcast(a[k]) * simd::gather(b0, b1, b2, b3, k);
      }
      simd::store(&out(i, j), acc);
    }
    for (; j < j_end; ++j) out(i, j) = dot(a, rhs.row(j));
  }
  if (gram) {
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = i + 1; j < rows_; ++j) out(i, j) = out(j, i);
    }
  }
  return out;
}

void Matrix::add_diagonal(double value) {
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

double dot(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "dot: dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> b, std::span<double> a) {
  require(a.size() == b.size(), "axpy: dimension mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += alpha * b[i];
}

namespace {

// In-place attempt; returns false if a non-positive pivot is hit.  `l`
// must already be an n x n matrix — it is wiped and reused across jitter
// attempts so the retry loop performs no per-attempt allocations.
bool try_cholesky(const Matrix& a, double jitter, Matrix& l) {
  const std::size_t n = a.rows();
  std::ranges::fill(l.data(), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return true;
}

}  // namespace

Matrix cholesky(const Matrix& a, double jitter, int max_attempts) {
  require(a.rows() == a.cols(), "cholesky: matrix must be square");
  // Chaos site: a forced failure is indistinguishable from a genuinely
  // non-PD matrix, so callers exercise exactly their real recovery path.
  if (chaos::fail(chaos::Site::kCholesky)) {
    throw NumericalError("cholesky: matrix not positive definite (chaos)");
  }
  // One workspace shared by every jitter attempt: a failed attempt leaves
  // garbage behind, but try_cholesky wipes the factor before writing, so
  // the successful attempt's output is identical to a fresh allocation.
  Matrix l(a.rows(), a.rows());
  if (try_cholesky(a, 0.0, l)) return l;
  double j = jitter;
  for (int attempt = 0; attempt < max_attempts; ++attempt, j *= 10.0) {
    if (try_cholesky(a, j, l)) return l;
  }
  throw NumericalError("cholesky: matrix not positive definite after jitter");
}

void solve_lower(const Matrix& l, std::span<const double> b,
                 std::span<double> y) {
  const std::size_t n = l.rows();
  require(b.size() == n && y.size() == n, "solve_lower: dimension mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
}

std::vector<double> solve_lower(const Matrix& l, std::span<const double> b) {
  std::vector<double> y(l.rows());
  solve_lower(l, b, y);
  return y;
}

void solve_lower_transposed(const Matrix& l, std::span<const double> y,
                            std::span<double> x) {
  const std::size_t n = l.rows();
  require(y.size() == n && x.size() == n,
          "solve_lower_transposed: dimension mismatch");
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
}

std::vector<double> solve_lower_transposed(const Matrix& l,
                                           std::span<const double> y) {
  std::vector<double> x(l.rows());
  solve_lower_transposed(l, y, x);
  return x;
}

Matrix solve_lower_rows(const Matrix& l, const Matrix& rhs_rows) {
  Matrix out;
  solve_lower_rows(l, rhs_rows, out);
  return out;
}

namespace {

// Solves four independent triangular systems at once.  The systems are
// interleaved into an n×4 panel so the inner k loop reads one contiguous
// 4-vector per step; lane r runs exactly solve_lower's scalar recurrence
// (ascending k, sum-then-divide), so each solution row is bit-identical
// to the single-RHS solve.
void solve_lower_panel4(const Matrix& l,
                        std::span<const double> b0, std::span<const double> b1,
                        std::span<const double> b2, std::span<const double> b3,
                        std::span<double> y0, std::span<double> y1,
                        std::span<double> y2, std::span<double> y3,
                        std::vector<double>& panel) {
  const std::size_t n = l.rows();
  panel.resize(n * simd::kLanes);
  for (std::size_t i = 0; i < n; ++i) {
    simd::v4d sum = simd::v4d{b0[i], b1[i], b2[i], b3[i]};
    for (std::size_t k = 0; k < i; ++k) {
      sum -= simd::broadcast(l(i, k)) * simd::load(&panel[k * simd::kLanes]);
    }
    sum /= simd::broadcast(l(i, i));
    simd::store(&panel[i * simd::kLanes], sum);
  }
  for (std::size_t i = 0; i < n; ++i) {
    y0[i] = panel[i * simd::kLanes + 0];
    y1[i] = panel[i * simd::kLanes + 1];
    y2[i] = panel[i * simd::kLanes + 2];
    y3[i] = panel[i * simd::kLanes + 3];
  }
}

// Backward-substitution twin of solve_lower_panel4 (lane r runs
// solve_lower_transposed's recurrence: descending ii, ascending k).
void solve_lower_transposed_panel4(
    const Matrix& l, std::span<const double> b0, std::span<const double> b1,
    std::span<const double> b2, std::span<const double> b3,
    std::span<double> y0, std::span<double> y1, std::span<double> y2,
    std::span<double> y3, std::vector<double>& panel) {
  const std::size_t n = l.rows();
  panel.resize(n * simd::kLanes);
  for (std::size_t ii = n; ii-- > 0;) {
    simd::v4d sum = simd::v4d{b0[ii], b1[ii], b2[ii], b3[ii]};
    for (std::size_t k = ii + 1; k < n; ++k) {
      sum -= simd::broadcast(l(k, ii)) * simd::load(&panel[k * simd::kLanes]);
    }
    sum /= simd::broadcast(l(ii, ii));
    simd::store(&panel[ii * simd::kLanes], sum);
  }
  for (std::size_t i = 0; i < n; ++i) {
    y0[i] = panel[i * simd::kLanes + 0];
    y1[i] = panel[i * simd::kLanes + 1];
    y2[i] = panel[i * simd::kLanes + 2];
    y3[i] = panel[i * simd::kLanes + 3];
  }
}

}  // namespace

void solve_lower_rows(const Matrix& l, const Matrix& rhs_rows, Matrix& out) {
  require(rhs_rows.cols() == l.rows(), "solve_lower_rows: dimension mismatch");
  out.resize(rhs_rows.rows(), rhs_rows.cols());
  std::size_t j = 0;
  std::vector<double> panel;
  for (; j + simd::kLanes <= rhs_rows.rows(); j += simd::kLanes) {
    solve_lower_panel4(l, rhs_rows.row(j), rhs_rows.row(j + 1),
                       rhs_rows.row(j + 2), rhs_rows.row(j + 3), out.row(j),
                       out.row(j + 1), out.row(j + 2), out.row(j + 3), panel);
  }
  for (; j < rhs_rows.rows(); ++j) {
    solve_lower(l, rhs_rows.row(j), out.row(j));
  }
}

Matrix solve_lower_transposed_rows(const Matrix& l, const Matrix& rhs_rows) {
  require(rhs_rows.cols() == l.rows(),
          "solve_lower_transposed_rows: dimension mismatch");
  Matrix out(rhs_rows.rows(), rhs_rows.cols());
  std::size_t j = 0;
  std::vector<double> panel;
  for (; j + simd::kLanes <= rhs_rows.rows(); j += simd::kLanes) {
    solve_lower_transposed_panel4(
        l, rhs_rows.row(j), rhs_rows.row(j + 1), rhs_rows.row(j + 2),
        rhs_rows.row(j + 3), out.row(j), out.row(j + 1), out.row(j + 2),
        out.row(j + 3), panel);
  }
  for (; j < rhs_rows.rows(); ++j) {
    solve_lower_transposed(l, rhs_rows.row(j), out.row(j));
  }
  return out;
}

void cholesky_update_rank1(Matrix& l, std::size_t begin, std::span<double> v) {
  const std::size_t n = l.rows();
  require(l.rows() == l.cols(), "cholesky_update_rank1: factor must be square");
  require(begin <= n && v.size() == n - begin,
          "cholesky_update_rank1: workspace size mismatch");
  // Givens-style sweep (LINPACK dchud): rotate v into the factor one
  // column at a time.  Every pivot sqrt(l² + v²) is positive, so a
  // positive update cannot fail on finite input.
  for (std::size_t k = begin; k < n; ++k) {
    const double lkk = l(k, k);
    const double vk = v[k - begin];
    const double r = std::sqrt(lkk * lkk + vk * vk);
    const double c = r / lkk;
    const double s = vk / lkk;
    l(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      l(i, k) = (l(i, k) + s * v[i - begin]) / c;
      v[i - begin] = c * v[i - begin] - s * l(i, k);
    }
  }
}

void cholesky_downdate_rank1(Matrix& l, std::span<double> v) {
  const std::size_t n = l.rows();
  require(l.rows() == l.cols(),
          "cholesky_downdate_rank1: factor must be square");
  require(v.size() == n, "cholesky_downdate_rank1: workspace size mismatch");
  for (std::size_t k = 0; k < n; ++k) {
    const double lkk = l(k, k);
    const double d2 = lkk * lkk - v[k] * v[k];
    if (!(d2 > 0.0) || !std::isfinite(d2)) {
      throw NumericalError(
          "cholesky_downdate_rank1: downdated matrix not positive definite");
    }
    const double r = std::sqrt(d2);
    const double c = r / lkk;
    const double s = v[k] / lkk;
    l(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      l(i, k) = (l(i, k) - s * v[i]) / c;
      v[i] = c * v[i] - s * l(i, k);
    }
  }
}

std::vector<double> cholesky_solve(const Matrix& l,
                                   std::span<const double> b) {
  return solve_lower_transposed(l, solve_lower(l, b));
}

double log_det_from_cholesky(const Matrix& l) {
  double sum = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) sum += std::log(l(i, i));
  return 2.0 * sum;
}

}  // namespace robotune::linalg
