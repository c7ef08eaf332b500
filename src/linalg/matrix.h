// Dense row-major matrix and the handful of BLAS-like operations the
// Gaussian-process and optimizer code need.  Deliberately small: this is
// not a general linear-algebra library, it is the exact substrate required
// by src/gp and src/opt.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.h"

namespace robotune::linalg {

class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), stride_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  /// Reshapes in place, reusing the existing allocation when it is large
  /// enough.  Element values are unspecified afterwards — for workspace
  /// matrices whose every element the caller overwrites (a fresh
  /// Matrix(rows, cols) would pay a full zero-fill pass per call).
  /// Resets the stride: any reserved square capacity is forgotten.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * stride_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * stride_ + c];
  }

  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * stride_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * stride_, cols_};
  }

  /// Raw backing storage.  Rows are contiguous only while stride() ==
  /// cols() — true for every matrix that has not taken reserve_square().
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  /// Leading dimension of the row-major layout (>= cols()).
  std::size_t stride() const noexcept { return stride_; }

  // ---- square-factor capacity (incremental Cholesky growth) ------------
  //
  // A square matrix can reserve storage so its logical order grows one
  // row/column at a time *in place* — the GP's factor grows per
  // observation without the O(n²) reallocate-and-copy a fresh (n+1)²
  // matrix would cost every add.  The layout keeps stride() fixed at the
  // reserved capacity, so existing elements never move.

  /// Rows/cols the matrix can reach through grow_square() without
  /// reallocating.
  std::size_t square_capacity() const noexcept {
    return stride_ == 0 ? 0 : std::min(stride_, data_.size() / stride_);
  }

  /// Reserves square capacity `cap` (no-op when already reserved).  The
  /// matrix must be square; one reallocate-and-copy re-lays rows out on
  /// the new stride.
  void reserve_square(std::size_t cap);

  /// Grows a square matrix to (n+1)×(n+1) inside reserved capacity.
  /// Returns false (and leaves the matrix unchanged) when capacity is
  /// exhausted.  The new row and column contents are unspecified.
  bool grow_square();

  /// Shrinks a square matrix's logical order to `n` (<= rows()), keeping
  /// the storage and the leading n×n block bit-for-bit intact.
  void shrink_square(std::size_t n);

  Matrix transposed() const;

  /// this * x  (rows() == result size, cols() == x size).
  std::vector<double> matvec(std::span<const double> x) const;

  /// this^T * x.
  std::vector<double> matvec_transposed(std::span<const double> x) const;

  /// Cache-blocked this * rhs.  Tiles the output columns so each column
  /// panel of `rhs` stays cache-resident across rows; the per-element
  /// accumulation order over k is unchanged (ascending), so the product
  /// is bit-identical to the naive i-k-j loop.
  Matrix operator*(const Matrix& rhs) const;

  /// this * rhs^T without materializing the transpose: out(i,j) is the
  /// dot product of row i of this and row j of rhs — two contiguous
  /// streams, the cache-optimal layout for row-major Gram products.
  /// Accumulation order matches dot(), so the result is bit-identical to
  /// (*this) * rhs.transposed().
  Matrix multiply_transposed(const Matrix& rhs) const;

  void add_diagonal(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;  ///< leading dimension, >= cols_
  std::vector<double> data_;
};

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);

/// a += alpha * b
void axpy(double alpha, std::span<const double> b, std::span<double> a);

/// Lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix.  If factorization fails, retries with exponentially growing
/// diagonal jitter (starting at `jitter`) up to `max_attempts`; throws
/// NumericalError if all attempts fail.  Returns the factor L with
/// A + jitter*I = L L^T.
Matrix cholesky(const Matrix& a, double jitter = 1e-10,
                int max_attempts = 8);

/// Solve L y = b for lower-triangular L.
std::vector<double> solve_lower(const Matrix& l, std::span<const double> b);

/// Allocation-free overload: writes the solution into `y` (same size as
/// `b`; may not alias it).  Identical arithmetic to the vector overload.
void solve_lower(const Matrix& l, std::span<const double> b,
                 std::span<double> y);

/// Solve L^T x = y for lower-triangular L.
std::vector<double> solve_lower_transposed(const Matrix& l,
                                           std::span<const double> y);

/// Allocation-free overload (see solve_lower).
void solve_lower_transposed(const Matrix& l, std::span<const double> y,
                            std::span<double> x);

/// Multi-RHS forward solve: row j of the result solves L y = rhs_rows.row(j).
/// Each right-hand side lives in a *row* (not column) so both the inputs
/// and the solutions are contiguous; the per-RHS arithmetic is exactly
/// solve_lower's, so every row is bit-identical to the single-RHS solve.
Matrix solve_lower_rows(const Matrix& l, const Matrix& rhs_rows);

/// Allocation-free overload: `out` is resized to rhs_rows' shape and every
/// element overwritten.  Identical arithmetic to the returning overload.
void solve_lower_rows(const Matrix& l, const Matrix& rhs_rows, Matrix& out);

/// In-place rank-1 *update* of a lower Cholesky factor: the trailing
/// block of `l` starting at row/column `begin` is replaced by the factor
/// of L33·L33ᵀ + v·vᵀ (the classic c/s-rotation sweep).  `v` has
/// l.rows() − begin entries and is consumed as rotation workspace.
/// Cannot fail for a valid factor and finite v: the updated matrix is
/// positive definite by construction.  O((n − begin)²).
void cholesky_update_rank1(Matrix& l, std::size_t begin, std::span<double> v);

/// In-place rank-1 *downdate*: `l` becomes the factor of L·Lᵀ − v·vᵀ.
/// Throws NumericalError when the downdated matrix is not positive
/// definite — `l` is left partially rotated, so callers needing the
/// strong guarantee downdate a copy and commit on success.  `v` (size
/// l.rows()) is consumed as workspace.  O(n²).
void cholesky_downdate_rank1(Matrix& l, std::span<double> v);

/// Solve (L L^T) x = b given the Cholesky factor L.
std::vector<double> cholesky_solve(const Matrix& l, std::span<const double> b);

/// A⁻¹ = L⁻ᵀ L⁻¹ given the Cholesky factor L of A (both triangles
/// filled).  Forms L⁻¹ by forward substitution, then accumulates the
/// lower triangle of L⁻ᵀL⁻¹ row by row: ~n³/3 multiply-adds in all,
/// about twice the factorization.
Matrix cholesky_inverse(const Matrix& l);

/// log(det(A)) = 2 * sum(log(diag(L))) given the Cholesky factor L.
double log_det_from_cholesky(const Matrix& l);

}  // namespace robotune::linalg
