// Unit tests for src/linalg: dense matrix ops, Cholesky, triangular solves.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace robotune::linalg {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  // A = B B^T + n I is symmetric positive definite.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1, 1);
  }
  Matrix a = b * b.transposed();
  a.add_diagonal(static_cast<double>(n));
  return a;
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, IdentityHasUnitDiagonal) {
  const Matrix id = Matrix::identity(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m(3, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) m(i, j) = rng.uniform();
  }
  const Matrix tt = m.transposed().transposed();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(tt(i, j), m(i, j));
  }
}

TEST(MatrixTest, MatvecKnownResult) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  const std::vector<double> x = {1, 0, -1};
  const auto y = m.matvec(x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(MatrixTest, MatvecTransposedMatchesExplicitTranspose) {
  Rng rng(2);
  Matrix m(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  std::vector<double> x = {0.5, -1.0, 2.0, 0.25};
  const auto a = m.matvec_transposed(x);
  const auto b = m.transposed().matvec(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-14);
}

TEST(MatrixTest, MatmulAgainstIdentity) {
  Rng rng(3);
  Matrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = rng.uniform();
  }
  const Matrix prod = m * Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(prod(i, j), m(i, j));
  }
}

TEST(MatrixTest, MatmulDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, InvalidArgument);
}

TEST(MatrixTest, MatvecDimensionMismatchThrows) {
  Matrix a(2, 3);
  std::vector<double> x(2, 0.0);
  EXPECT_THROW(a.matvec(x), InvalidArgument);
}

TEST(VectorOpsTest, DotAndNorm) {
  const std::vector<double> a = {3, 4};
  const std::vector<double> b = {1, 2};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(VectorOpsTest, AxpyAccumulates) {
  std::vector<double> a = {1, 1, 1};
  const std::vector<double> b = {1, 2, 3};
  axpy(2.0, b, a);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[1], 5.0);
  EXPECT_DOUBLE_EQ(a[2], 7.0);
}

TEST(CholeskyTest, FactorReproducesMatrix) {
  Rng rng(5);
  const Matrix a = random_spd(8, rng);
  const Matrix l = cholesky(a);
  const Matrix reconstructed = l * l.transposed();
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(reconstructed(i, j), a(i, j), 1e-9);
    }
  }
}

TEST(CholeskyTest, FactorIsLowerTriangular) {
  Rng rng(7);
  const Matrix l = cholesky(random_spd(6, rng));
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(CholeskyTest, SingularMatrixUsesJitter) {
  // Rank-deficient PSD matrix: ones everywhere.
  Matrix a(4, 4, 1.0);
  const Matrix l = cholesky(a, 1e-8);
  // Still produces a usable factor close to the original.
  const Matrix r = l * l.transposed();
  EXPECT_NEAR(r(0, 0), 1.0, 1e-3);
}

TEST(CholeskyTest, IndefiniteMatrixThrows) {
  Matrix a = Matrix::identity(3);
  a(1, 1) = -5.0;
  EXPECT_THROW(cholesky(a, 1e-10, 2), NumericalError);
}

TEST(CholeskyTest, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(cholesky(a), InvalidArgument);
}

TEST(SolveTest, LowerTriangularSolve) {
  Matrix l(2, 2);
  l(0, 0) = 2.0;
  l(1, 0) = 1.0;
  l(1, 1) = 3.0;
  const std::vector<double> b = {4.0, 11.0};
  const auto y = solve_lower(l, b);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(SolveTest, CholeskySolveMatchesDirectResidual) {
  Rng rng(11);
  const Matrix a = random_spd(10, rng);
  std::vector<double> b(10);
  for (auto& v : b) v = rng.uniform(-2, 2);
  const Matrix l = cholesky(a);
  const auto x = cholesky_solve(l, b);
  const auto ax = a.matvec(x);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(SolveTest, CholeskyInverseTimesMatrixIsIdentity) {
  Rng rng(12);
  const Matrix a = random_spd(9, rng);
  Matrix l = cholesky(a);
  const Matrix inv = cholesky_inverse(l);
  const Matrix product = a * inv;
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(product(i, j), i == j ? 1.0 : 0.0, 1e-10);
      EXPECT_EQ(inv(i, j), inv(j, i));
    }
  }
  // A factor carrying reserved capacity (the GP's grown factor) reads
  // through its stride and gives the same inverse.
  l.reserve_square(16);
  const Matrix strided = cholesky_inverse(l);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) EXPECT_EQ(strided(i, j), inv(i, j));
  }
}

TEST(SolveTest, LowerTransposedSolveResidual) {
  Rng rng(13);
  const Matrix a = random_spd(6, rng);
  const Matrix l = cholesky(a);
  std::vector<double> y(6);
  for (auto& v : y) v = rng.uniform(-1, 1);
  const auto x = solve_lower_transposed(l, y);
  const auto check = l.transposed().matvec(x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(check[i], y[i], 1e-9);
}

TEST(SolveTest, LogDetMatchesDiagonalProduct) {
  Rng rng(17);
  const Matrix a = random_spd(5, rng);
  const Matrix l = cholesky(a);
  double expected = 0.0;
  for (std::size_t i = 0; i < 5; ++i) expected += 2.0 * std::log(l(i, i));
  EXPECT_NEAR(log_det_from_cholesky(l), expected, 1e-12);
}

// ----------------------------------------------- hot-path equivalences ----
// The cache-blocked / batched kernels promise *bit-identical* results to
// their scalar counterparts (DESIGN.md §8); these tests pin that contract
// with exact floating-point comparisons.

TEST(MatmulBlockedTest, BitIdenticalToNaiveLoopAcrossTileBoundary) {
  // 70x90 * 90x130 spans more than one 64-column tile in every direction.
  Rng rng(23);
  Matrix a(70, 90);
  Matrix b(90, 130);
  for (double& v : a.data()) v = rng.uniform(-2, 2);
  for (double& v : b.data()) v = rng.uniform(-2, 2);
  const Matrix blocked = a * b;
  Matrix naive(70, 130);
  for (std::size_t i = 0; i < 70; ++i) {
    for (std::size_t k = 0; k < 90; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < 130; ++j) naive(i, j) += aik * b(k, j);
    }
  }
  for (std::size_t i = 0; i < 70; ++i) {
    for (std::size_t j = 0; j < 130; ++j) {
      EXPECT_EQ(blocked(i, j), naive(i, j));  // exact, not approximate
    }
  }
}

TEST(MatmulBlockedTest, MultiplyTransposedMatchesExplicitTranspose) {
  Rng rng(29);
  Matrix a(7, 40);
  Matrix b(9, 40);
  for (double& v : a.data()) v = rng.uniform(-1, 1);
  for (double& v : b.data()) v = rng.uniform(-1, 1);
  const Matrix fused = a.multiply_transposed(b);
  const Matrix reference = a * b.transposed();
  ASSERT_EQ(fused.rows(), reference.rows());
  ASSERT_EQ(fused.cols(), reference.cols());
  for (std::size_t i = 0; i < fused.rows(); ++i) {
    for (std::size_t j = 0; j < fused.cols(); ++j) {
      EXPECT_EQ(fused(i, j), reference(i, j));
    }
  }
}

TEST(SolveTest, MultiRhsForwardSolveBitIdenticalToPerRhs) {
  Rng rng(31);
  const Matrix l = cholesky(random_spd(12, rng));
  Matrix rhs(5, 12);
  for (double& v : rhs.data()) v = rng.uniform(-3, 3);
  const Matrix batched = solve_lower_rows(l, rhs);
  for (std::size_t j = 0; j < 5; ++j) {
    const auto single = solve_lower(l, rhs.row(j));
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_EQ(batched(j, i), single[i]);
    }
  }
}

TEST(SolveTest, SpanSolvesBitIdenticalToAllocatingOverloads) {
  Rng rng(41);
  const Matrix l = cholesky(random_spd(8, rng));
  std::vector<double> b(8);
  for (double& v : b) v = rng.uniform(-1, 1);
  std::vector<double> y(8), x(8);
  solve_lower(l, b, y);
  solve_lower_transposed(l, y, x);
  const auto y_ref = solve_lower(l, b);
  const auto x_ref = solve_lower_transposed(l, y_ref);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(y[i], y_ref[i]);
    EXPECT_EQ(x[i], x_ref[i]);
  }
}

TEST(CholeskyTest, JitterRetryWorkspaceLeavesNoResidue) {
  // A rank-one PSD matrix fails the jitter-free attempt partway through,
  // leaving garbage in the shared workspace; the successful retry must
  // produce exactly the factor a fresh allocation would have.  Computing
  // the reference on the pre-jittered matrix (whose first attempt
  // succeeds) exercises a workspace that was never dirtied.
  Matrix ones(5, 5, 1.0);
  const double jitter = 1e-8;
  const Matrix from_retry = cholesky(ones, jitter);
  Matrix jittered = ones;
  jittered.add_diagonal(jitter);
  const Matrix fresh = cholesky(jittered);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(from_retry(i, j), fresh(i, j));
    }
  }
  // The wipe must also clear the strict upper triangle.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_EQ(from_retry(i, j), 0.0);
    }
  }
}

// Property sweep: Cholesky solve residuals stay small across sizes.
class CholeskySizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizeTest, SolveResidualSmall) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_spd(n, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto x = cholesky_solve(cholesky(a), b);
  const auto ax = a.matvec(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50, 100));

TEST(CholeskyRank1Test, UpdateMatchesDirectFactorization) {
  Rng rng(41);
  const std::size_t n = 12;
  const Matrix a = random_spd(n, rng);
  std::vector<double> v(n);
  for (auto& e : v) e = rng.uniform(-1, 1);

  Matrix l = cholesky(a);
  std::vector<double> work = v;
  cholesky_update_rank1(l, 0, work);

  Matrix updated = a;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) updated(i, j) += v[i] * v[j];
  }
  const Matrix direct = cholesky(updated);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(l(i, j), direct(i, j), 1e-8) << i << "," << j;
    }
  }
}

TEST(CholeskyRank1Test, TrailingBlockUpdateLeavesLeadingRowsIntact) {
  Rng rng(42);
  const std::size_t n = 10;
  const std::size_t begin = 4;
  const Matrix a = random_spd(n, rng);
  Matrix l = cholesky(a);
  const Matrix before = l;
  std::vector<double> v(n - begin);
  for (auto& e : v) e = rng.uniform(-1, 1);
  std::vector<double> work = v;
  cholesky_update_rank1(l, begin, work);

  // Rows above `begin` (and the sub-diagonal columns left of it) are not
  // part of the trailing block and must not move.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (i < begin || j < begin) {
        EXPECT_EQ(l(i, j), before(i, j));
      }
    }
  }
  // The trailing block factors L33 L33ᵀ + v vᵀ.
  Matrix expected(n - begin, n - begin);
  for (std::size_t i = begin; i < n; ++i) {
    for (std::size_t j = begin; j <= i; ++j) {
      double sum = v[i - begin] * v[j - begin];
      for (std::size_t k = begin; k <= j; ++k) {
        sum += before(i, k) * before(j, k);
      }
      expected(i - begin, j - begin) = sum;
      expected(j - begin, i - begin) = sum;
    }
  }
  const Matrix direct = cholesky(expected, 0.0, 1);
  for (std::size_t i = begin; i < n; ++i) {
    for (std::size_t j = begin; j <= i; ++j) {
      EXPECT_NEAR(l(i, j), direct(i - begin, j - begin), 1e-8);
    }
  }
}

TEST(CholeskyRank1Test, DowndateInvertsUpdate) {
  Rng rng(43);
  const std::size_t n = 9;
  const Matrix a = random_spd(n, rng);
  std::vector<double> v(n);
  for (auto& e : v) e = rng.uniform(-1, 1);

  // Factor of A + vvᵀ, then downdate by v: must recover chol(A).
  Matrix plus = a;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) plus(i, j) += v[i] * v[j];
  }
  Matrix l = cholesky(plus, 0.0, 1);
  std::vector<double> work = v;
  cholesky_downdate_rank1(l, work);
  const Matrix direct = cholesky(a, 0.0, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(l(i, j), direct(i, j), 1e-8);
    }
  }
}

TEST(CholeskyRank1Test, DowndateToIndefiniteThrows) {
  // Removing a vector larger than the matrix supports loses positive
  // definiteness mid-sweep.
  Matrix l = cholesky(Matrix::identity(4), 0.0, 1);
  std::vector<double> v(4, 10.0);
  EXPECT_THROW(cholesky_downdate_rank1(l, v), NumericalError);
}

TEST(MultiplyTransposedTest, BitIdenticalToNaiveDotLoop) {
  Rng rng(46);
  // Off-lane sizes exercise the scalar tail; the self-product takes the
  // mirrored Gram fast path.
  for (const auto [m, n, k] : {std::array<std::size_t, 3>{7, 5, 13},
                               {8, 8, 16},
                               {9, 9, 30}}) {
    Matrix a(m, k), b(n, k);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < k; ++j) a(i, j) = rng.uniform(-1, 1);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.uniform(-1, 1);
    }
    const Matrix ab = a.multiply_transposed(b);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(ab(i, j), dot(a.row(i), b.row(j))) << i << "," << j;
      }
    }
    const Matrix aa = a.multiply_transposed(a);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(aa(i, j), dot(a.row(i), a.row(j))) << i << "," << j;
      }
    }
  }
}

TEST(MatrixCapacityTest, ReserveGrowShrinkKeepElementsBitIdentical) {
  Rng rng(44);
  Matrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = rng.uniform(-1, 1);
  }
  const Matrix original = m;

  m.reserve_square(8);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.square_capacity(), 8u);
  EXPECT_EQ(m.stride(), 8u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), original(i, j));
  }

  // Grow to capacity without reallocation; new cells are writable.
  for (std::size_t n = 3; n < 8; ++n) {
    ASSERT_TRUE(m.grow_square());
    EXPECT_EQ(m.rows(), n + 1);
    for (std::size_t j = 0; j <= n; ++j) {
      m(n, j) = static_cast<double>(n * 100 + j);
      m(j, n) = 0.0;
    }
  }
  EXPECT_FALSE(m.grow_square());  // capacity exhausted
  EXPECT_EQ(m.rows(), 8u);

  m.shrink_square(3);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), original(i, j));
  }
  // Capacity survives the shrink: growth is possible again immediately.
  EXPECT_EQ(m.square_capacity(), 8u);
  EXPECT_TRUE(m.grow_square());
}

TEST(MatrixCapacityTest, StridedMatrixOpsStayCorrect) {
  // matvec / solve paths read through stride(); a reserved matrix must
  // behave exactly like its compact copy.
  Rng rng(45);
  const std::size_t n = 6;
  const Matrix a = random_spd(n, rng);
  Matrix l = cholesky(a);
  Matrix reserved = l;
  reserved.reserve_square(16);
  std::vector<double> b(n);
  for (auto& e : b) e = rng.uniform(-1, 1);

  const auto x_compact = solve_lower(l, b);
  const auto x_strided = solve_lower(reserved, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_compact[i], x_strided[i]);
  const auto y_compact = l.matvec(b);
  const auto y_strided = reserved.matvec(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y_compact[i], y_strided[i]);
}

}  // namespace
}  // namespace robotune::linalg
