// Gaussian-process regression surrogate (Rasmussen & Williams 2005, Alg 2.1).
//
// Targets are standardized internally (zero mean, unit variance) so the
// kernel's default hyperparameters are sensible for execution times of any
// magnitude.  Hyperparameters can be refit by maximizing the log marginal
// likelihood with multi-start L-BFGS over log-parameters, using its
// analytic gradient (Rasmussen & Williams eq. 5.9).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gp/kernel.h"
#include "gp/surrogate.h"
#include "linalg/matrix.h"

namespace robotune::gp {

struct GpOptions {
  /// Refit kernel hyperparameters by LML maximization on every fit().
  bool optimize_hyperparameters = true;
  /// L-BFGS restarts for the LML optimization.
  int hyperparameter_restarts = 3;
  /// Box half-width (in log space, around the current values) searched
  /// during hyperparameter optimization.
  double log_search_radius = 4.0;
  /// When > 0 and the training set reaches this many points, the LML
  /// optimization drops to a single L-BFGS descent warm-started from the
  /// current kernel parameters (the previous round's optimum) instead of
  /// `hyperparameter_restarts` multi-starts — past the sparse switchover
  /// the incumbent is a good prior and the extra starts are pure O(n³)
  /// factorization cost.  0 keeps the full multi-start everywhere.
  int shrink_restarts_at = 0;
};

class GaussianProcess : public Surrogate {
 public:
  explicit GaussianProcess(std::unique_ptr<Kernel> kernel,
                           GpOptions options = {}, std::uint64_t seed = 11);

  GaussianProcess(const GaussianProcess& other);
  GaussianProcess& operator=(const GaussianProcess& other);
  GaussianProcess(GaussianProcess&&) noexcept = default;
  GaussianProcess& operator=(GaussianProcess&&) noexcept = default;

  /// Fits the posterior on (X, y).  X rows are points in the (typically
  /// unit-cube) search space.  With optimize_hyperparameters, first
  /// maximizes the log marginal likelihood: every evaluation costs one
  /// factorization (logical counters `gp.lml_evals` and
  /// `gp.factorizations`, the latter counting every factorization, so a
  /// fit counts one more factorization than evaluations), plus K⁻¹ when
  /// L-BFGS asks for the gradient.
  void fit(const std::vector<std::vector<double>>& x,
           std::span<const double> y);

  /// Incrementally adds one observation without refitting kernel
  /// hyperparameters: the Cholesky factor is extended by one row in
  /// O(n²) instead of refactorized in O(n³), growing inside geometrically
  /// reserved storage so long online sessions do not reallocate-and-copy
  /// the factor per observation.  Target standardization is recomputed,
  /// so predictions are identical (to rounding) to a batch fit with the
  /// same kernel.  Requires a prior fit().
  ///
  /// Strong exception guarantee: the degenerate path (near-duplicate
  /// point) falls back to a full refactorization, which can throw
  /// NumericalError — on throw the model is rolled back to its state
  /// before the call and remains usable for prediction.
  void add_point(const std::vector<double>& x, double y) override;

  /// Incrementally removes training point `index`.  Removing the *last*
  /// point (the constant-liar purge's LIFO case) truncates the factor in
  /// O(1) and bit-identically restores the pre-add_point factor; an
  /// interior index shifts the trailing rows and repairs the trailing
  /// block with one rank-1 Cholesky update — O((n − index)²), never
  /// O(n³).  Strong exception guarantee: the only throw (a chaos-injected
  /// downdate failure) happens before any mutation.
  void remove_point(std::size_t index) override;

  using Surrogate::predict;

  /// Posterior at one point with caller-supplied scratch; thread-safe for
  /// concurrent calls with distinct workspaces (the GP is only read).
  Prediction predict(std::span<const double> x,
                     GpWorkspace& ws) const override;

  /// Posterior mean/variance *and* their gradients in one O(n²) pass:
  /// one forward and one backward triangular solve against the cached
  /// Cholesky factor plus an O(n·d) analytic kernel-gradient sweep —
  /// versus the (2·dims + 1) full predictions a central-difference
  /// gradient costs.  Exact (Rasmussen & Williams Eq. 2.25/2.26
  /// differentiated), not an approximation.
  void predict_with_gradient(std::span<const double> x, GpWorkspace& ws,
                             PredictGradient& out) const override;

  /// Posterior over a batch of points: the cross-kernel matrix is built
  /// once and run through a single multi-RHS triangular solve, reusing the
  /// GP-owned scratch matrices (same single-thread caveat as the
  /// convenience predict(x)).  Each returned Prediction is bit-identical
  /// to predict() on the same point.
  std::vector<Prediction> predict_batch(
      std::span<const std::vector<double>> points) const override;

  /// Log marginal likelihood of the current fit (standardized targets).
  double log_marginal_likelihood() const;

  /// The objective fit() minimizes: sets the kernel's hyperparameters to
  /// `log_params`, refactorizes, and returns −LML; when `grad` is
  /// non-empty (size kernel().num_params()) also writes ∂(−LML)/∂log θ.
  /// A failed factorization (NumericalError) returns 1e12 and an
  /// all-zero gradient.  Requires a prior fit().
  double negative_log_marginal(std::span<const double> log_params,
                               std::span<double> grad);

  bool trained() const noexcept override { return !train_x_.empty(); }
  std::size_t num_points() const noexcept override { return train_x_.size(); }
  const Kernel& kernel() const { return *kernel_; }

  /// Best (lowest, in original units) observed target so far.
  double best_observed() const override;

  const char* tier() const noexcept override { return "exact"; }

 private:
  void factorize();
  void restandardize();

  std::unique_ptr<Kernel> kernel_;
  GpOptions options_;
  std::uint64_t seed_;

  std::vector<std::vector<double>> train_x_;
  std::vector<double> train_y_raw_;
  std::vector<double> train_y_;  // standardized
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  linalg::Matrix chol_;          // L with K = L L^T (may carry capacity)
  std::vector<double> alpha_;    // K^{-1} y (standardized)
  double log_marginal_ = 0.0;
};

}  // namespace robotune::gp
