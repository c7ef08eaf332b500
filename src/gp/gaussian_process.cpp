#include "gp/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/chaos.h"
#include "common/statistics.h"
#include "obs/metrics.h"
#include "opt/lbfgsb.h"

namespace robotune::gp {

double Prediction::stddev() const { return std::sqrt(std::max(0.0, variance)); }

double PredictGradient::stddev() const {
  return std::sqrt(std::max(0.0, variance));
}

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 GpOptions options, std::uint64_t seed)
    : kernel_(std::move(kernel)), options_(options), seed_(seed) {
  require(kernel_ != nullptr, "GaussianProcess: null kernel");
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : Surrogate(other),
      kernel_(other.kernel_->clone()),
      options_(other.options_),
      seed_(other.seed_),
      train_x_(other.train_x_),
      train_y_raw_(other.train_y_raw_),
      train_y_(other.train_y_),
      y_mean_(other.y_mean_),
      y_scale_(other.y_scale_),
      chol_(other.chol_),
      alpha_(other.alpha_),
      log_marginal_(other.log_marginal_) {}

GaussianProcess& GaussianProcess::operator=(const GaussianProcess& other) {
  if (this == &other) return *this;
  GaussianProcess copy(other);
  *this = std::move(copy);
  return *this;
}

void GaussianProcess::fit(const std::vector<std::vector<double>>& x,
                          std::span<const double> y) {
  require(!x.empty(), "GaussianProcess::fit: no training points");
  require(x.size() == y.size(), "GaussianProcess::fit: X/y size mismatch");
  train_x_ = x;
  train_y_raw_.assign(y.begin(), y.end());
  restandardize();

  if (options_.optimize_hyperparameters && train_x_.size() >= 4) {
    // Maximize the log marginal likelihood over log-hyperparameters by
    // minimizing its negation with multi-start L-BFGS; each evaluation
    // takes value and analytic gradient from one factorization.
    const std::vector<double> start = kernel_->log_params();
    opt::Bounds bounds;
    bounds.lower.resize(start.size());
    bounds.upper.resize(start.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
      bounds.lower[i] = start[i] - options_.log_search_radius;
      bounds.upper[i] = start[i] + options_.log_search_radius;
    }
    const opt::Objective objective =
        [this](std::span<const double> log_params, std::span<double> grad) {
          return negative_log_marginal(log_params, grad);
        };
    Rng rng(seed_);
    opt::MultiStartOptions ms;
    // Past the sparse switchover the warm start (the previous round's
    // optimum, passed as an explicit start candidate below) is a strong
    // prior; extra cold starts only multiply the O(n³) factorizations.
    const bool shrink =
        options_.shrink_restarts_at > 0 &&
        train_x_.size() >=
            static_cast<std::size_t>(options_.shrink_restarts_at);
    ms.starts = shrink ? 1 : options_.hyperparameter_restarts;
    ms.probe_candidates = 16;
    ms.lbfgsb.max_iterations = 50;
    const auto result =
        opt::multistart_minimize(objective, bounds, rng, ms, {start});
    kernel_->set_log_params(result.x);
  }
  factorize();
}

double GaussianProcess::negative_log_marginal(
    std::span<const double> log_params, std::span<double> grad) {
  require(trained(), "GaussianProcess::negative_log_marginal: fit() first");
  require(grad.empty() || grad.size() == log_params.size(),
          "GaussianProcess::negative_log_marginal: gradient size mismatch");
  obs::count("gp.lml_evals");
  kernel_->set_log_params(log_params);
  try {
    factorize();
  } catch (const NumericalError&) {
    // A finite wall the line search backs away from; a zero gradient
    // stops a descent that starts here instead of steering it.
    std::fill(grad.begin(), grad.end(), 0.0);
    return 1e12;
  }
  if (grad.empty()) return -log_marginal_;

  // GPML eq. 5.9: ∂LML/∂θ_j = ½ tr((ααᵀ − K⁻¹) ∂K/∂θ_j).  W = ααᵀ − K⁻¹
  // is symmetric, so each unordered pair is visited once, off-diagonal
  // pairs at double weight; the −½ makes it the gradient of −LML.
  const std::size_t n = train_x_.size();
  const linalg::Matrix k_inv = linalg::cholesky_inverse(chol_);
  std::fill(grad.begin(), grad.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double w = alpha_[i] * alpha_[j] - k_inv(i, j);
      kernel_->accumulate_param_gradient(train_x_[i], train_x_[j], i == j,
                                         (i == j ? -0.5 : -1.0) * w, grad);
    }
  }
  return -log_marginal_;
}

void GaussianProcess::add_point(const std::vector<double>& x, double y) {
  require(trained(), "GaussianProcess::add_point: fit() first");
  require(x.size() == train_x_.front().size(),
          "GaussianProcess::add_point: dimension mismatch");
  const std::size_t n = train_x_.size();

  // Cross-covariances against the existing points (raw kernel scale).
  std::vector<double> k_star(n, 0.0);
  kernel_->accumulate_covariance_row(train_x_, x, k_star);
  const double k_self =
      (*kernel_)(x, x) + kernel_->noise_variance() + 1e-10;

  // Extend L: new row l = L^{-1} k*, new diagonal sqrt(k** - l.l).
  const std::vector<double> l = linalg::solve_lower(chol_, k_star);
  const double d2 = k_self - linalg::dot(l, l);

  train_x_.push_back(x);
  train_y_raw_.push_back(y);
  obs::count("gp.add_point.calls");

  if (!(d2 > 1e-12)) {
    // Numerically degenerate (e.g. duplicate point): fall back to a full
    // refactorization with jitter escalation.  factorize() can throw
    // NumericalError even with jitter, so roll back the training-set
    // mutation first — callers (the BO engine's constant-liar fantasies,
    // the degradation ladder) rely on the strong exception guarantee to
    // keep using the model after a failed incremental update.
    obs::count("gp.add_point.degenerate");
    const double old_mean = y_mean_;
    const double old_scale = y_scale_;
    restandardize();
    try {
      factorize();
    } catch (const NumericalError&) {
      train_x_.pop_back();
      train_y_raw_.pop_back();
      train_y_.pop_back();
      y_mean_ = old_mean;
      y_scale_ = old_scale;
      for (std::size_t i = 0; i < train_y_.size(); ++i) {
        train_y_[i] = (train_y_raw_[i] - y_mean_) / y_scale_;
      }
      throw;
    }
    return;
  }

  // Geometric factor growth: one reallocate-and-copy per capacity
  // doubling instead of per observation — a long online session's factor
  // extends in place, O(n) writes for the new row.
  if (n + 1 > chol_.square_capacity()) {
    chol_.reserve_square(std::max<std::size_t>(
        n + 1, 2 * std::max<std::size_t>(1, chol_.square_capacity())));
    obs::count("gp.add_point.reserve");
  }
  chol_.grow_square();
  for (std::size_t j = 0; j < n; ++j) {
    chol_(n, j) = l[j];
    chol_(j, n) = 0.0;  // keep the (unread) upper triangle tidy
  }
  chol_(n, n) = std::sqrt(d2);

  // Re-standardize targets (O(n)) and re-solve for alpha (O(n²)).
  restandardize();
  alpha_ = linalg::cholesky_solve(chol_, train_y_);
  scratch_.clear();

  const double n_d = static_cast<double>(train_x_.size());
  log_marginal_ = -0.5 * linalg::dot(train_y_, alpha_) -
                  0.5 * linalg::log_det_from_cholesky(chol_) -
                  0.5 * n_d * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::remove_point(std::size_t index) {
  require(trained(), "GaussianProcess::remove_point: fit() first");
  const std::size_t n = train_x_.size();
  require(index < n, "GaussianProcess::remove_point: index out of range");
  require(n >= 2, "GaussianProcess::remove_point: cannot drop the last point");
  // Chaos site: fired before any mutation, so the strong exception
  // guarantee is trivially honest — the BO engine's constant-liar purge
  // falls back to its full-refit rung with the model intact.
  if (chaos::fail(chaos::Site::kCholesky)) {
    throw NumericalError(
        "GaussianProcess::remove_point: downdate failed (chaos)");
  }
  obs::count("gp.remove_point.calls");

  if (index + 1 < n) {
    // Interior removal: delete row/column `index` from the factor and
    // repair the trailing block.  With K partitioned around the removed
    // point, the trailing factor satisfies L33·L33ᵀ = K33 − L31·L31ᵀ −
    // v·vᵀ where v is the removed column's sub-diagonal slice — so the
    // new factor of K33 − L31·L31ᵀ is exactly the rank-1 *update* of L33
    // with v.  A positive update cannot fail (unlike a downdate).
    std::vector<double> v(n - 1 - index);
    for (std::size_t r = index + 1; r < n; ++r) {
      v[r - index - 1] = chol_(r, index);
    }
    // Shift trailing rows up / sub-diagonal columns left, in place.  Row
    // r's data is consumed before row r+1 overwrites it (ascending scan).
    for (std::size_t r = index + 1; r < n; ++r) {
      for (std::size_t c = 0; c < index; ++c) chol_(r - 1, c) = chol_(r, c);
      for (std::size_t c = index + 1; c <= r; ++c) {
        chol_(r - 1, c - 1) = chol_(r, c);
      }
    }
    chol_.shrink_square(n - 1);
    linalg::cholesky_update_rank1(chol_, index, v);
  } else {
    // LIFO removal (the constant-liar purge): the leading (n−1)² block
    // *is* the pre-add factor, bit for bit — truncation restores it.
    chol_.shrink_square(n - 1);
  }

  train_x_.erase(train_x_.begin() + static_cast<std::ptrdiff_t>(index));
  train_y_raw_.erase(train_y_raw_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  restandardize();
  alpha_ = linalg::cholesky_solve(chol_, train_y_);
  scratch_.clear();

  const double n_d = static_cast<double>(train_x_.size());
  log_marginal_ = -0.5 * linalg::dot(train_y_, alpha_) -
                  0.5 * linalg::log_det_from_cholesky(chol_) -
                  0.5 * n_d * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::restandardize() {
  y_mean_ = stats::mean(train_y_raw_);
  y_scale_ = stats::stddev(train_y_raw_);
  if (!(y_scale_ > 1e-12)) y_scale_ = 1.0;
  train_y_.resize(train_y_raw_.size());
  for (std::size_t i = 0; i < train_y_.size(); ++i) {
    train_y_[i] = (train_y_raw_[i] - y_mean_) / y_scale_;
  }
}

void GaussianProcess::factorize() {
  obs::count("gp.factorizations");
  const std::size_t n = train_x_.size();
  linalg::Matrix k(n, n);
  const double noise = kernel_->noise_variance();
  const std::span<const std::vector<double>> points(train_x_);
  for (std::size_t i = 0; i < n; ++i) {
    // Row i's lower triangle in one SIMD-blocked covariance sweep; the
    // freshly constructed matrix is zero-filled, so accumulation lands
    // the bare kernel values.
    kernel_->accumulate_covariance_row(points.subspan(0, i + 1), train_x_[i],
                                       k.row(i).subspan(0, i + 1));
    for (std::size_t j = 0; j < i; ++j) k(j, i) = k(i, j);
    k(i, i) += noise + 1e-10;  // numeric jitter
  }
  chol_ = linalg::cholesky(k);
  alpha_ = linalg::cholesky_solve(chol_, train_y_);
  scratch_.clear();  // training set changed; scratch sizes are stale

  const double n_d = static_cast<double>(n);
  log_marginal_ = -0.5 * linalg::dot(train_y_, alpha_) -
                  0.5 * linalg::log_det_from_cholesky(chol_) -
                  0.5 * n_d * std::log(2.0 * std::numbers::pi);
}

Prediction GaussianProcess::predict(std::span<const double> x,
                                    GpWorkspace& ws) const {
  require(trained(), "GaussianProcess::predict: not fitted");
  const std::size_t n = train_x_.size();
  ws.k_star.assign(n, 0.0);
  kernel_->accumulate_covariance_row(train_x_, x, ws.k_star);
  const double mean_std = linalg::dot(ws.k_star, alpha_);
  ws.v.resize(n);
  linalg::solve_lower(chol_, ws.k_star, ws.v);
  const double k_xx = (*kernel_)(x, x);
  const double var_std = std::max(0.0, k_xx - linalg::dot(ws.v, ws.v));

  Prediction p;
  p.mean = mean_std * y_scale_ + y_mean_;
  p.variance = var_std * y_scale_ * y_scale_;
  return p;
}

void GaussianProcess::predict_with_gradient(std::span<const double> x,
                                            GpWorkspace& ws,
                                            PredictGradient& out) const {
  require(trained(), "GaussianProcess::predict_with_gradient: not fitted");
  const std::size_t n = train_x_.size();
  const std::size_t dims = x.size();

  ws.k_star.assign(n, 0.0);
  kernel_->accumulate_covariance_row(train_x_, x, ws.k_star);
  const double mean_std = linalg::dot(ws.k_star, alpha_);
  ws.v.resize(n);
  linalg::solve_lower(chol_, ws.k_star, ws.v);
  const double k_xx = (*kernel_)(x, x);
  const double var_raw = k_xx - linalg::dot(ws.v, ws.v);

  // ∂μ/∂x = Jᵀ α and ∂σ²/∂x = −2 Jᵀ (K⁻¹ k*) with J_i = ∂k(x, X_i)/∂x.
  // K⁻¹ k* = L⁻ᵀ (L⁻¹ k*) = L⁻ᵀ v reuses the forward solve; each row of J
  // is produced once and folded into both gradients.
  ws.w.resize(n);
  linalg::solve_lower_transposed(chol_, ws.v, ws.w);
  out.dmean.assign(dims, 0.0);
  out.dvariance.assign(dims, 0.0);
  ws.kgrad.resize(dims);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(ws.kgrad.begin(), ws.kgrad.end(), 0.0);
    kernel_->accumulate_gradient(x, train_x_[i], ws.kgrad);
    linalg::axpy(alpha_[i], ws.kgrad, out.dmean);
    linalg::axpy(-2.0 * ws.w[i], ws.kgrad, out.dvariance);
  }

  out.mean = mean_std * y_scale_ + y_mean_;
  out.variance = std::max(0.0, var_raw) * y_scale_ * y_scale_;
  const double var_scale = y_scale_ * y_scale_;
  for (std::size_t d = 0; d < dims; ++d) {
    out.dmean[d] *= y_scale_;
    // The variance clip at 0 is a kink: report the zero subgradient there.
    out.dvariance[d] = var_raw > 0.0 ? out.dvariance[d] * var_scale : 0.0;
  }
}

std::vector<Prediction> GaussianProcess::predict_batch(
    std::span<const std::vector<double>> points) const {
  require(trained(), "GaussianProcess::predict_batch: not fitted");
  const std::size_t n = train_x_.size();
  const std::size_t m = points.size();
  obs::count("gp.predict_batch.calls");
  obs::count("gp.predict_batch.points", m);

  // One cross-kernel matrix (row per query point, contiguous) and one
  // multi-RHS forward solve instead of m separate k*/solve round trips.
  // Per-row arithmetic matches predict() exactly, so each Prediction is
  // bit-identical to the per-point path.  The scratch matrices reuse
  // their allocations across calls (every element is overwritten).
  linalg::Matrix& k_star = scratch_.k_rows;
  k_star.resize(m, n);
  for (std::size_t j = 0; j < m; ++j) {
    require(points[j].size() == train_x_.front().size(),
            "GaussianProcess::predict_batch: dimension mismatch");
    const auto row = k_star.row(j);
    std::fill(row.begin(), row.end(), 0.0);
    kernel_->accumulate_covariance_row(train_x_, points[j], row);
  }
  linalg::Matrix& v = scratch_.v_rows;
  linalg::solve_lower_rows(chol_, k_star, v);

  std::vector<Prediction> out(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double mean_std = linalg::dot(k_star.row(j), alpha_);
    const double k_xx = (*kernel_)(points[j], points[j]);
    const double var_std =
        std::max(0.0, k_xx - linalg::dot(v.row(j), v.row(j)));
    out[j].mean = mean_std * y_scale_ + y_mean_;
    out[j].variance = var_std * y_scale_ * y_scale_;
  }
  return out;
}

double GaussianProcess::log_marginal_likelihood() const {
  require(trained(), "GaussianProcess::log_marginal_likelihood: not fitted");
  return log_marginal_;
}

double GaussianProcess::best_observed() const {
  require(trained(), "GaussianProcess::best_observed: not fitted");
  return *std::min_element(train_y_raw_.begin(), train_y_raw_.end());
}

}  // namespace robotune::gp
