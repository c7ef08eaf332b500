// Small statistics toolkit shared across modules: moments, quantiles,
// ranking metrics, and the normal distribution functions needed by the
// Bayesian-optimization acquisition functions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace robotune::stats {

/// Arithmetic mean.  Returns 0 for an empty input.
double mean(std::span<const double> xs);

/// Unbiased (n-1) sample variance.  Returns 0 for fewer than two values.
double variance(std::span<const double> xs);

/// Sample standard deviation (sqrt of the unbiased variance).
double stddev(std::span<const double> xs);

double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0, 1].  Copies and partially sorts.
double quantile(std::span<const double> xs, double q);

/// Median (quantile 0.5).
double median(std::span<const double> xs);

/// Coefficient of determination of predictions vs. ground truth.
/// R^2 = 1 - SS_res / SS_tot; 1.0 when y has no variance and the
/// prediction is exact, 0.0 when prediction is no better than the mean,
/// negative for arbitrarily worse models.
double r2_score(std::span<const double> y_true, std::span<const double> y_pred);

/// Recall (true-positive rate) of a predicted set vs. a ground-truth set of
/// indices: |truth ∩ predicted| / |truth|.  Returns 1.0 for an empty truth.
double recall(std::span<const std::size_t> truth,
              std::span<const std::size_t> predicted);

/// Standard normal probability density function.
double normal_pdf(double z);

/// Standard normal cumulative distribution function (via erfc, ~1e-15 acc).
double normal_cdf(double z);

/// Summary of a sample used by the figure-5 style distribution reports.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

Summary summarize(std::span<const double> xs);

}  // namespace robotune::stats
