// Tests for src/gp: kernels, Gaussian-process regression, acquisition
// functions, GP-Hedge portfolio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/chaos.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "gp/acquisition.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"
#include "obs/metrics.h"
#include "opt/lbfgsb.h"
#include "numeric_gradient.h"

namespace robotune::gp {
namespace {

// Central-difference gradient of f at x (reference for the analytic paths).
std::vector<double> numeric_grad(
    const std::function<double(std::span<const double>)>& f,
    std::span<const double> x, double step = 1e-6) {
  std::vector<double> grad(x.size());
  const auto obj = opt::numeric_gradient(f, step);
  obj(x, grad);
  return grad;
}

// A small 2-D training set with mild noise, shared by the gradient tests.
GaussianProcess fitted_gp_2d() {
  Rng rng(17);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 12; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    x.push_back({a, b});
    y.push_back(std::sin(5.0 * a) + (b - 0.4) * (b - 0.4) * 3.0 +
                rng.normal(0, 0.01));
  }
  GaussianProcess gp(ard_kernel(2, 0.3, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  return gp;
}

// ------------------------------------------------------------- kernels ----

TEST(Matern52ArdTest, IrrelevantDimensionDropsOut) {
  Kernel k(2, 0.5, 1.0);
  // Make dimension 1 irrelevant via a huge length scale.
  k.set_log_params(
      std::vector<double>{std::log(0.5), std::log(1e6), 0.0, std::log(1e-3)});
  const std::vector<double> a = {0.2, 0.1};
  const std::vector<double> b = {0.2, 0.9};  // differs only in dim 1
  EXPECT_NEAR(k(a, b), k(a, a), 1e-6);
  // A longer length scale decays slower along its dimension.
  const std::vector<double> c = {0.7, 0.1};  // differs only in dim 0
  EXPECT_LT(k(a, c), k(a, b));
}

TEST(Matern52ArdTest, MatchesIsotropicWhenScalesEqual) {
  // Equal scales give the isotropic Matérn 5/2 of the Euclidean distance.
  const Kernel k(3, 0.4, 1.5, 0.25);
  const std::vector<double> a = {0.1, 0.2, 0.3};
  const std::vector<double> b = {0.9, 0.5, 0.4};
  const std::vector<double> c = {0.2, 0.25, 0.3};
  const double z = std::sqrt(5.0) * std::sqrt(0.64 + 0.09 + 0.01) / 0.4;
  EXPECT_NEAR(k(a, b), 1.5 * (1.0 + z + z * z / 3.0) * std::exp(-z), 1e-12);
  // Symmetric, positive, decaying with distance.
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  EXPECT_GT(k(a, b), 0.0);
  EXPECT_GT(k(a, c), k(a, b));
  // Self-covariance is s²: the white noise σ² is not part of k(x, x); it
  // enters only the observed diagonal, through noise_variance().
  EXPECT_NEAR(k(a, a), 1.5, 1e-12);
  EXPECT_EQ(k.noise_variance(), 0.25);
}

TEST(Matern52ArdTest, ParamsRoundTrip) {
  Kernel k(2, 0.3, 2.0, 0.1);
  auto p = k.log_params();
  ASSERT_EQ(p.size(), 4u);
  ASSERT_EQ(k.num_params(), 4u);
  p[0] = std::log(0.9);
  k.set_log_params(p);
  EXPECT_NEAR(k.length_scales()[0], 0.9, 1e-12);
  EXPECT_NEAR(k.length_scales()[1], 0.3, 1e-12);
  EXPECT_NEAR(k.signal_variance(), 2.0, 1e-12);
  EXPECT_NEAR(k.noise_variance(), 0.1, 1e-12);
  // A clone carries every parameter.
  const auto clone = k.clone();
  EXPECT_EQ(clone->log_params(), k.log_params());
  const std::vector<double> a = {0.0, 0.4};
  const std::vector<double> b = {0.2, 0.1};
  EXPECT_EQ((*clone)(a, b), k(a, b));
  // Inflating the noise moves σ² alone, by exactly the amount given.
  clone->inflate_noise(0.1);
  EXPECT_EQ(clone->noise_variance(), k.noise_variance() + 0.1);
  EXPECT_EQ((*clone)(a, b), k(a, b));
}

TEST(Matern52ArdTest, InvalidParametersThrow) {
  EXPECT_THROW(Kernel(0), InvalidArgument);
  EXPECT_THROW(Kernel(2, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(Kernel(2, 1.0, 0.0), InvalidArgument);
  EXPECT_THROW(Kernel(2, 1.0, 1.0, -1e-3), InvalidArgument);
  Kernel k(2);
  EXPECT_THROW(k.set_log_params(std::vector<double>(3, 0.0)),
               InvalidArgument);
  EXPECT_THROW(k.inflate_noise(-0.1), InvalidArgument);
}

TEST(Matern52ArdTest, ExtractsHyperparametersForItsDimension) {
  const Kernel k(3, 0.4, 1.5, 2e-2);
  const auto hypers = extract_matern_hyperparams(k, 3);
  ASSERT_TRUE(hypers.has_value());
  EXPECT_EQ(hypers->length_scales, (std::vector<double>{0.4, 0.4, 0.4}));
  EXPECT_EQ(hypers->signal_variance, 1.5);
  EXPECT_EQ(hypers->noise_variance, 2e-2);
  EXPECT_FALSE(extract_matern_hyperparams(k, 2).has_value());
  EXPECT_FALSE(extract_matern_hyperparams(k, 0).has_value());
}

// ------------------------------------------------------ Gaussian process ----

TEST(GpTest, InterpolatesNoiselessTrainingData) {
  std::vector<std::vector<double>> x = {{0.1}, {0.4}, {0.8}};
  std::vector<double> y = {1.0, 3.0, -2.0};
  GaussianProcess gp(ard_kernel(1, 0.3, 1.0, 1e-8), GpOptions{false});
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-3);
    EXPECT_LT(p.stddev(), 0.1);
  }
}

TEST(GpTest, UncertaintyGrowsAwayFromData) {
  std::vector<std::vector<double>> x = {{0.2}, {0.3}};
  std::vector<double> y = {1.0, 1.5};
  GaussianProcess gp(ard_kernel(1, 0.1, 1.0, 1e-6), GpOptions{false});
  gp.fit(x, y);
  const auto near = gp.predict(std::vector<double>{0.25});
  const auto far = gp.predict(std::vector<double>{0.95});
  EXPECT_LT(near.variance, far.variance);
}

TEST(GpTest, PredictionRevertsToMeanFarAway) {
  std::vector<std::vector<double>> x = {{0.5}};
  std::vector<double> y = {10.0};
  GaussianProcess gp(ard_kernel(1, 0.05, 1.0, 1e-6), GpOptions{false});
  gp.fit(x, y);
  // Standardization is degenerate with one point (scale=1), so the prior
  // mean equals the observed value; with more points it is their mean.
  std::vector<std::vector<double>> x2 = {{0.1}, {0.2}};
  std::vector<double> y2 = {4.0, 8.0};
  gp.fit(x2, y2);
  const auto far = gp.predict(std::vector<double>{0.99});
  EXPECT_NEAR(far.mean, 6.0, 0.5);
}

TEST(GpTest, HyperparameterFitImprovesMarginalLikelihood) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    const double xi = rng.uniform();
    x.push_back({xi});
    y.push_back(std::sin(7.0 * xi) + rng.normal(0, 0.05));
  }
  GaussianProcess fixed(ard_kernel(1, 1.5, 1.0, 1e-2), GpOptions{false});
  fixed.fit(x, y);
  GpOptions opt;
  opt.optimize_hyperparameters = true;
  GaussianProcess fitted(ard_kernel(1, 1.5, 1.0, 1e-2), opt);
  fitted.fit(x, y);
  EXPECT_GE(fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood() - 1e-6);
}

TEST(GpTest, ScaleInvariantThroughStandardization) {
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<double> y = {100.0, 300.0, 200.0};
  std::vector<double> y_scaled = {1000.0, 3000.0, 2000.0};
  GaussianProcess a(ard_kernel(1, 0.3, 1.0, 1e-6), GpOptions{false});
  GaussianProcess b(ard_kernel(1, 0.3, 1.0, 1e-6), GpOptions{false});
  a.fit(x, y);
  b.fit(x, y_scaled);
  const auto pa = a.predict(std::vector<double>{0.3});
  const auto pb = b.predict(std::vector<double>{0.3});
  EXPECT_NEAR(pb.mean, 10.0 * pa.mean, 1e-6);
  EXPECT_NEAR(pb.stddev(), 10.0 * pa.stddev(), 1e-6);
}

TEST(GpTest, BestObservedIsMinimum) {
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<double> y = {5.0, 2.0, 7.0};
  GaussianProcess gp(ard_kernel(1, 0.3), GpOptions{false});
  gp.fit(x, y);
  EXPECT_DOUBLE_EQ(gp.best_observed(), 2.0);
}

TEST(GpTest, CopySemanticsPreserveFit) {
  std::vector<std::vector<double>> x = {{0.2}, {0.7}};
  std::vector<double> y = {1.0, -1.0};
  GaussianProcess gp(ard_kernel(1, 0.3, 1.0, 1e-6), GpOptions{false});
  gp.fit(x, y);
  GaussianProcess copy(gp);
  const auto p1 = gp.predict(std::vector<double>{0.4});
  const auto p2 = copy.predict(std::vector<double>{0.4});
  EXPECT_DOUBLE_EQ(p1.mean, p2.mean);
  EXPECT_DOUBLE_EQ(p1.variance, p2.variance);
}

TEST(GpTest, PredictBeforeFitThrows) {
  GaussianProcess gp(ard_kernel(1));
  EXPECT_THROW(gp.predict(std::vector<double>{0.5}), InvalidArgument);
}

TEST(GpTest, MismatchedXYThrows) {
  GaussianProcess gp(ard_kernel(1));
  std::vector<std::vector<double>> x = {{0.1}};
  std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(gp.fit(x, y), InvalidArgument);
}

TEST(GpTest, PredictMeanMatchesPredict) {
  std::vector<std::vector<double>> x = {{0.1}, {0.6}};
  std::vector<double> y = {2.0, 4.0};
  GaussianProcess gp(ard_kernel(1, 0.3), GpOptions{false});
  gp.fit(x, y);
  const std::vector<std::vector<double>> grid = {{0.2}, {0.5}};
  const auto means = gp.predict_mean(grid);
  EXPECT_DOUBLE_EQ(means[0], gp.predict(grid[0]).mean);
  EXPECT_DOUBLE_EQ(means[1], gp.predict(grid[1]).mean);
}

// -------------------------------------------------------- acquisitions ----

TEST(AcquisitionTest, EiIsNonNegativeAndZeroAtZeroSigma) {
  EXPECT_GE(acquisition_value(AcquisitionKind::kEI, 5.0, 1.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(acquisition_value(AcquisitionKind::kEI, 5.0, 0.0, 4.0),
                   0.0);
}

TEST(AcquisitionTest, EiGrowsWithImprovementPotential) {
  const double worse = acquisition_value(AcquisitionKind::kEI, 5.0, 1.0, 4.0);
  const double better = acquisition_value(AcquisitionKind::kEI, 2.0, 1.0, 4.0);
  EXPECT_GT(better, worse);
}

TEST(AcquisitionTest, PiIsAProbability) {
  for (double mu : {1.0, 3.0, 6.0}) {
    const double v = acquisition_value(AcquisitionKind::kPI, mu, 0.7, 4.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Far below the incumbent: nearly certain improvement.
  EXPECT_GT(acquisition_value(AcquisitionKind::kPI, 0.0, 0.5, 4.0), 0.99);
}

TEST(AcquisitionTest, LcbPrefersLowMeanAndHighSigma) {
  const AcquisitionParams params;
  const double base = acquisition_value(AcquisitionKind::kLCB, 3.0, 1.0, 0.0);
  EXPECT_GT(acquisition_value(AcquisitionKind::kLCB, 2.0, 1.0, 0.0), base);
  EXPECT_GT(acquisition_value(AcquisitionKind::kLCB, 3.0, 2.0, 0.0), base);
  // Matches the formula −(μ − κσ).
  EXPECT_NEAR(base, -(3.0 - params.kappa * 1.0), 1e-12);
}

TEST(AcquisitionTest, XiShiftsEiDown) {
  AcquisitionParams eager;
  eager.xi = 0.0;
  AcquisitionParams cautious;
  cautious.xi = 0.5;
  EXPECT_GT(acquisition_value(AcquisitionKind::kEI, 3.5, 1.0, 4.0, eager),
            acquisition_value(AcquisitionKind::kEI, 3.5, 1.0, 4.0, cautious));
}

TEST(OptimizeAcquisitionTest, FindsPromisingRegion) {
  // Observations form a V shape with minimum near x=0.5; EI should propose
  // a point near the bottom region rather than the edges.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (double xi : {0.0, 0.15, 0.35, 0.65, 0.85, 1.0 - 1e-9}) {
    x.push_back({xi});
    y.push_back(std::abs(xi - 0.5) * 10.0);
  }
  GaussianProcess gp(ard_kernel(1, 0.2, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  Rng rng(4);
  const auto best =
      optimize_acquisition(gp, AcquisitionKind::kEI, 1, rng);
  EXPECT_GT(best[0], 0.3);
  EXPECT_LT(best[0], 0.7);
}

// ------------------------------------------- analytic gradients (DESIGN §8) ----

TEST(KernelGradientTest, Matern52ArdMatchesNumericGradient) {
  Kernel k(3, 0.4, 2.0);
  k.set_log_params(std::vector<double>{std::log(0.2), std::log(0.9),
                                       std::log(3.0), std::log(2.0),
                                       std::log(1e-2)});
  const std::vector<double> a = {0.1, 0.7, 0.4};
  const std::vector<double> b = {0.5, 0.2, 0.9};
  std::vector<double> grad(3, 0.0);
  k.accumulate_gradient(a, b, grad);
  const auto reference = numeric_grad(
      [&](std::span<const double> p) { return k(p, b); }, a);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(grad[i], reference[i], 1e-5);
  }
  // The gradient vanishes at coincident points.
  std::vector<double> at_a(3, 0.0);
  k.accumulate_gradient(a, a, at_a);
  for (double g : at_a) EXPECT_DOUBLE_EQ(g, 0.0);
}

// ---------------------------- hyperparameter gradients (LML, DESIGN §8) ----

// Checks w·∂k(a,b)/∂log θ (plus the observed-diagonal noise) against
// central differences over the kernel's log-parameters, at relative 1e-5.
void expect_param_gradient_matches(const Kernel& kernel,
                                   std::span<const double> a,
                                   std::span<const double> b,
                                   bool observed_diagonal) {
  constexpr double kWeight = 0.7;
  const std::vector<double> theta = kernel.log_params();
  std::vector<double> grad(theta.size(), 0.0);
  kernel.accumulate_param_gradient(a, b, observed_diagonal, kWeight, grad);
  const auto reference = numeric_grad(
      [&](std::span<const double> p) {
        const auto k = kernel.clone();
        k->set_log_params(p);
        return (*k)(a, b) + (observed_diagonal ? k->noise_variance() : 0.0);
      },
      theta);
  for (std::size_t j = 0; j < theta.size(); ++j) {
    const double expected = kWeight * reference[j];
    EXPECT_NEAR(grad[j], expected, 1e-5 * std::max(1.0, std::abs(expected)))
        << "parameter " << j;
  }
}

TEST(KernelParamGradientTest, Matern52ArdMatchesNumericGradient) {
  Kernel k(5, 0.4, 2.0);
  k.set_log_params(std::vector<double>{std::log(0.2), std::log(0.9),
                                       std::log(3.0), std::log(0.5),
                                       std::log(1.3), std::log(2.0),
                                       std::log(2e-2)});
  const std::vector<double> a = {0.1, 0.7, 0.4, 0.9, 0.25};
  const std::vector<double> b = {0.5, 0.2, 0.9, 0.6, 0.3};
  expect_param_gradient_matches(k, a, b, false);
  expect_param_gradient_matches(k, b, b, true);
  // σ² sits on the observed diagonal only: a point paired with itself
  // off that diagonal (a training point against a test point) gets no
  // noise term.
  std::vector<double> grad(k.num_params(), 0.0);
  k.accumulate_param_gradient(a, a, /*observed_diagonal=*/false, 1.0, grad);
  EXPECT_EQ(grad.back(), 0.0);
}

// n = 30 in 3-D with real observation noise; hyperparameters fixed.
GaussianProcess noisy_gp_30() {
  Rng rng(23);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    std::vector<double> p = {rng.uniform(), rng.uniform(), rng.uniform()};
    y.push_back(std::sin(4.0 * p[0]) + p[1] * p[2] + rng.normal(0, 0.1));
    x.push_back(std::move(p));
  }
  GaussianProcess gp(ard_kernel(3, 0.4, 1.0, 1e-2), GpOptions{false});
  gp.fit(x, y);
  return gp;
}

TEST(LmlGradientTest, MatchesCentralDifferences) {
  GaussianProcess gp = noisy_gp_30();
  const std::vector<double> theta = {std::log(0.3), std::log(0.8),
                                     std::log(1.5), std::log(1.2),
                                     std::log(2e-2)};
  std::vector<double> grad(theta.size(), 0.0);
  const double value = gp.negative_log_marginal(theta, grad);
  EXPECT_NEAR(value, -gp.log_marginal_likelihood(), 1e-12);
  const auto reference = numeric_grad(
      [&](std::span<const double> p) {
        return gp.negative_log_marginal(p, {});
      },
      theta);
  for (std::size_t j = 0; j < theta.size(); ++j) {
    EXPECT_NEAR(grad[j], reference[j],
                1e-5 * std::max(1.0, std::abs(reference[j])))
        << "parameter " << j;
  }
}

TEST(LmlGradientTest, FailedFactorizationGivesFiniteValueZeroGradient) {
  GaussianProcess gp = noisy_gp_30();
  const std::vector<double> theta = gp.kernel().log_params();
  std::vector<double> grad(theta.size(),
                           std::numeric_limits<double>::quiet_NaN());
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("cholesky=1.0", profile));
  chaos::injector().configure(profile, 1);
  const double value = gp.negative_log_marginal(theta, grad);
  chaos::injector().disarm();
  EXPECT_TRUE(std::isfinite(value));
  for (double g : grad) EXPECT_EQ(g, 0.0);
}

TEST(LmlGradientTest, GradientSizeMismatchThrows) {
  GaussianProcess gp = noisy_gp_30();
  const std::vector<double> theta = gp.kernel().log_params();
  std::vector<double> short_grad(theta.size() - 1);
  EXPECT_THROW(gp.negative_log_marginal(theta, short_grad), InvalidArgument);
}

// One hyperparameter fit on fixed data; returns its counter deltas.
std::pair<std::uint64_t, std::uint64_t> counters_of_fixed_fit() {
  Rng rng(29);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 25; ++i) {
    std::vector<double> p = {rng.uniform(), rng.uniform(), rng.uniform()};
    y.push_back(std::cos(3.0 * p[0]) + p[1] - p[2] * p[2]);
    x.push_back(std::move(p));
  }
  const auto counters = [] { return obs::metrics().snapshot().counters; };
  auto before = counters();
  GaussianProcess gp(ard_kernel(3), GpOptions{}, 5);
  gp.fit(x, y);
  auto after = counters();
  return {after["gp.lml_evals"] - before["gp.lml_evals"],
          after["gp.factorizations"] - before["gp.factorizations"]};
}

TEST(LmlGradientTest, FitCountersArePinned) {
  constexpr std::uint64_t kLmlEvals = 300;
  const auto [lml_evals, factorizations] = counters_of_fixed_fit();
  EXPECT_EQ(lml_evals, kLmlEvals);
  EXPECT_EQ(factorizations, kLmlEvals + 1);
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("pool workers " + std::to_string(workers));
    obs::metrics().reset();
    ThreadPool pool(workers);
    pool.parallel_for(4, [](std::size_t) { counters_of_fixed_fit(); });
    const auto totals = obs::metrics().snapshot().counters;
    EXPECT_EQ(totals.at("gp.lml_evals"), 4 * kLmlEvals);
    EXPECT_EQ(totals.at("gp.factorizations"), 4 * (kLmlEvals + 1));
  }
}

TEST(PredictGradientTest, MeanAndVarianceGradientsMatchNumeric) {
  const GaussianProcess gp = fitted_gp_2d();
  GpWorkspace ws;
  PredictGradient pg;
  for (const std::vector<double>& x :
       {std::vector<double>{0.3, 0.6}, std::vector<double>{0.85, 0.15},
        std::vector<double>{0.5, 0.5}}) {
    gp.predict_with_gradient(x, ws, pg);
    // Values agree exactly with the plain prediction path.
    const Prediction p = gp.predict(x, ws);
    EXPECT_EQ(pg.mean, p.mean);
    EXPECT_EQ(pg.variance, p.variance);
    const auto dmean_ref = numeric_grad(
        [&](std::span<const double> q) {
          GpWorkspace local;
          return gp.predict(q, local).mean;
        },
        x);
    const auto dvar_ref = numeric_grad(
        [&](std::span<const double> q) {
          GpWorkspace local;
          return gp.predict(q, local).variance;
        },
        x);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(pg.dmean[i], dmean_ref[i], 1e-5);
      EXPECT_NEAR(pg.dvariance[i], dvar_ref[i], 1e-5);
    }
  }
}

// ------------------------------------------- bit-exact kernel pins ----
//
// The engine's kernel — ARD Matérn 5/2 plus white noise — and the GP
// arithmetic on top of it, pinned to the last bit on fixed 2-D and 8-D
// data.  The expected values are hexadecimal literals (printf %a), so a
// one-ulp change anywhere in the kernel, the factorization, the LML
// gradient, the gradient-aware prediction or the hyperparameter fit
// fails here.  A refactor of the kernel or the GP leaves every value
// unchanged; only a deliberate change of the arithmetic re-pins them.

struct KernelPins {
  std::vector<double> covariance_row;  ///< k(x_i, probe), every i
  double nlml = 0.0;                   ///< −LML at the fixed θ
  std::vector<double> nlml_grad;       ///< ∂(−LML)/∂log θ at the fixed θ
  double mean = 0.0;                   ///< predict_with_gradient at probe
  double variance = 0.0;
  std::vector<double> dmean;
  std::vector<double> dvariance;
  std::vector<double> fitted_log_params;  ///< after one hyperfit
  /// Cholesky diagonal of the fitted kernel with its white noise raised
  /// by 0.1 — the degradation ladder's noise-inflation rung.
  std::vector<double> inflated_chol_diag;
};

struct PinData {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<double> probe;
};

PinData pin_data(std::size_t dims, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PinData data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p(dims);
    for (double& v : p) v = rng.uniform();
    double y = std::sin(4.0 * p[0]) + rng.normal(0, 0.05);
    for (std::size_t d = 1; d < dims; ++d) {
      y += (p[d] - 0.5) * (p[d] - 0.5) / static_cast<double>(d);
    }
    data.x.push_back(std::move(p));
    data.y.push_back(y);
  }
  data.probe.resize(dims);
  for (double& v : data.probe) v = rng.uniform();
  return data;
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_bits(std::span<const double> actual,
                 std::span<const double> expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(hex(actual[i]), hex(expected[i])) << what << "[" << i << "]";
  }
}

void expect_kernel_pins(std::size_t dims, std::size_t n,
                        const KernelPins& pins) {
  const PinData data = pin_data(dims, n, 41 + dims);

  // Covariance row: the SIMD row sweep, equal to the scalar operator().
  const auto kernel = ard_kernel(dims, 0.4, 1.3, 2e-3);
  std::vector<double> row(n, 0.0);
  kernel->accumulate_covariance_row(data.x, data.probe, row);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hex(row[i]), hex((*kernel)(data.x[i], data.probe))) << i;
  }
  expect_bits(row, pins.covariance_row, "covariance_row");

  // −LML and its analytic gradient at a fixed θ.
  GaussianProcess fixed(kernel->clone(), GpOptions{false}, 3);
  fixed.fit(data.x, data.y);
  std::vector<double> theta;
  for (std::size_t d = 0; d < dims; ++d) {
    theta.push_back(std::log(0.25 + 0.1 * static_cast<double>(d)));
  }
  theta.push_back(std::log(1.4));
  theta.push_back(std::log(5e-3));
  std::vector<double> grad(theta.size(), 0.0);
  const double nlml = fixed.negative_log_marginal(theta, grad);
  EXPECT_EQ(hex(nlml), hex(pins.nlml)) << "nlml";
  expect_bits(grad, pins.nlml_grad, "nlml_grad");

  // Posterior and its gradient at the probe (θ as just set).
  GpWorkspace ws;
  PredictGradient pg;
  fixed.predict_with_gradient(data.probe, ws, pg);
  EXPECT_EQ(hex(pg.mean), hex(pins.mean)) << "mean";
  EXPECT_EQ(hex(pg.variance), hex(pins.variance)) << "variance";
  expect_bits(pg.dmean, pins.dmean, "dmean");
  expect_bits(pg.dvariance, pins.dvariance, "dvariance");

  // One hyperparameter fit from the engine's default kernel.
  GaussianProcess fitted(ard_kernel(dims), GpOptions{}, 9);
  fitted.fit(data.x, data.y);
  expect_bits(fitted.kernel().log_params(), pins.fitted_log_params,
              "fitted_log_params");

  // The noise-inflated factorization: σ² + 0.1 on the observed diagonal,
  // assembled the way GaussianProcess::factorize() assembles K.
  const auto hypers = extract_matern_hyperparams(fitted.kernel(), dims);
  ASSERT_TRUE(hypers.has_value());
  const double noise = hypers->noise_variance + 0.1;
  linalg::Matrix k(n, n);
  const std::span<const std::vector<double>> points(data.x);
  for (std::size_t i = 0; i < n; ++i) {
    fitted.kernel().accumulate_covariance_row(points.subspan(0, i + 1),
                                              data.x[i],
                                              k.row(i).subspan(0, i + 1));
    for (std::size_t j = 0; j < i; ++j) k(j, i) = k(i, j);
    k(i, i) += noise + 1e-10;
  }
  const linalg::Matrix chol = linalg::cholesky(k);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = chol(i, i);
  expect_bits(diag, pins.inflated_chol_diag, "inflated_chol_diag");
}

TEST(KernelPinTest, TwoDimensional) {
  KernelPins pins;
  pins.covariance_row = {0x1.281cb538d3defp+0, 0x1.7c7fb7558c1adp-3,
      0x1.6bf340c8e0405p-3, 0x1.32841d59566cp+0, 0x1.73ac8a72633e4p-2,
      0x1.8c00d2a1d8594p-2, 0x1.c41010d902109p-1, 0x1.47490a0558a6dp-1,
      0x1.7088e950ecb82p-2, 0x1.4bc1ae695cfd1p-1, 0x1.91fed3bcd9736p-3,
      0x1.17f99a6e3a9b2p-3};
  pins.nlml = 0x1.8e573b2b45571p+3;
  pins.nlml_grad = {0x1.bd6add75c8febp-1, -0x1.02e50a89b55c4p+2,
      0x1.df6c2d696cc9p-1, -0x1.b24cb42ae998ep-6};
  pins.mean = 0x1.f4dc71bc5f313p-2;
  pins.variance = 0x1.0fe8f8f47d00ep-4;
  pins.dmean = {-0x1.0c7d518913ce4p+2, 0x1.653666ca7e933p-2};
  pins.dvariance = {0x1.85de0b003d9c2p-1, 0x1.4797e74ca0a81p-5};
  pins.fitted_log_params = {-0x1.f4207f48ddf7bp-1, 0x1.e61a6a1255f85p+0,
      0x1.0ca9f98994cb5p+0, -0x1.123c48d480ca4p+2};
  pins.inflated_chol_diag = {0x1.b92cf0a93416ap+0, 0x1.866b93629fe5dp+0,
      0x1.35ddfb97679d1p+0, 0x1.db3b8c7d978eep-2, 0x1.45ad9dc9d9ac2p-1,
      0x1.acd23bc4ec7fep-2, 0x1.e9973d94117eep-1, 0x1.fdf40433c67f6p-2,
      0x1.cac59854b6c4ep-2, 0x1.2bc995b1fe954p-1, 0x1.d481be8fcc129p-2,
      0x1.a4c94d83735dap-2};
  expect_kernel_pins(2, 12, pins);
}

TEST(KernelPinTest, EightDimensional) {
  KernelPins pins;
  pins.covariance_row = {0x1.0e6f3b0ba0071p-6, 0x1.765791495db9ap-8,
      0x1.e9cb06a2e2f6p-4, 0x1.0d165401c444ep-3, 0x1.795c2fc3140d1p-4,
      0x1.69b9701e79837p-7, 0x1.145d352ecdd34p-4, 0x1.b95b9eba554abp-8,
      0x1.d82dcfc68d60fp-7, 0x1.25f8d602de4ddp-5, 0x1.b14ba63e7aeb9p-5,
      0x1.7f04d64c1ead3p-7, 0x1.b48e4a0519f5bp-7, 0x1.9136cd6e850bap-6,
      0x1.87489fe0c6b61p-5, 0x1.e0a993a6b80b2p-6};
  pins.nlml = 0x1.59d080fd75586p+4;
  pins.nlml_grad = {0x1.a3ba5d0d89e62p-1, -0x1.8effdaf37c171p-1,
      -0x1.f08febd1ce431p-2, -0x1.cf2f2fff4f4aep-1, -0x1.53135c221f0d4p-2,
      -0x1.4b53f703f552fp-2, -0x1.2c63222e07962p-2, -0x1.78930a334cd48p-2,
      0x1.53f03a9068cbp+1, 0x1.0cddba32ac306p-6};
  pins.mean = 0x1.6cf4753a00255p-1;
  pins.variance = 0x1.9d114cfec92a8p-3;
  pins.dmean = {0x1.7e4f2b566b625p-2, -0x1.57ad0edd70952p-5,
      -0x1.ef71446cdb9fap-3, -0x1.03e1f894b78dap-6, 0x1.4a094f6148cd3p-8,
      0x1.02391cfe2875ep-6, -0x1.b14f60a515176p-5, 0x1.3d940d10fda8ap-7};
  pins.dvariance = {-0x1.efc067ace6308p-6, 0x1.00e691a621ef9p-8,
      0x1.9e8778a8ba61cp-6, -0x1.1bc830f8de612p-8, -0x1.9b5b7a1e16377p-10,
      -0x1.e85f7f3470998p-8, 0x1.0d03e09dfc5f8p-8, -0x1.8ef5599800ae3p-10};
  pins.fitted_log_params = {-0x1.252c45818bb55p+0, 0x1.6c376b288e4e4p+0,
      0x1.a746f40417184p+1, 0x1.114e7ba5d6977p+1, 0x1.a4f6a15dceb0dp-2,
      0x1.a746f40417184p+1, 0x1.b327ff122073bp+0, 0x1.46c53e87e03fcp+1,
      0x1.aabb69096ea34p-1, -0x1.5d0c54cc7ffdp+3};
  pins.inflated_chol_diag = {0x1.8cb32d7e1d242p+0, 0x1.4c82cf44d0715p+0,
      0x1.4ad6e4b3de1dbp+0, 0x1.4726294a32609p-1, 0x1.88717d10474dep-1,
      0x1.359bbbd1f347dp-1, 0x1.c3bf119c89fe9p-2, 0x1.488692b64fc62p+0,
      0x1.7dfcdce34394cp-1, 0x1.1ed2345c31836p-1, 0x1.ab889bfc996a3p-2,
      0x1.bd7a79a68e9e1p-1, 0x1.30294c3df84b3p-1, 0x1.c3c8774fb5f3fp-2,
      0x1.8f61bfd2b08bdp-2, 0x1.150a19c54ce9cp-1};
  expect_kernel_pins(8, 16, pins);
}

class AcquisitionGradientTest
    : public ::testing::TestWithParam<AcquisitionKind> {};

TEST_P(AcquisitionGradientTest, MatchesNumericGradient) {
  const AcquisitionKind kind = GetParam();
  const GaussianProcess gp = fitted_gp_2d();
  const double best = gp.best_observed();
  const AcquisitionParams params;
  GpWorkspace ws;
  PredictGradient pg;
  std::vector<double> grad(2);
  for (const std::vector<double>& x :
       {std::vector<double>{0.25, 0.7}, std::vector<double>{0.6, 0.35},
        std::vector<double>{0.9, 0.9}}) {
    gp.predict_with_gradient(x, ws, pg);
    const double value =
        acquisition_value_gradient(kind, pg, best, params, grad);
    // Value agrees with the scalar acquisition on the same posterior.
    EXPECT_DOUBLE_EQ(
        value, acquisition_value(kind, pg.mean, pg.stddev(), best, params));
    const auto reference = numeric_grad(
        [&](std::span<const double> q) {
          GpWorkspace local;
          const Prediction p = gp.predict(q, local);
          return acquisition_value(kind, p.mean, p.stddev(), best, params);
        },
        x);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(grad[i], reference[i], 1e-5);
    }
  }
}

TEST_P(AcquisitionGradientTest, ZeroSigmaIsHandled) {
  const AcquisitionKind kind = GetParam();
  PredictGradient pg;
  pg.mean = 2.0;
  pg.variance = 0.0;
  pg.dmean = {1.5, -0.5};
  pg.dvariance = {0.0, 0.0};
  std::vector<double> grad(2, 99.0);
  const double value =
      acquisition_value_gradient(kind, pg, 1.0, AcquisitionParams{}, grad);
  if (kind == AcquisitionKind::kLCB) {
    EXPECT_DOUBLE_EQ(value, -2.0);
    EXPECT_DOUBLE_EQ(grad[0], -1.5);
    EXPECT_DOUBLE_EQ(grad[1], 0.5);
  } else {
    EXPECT_DOUBLE_EQ(value, 0.0);
    EXPECT_DOUBLE_EQ(grad[0], 0.0);
    EXPECT_DOUBLE_EQ(grad[1], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AcquisitionGradientTest,
                         ::testing::Values(AcquisitionKind::kPI,
                                           AcquisitionKind::kEI,
                                           AcquisitionKind::kLCB));

// ------------------------------------------------- batched prediction ----

TEST(PredictBatchTest, BitIdenticalToPerPointPredict) {
  const GaussianProcess gp = fitted_gp_2d();
  Rng rng(23);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.uniform(), rng.uniform()});
  }
  const auto batch = gp.predict_batch(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Prediction single = gp.predict(points[i]);
    EXPECT_EQ(batch[i].mean, single.mean);  // exact, not approximate
    EXPECT_EQ(batch[i].variance, single.variance);
  }
}

TEST(PredictBatchTest, WorkspaceOverloadMatchesConveniencePredict) {
  const GaussianProcess gp = fitted_gp_2d();
  GpWorkspace ws;
  const std::vector<double> x = {0.42, 0.58};
  const Prediction with_ws = gp.predict(x, ws);
  const Prediction plain = gp.predict(x);
  EXPECT_EQ(with_ws.mean, plain.mean);
  EXPECT_EQ(with_ws.variance, plain.variance);
  // Reuse after add_point stays consistent (scratch is invalidated).
  GaussianProcess grown = gp;
  grown.add_point({0.77, 0.33}, 1.25);
  const Prediction after = grown.predict(x);
  GpWorkspace ws2;
  EXPECT_EQ(grown.predict(x, ws2).mean, after.mean);
}

TEST(PredictBatchTest, DimensionMismatchThrows) {
  const GaussianProcess gp = fitted_gp_2d();
  const std::vector<std::vector<double>> bad = {{0.5}};
  EXPECT_THROW(gp.predict_batch(bad), InvalidArgument);
}

// ------------------------------------- acquisition optimizer determinism ----

TEST(OptimizeAcquisitionTest, ByteIdenticalAcrossWorkerCounts) {
  const GaussianProcess gp = fitted_gp_2d();
  AcquisitionOptimizerOptions options;
  options.probe_candidates = 64;
  options.starts = 4;

  auto run = [&](int workers, ThreadPool* pool) {
    Rng rng(42);  // fresh identically-seeded generator per run
    AcquisitionOptimizerOptions o = options;
    o.workers = workers;
    o.pool = pool;
    return optimize_acquisition(gp, AcquisitionKind::kEI, 2, rng, {}, o);
  };
  const auto inline_x = run(1, nullptr);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {&pool2, &pool4}) {
    const auto x = run(0, pool);
    ASSERT_EQ(x.size(), inline_x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i], inline_x[i]);  // exact, not approximate
    }
  }
}

TEST(OptimizeAcquisitionTest, ConsumesExactlyOneRngDraw) {
  const GaussianProcess gp = fitted_gp_2d();
  Rng a(31), b(31);
  AcquisitionOptimizerOptions small, big;
  small.probe_candidates = 8;
  small.starts = 2;
  small.workers = 1;
  big.probe_candidates = 128;
  big.starts = 6;
  big.workers = 1;
  optimize_acquisition(gp, AcquisitionKind::kLCB, 2, a, {}, small);
  optimize_acquisition(gp, AcquisitionKind::kLCB, 2, b, {}, big);
  // Both generators advanced by exactly one draw: their next outputs match.
  EXPECT_EQ(a(), b());
}

// ------------------------------------------------------------- GP-Hedge ----

TEST(GpHedgeTest, InitialProbabilitiesUniform) {
  GpHedge hedge(2, 1);
  const auto p = hedge.probabilities();
  ASSERT_EQ(p.size(), 3u);
  for (double v : p) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(GpHedgeTest, ProbabilitiesSumToOneAfterUpdates) {
  GpHedge hedge(1, 2);
  std::vector<std::vector<double>> x = {{0.2}, {0.8}};
  std::vector<double> y = {1.0, 3.0};
  GaussianProcess gp(ard_kernel(1, 0.3, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  const auto choice = hedge.propose(gp);
  hedge.update_gains(gp, choice);
  const auto p = hedge.probabilities();
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(GpHedgeTest, ProposesThreeNominees) {
  GpHedge hedge(2, 3);
  std::vector<std::vector<double>> x = {{0.2, 0.2}, {0.8, 0.8}, {0.5, 0.1}};
  std::vector<double> y = {1.0, 3.0, 2.0};
  GaussianProcess gp(ard_kernel(2, 0.4, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  const auto choice = hedge.propose(gp);
  EXPECT_EQ(choice.nominees.size(), 3u);
  EXPECT_EQ(choice.point.size(), 2u);
  for (double v : choice.point) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(GpHedgeTest, GainsFavorFunctionsNominatingGoodPoints) {
  // Give PI/EI/LCB gains manually through updates and check the softmax
  // shifts: simulate by fitting a GP where the region one nominee sits in
  // is clearly better.
  GpHedge hedge(1, 7);
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<double> y = {5.0, 1.0, 5.0};
  GaussianProcess gp(ard_kernel(1, 0.2, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  for (int i = 0; i < 5; ++i) {
    const auto choice = hedge.propose(gp);
    hedge.update_gains(gp, choice);
  }
  // All gains move; none is NaN; probabilities remain a distribution.
  for (double g : hedge.gains()) EXPECT_TRUE(std::isfinite(g));
  const auto p = hedge.probabilities();
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

}  // namespace
}  // namespace robotune::gp
