// Tests for src/gp: kernels, Gaussian-process regression, acquisition
// functions, GP-Hedge portfolio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
  GaussianProcess gp(default_kernel(0.3, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  return gp;
}

// ------------------------------------------------------------- kernels ----

TEST(Matern52Test, SelfCovarianceIsSignalVariance) {
  Matern52 k(0.5, 2.0);
  const std::vector<double> x = {0.1, 0.9};
  EXPECT_NEAR(k(x, x), 2.0, 1e-12);
}

TEST(Matern52Test, DecaysWithDistanceAndIsSymmetric) {
  Matern52 k(0.5, 1.0);
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {0.3};
  const std::vector<double> c = {0.9};
  EXPECT_GT(k(a, b), k(a, c));
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  EXPECT_GT(k(a, c), 0.0);
}

TEST(Matern52Test, LongerLengthScaleDecaysSlower) {
  Matern52 narrow(0.1, 1.0);
  Matern52 wide(2.0, 1.0);
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {0.5};
  EXPECT_LT(narrow(a, b), wide(a, b));
}

TEST(Matern52Test, LogParamsRoundTrip) {
  Matern52 k(0.7, 3.0);
  const auto p = k.log_params();
  Matern52 k2(1.0, 1.0);
  k2.set_log_params(p);
  EXPECT_NEAR(k2.length_scale(), 0.7, 1e-12);
  EXPECT_NEAR(k2.signal_variance(), 3.0, 1e-12);
}

TEST(Matern52Test, InvalidParametersThrow) {
  EXPECT_THROW(Matern52(-1.0, 1.0), InvalidArgument);
  EXPECT_THROW(Matern52(1.0, 0.0), InvalidArgument);
}

TEST(Matern52ArdTest, IrrelevantDimensionDropsOut) {
  Matern52Ard k(2, 0.5, 1.0);
  // Make dimension 1 irrelevant via a huge length scale.
  k.set_log_params(std::vector<double>{std::log(0.5), std::log(1e6), 0.0});
  const std::vector<double> a = {0.2, 0.1};
  const std::vector<double> b = {0.2, 0.9};  // differs only in dim 1
  EXPECT_NEAR(k(a, b), k(a, a), 1e-6);
}

TEST(Matern52ArdTest, MatchesIsotropicWhenScalesEqual) {
  Matern52 iso(0.4, 1.5);
  Matern52Ard ard(3, 0.4, 1.5);
  const std::vector<double> a = {0.1, 0.2, 0.3};
  const std::vector<double> b = {0.9, 0.5, 0.4};
  EXPECT_NEAR(iso(a, b), ard(a, b), 1e-12);
}

TEST(Matern52ArdTest, ParamsRoundTrip) {
  Matern52Ard k(2, 0.3, 2.0);
  auto p = k.log_params();
  ASSERT_EQ(p.size(), 3u);
  p[0] = std::log(0.9);
  k.set_log_params(p);
  EXPECT_NEAR(k.length_scales()[0], 0.9, 1e-12);
  EXPECT_NEAR(k.length_scales()[1], 0.3, 1e-12);
}

TEST(WhiteNoiseTest, OnlyContributesToObservedDiagonal) {
  WhiteNoise k(0.25);
  const std::vector<double> x = {0.5};
  EXPECT_DOUBLE_EQ(k(x, x), 0.0);  // cross-covariances are zero
  EXPECT_DOUBLE_EQ(k.diagonal_noise(), 0.25);
}

TEST(SumKernelTest, AddsComponentsAndConcatenatesParams) {
  SumKernel k(std::make_unique<Matern52>(0.5, 1.0),
              std::make_unique<WhiteNoise>(0.1));
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {0.2};
  Matern52 m(0.5, 1.0);
  EXPECT_DOUBLE_EQ(k(a, b), m(a, b));
  EXPECT_DOUBLE_EQ(k.diagonal_noise(), 0.1);
  EXPECT_EQ(k.num_params(), 3u);
  const auto clone = k.clone();
  EXPECT_DOUBLE_EQ((*clone)(a, b), k(a, b));
}

// ------------------------------------------------------ Gaussian process ----

TEST(GpTest, InterpolatesNoiselessTrainingData) {
  std::vector<std::vector<double>> x = {{0.1}, {0.4}, {0.8}};
  std::vector<double> y = {1.0, 3.0, -2.0};
  GaussianProcess gp(default_kernel(0.3, 1.0, 1e-8), GpOptions{false});
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
  GaussianProcess gp(default_kernel(0.1, 1.0, 1e-6), GpOptions{false});
  gp.fit(x, y);
  const auto near = gp.predict(std::vector<double>{0.25});
  const auto far = gp.predict(std::vector<double>{0.95});
  EXPECT_LT(near.variance, far.variance);
}

TEST(GpTest, PredictionRevertsToMeanFarAway) {
  std::vector<std::vector<double>> x = {{0.5}};
  std::vector<double> y = {10.0};
  GaussianProcess gp(default_kernel(0.05, 1.0, 1e-6), GpOptions{false});
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
  GaussianProcess fixed(default_kernel(1.5, 1.0, 1e-2), GpOptions{false});
  fixed.fit(x, y);
  GpOptions opt;
  opt.optimize_hyperparameters = true;
  GaussianProcess fitted(default_kernel(1.5, 1.0, 1e-2), opt);
  fitted.fit(x, y);
  EXPECT_GE(fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood() - 1e-6);
}

TEST(GpTest, ScaleInvariantThroughStandardization) {
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<double> y = {100.0, 300.0, 200.0};
  std::vector<double> y_scaled = {1000.0, 3000.0, 2000.0};
  GaussianProcess a(default_kernel(0.3, 1.0, 1e-6), GpOptions{false});
  GaussianProcess b(default_kernel(0.3, 1.0, 1e-6), GpOptions{false});
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
  GaussianProcess gp(default_kernel(), GpOptions{false});
  gp.fit(x, y);
  EXPECT_DOUBLE_EQ(gp.best_observed(), 2.0);
}

TEST(GpTest, CopySemanticsPreserveFit) {
  std::vector<std::vector<double>> x = {{0.2}, {0.7}};
  std::vector<double> y = {1.0, -1.0};
  GaussianProcess gp(default_kernel(0.3, 1.0, 1e-6), GpOptions{false});
  gp.fit(x, y);
  GaussianProcess copy(gp);
  const auto p1 = gp.predict(std::vector<double>{0.4});
  const auto p2 = copy.predict(std::vector<double>{0.4});
  EXPECT_DOUBLE_EQ(p1.mean, p2.mean);
  EXPECT_DOUBLE_EQ(p1.variance, p2.variance);
}

TEST(GpTest, PredictBeforeFitThrows) {
  GaussianProcess gp;
  EXPECT_THROW(gp.predict(std::vector<double>{0.5}), InvalidArgument);
}

TEST(GpTest, MismatchedXYThrows) {
  GaussianProcess gp;
  std::vector<std::vector<double>> x = {{0.1}};
  std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(gp.fit(x, y), InvalidArgument);
}

TEST(GpTest, PredictMeanMatchesPredict) {
  std::vector<std::vector<double>> x = {{0.1}, {0.6}};
  std::vector<double> y = {2.0, 4.0};
  GaussianProcess gp(default_kernel(), GpOptions{false});
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
  GaussianProcess gp(default_kernel(0.2, 1.0, 1e-4), GpOptions{false});
  gp.fit(x, y);
  Rng rng(4);
  const auto best =
      optimize_acquisition(gp, AcquisitionKind::kEI, 1, rng);
  EXPECT_GT(best[0], 0.3);
  EXPECT_LT(best[0], 0.7);
}

// ------------------------------------------- analytic gradients (DESIGN §8) ----

TEST(KernelGradientTest, Matern52MatchesNumericGradient) {
  const Matern52 k(0.35, 1.7);
  const std::vector<double> a = {0.2, 0.8, 0.5};
  const std::vector<double> b = {0.6, 0.3, 0.45};
  std::vector<double> grad(3, 0.0);
  k.accumulate_gradient(a, b, grad);
  const auto reference = numeric_grad(
      [&](std::span<const double> p) { return k(p, b); }, a);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(grad[i], reference[i], 1e-5);
  }
}

TEST(KernelGradientTest, Matern52VanishesAtCoincidentPoints) {
  const Matern52 k(0.5, 1.0);
  const std::vector<double> a = {0.4, 0.4};
  std::vector<double> grad(2, 0.0);
  k.accumulate_gradient(a, a, grad);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

TEST(KernelGradientTest, Matern52ArdMatchesNumericGradient) {
  Matern52Ard k(3, 0.4, 2.0);
  k.set_log_params(std::vector<double>{std::log(0.2), std::log(0.9),
                                       std::log(3.0), std::log(2.0)});
  const std::vector<double> a = {0.1, 0.7, 0.4};
  const std::vector<double> b = {0.5, 0.2, 0.9};
  std::vector<double> grad(3, 0.0);
  k.accumulate_gradient(a, b, grad);
  const auto reference = numeric_grad(
      [&](std::span<const double> p) { return k(p, b); }, a);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(grad[i], reference[i], 1e-5);
  }
}

TEST(KernelGradientTest, SumKernelForwardsToComponents) {
  // default_kernel = Matern52 + WhiteNoise; the white-noise part must add
  // nothing (its cross-covariance is identically zero off the diagonal).
  const auto sum = default_kernel(0.3, 1.5, 1e-2);
  const Matern52 matern(0.3, 1.5);
  const std::vector<double> a = {0.3, 0.6};
  const std::vector<double> b = {0.8, 0.1};
  std::vector<double> sum_grad(2, 0.0), matern_grad(2, 0.0);
  sum->accumulate_gradient(a, b, sum_grad);
  matern.accumulate_gradient(a, b, matern_grad);
  EXPECT_DOUBLE_EQ(sum_grad[0], matern_grad[0]);
  EXPECT_DOUBLE_EQ(sum_grad[1], matern_grad[1]);
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
        return (*k)(a, b) + (observed_diagonal ? k->diagonal_noise() : 0.0);
      },
      theta);
  for (std::size_t j = 0; j < theta.size(); ++j) {
    const double expected = kWeight * reference[j];
    EXPECT_NEAR(grad[j], expected, 1e-5 * std::max(1.0, std::abs(expected)))
        << "parameter " << j;
  }
}

TEST(KernelParamGradientTest, Matern52MatchesNumericGradient) {
  const Matern52 k(0.35, 1.7);
  const std::vector<double> a = {0.2, 0.8, 0.5};
  const std::vector<double> b = {0.6, 0.3, 0.45};
  expect_param_gradient_matches(k, a, b, false);
  expect_param_gradient_matches(k, a, a, true);
}

TEST(KernelParamGradientTest, Matern52ArdMatchesNumericGradient) {
  Matern52Ard k(5, 0.4, 2.0);
  k.set_log_params(std::vector<double>{std::log(0.2), std::log(0.9),
                                       std::log(3.0), std::log(0.5),
                                       std::log(1.3), std::log(2.0)});
  const std::vector<double> a = {0.1, 0.7, 0.4, 0.9, 0.25};
  const std::vector<double> b = {0.5, 0.2, 0.9, 0.6, 0.3};
  expect_param_gradient_matches(k, a, b, false);
  expect_param_gradient_matches(k, b, b, true);
}

TEST(KernelParamGradientTest, WhiteNoiseOnlyOnObservedDiagonal) {
  const WhiteNoise k(0.03);
  const std::vector<double> a = {0.4, 0.1};
  expect_param_gradient_matches(k, a, a, true);
  std::vector<double> grad(1, 0.0);
  k.accumulate_param_gradient(a, a, /*observed_diagonal=*/false, 1.0, grad);
  EXPECT_EQ(grad[0], 0.0);
}

TEST(KernelParamGradientTest, SumKernelMatchesNumericGradient) {
  const auto k = ard_kernel(5, 0.4, 1.5, 2e-2);
  const std::vector<double> a = {0.1, 0.7, 0.4, 0.9, 0.25};
  const std::vector<double> b = {0.5, 0.2, 0.9, 0.6, 0.3};
  expect_param_gradient_matches(*k, a, b, false);
  expect_param_gradient_matches(*k, a, a, true);
  const auto iso = default_kernel(0.3, 1.2, 1e-2);
  expect_param_gradient_matches(*iso, a, b, false);
  expect_param_gradient_matches(*iso, b, b, true);
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
  GaussianProcess gp(default_kernel(0.3, 1.0, 1e-4), GpOptions{false});
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
  GaussianProcess gp(default_kernel(0.4, 1.0, 1e-4), GpOptions{false});
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
  GaussianProcess gp(default_kernel(0.2, 1.0, 1e-4), GpOptions{false});
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
