// Tests for the BO engine's option knobs (ablation switches, guard
// configuration, observation transforms) and additional GP edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/bo_engine.h"
#include "gp/gaussian_process.h"
#include "sparksim/objective.h"

namespace robotune::core {
namespace {

using sparksim::WorkloadKind;

sparksim::SparkObjective make_objective(std::uint64_t seed) {
  return sparksim::SparkObjective(sparksim::ClusterSpec{},
                                  sparksim::make_workload(
                                      WorkloadKind::kTeraSort, 1),
                                  sparksim::spark24_config_space(), seed);
}

std::vector<std::size_t> subspace() {
  const auto space = sparksim::spark24_config_space();
  return {*space.index_of("spark.executor.cores"),
          *space.index_of("spark.executor.memory.mb"),
          *space.index_of("spark.cores.max"),
          *space.index_of("spark.default.parallelism")};
}

BoOptions small_options() {
  BoOptions options;
  options.budget = 20;
  options.initial_samples = 8;
  options.hyperfit_every = 6;
  return options;
}

TEST(BoOptionsTest, ForcedAcquisitionIsRecorded) {
  for (auto kind : {gp::AcquisitionKind::kPI, gp::AcquisitionKind::kEI,
                    gp::AcquisitionKind::kLCB}) {
    auto objective = make_objective(7);
    BoOptions options = small_options();
    options.force_acquisition = kind;
    BoEngine engine(subspace(), sparksim::spark24_config_space().default_unit(),
                    options);
    const auto result = engine.run(objective);
    for (auto chosen : result.chosen_acquisitions) {
      EXPECT_EQ(chosen, kind);
    }
  }
}

TEST(BoOptionsTest, HedgeModeUsesMultipleAcquisitions) {
  auto objective = make_objective(8);
  BoOptions options = small_options();
  options.budget = 40;
  BoEngine engine(subspace(), sparksim::spark24_config_space().default_unit(),
                  options);
  const auto result = engine.run(objective);
  // Over 32 iterations the Hedge draw should pick at least two distinct
  // functions (probabilities start uniform).
  std::set<gp::AcquisitionKind> seen(result.chosen_acquisitions.begin(),
                                     result.chosen_acquisitions.end());
  EXPECT_GE(seen.size(), 2u);
}

TEST(BoOptionsTest, RandomInitializationStillWorks) {
  auto objective = make_objective(9);
  BoOptions options = small_options();
  options.lhs_initialization = false;
  BoEngine engine(subspace(), sparksim::spark24_config_space().default_unit(),
                  options);
  const auto result = engine.run(objective);
  EXPECT_EQ(result.tuning.history.size(), 20u);
  EXPECT_TRUE(result.tuning.found_any());
}

TEST(BoOptionsTest, LinearObservationsWork) {
  auto objective = make_objective(10);
  BoOptions options = small_options();
  options.log_observations = false;
  BoEngine engine(subspace(), sparksim::spark24_config_space().default_unit(),
                  options);
  const auto result = engine.run(objective);
  EXPECT_TRUE(result.tuning.found_any());
}

TEST(BoOptionsTest, HyperfitNeverStillRuns) {
  auto objective = make_objective(11);
  BoOptions options = small_options();
  options.hyperfit_every = 0;  // never refit hyperparameters
  BoEngine engine(subspace(), sparksim::spark24_config_space().default_unit(),
                  options);
  const auto result = engine.run(objective);
  EXPECT_EQ(result.tuning.history.size(), 20u);
}

TEST(BoOptionsTest, MedianGuardCapsLateEvaluationCosts) {
  auto objective = make_objective(12);
  BoOptions options = small_options();
  options.budget = 30;
  options.median_multiple = 1.5;  // aggressive
  BoEngine engine(subspace(), sparksim::spark24_config_space().default_unit(),
                  options);
  const auto result = engine.run(objective);
  // After the first 5 successes, no evaluation can cost more than
  // 1.5 x the median of all prior successes; just assert the cap was
  // computable and nothing exceeded the static cap.
  for (const auto& e : result.tuning.history) {
    EXPECT_LE(e.cost_s, tuners::kStaticThresholdS + 1e-9);
  }
}

TEST(BoOptionsTest, SeedsReproduceSessions) {
  auto a = make_objective(13);
  auto b = make_objective(13);
  BoOptions options = small_options();
  BoEngine e1(subspace(), sparksim::spark24_config_space().default_unit(),
              options);
  BoEngine e2(subspace(), sparksim::spark24_config_space().default_unit(),
              options);
  const auto r1 = e1.run(a);
  const auto r2 = e2.run(b);
  ASSERT_EQ(r1.tuning.history.size(), r2.tuning.history.size());
  for (std::size_t i = 0; i < r1.tuning.history.size(); ++i) {
    EXPECT_EQ(r1.tuning.history[i].unit, r2.tuning.history[i].unit);
    EXPECT_DOUBLE_EQ(r1.tuning.history[i].value_s,
                     r2.tuning.history[i].value_s);
  }
}

// -------------------------------------------------- extra GP edge cases ----

TEST(GpEdgeTest, DuplicateTrainingPointsSurviveViaJitter) {
  std::vector<std::vector<double>> x = {{0.5}, {0.5}, {0.5}, {0.2}};
  std::vector<double> y = {1.0, 1.1, 0.9, 2.0};
  gp::GaussianProcess model(gp::ard_kernel(1, 0.3, 1.0, 1e-4),
                            gp::GpOptions{false});
  EXPECT_NO_THROW(model.fit(x, y));
  const auto p = model.predict(std::vector<double>{0.5});
  EXPECT_NEAR(p.mean, 1.0, 0.2);
}

TEST(GpEdgeTest, ConstantTargetsProduceFlatPosterior) {
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  std::vector<double> y = {5.0, 5.0, 5.0};
  gp::GaussianProcess model(gp::ard_kernel(1, 0.3), gp::GpOptions{false});
  model.fit(x, y);
  EXPECT_NEAR(model.predict(std::vector<double>{0.3}).mean, 5.0, 1e-6);
}

TEST(GpEdgeTest, ArdFitShrinksIrrelevantDimension) {
  // y depends only on x0; after LML fitting, dim 1's length scale should
  // exceed dim 0's (longer scale = less relevant).
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    x.push_back({rng.uniform(), rng.uniform()});
    y.push_back(std::sin(6.0 * x.back()[0]));
  }
  gp::GpOptions options;
  options.optimize_hyperparameters = true;
  options.hyperparameter_restarts = 3;
  gp::GaussianProcess model(gp::ard_kernel(2, 0.5, 1.0, 1e-4), options, 3);
  model.fit(x, y);
  // Extract the fitted length scales out of the sum kernel's parameters:
  // [log l0, log l1, log s2, log noise].
  const auto params = model.kernel().log_params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_GT(params[1], params[0]);
}

TEST(GpEdgeTest, IncrementalAddPointMatchesBatchFit) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 15; ++i) {
    x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    y.push_back(std::sin(4.0 * x.back()[0]) + x.back()[1]);
  }
  // Incremental: fit on the first 10, add the remaining 5.
  gp::GaussianProcess incremental(gp::ard_kernel(3, 0.4, 1.0, 1e-4),
                                  gp::GpOptions{false});
  incremental.fit({x.begin(), x.begin() + 10},
                  std::span<const double>(y.data(), 10));
  for (int i = 10; i < 15; ++i) {
    incremental.add_point(x[static_cast<std::size_t>(i)],
                          y[static_cast<std::size_t>(i)]);
  }
  // Batch: fit on everything at once with the same kernel.
  gp::GaussianProcess batch(gp::ard_kernel(3, 0.4, 1.0, 1e-4),
                            gp::GpOptions{false});
  batch.fit(x, y);
  for (double a : {0.1, 0.45, 0.8}) {
    const std::vector<double> q = {a, 0.3, 0.6};
    const auto pi = incremental.predict(q);
    const auto pb = batch.predict(q);
    EXPECT_NEAR(pi.mean, pb.mean, 1e-8);
    EXPECT_NEAR(pi.variance, pb.variance, 1e-8);
  }
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              batch.log_marginal_likelihood(), 1e-8);
}

TEST(GpEdgeTest, AddPointHandlesDuplicateViaFallback) {
  std::vector<std::vector<double>> x = {{0.2}, {0.8}};
  std::vector<double> y = {1.0, 2.0};
  gp::GaussianProcess model(gp::ard_kernel(1, 0.3, 1.0, 1e-8),
                            gp::GpOptions{false});
  model.fit(x, y);
  EXPECT_NO_THROW(model.add_point({0.2}, 1.05));  // near-duplicate
  EXPECT_EQ(model.num_points(), 3u);
  EXPECT_TRUE(std::isfinite(model.predict(std::vector<double>{0.5}).mean));
}

TEST(GpEdgeTest, AddPointBeforeFitThrows) {
  gp::GaussianProcess model(gp::ard_kernel(1));
  EXPECT_THROW(model.add_point({0.5}, 1.0), InvalidArgument);
}

TEST(GpEdgeTest, SinglePointFitPredicts) {
  std::vector<std::vector<double>> x = {{0.5, 0.5}};
  std::vector<double> y = {3.0};
  gp::GaussianProcess model(gp::ard_kernel(2, 0.3), gp::GpOptions{false});
  model.fit(x, y);
  EXPECT_NEAR(model.predict(std::vector<double>{0.5, 0.5}).mean, 3.0, 1e-3);
}

}  // namespace
}  // namespace robotune::core
