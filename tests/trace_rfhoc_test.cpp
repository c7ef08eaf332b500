// Tests for the RFHOC-style tuner.
#include <gtest/gtest.h>

#include "sparksim/objective.h"
#include "tuners/rfhoc.h"

namespace robotune::tuners {
namespace {

sparksim::SparkObjective make_objective(std::uint64_t seed = 42) {
  return sparksim::SparkObjective(
      sparksim::ClusterSpec{},
      sparksim::make_workload(sparksim::WorkloadKind::kTeraSort, 1),
      sparksim::spark24_config_space(), seed);
}

// --------------------------------------------------------------- RFHOC ----

TEST(RfhocTest, RespectsBudgetExactly) {
  auto objective = make_objective(6);
  Rfhoc rfhoc;
  const auto result = rfhoc.tune(objective, 40, 11);
  EXPECT_EQ(result.history.size(), 40u);
  EXPECT_EQ(objective.evaluations(), 40u);
  EXPECT_EQ(result.tuner, "RFHOC");
  EXPECT_TRUE(result.found_any());
}

TEST(RfhocTest, TrainFractionSplitsTheBudget) {
  auto objective = make_objective(7);
  RfhocOptions options;
  options.train_fraction = 0.5;
  options.forest_trees = 50;
  options.ga_generations = 5;
  Rfhoc rfhoc(options);
  const auto result = rfhoc.tune(objective, 30, 13);
  EXPECT_EQ(result.history.size(), 30u);
}

TEST(RfhocTest, AllBudgetOnTrainingStillReturns) {
  auto objective = make_objective(8);
  RfhocOptions options;
  options.train_fraction = 0.95;
  options.forest_trees = 30;
  Rfhoc rfhoc(options);
  const auto result = rfhoc.tune(objective, 12, 15);
  EXPECT_EQ(result.history.size(), 12u);
}

TEST(RfhocTest, ValidationPhaseEvaluatesModelFavourites) {
  // The validated candidates (after the training prefix) should, on
  // average, be no worse than the random training samples — the model
  // extracts at least crude signal.
  auto objective = make_objective(9);
  RfhocOptions options;
  options.train_fraction = 0.6;
  options.forest_trees = 100;
  Rfhoc rfhoc(options);
  const auto result = rfhoc.tune(objective, 50, 17);
  double train_sum = 0.0, validate_sum = 0.0;
  int train_n = 0, validate_n = 0;
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const auto& e = result.history[i];
    if (i < 30) {
      train_sum += e.value_s;
      ++train_n;
    } else {
      validate_sum += e.value_s;
      ++validate_n;
    }
  }
  EXPECT_LE(validate_sum / validate_n, train_sum / train_n * 1.05);
}

TEST(RfhocTest, DeterministicPerSeed) {
  auto a = make_objective(10);
  auto b = make_objective(10);
  Rfhoc r1, r2;
  const auto ra = r1.tune(a, 25, 21);
  const auto rb = r2.tune(b, 25, 21);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].unit, rb.history[i].unit);
  }
}

}  // namespace
}  // namespace robotune::tuners
