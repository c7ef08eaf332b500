// Tests for the tuner infrastructure and the three baseline tuners.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "sparksim/objective.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"
#include "tuners/rfhoc.h"
#include "tuners/tuner.h"

namespace robotune::tuners {
namespace {

using sparksim::RunStatus;

sparksim::SparkObjective make_objective(std::uint64_t seed = 42,
                                        sparksim::WorkloadKind kind =
                                            sparksim::WorkloadKind::kTeraSort,
                                        int dataset = 1) {
  return sparksim::SparkObjective(sparksim::ClusterSpec{},
                                  sparksim::make_workload(kind, dataset),
                                  sparksim::spark24_config_space(), seed);
}

// -------------------------------------------------------- GuardPolicy ----

TEST(GuardPolicyTest, StaticThresholdOnly) {
  GuardPolicy guard(480.0, 0.0);
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);
}

TEST(GuardPolicyTest, NoGuardMeansZero) {
  GuardPolicy guard(0.0, 0.0);
  EXPECT_DOUBLE_EQ(guard.current(), 0.0);
}

TEST(GuardPolicyTest, MedianMultipleActivatesAfterFiveSamples) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation e;
  e.status = RunStatus::kOk;
  for (double v : {100.0, 110.0, 90.0, 105.0}) {
    e.value_s = v;
    guard.record(e);
  }
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);  // only 4 samples yet
  e.value_s = 95.0;
  guard.record(e);
  EXPECT_DOUBLE_EQ(guard.current(), 200.0);  // 2 x median(…)=2x100
}

TEST(GuardPolicyTest, IgnoresFailedAndStoppedRuns) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation bad;
  bad.status = RunStatus::kOom;
  bad.value_s = 600.0;
  for (int i = 0; i < 10; ++i) guard.record(bad);
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);
}

TEST(GuardPolicyTest, StaticCapWinsWhenTighter) {
  GuardPolicy guard(150.0, 3.0);
  Evaluation e;
  e.status = RunStatus::kOk;
  for (double v : {100.0, 100.0, 100.0, 100.0, 100.0}) {
    e.value_s = v;
    guard.record(e);
  }
  EXPECT_DOUBLE_EQ(guard.current(), 150.0);  // min(150, 300)
}

TEST(GuardPolicyTest, ThresholdIsMinOfStaticCapAndMedianMultiple) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation e;
  e.status = RunStatus::kOk;
  for (double v : {100.0, 100.0, 100.0, 100.0, 100.0}) {
    e.value_s = v;
    guard.record(e);
  }
  ASSERT_EQ(guard.observations(), 5u);
  EXPECT_DOUBLE_EQ(guard.current(), 200.0);  // min(480, 2 x 100)
  // A run of slow successes pushes the median-derived bound back above
  // the static cap, which takes over again.
  for (double v : {400.0, 400.0, 400.0, 400.0, 400.0, 400.0}) {
    e.value_s = v;
    guard.record(e);
  }
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);  // min(480, 2 x 400)
}

TEST(GuardPolicyTest, EarlyStoppedAndFailedRunsNeverEnterTheMedian) {
  GuardPolicy guard(480.0, 2.0);
  Evaluation stopped;
  stopped.status = RunStatus::kTimeLimit;
  stopped.stopped_early = true;
  stopped.value_s = 480.0;
  Evaluation failed;
  failed.status = RunStatus::kOom;
  failed.value_s = 504.0;
  Evaluation transient;
  transient.status = RunStatus::kExecutorLost;
  transient.transient = true;
  transient.value_s = 480.0;
  for (int i = 0; i < 5; ++i) {
    guard.record(stopped);
    guard.record(failed);
    guard.record(transient);
  }
  EXPECT_EQ(guard.observations(), 0u);
  EXPECT_DOUBLE_EQ(guard.current(), 480.0);  // static cap only
  // Clean successes are the only observations that count.
  Evaluation ok;
  ok.status = RunStatus::kOk;
  ok.value_s = 50.0;
  for (int i = 0; i < 5; ++i) guard.record(ok);
  EXPECT_EQ(guard.observations(), 5u);
  EXPECT_DOUBLE_EQ(guard.current(), 100.0);
}

TEST(EvaluateBatchIntoTest, ChargesExactlyTheThresholdOnEarlyStop) {
  auto objective = make_objective(30);
  GuardPolicy guard(30.0, 0.0);  // far below any real execution time
  TuningResult result;
  exec::EvalScheduler inline_scheduler;
  const auto e = evaluate_batch_into(inline_scheduler, objective,
                                     {objective.space().default_unit()},
                                     guard, result)
                     .front();
  EXPECT_TRUE(e.stopped_early);
  EXPECT_EQ(e.status, RunStatus::kTimeLimit);
  EXPECT_DOUBLE_EQ(e.value_s, 30.0);
  EXPECT_DOUBLE_EQ(e.cost_s, 30.0);
  EXPECT_DOUBLE_EQ(result.search_cost_s, 30.0);
  EXPECT_EQ(guard.observations(), 0u);  // the stop never feeds the median
}

// ------------------------------------------------------- TuningResult ----

TEST(TuningResultTest, BestTrackingPrefersSuccessfulRuns) {
  auto objective = make_objective(1);
  GuardPolicy guard(480.0, 0.0);
  TuningResult result;
  // A failing config first (tiny memory per slot), then a good one.
  auto bad = objective.space().default_unit();
  bad[*objective.space().index_of("spark.executor.cores")] = 0.999;   // 32
  bad[*objective.space().index_of("spark.executor.memory.mb")] = 0.0;  // 8 GB
  bad[*objective.space().index_of("spark.memory.fraction")] = 0.0;
  auto good = objective.space().default_unit();
  good[*objective.space().index_of("spark.executor.cores")] =
      objective.space()
          .spec(*objective.space().index_of("spark.executor.cores"))
          .encode(8);
  good[*objective.space().index_of("spark.executor.memory.mb")] =
      objective.space()
          .spec(*objective.space().index_of("spark.executor.memory.mb"))
          .encode(32768);
  exec::EvalScheduler inline_scheduler;
  evaluate_batch_into(inline_scheduler, objective, {bad, good}, guard, result);
  EXPECT_TRUE(result.found_any());
  EXPECT_EQ(result.best_index, result.history[0].ok() ? 0u : 1u);
}

TEST(TuningResultTest, TrajectoryIsMonotoneNonIncreasing) {
  auto objective = make_objective(2);
  RandomSearch rs;
  const auto result = rs.tune(objective, 30, 7);
  const auto traj = result.best_trajectory();
  ASSERT_EQ(traj.size(), 30u);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i], traj[i - 1]);
  }
}

TEST(TuningResultTest, SearchCostEqualsSumOfEvaluationCosts) {
  auto objective = make_objective(3);
  RandomSearch rs;
  const auto result = rs.tune(objective, 20, 9);
  double sum = 0.0;
  for (const auto& e : result.history) sum += e.cost_s;
  EXPECT_NEAR(result.search_cost_s, sum, 1e-9);
  EXPECT_NEAR(objective.total_cost_s(), sum, 1e-9);
}

TEST(TuningResultTest, SampledTimesExcludeHardFailures) {
  auto objective = make_objective(4, sparksim::WorkloadKind::kPageRank, 1);
  RandomSearch rs;
  const auto result = rs.tune(objective, 40, 11);
  for (double t : result.sampled_times()) {
    EXPECT_LE(t, 480.0);  // penalties (>480) never appear
  }
}

// ------------------------------------------------------- RandomSearch ----

TEST(RandomSearchTest, RespectsBudgetExactly) {
  auto objective = make_objective(5);
  RandomSearch rs;
  const auto result = rs.tune(objective, 25, 3);
  EXPECT_EQ(result.history.size(), 25u);
  EXPECT_EQ(objective.evaluations(), 25u);
  EXPECT_EQ(result.tuner, "RS");
}

TEST(RandomSearchTest, DeterministicPerSeed) {
  auto a = make_objective(6);
  auto b = make_objective(6);
  RandomSearch rs;
  const auto ra = rs.tune(a, 15, 42);
  const auto rb = rs.tune(b, 15, 42);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].unit, rb.history[i].unit);
  }
}

TEST(RandomSearchTest, DifferentSeedsExploreDifferently) {
  auto a = make_objective(7);
  auto b = make_objective(7);
  RandomSearch rs;
  EXPECT_NE(rs.tune(a, 10, 1).history[0].unit,
            rs.tune(b, 10, 2).history[0].unit);
}

// --------------------------------------------------------- BestConfig ----

TEST(BestConfigTest, SingleRoundAtPaperSettings) {
  // sample_set_size=100 with budget 100 -> one DDS round, pure exploration
  // (exactly the paper's observation in §5.2).
  auto objective = make_objective(8);
  BestConfig bc;
  const auto result = bc.tune(objective, 100, 5);
  EXPECT_EQ(result.history.size(), 100u);
  EXPECT_EQ(result.tuner, "BestConfig");
}

TEST(BestConfigTest, SmallSampleSetTriggersRecursiveBoundAndSearch) {
  auto objective = make_objective(9);
  BestConfigOptions options;
  options.sample_set_size = 10;
  BestConfig bc(options);
  const auto result = bc.tune(objective, 50, 5);
  EXPECT_EQ(result.history.size(), 50u);
  // Later rounds concentrate: some late sample must be closer to the best
  // than the typical first-round spread.
  const auto& best = result.best_unit();
  double min_late_distance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 40; i < 50; ++i) {
    double d = 0.0;
    for (std::size_t k = 0; k < best.size(); ++k) {
      d += std::abs(result.history[i].unit[k] - best[k]);
    }
    min_late_distance = std::min(min_late_distance, d);
  }
  EXPECT_LT(min_late_distance, 0.25 * static_cast<double>(best.size()));
}

TEST(BestConfigTest, BudgetSmallerThanSampleSetStillWorks) {
  auto objective = make_objective(10);
  const auto result = BestConfig().tune(objective, 17, 3);
  EXPECT_EQ(result.history.size(), 17u);
}

// ------------------------------------------------------------ Gunther ----

TEST(GuntherTest, RespectsBudget) {
  auto objective = make_objective(11);
  Gunther g;
  const auto result = g.tune(objective, 60, 5);
  EXPECT_EQ(result.history.size(), 60u);
  EXPECT_EQ(result.tuner, "Gunther");
}

TEST(GuntherTest, InitialPopulationDominatesBudgetAtHighDims) {
  // The paper's critique (§6): 2 initial configs per parameter over 44
  // parameters consumes most of a 100-evaluation budget.
  auto objective = make_objective(12);
  Gunther g;
  const auto result = g.tune(objective, 100, 5);
  // 85% cap applies: exactly 85 random initial evaluations.
  EXPECT_EQ(result.history.size(), 100u);
  const int init =
      static_cast<int>(std::min(Gunther::kInitialPerParam * 44.0,
                                100.0 * Gunther::kMaxInitialBudgetFraction));
  EXPECT_EQ(init, 85);
}

TEST(GuntherTest, TinyBudgetOnlyRunsInitialPopulation) {
  auto objective = make_objective(13);
  Gunther g;
  const auto result = g.tune(objective, 5, 5);
  EXPECT_EQ(result.history.size(), 5u);
}

TEST(GuntherTest, GenesStayInUnitCube) {
  auto objective = make_objective(14);
  Gunther g;
  const auto result = g.tune(objective, 40, 9);
  for (const auto& e : result.history) {
    for (double v : e.unit) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

// ------------------------------------------- cross-tuner sanity sweep ----

class AllTunersTest : public ::testing::TestWithParam<int> {};

TEST_P(AllTunersTest, EveryTunerFindsAWorkingConfiguration) {
  const int which = GetParam();
  std::unique_ptr<Tuner> tuner;
  switch (which) {
    case 0:
      tuner = std::make_unique<RandomSearch>();
      break;
    case 1:
      tuner = std::make_unique<BestConfig>();
      break;
    default:
      tuner = std::make_unique<Gunther>();
      break;
  }
  auto objective = make_objective(20 + static_cast<std::uint64_t>(which));
  const auto result = tuner->tune(objective, 30, 77);
  EXPECT_TRUE(result.found_any()) << result.tuner;
  EXPECT_LT(result.best_value_s(), 480.0) << result.tuner;
  EXPECT_GT(result.search_cost_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Tuners, AllTunersTest, ::testing::Range(0, 3));

// ------------------------------------------------ cancel at round ends ----

std::unique_ptr<Tuner> make_baseline(const std::string& name) {
  if (name == "RS") return std::make_unique<RandomSearch>();
  if (name == "Gunther") return std::make_unique<Gunther>();
  if (name == "BestConfig") return std::make_unique<BestConfig>();
  return std::make_unique<Rfhoc>();
}

// A cancel that is already set stops every baseline at its first round
// boundary, detached and on a scheduler.  The first boundary is where an
// uncancelled run first reaches its pacing point.
TEST(CancelTest, EveryBaselineStopsAtItsFirstRoundBoundary) {
  constexpr int kBudget = 40;
  for (const std::string name : {"RS", "Gunther", "BestConfig", "RFHOC"}) {
    for (const int workers : {0, 4}) {  // 0 = detached
      SCOPED_TRACE(name + " on " + std::to_string(workers) + " workers");
      std::optional<exec::EvalScheduler> scheduler;
      if (workers > 0) {
        scheduler.emplace(exec::SchedulerOptions{.parallelism = workers});
      }

      auto objective = make_objective(5);
      auto tuner = make_baseline(name);
      if (scheduler) tuner->set_scheduler(&*scheduler);
      std::optional<std::size_t> first_boundary;
      tuner->set_pacing(nullptr, [&] {
        if (!first_boundary) first_boundary = objective.evaluations();
      });
      ASSERT_EQ(tuner->tune(objective, kBudget, 3).history.size(),
                static_cast<std::size_t>(kBudget));
      ASSERT_TRUE(first_boundary.has_value()) << "never paced";
      ASSERT_LT(*first_boundary, static_cast<std::size_t>(kBudget));

      auto cancelled_objective = make_objective(5);
      const std::atomic<bool> cancel{true};
      tuner->set_pacing(&cancel, nullptr);
      const auto cancelled = tuner->tune(cancelled_objective, kBudget, 3);
      EXPECT_LE(cancelled.history.size(), *first_boundary);
    }
  }
}

}  // namespace
}  // namespace robotune::tuners
