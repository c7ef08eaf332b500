// Tests for src/core: memoization, parameter selection, the BO engine,
// and the ROBOTune framework.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bo_engine.h"
#include "core/memoization.h"
#include "core/parameter_selection.h"
#include "core/robotune.h"
#include "core/session.h"
#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"

namespace robotune::core {
namespace {

using sparksim::WorkloadKind;

sparksim::SparkObjective make_objective(WorkloadKind kind = WorkloadKind::kTeraSort,
                                        int dataset = 1,
                                        std::uint64_t seed = 42) {
  return sparksim::SparkObjective(sparksim::ClusterSpec{},
                                  sparksim::make_workload(kind, dataset),
                                  sparksim::spark24_config_space(), seed);
}

// Fast selection settings for tests.
SelectionOptions fast_selection() {
  SelectionOptions opt;
  opt.generic_samples = 60;
  opt.forest_trees = 80;
  opt.permutation_repeats = 3;
  return opt;
}

// ------------------------------------------------------- memoization ----

TEST(SelectionCacheTest, StoreAndLookup) {
  ParameterSelectionCache cache;
  EXPECT_FALSE(cache.contains("PageRank"));
  cache.store("PageRank", {1, 5, 9});
  EXPECT_TRUE(cache.contains("PageRank"));
  const auto hit = cache.lookup("PageRank");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<std::size_t>{1, 5, 9}));
  EXPECT_FALSE(cache.lookup("KMeans").has_value());
}

TEST(SelectionCacheTest, StoreOverwrites) {
  ParameterSelectionCache cache;
  cache.store("W", {1});
  cache.store("W", {2, 3});
  EXPECT_EQ(cache.lookup("W")->size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoBufferTest, KeepsBestConfigsSorted) {
  ConfigMemoizationBuffer buffer(3);
  buffer.store("W", {{0.1}, 300.0});
  buffer.store("W", {{0.2}, 100.0});
  buffer.store("W", {{0.3}, 200.0});
  buffer.store("W", {{0.4}, 50.0});  // evicts the 300 s entry
  const auto best = buffer.best("W", 4);
  ASSERT_EQ(best.size(), 3u);
  EXPECT_DOUBLE_EQ(best[0].value_s, 50.0);
  EXPECT_DOUBLE_EQ(best[1].value_s, 100.0);
  EXPECT_DOUBLE_EQ(best[2].value_s, 200.0);
}

TEST(MemoBufferTest, BestRespectsK) {
  ConfigMemoizationBuffer buffer;
  buffer.store("W", {{0.1}, 1.0});
  buffer.store("W", {{0.2}, 2.0});
  EXPECT_EQ(buffer.best("W", 1).size(), 1u);
  EXPECT_TRUE(buffer.best("other", 4).empty());
  EXPECT_FALSE(buffer.contains("other"));
}

// ------------------------------------------------ parameter selection ----

TEST(FeatureGroupsTest, CoversEveryParameterExactlyOnce) {
  const auto space = sparksim::spark24_config_space();
  const auto groups = build_feature_groups(
      space, sparksim::spark24_joint_parameter_groups());
  std::vector<int> cover(space.size(), 0);
  for (const auto& g : groups) {
    for (std::size_t f : g.features) cover[f]++;
  }
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(cover[i], 1) << space.spec(i).name;
  }
}

TEST(FeatureGroupsTest, UnknownNameThrows) {
  const auto space = sparksim::spark24_config_space();
  EXPECT_THROW(build_feature_groups(space, {{"spark.bogus"}}),
               InvalidArgument);
}

TEST(FeatureGroupsTest, DuplicateMembershipThrows) {
  const auto space = sparksim::spark24_config_space();
  EXPECT_THROW(
      build_feature_groups(space, {{"spark.executor.cores"},
                                   {"spark.executor.cores"}}),
      InvalidArgument);
}

TEST(SelectionTest, FromSamplesFindsPlantedSignal) {
  // Synthetic objective over the real space: time depends only on
  // executor cores and serializer.
  const auto space = sparksim::spark24_config_space();
  const auto cores = *space.index_of("spark.executor.cores");
  const auto ser = *space.index_of("spark.serializer");
  Rng rng(3);
  std::vector<std::vector<double>> units;
  std::vector<double> values;
  for (int i = 0; i < 150; ++i) {
    std::vector<double> u(space.size());
    for (auto& v : u) v = rng.uniform();
    units.push_back(u);
    values.push_back(100.0 + 200.0 * u[cores] + 80.0 * (u[ser] > 0.5) +
                     rng.normal(0, 2.0));
  }
  SelectionOptions opt = fast_selection();
  opt.always_selected_groups.clear();
  const auto report = select_parameters_from_samples(
      space, units, values, sparksim::spark24_joint_parameter_groups(), opt);
  EXPECT_GT(report.oob_r2, 0.7);
  // Both planted parameters selected (cores arrives via its joint group).
  EXPECT_NE(std::find(report.selected.begin(), report.selected.end(), cores),
            report.selected.end());
  EXPECT_NE(std::find(report.selected.begin(), report.selected.end(), ser),
            report.selected.end());
}

TEST(SelectionTest, PinnedGroupAlwaysIncluded) {
  const auto space = sparksim::spark24_config_space();
  const auto cores = *space.index_of("spark.executor.cores");
  const auto memory = *space.index_of("spark.executor.memory.mb");
  Rng rng(4);
  std::vector<std::vector<double>> units;
  std::vector<double> values;
  // Pure noise: nothing is actually important.
  for (int i = 0; i < 80; ++i) {
    std::vector<double> u(space.size());
    for (auto& v : u) v = rng.uniform();
    units.push_back(u);
    values.push_back(rng.normal(100, 10));
  }
  const auto report = select_parameters_from_samples(
      space, units, values, sparksim::spark24_joint_parameter_groups(),
      fast_selection());
  EXPECT_NE(std::find(report.selected.begin(), report.selected.end(), cores),
            report.selected.end());
  EXPECT_NE(std::find(report.selected.begin(), report.selected.end(), memory),
            report.selected.end());
}

TEST(SelectionTest, MinGroupsFloorExtendsSmallSelections) {
  const auto space = sparksim::spark24_config_space();
  Rng rng(9);
  std::vector<std::vector<double>> units;
  std::vector<double> values;
  // Pure noise: nothing clears the threshold, so the floor drives the size.
  for (int i = 0; i < 80; ++i) {
    std::vector<double> u(space.size());
    for (auto& v : u) v = rng.uniform();
    units.push_back(u);
    values.push_back(rng.normal(100, 5));
  }
  SelectionOptions opt = fast_selection();
  opt.min_groups = 6;
  opt.always_selected_groups.clear();
  const auto report = select_parameters_from_samples(
      space, units, values, sparksim::spark24_joint_parameter_groups(), opt);
  // At least 6 groups' worth of parameters (groups may span several).
  EXPECT_GE(report.selected.size(), 6u);
  SelectionOptions none = fast_selection();
  none.min_groups = 0;
  none.always_selected_groups.clear();
  const auto bare = select_parameters_from_samples(
      space, units, values, sparksim::spark24_joint_parameter_groups(), none);
  EXPECT_LE(bare.selected.size(), report.selected.size());
}

TEST(SelectionTest, EndToEndSelectionOnSimulator) {
  auto objective = make_objective(WorkloadKind::kPageRank, 1, 7);
  const auto report = select_parameters(
      objective, sparksim::spark24_joint_parameter_groups(),
      fast_selection());
  EXPECT_EQ(report.evaluations.size(), 60u);
  EXPECT_GT(report.sampling_cost_s, 0.0);
  EXPECT_FALSE(report.selected.empty());
  EXPECT_FALSE(report.importances.empty());
  // Importances sorted descending.
  for (std::size_t i = 1; i < report.importances.size(); ++i) {
    EXPECT_GE(report.importances[i - 1].mean_drop,
              report.importances[i].mean_drop);
  }
}

// Selection runs its samples under its own eval indices, so what an
// objective evaluated before cannot change what selection sees.
TEST(SelectionTest, IndependentOfTheObjectivesPosition) {
  auto fresh = make_objective(WorkloadKind::kPageRank, 1, 7);
  auto advanced = make_objective(WorkloadKind::kPageRank, 1, 7);
  const auto unit = advanced.space().default_unit();
  for (int i = 0; i < 40; ++i) advanced.evaluate(unit);
  const auto joint = sparksim::spark24_joint_parameter_groups();
  const auto a = select_parameters(fresh, joint, fast_selection());
  const auto b = select_parameters(advanced, joint, fast_selection());
  EXPECT_EQ(a.selected, b.selected);
  ASSERT_EQ(a.evaluations.size(), b.evaluations.size());
  for (std::size_t i = 0; i < a.evaluations.size(); ++i) {
    EXPECT_EQ(a.evaluations[i].value_s, b.evaluations[i].value_s) << i;
  }
  EXPECT_EQ(a.sampling_cost_s, b.sampling_cost_s);
}

TEST(SelectionTest, TooFewSamplesThrows) {
  const auto space = sparksim::spark24_config_space();
  std::vector<std::vector<double>> units(3,
                                         std::vector<double>(space.size()));
  std::vector<double> values(3, 1.0);
  EXPECT_THROW(select_parameters_from_samples(
                   space, units, values,
                   sparksim::spark24_joint_parameter_groups(), {}),
               InvalidArgument);
}

// ----------------------------------------------------------- BoEngine ----

std::vector<std::size_t> small_selection(const sparksim::ConfigSpace& space) {
  return {*space.index_of("spark.executor.cores"),
          *space.index_of("spark.executor.memory.mb"),
          *space.index_of("spark.cores.max"),
          *space.index_of("spark.default.parallelism")};
}

TEST(BoEngineTest, ProjectExpandRoundTrip) {
  const auto space = sparksim::spark24_config_space();
  BoOptions options;
  options.budget = 25;
  options.initial_samples = 10;
  BoEngine engine(small_selection(space), space.default_unit(), options);
  std::vector<double> sub = {0.25, 0.5, 0.75, 0.1};
  const auto full = engine.expand(sub);
  EXPECT_EQ(full.size(), space.size());
  const auto back = engine.project(full);
  EXPECT_EQ(back, sub);
  // Non-selected coordinates remain at the base.
  const auto base = space.default_unit();
  const auto ser = *space.index_of("spark.serializer");
  EXPECT_DOUBLE_EQ(full[ser], base[ser]);
}

TEST(BoEngineTest, RunsWithinBudget) {
  const auto space = sparksim::spark24_config_space();
  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 9);
  BoOptions options;
  options.budget = 30;
  options.initial_samples = 10;
  options.hyperfit_every = 10;
  BoEngine engine(small_selection(space), space.default_unit(), options);
  const auto result = engine.run(objective);
  EXPECT_EQ(result.tuning.history.size(), 30u);
  EXPECT_EQ(result.iterations_run, 20);
  EXPECT_EQ(result.chosen_acquisitions.size(), 20u);
  EXPECT_EQ(result.hedge_gains.size(), 3u);
  EXPECT_TRUE(result.tuning.found_any());
}

TEST(BoEngineTest, MemoizedConfigsSeedTheInitialSet) {
  const auto space = sparksim::spark24_config_space();
  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 10);
  BoOptions options;
  options.budget = 12;
  options.initial_samples = 8;
  options.memoized_in_initial = 2;
  BoEngine engine(small_selection(space), space.default_unit(), options);
  std::vector<MemoizedConfig> memo;
  auto good = space.default_unit();
  good[*space.index_of("spark.executor.cores")] = 0.33;
  memo.push_back({good, 100.0});
  memo.push_back({good, 110.0});
  const auto result = engine.run(objective, memo);
  // The first two evaluated configurations are the memoized ones.
  EXPECT_NEAR(result.tuning.history[0].unit[*space.index_of(
                  "spark.executor.cores")],
              0.33, 1e-12);
}

TEST(BoEngineTest, ObserverSeesEveryIteration) {
  const auto space = sparksim::spark24_config_space();
  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 12);
  BoOptions options;
  options.budget = 15;
  options.initial_samples = 10;
  options.hyperfit_every = 5;
  BoEngine engine(small_selection(space), space.default_unit(), options);
  int calls = 0;
  const auto result = engine.run(
      objective, {}, [&](const BoObserverInfo& info) {
        EXPECT_EQ(info.iteration, calls);
        EXPECT_NE(info.gp, nullptr);
        EXPECT_TRUE(info.gp->trained());
        EXPECT_NE(info.choice, nullptr);
        ++calls;
      });
  EXPECT_EQ(calls, 5);
}

TEST(BoEngineTest, InvalidConfigurationsThrow) {
  const auto space = sparksim::spark24_config_space();
  BoOptions options;
  EXPECT_THROW(BoEngine({}, space.default_unit(), options), InvalidArgument);
  EXPECT_THROW(BoEngine({999}, space.default_unit(), options),
               InvalidArgument);
  options.budget = 5;
  options.initial_samples = 10;
  EXPECT_THROW(BoEngine({0}, space.default_unit(), options), InvalidArgument);
}

void expect_same_result(const BoResult& a, const BoResult& b) {
  ASSERT_EQ(a.tuning.history.size(), b.tuning.history.size());
  for (std::size_t i = 0; i < a.tuning.history.size(); ++i) {
    const auto& x = a.tuning.history[i];
    const auto& y = b.tuning.history[i];
    EXPECT_EQ(x.unit, y.unit) << "evaluation " << i;
    EXPECT_EQ(x.value_s, y.value_s) << i;
    EXPECT_EQ(x.cost_s, y.cost_s) << i;
    EXPECT_EQ(x.status, y.status) << i;
    EXPECT_EQ(x.attempts, y.attempts) << i;
  }
  EXPECT_EQ(a.tuning.best_index, b.tuning.best_index);
  EXPECT_EQ(a.tuning.search_cost_s, b.tuning.search_cost_s);
  EXPECT_EQ(a.chosen_acquisitions, b.chosen_acquisitions);
  EXPECT_EQ(a.hedge_gains, b.hedge_gains);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
}

BoOptions step_options(int batch) {
  BoOptions options;
  options.budget = 22;
  options.initial_samples = 10;
  options.hyperfit_every = 4;
  options.batch_size = batch;
  return options;
}

// propose/tell stand on their own: driving them by hand against the
// objective reproduces run() exactly.
TEST(BoEngineTest, ProposeTellByHandMatchesRun) {
  const auto space = sparksim::spark24_config_space();
  auto run_objective = make_objective(WorkloadKind::kTeraSort, 1, 14);
  BoEngine reference(small_selection(space), space.default_unit(),
                     step_options(1));
  const auto expected = reference.run(run_objective);

  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 14);
  BoEngine engine(small_selection(space), space.default_unit(),
                  step_options(1));
  engine.start();
  int rounds = 0;
  while (const auto round = engine.propose()) {
    EXPECT_EQ(round->first_index, engine.result().tuning.history.size());
    EXPECT_EQ(round->initial, rounds < 10);
    // run() evaluates each point on the fork of its eval index.
    std::vector<tuners::Evaluation> evals;
    for (std::size_t i = 0; i < round->points.size(); ++i) {
      const auto& point = round->points[i];
      auto fork = objective.fork_for_eval(round->first_index + i);
      evals.push_back(tuners::to_evaluation(
          point, fork.evaluate(point, round->threshold)));
      objective.merge_fork(fork);
    }
    engine.tell(evals);
    ++rounds;
  }
  EXPECT_EQ(rounds, 22);
  expect_same_result(engine.result(), expected);
}

TEST(BoEngineTest, ProposeTellByHandMatchesRunOnAScheduler) {
  const auto space = sparksim::spark24_config_space();
  exec::SchedulerOptions sched;
  sched.parallelism = 2;
  exec::EvalScheduler scheduler(sched);
  auto run_objective = make_objective(WorkloadKind::kTeraSort, 1, 15);
  BoEngine reference(small_selection(space), space.default_unit(),
                     step_options(4));
  const auto expected =
      reference.run(run_objective, {}, nullptr, nullptr, &scheduler);

  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 15);
  BoEngine engine(small_selection(space), space.default_unit(),
                  step_options(4));
  engine.start();
  std::vector<std::size_t> sizes;
  while (const auto round = engine.propose()) {
    std::vector<exec::EvalRequest> requests;
    for (const auto& point : round->points) {
      requests.push_back({point, round->threshold});
    }
    const auto outcomes =
        scheduler.run_batch(objective, requests, round->first_index);
    std::vector<tuners::Evaluation> evals;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      evals.push_back(tuners::to_evaluation(round->points[i], outcomes[i]));
    }
    engine.tell(evals);
    sizes.push_back(round->points.size());
  }
  // The initial design comes in batch-sized chunks too; the last BO
  // round is cut to the remaining budget.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2, 4, 4, 4}));
  expect_same_result(engine.result(), expected);
}

TEST(BoEngineTest, StepMisuseThrows) {
  const auto space = sparksim::spark24_config_space();
  BoEngine engine(small_selection(space), space.default_unit(),
                  step_options(2));
  EXPECT_THROW(engine.propose(), InvalidArgument);  // before start()
  engine.start();
  EXPECT_THROW(engine.tell({}), InvalidArgument);  // nothing proposed
  const auto round = engine.propose();
  ASSERT_TRUE(round.has_value());
  EXPECT_THROW(engine.propose(), InvalidArgument);  // round still open
  EXPECT_THROW(engine.tell({tuners::Evaluation{}}), InvalidArgument);
}

// ------------------------------------------------------------ RoboTune ----

RoboTuneOptions fast_robotune() {
  RoboTuneOptions options;
  options.selection = SelectionOptions{};
  options.selection.generic_samples = 50;
  options.selection.forest_trees = 60;
  options.selection.permutation_repeats = 2;
  options.bo.initial_samples = 10;
  options.bo.hyperfit_every = 10;
  return options;
}

TEST(RoboTuneTest, EndToEndSessionProducesReport) {
  RoboTune tuner(fast_robotune());
  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 13);
  const auto report = tuner.tune_report(objective, 25, 5);
  EXPECT_FALSE(report.selection_cache_hit);
  EXPECT_FALSE(report.used_memoized_configs);
  EXPECT_GT(report.selection_cost_s, 0.0);
  EXPECT_FALSE(report.selected.empty());
  EXPECT_EQ(report.tuning.history.size(), 25u);
  EXPECT_EQ(report.tuning.tuner, "ROBOTune");
  EXPECT_TRUE(report.tuning.found_any());
}

TEST(RoboTuneTest, SecondSessionHitsCachesAndMemoizes) {
  RoboTune tuner(fast_robotune());
  auto first = make_objective(WorkloadKind::kTeraSort, 1, 14);
  const auto r1 = tuner.tune_report(first, 20, 5);
  // Same workload, different dataset: cache hit + memoized configs.
  auto second = make_objective(WorkloadKind::kTeraSort, 2, 15);
  const auto r2 = tuner.tune_report(second, 20, 6);
  EXPECT_TRUE(r2.selection_cache_hit);
  EXPECT_TRUE(r2.used_memoized_configs);
  EXPECT_DOUBLE_EQ(r2.selection_cost_s, 0.0);
  EXPECT_EQ(r2.selected, r1.selected);
}

TEST(RoboTuneTest, DifferentWorkloadsUseSeparateCaches) {
  RoboTune tuner(fast_robotune());
  auto ts = make_objective(WorkloadKind::kTeraSort, 1, 16);
  tuner.tune_report(ts, 20, 5);
  auto km = make_objective(WorkloadKind::kKMeans, 1, 17);
  const auto r = tuner.tune_report(km, 20, 5);
  EXPECT_FALSE(r.selection_cache_hit);
  EXPECT_FALSE(r.used_memoized_configs);
}

TEST(RoboTuneTest, MemoBufferFillsAfterSession) {
  RoboTune tuner(fast_robotune());
  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 18);
  tuner.tune_report(objective, 20, 5);
  EXPECT_GE(tuner.memo_buffer().size("TeraSort"), 1u);
  EXPECT_TRUE(tuner.selection_cache().contains("TeraSort"));
}

TEST(RoboTuneTest, TunerInterfaceMatchesReport) {
  RoboTune tuner(fast_robotune());
  auto objective = make_objective(WorkloadKind::kTeraSort, 1, 19);
  const auto result = tuner.tune(objective, 22, 5);
  EXPECT_EQ(result.history.size(), 22u);
  EXPECT_EQ(tuner.name(), "ROBOTune");
}

TEST(RoboTuneTest, SelectedSetAlwaysContainsExecutorSize) {
  RoboTune tuner(fast_robotune());
  const auto space = sparksim::spark24_config_space();
  auto objective = make_objective(WorkloadKind::kPageRank, 1, 20);
  const auto report = tuner.tune_report(objective, 20, 5);
  const auto cores = *space.index_of("spark.executor.cores");
  const auto memory = *space.index_of("spark.executor.memory.mb");
  EXPECT_NE(std::find(report.selected.begin(), report.selected.end(), cores),
            report.selected.end());
  EXPECT_NE(std::find(report.selected.begin(), report.selected.end(), memory),
            report.selected.end());
}

// ------------------------------------------------- session objective ----

// An external executor (robotune_cli --remote drive) evaluates grant i
// on make_session_objective(spec).fork_for_eval(i).  Every measured
// evaluation of an internal session of the same spec is exactly that —
// with a per-site fault list, retries and preemption all in play.
TEST(SessionObjectiveTest, InternalEvaluationsAreForksOfTheSessionObjective) {
  SessionSpec spec;
  spec.workload = "TS";
  spec.budget = 30;
  spec.seed = 11;
  spec.fault_profile = "loss=0.1,fetch=0.1,straggler=0.2,slowdown=3";
  spec.retries = 1;
  spec.preempt_rate = 0.05;
  spec.parallel = 1;
  spec.init = 10;
  spec.selection_samples = 40;
  std::string error;
  const auto session = SessionFactory::create(spec, &error);
  ASSERT_NE(session, nullptr) << error;
  const SessionOutcome outcome = session->run();
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  const auto& history = outcome.result.history;
  ASSERT_EQ(history.size(), 30u);

  const sparksim::SparkObjective objective = make_session_objective(spec);
  EXPECT_EQ(objective.fault_profile().preemption_per_stage, 0.05);
  EXPECT_EQ(objective.fault_profile().executor_loss_per_stage, 0.1);
  std::size_t checked = 0;
  bool retried = false;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto& e = history[i];
    if (!e.ok() || e.stopped_early) continue;
    const auto direct = objective.fork_for_eval(i).evaluate(e.unit);
    EXPECT_EQ(direct.status, e.status) << "eval " << i;
    EXPECT_EQ(direct.value_s, e.value_s) << "eval " << i;
    EXPECT_EQ(direct.cost_s, e.cost_s) << "eval " << i;
    EXPECT_EQ(direct.attempts, e.attempts) << "eval " << i;
    retried = retried || e.attempts > 1;
    ++checked;
  }
  EXPECT_GE(checked, 15u);
  EXPECT_TRUE(retried) << "the fault profile never fired";
}

TEST(SessionObjectiveTest, InvalidSpecThrows) {
  SessionSpec spec;
  spec.fault_profile = "loss=2";
  EXPECT_THROW(make_session_objective(spec), InvalidArgument);
  spec.fault_profile = "none";
  spec.workload = "XX";
  EXPECT_THROW(make_session_objective(spec), InvalidArgument);
}

}  // namespace
}  // namespace robotune::core
