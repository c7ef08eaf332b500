// Unit tests for src/exec: the deterministic batch-evaluation scheduler
// and the per-evaluation objective forks it is built on.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"

namespace robotune {
namespace {

sparksim::SparkObjective make_objective(std::uint64_t seed) {
  return sparksim::SparkObjective(sparksim::ClusterSpec::paper_testbed(),
                                  sparksim::make_workload(
                                      sparksim::WorkloadKind::kPageRank, 1),
                                  sparksim::spark24_config_space(), seed);
}

std::vector<std::vector<double>> make_units(std::size_t n, std::size_t dims,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> units(n, std::vector<double>(dims));
  for (auto& u : units) {
    for (auto& x : u) x = rng.uniform();
  }
  return units;
}

std::vector<exec::EvalRequest> make_requests(
    const std::vector<std::vector<double>>& units, double threshold = 0.0) {
  std::vector<exec::EvalRequest> requests;
  for (const auto& u : units) requests.push_back({u, threshold});
  return requests;
}

void expect_outcomes_equal(const std::vector<sparksim::EvalOutcome>& a,
                           const std::vector<sparksim::EvalOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "outcome " << i;
    EXPECT_EQ(a[i].value_s, b[i].value_s) << "outcome " << i;
    EXPECT_EQ(a[i].cost_s, b[i].cost_s) << "outcome " << i;
    EXPECT_EQ(a[i].stopped_early, b[i].stopped_early) << "outcome " << i;
    EXPECT_EQ(a[i].transient, b[i].transient) << "outcome " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "outcome " << i;
  }
}

// ------------------------------------------------------- eval seeding ----

TEST(DeriveEvalSeedTest, PureFunctionOfSeedAndIndex) {
  EXPECT_EQ(sparksim::derive_eval_seed(7, 3), sparksim::derive_eval_seed(7, 3));
  EXPECT_NE(sparksim::derive_eval_seed(7, 3), sparksim::derive_eval_seed(7, 4));
  EXPECT_NE(sparksim::derive_eval_seed(7, 3), sparksim::derive_eval_seed(8, 3));
}

TEST(ForkForEvalTest, SameIndexSameOutcome) {
  auto objective = make_objective(99);
  const auto units = make_units(1, objective.space().size(), 5);
  auto fork_a = objective.fork_for_eval(12);
  auto fork_b = objective.fork_for_eval(12);
  const auto a = fork_a.evaluate(units[0]);
  const auto b = fork_b.evaluate(units[0]);
  EXPECT_EQ(a.value_s, b.value_s);
  EXPECT_EQ(a.cost_s, b.cost_s);
}

TEST(ForkForEvalTest, IndependentOfTheForkedObjectivesPosition) {
  auto fresh = make_objective(99);
  auto advanced = make_objective(99);
  const auto units = make_units(1, fresh.space().size(), 6);
  for (int i = 0; i < 40; ++i) advanced.evaluate(units[0]);
  const auto a = fresh.fork_for_eval(3).evaluate(units[0]);
  const auto b = advanced.fork_for_eval(3).evaluate(units[0]);
  EXPECT_EQ(a.value_s, b.value_s);
}

// One seeding scheme: evaluation k of an objective runs on stream k, so
// the k-th direct evaluate() equals fork_for_eval(k).evaluate() — retried
// attempts included.
TEST(ForkForEvalTest, KthEvaluateEqualsForkAtIndexK) {
  auto objective = make_objective(31);
  sparksim::FaultProfile faults;
  ASSERT_TRUE(sparksim::FaultProfile::from_preset("severe", faults));
  objective.set_fault_profile(faults);
  sparksim::RetryPolicy retry;
  retry.max_retries = 2;
  objective.set_retry_policy(retry);
  const auto units = make_units(24, objective.space().size(), 8);
  const auto forker = objective;  // forks of an untouched copy
  int retried = 0;
  for (std::size_t k = 0; k < units.size(); ++k) {
    const auto direct = objective.evaluate(units[k], 480.0);
    const auto forked = forker.fork_for_eval(k).evaluate(units[k], 480.0);
    expect_outcomes_equal({direct}, {forked});
    if (direct.attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0);  // the retry path was exercised
  EXPECT_EQ(objective.evaluations(), units.size());
}

TEST(ForkForEvalTest, MergeFoldsCounters) {
  auto objective = make_objective(17);
  const auto units = make_units(1, objective.space().size(), 7);
  auto fork = objective.fork_for_eval(0);
  const auto outcome = fork.evaluate(units[0]);
  objective.merge_fork(fork);
  EXPECT_EQ(objective.evaluations(), 1u);
  EXPECT_DOUBLE_EQ(objective.total_cost_s(), outcome.cost_s);
}

// ---------------------------------------------------------- scheduler ----

TEST(EvalSchedulerTest, OutcomesIdenticalAcrossParallelism) {
  const auto units = make_units(9, make_objective(1).space().size(), 11);
  std::vector<std::vector<sparksim::EvalOutcome>> per_level;
  for (int parallelism : {1, 4, 0}) {  // 0 = hardware_concurrency
    auto objective = make_objective(123);
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    exec::EvalScheduler scheduler(options);
    per_level.push_back(
        scheduler.run_batch(objective, make_requests(units), 0));
  }
  expect_outcomes_equal(per_level[0], per_level[1]);
  expect_outcomes_equal(per_level[0], per_level[2]);
}

TEST(EvalSchedulerTest, OutcomesIdenticalWithFaultsAndRetries) {
  const auto units = make_units(12, make_objective(1).space().size(), 13);
  std::vector<std::vector<sparksim::EvalOutcome>> per_level;
  for (int parallelism : {1, 4}) {
    auto objective = make_objective(321);
    sparksim::FaultProfile faults;
    ASSERT_TRUE(
        sparksim::FaultProfile::from_preset("moderate", faults));
    objective.set_fault_profile(faults);
    sparksim::RetryPolicy retry;
    retry.max_retries = 2;
    objective.set_retry_policy(retry);
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    exec::EvalScheduler scheduler(options);
    per_level.push_back(
        scheduler.run_batch(objective, make_requests(units, 480.0), 5));
  }
  expect_outcomes_equal(per_level[0], per_level[1]);
}

TEST(EvalSchedulerTest, CountersMergeDeterministically) {
  const auto units = make_units(8, make_objective(1).space().size(), 17);
  double cost_serial = 0.0;
  for (int parallelism : {1, 4}) {
    auto objective = make_objective(55);
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    exec::EvalScheduler scheduler(options);
    const auto outcomes =
        scheduler.run_batch(objective, make_requests(units), 0);
    double total = 0.0;
    for (const auto& o : outcomes) total += o.cost_s;
    EXPECT_EQ(objective.evaluations(), units.size());
    EXPECT_DOUBLE_EQ(objective.total_cost_s(), total);
    if (parallelism == 1) {
      cost_serial = objective.total_cost_s();
    } else {
      EXPECT_DOUBLE_EQ(objective.total_cost_s(), cost_serial);
    }
  }
}

TEST(EvalSchedulerTest, CompletionHookSeesEveryIndexOnce) {
  const auto units = make_units(10, make_objective(1).space().size(), 19);
  auto objective = make_objective(77);
  exec::SchedulerOptions options;
  options.parallelism = 4;
  exec::EvalScheduler scheduler(options);
  std::set<std::uint64_t> indices;
  std::size_t calls = 0;
  const auto outcomes = scheduler.run_batch(
      objective, make_requests(units), 100,
      [&](const exec::CompletedEval& done) {
        // Hooks are serialized by contract; no locking needed here.
        ++calls;
        indices.insert(done.eval_index);
        EXPECT_EQ(done.eval_index, 100 + done.batch_slot);
        ASSERT_NE(done.request, nullptr);
        ASSERT_NE(done.outcome, nullptr);
        EXPECT_EQ(done.request->unit, units[done.batch_slot]);
      });
  EXPECT_EQ(calls, units.size());
  EXPECT_EQ(indices.size(), units.size());
  EXPECT_EQ(*indices.begin(), 100u);
  EXPECT_EQ(*indices.rbegin(), 100u + units.size() - 1);
  ASSERT_EQ(outcomes.size(), units.size());
}

TEST(EvalSchedulerTest, EmulatedLatencyDoesNotPerturbResults) {
  const auto units = make_units(6, make_objective(1).space().size(), 23);
  auto plain = make_objective(42);
  exec::EvalScheduler no_latency;
  const auto base = no_latency.run_batch(plain, make_requests(units), 0);

  auto slow = make_objective(42);
  exec::SchedulerOptions options;
  options.parallelism = 4;
  options.emulate_latency_per_cost_s = 1e-5;
  exec::EvalScheduler scheduler(options);
  const auto delayed = scheduler.run_batch(slow, make_requests(units), 0);
  expect_outcomes_equal(base, delayed);
}

TEST(EvalSchedulerTest, SharedExternalPoolWorks) {
  const auto units = make_units(7, make_objective(1).space().size(), 29);
  ThreadPool pool(3);
  exec::SchedulerOptions options;
  options.parallelism = 8;  // capped by the external pool's size
  options.pool = &pool;
  exec::EvalScheduler scheduler(options);
  EXPECT_LE(scheduler.parallelism(), 3);
  auto objective = make_objective(314);
  const auto shared = scheduler.run_batch(objective, make_requests(units), 0);

  auto reference = make_objective(314);
  exec::EvalScheduler serial;
  expect_outcomes_equal(serial.run_batch(reference, make_requests(units), 0),
                        shared);
}

TEST(EvalSchedulerTest, ThrowingForkLeavesParentCountersUnmerged) {
  // One malformed request (wrong-size unit) makes its fork's decode
  // throw inside the batch.  wait_all rethrows before the canonical
  // merge loop runs, so the parent objective must see NONE of the
  // batch — not a partial prefix that would depend on scheduling.
  for (int parallelism : {1, 4}) {
    auto objective = make_objective(9);
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    exec::EvalScheduler scheduler(options);
    auto units = make_units(4, objective.space().size(), 31);
    units[2].resize(3);  // decode requires a full-width unit vector
    EXPECT_THROW(scheduler.run_batch(objective, make_requests(units), 0),
                 InvalidArgument);
    EXPECT_EQ(objective.evaluations(), 0u);
    EXPECT_DOUBLE_EQ(objective.total_cost_s(), 0.0);

    // After reset_counters a clean batch merges full totals: the failed
    // batch left no hidden half-merged state behind.
    objective.reset_counters();
    const auto good = make_units(4, objective.space().size(), 31);
    const auto outcomes =
        scheduler.run_batch(objective, make_requests(good), 0);
    double total = 0.0;
    for (const auto& o : outcomes) total += o.cost_s;
    EXPECT_EQ(objective.evaluations(), 4u);
    EXPECT_DOUBLE_EQ(objective.total_cost_s(), total);
  }
}

TEST(EvalSchedulerTest, EmptyBatchIsNoop) {
  auto objective = make_objective(1);
  exec::EvalScheduler scheduler;
  const auto outcomes = scheduler.run_batch(objective, {}, 0);
  EXPECT_TRUE(outcomes.empty());
  EXPECT_EQ(objective.evaluations(), 0u);
}

}  // namespace
}  // namespace robotune
