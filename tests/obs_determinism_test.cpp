// Tier-1 observability determinism suite: instrumentation must be
// provably free of effect on tuning results.  Tracing ON vs OFF yields
// byte-identical sessions (history, best config, serialized journal) in
// detached mode and at --parallel 1 and 4; and the *logical* metrics
// section is identical for any worker count (wall-clock timing lives in
// the tracer and the `runtime.` section, which carry no such contract).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/persistence.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparksim/objective.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"
#include "tuners/rfhoc.h"

namespace robotune {
namespace {

constexpr int kBudget = 20;
constexpr int kSelectionSamples = 50;
constexpr std::uint64_t kSeed = 5;

sparksim::SparkObjective make_objective(bool with_faults) {
  sparksim::SparkObjective objective(
      sparksim::ClusterSpec{},
      sparksim::make_workload(sparksim::WorkloadKind::kTeraSort, 1),
      sparksim::spark24_config_space(), 13);
  if (with_faults) {
    sparksim::FaultProfile faults;
    EXPECT_TRUE(sparksim::FaultProfile::from_preset("moderate", faults));
    objective.set_fault_profile(faults);
    sparksim::RetryPolicy retry;
    retry.max_retries = 2;
    objective.set_retry_policy(retry);
  }
  return objective;
}

core::RoboTuneOptions fast_robotune(int batch_size) {
  core::RoboTuneOptions options;
  options.selection.generic_samples = kSelectionSamples;
  options.selection.forest_trees = 60;
  options.selection.permutation_repeats = 2;
  options.bo.initial_samples = 10;
  options.bo.hyperfit_every = 10;
  options.bo.batch_size = batch_size;
  return options;
}

struct SessionRun {
  tuners::TuningResult result;
  std::string journal_bytes;  ///< canonicalized + serialized checkpoint
};

/// One full ROBOTune session.  parallelism 0 = detached (no scheduler).
/// `acq_workers` / `acq_pool` configure the acquisition optimizer's
/// multi-start execution (see AcquisitionOptimizerOptions).
SessionRun run_session(int parallelism, bool with_faults, int acq_workers = 0,
                       ThreadPool* acq_pool = nullptr) {
  auto objective = make_objective(with_faults);
  core::RoboTuneOptions options = fast_robotune(/*batch_size=*/2);
  options.bo.hedge.optimizer.workers = acq_workers;
  options.bo.hedge.optimizer.pool = acq_pool;
  core::RoboTune tuner(options);
  core::SessionLog session;
  std::unique_ptr<exec::EvalScheduler> scheduler;
  if (parallelism > 0) {
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    scheduler = std::make_unique<exec::EvalScheduler>(options);
  }
  SessionRun run;
  run.result = tuner
                   .tune_report(objective, kBudget, kSeed, nullptr, &session,
                                scheduler.get())
                   .tuning;
  // Parallel sessions journal in completion order (scheduling-
  // dependent); canonical order is the deterministic artifact the
  // byte-comparison contract covers.
  core::canonicalize_journal(session.state);
  std::stringstream bytes;
  core::save_session(session.state, bytes);
  run.journal_bytes = bytes.str();
  return run;
}

void expect_runs_equal(const SessionRun& a, const SessionRun& b) {
  ASSERT_EQ(a.result.history.size(), b.result.history.size());
  for (std::size_t i = 0; i < a.result.history.size(); ++i) {
    EXPECT_EQ(a.result.history[i].unit, b.result.history[i].unit) << i;
    EXPECT_EQ(a.result.history[i].value_s, b.result.history[i].value_s) << i;
    EXPECT_EQ(a.result.history[i].cost_s, b.result.history[i].cost_s) << i;
    EXPECT_EQ(a.result.history[i].status, b.result.history[i].status) << i;
    EXPECT_EQ(a.result.history[i].attempts, b.result.history[i].attempts)
        << i;
  }
  EXPECT_EQ(a.result.best_index, b.result.best_index);
  EXPECT_EQ(a.result.best_unit(), b.result.best_unit());
  EXPECT_DOUBLE_EQ(a.result.search_cost_s, b.result.search_cost_s);
  EXPECT_EQ(a.journal_bytes, b.journal_bytes);  // byte-identical journal
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::tracer().set_enabled(false);
    obs::tracer().reset();
    obs::metrics().reset();
  }
};

// ------------------------------------------------ tracing on vs off ------

TEST_F(ObsDeterminismTest, TracingOnVsOffByteIdentical) {
  // 0 = detached, then scheduler mode at 1 and 4 workers.
  for (const int parallelism : {0, 1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    obs::tracer().set_enabled(false);
    const auto baseline = run_session(parallelism, /*with_faults=*/false);

    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    obs::metrics().reset();
    const auto traced = run_session(parallelism, false);
    obs::tracer().set_enabled(false);

    expect_runs_equal(baseline, traced);
    // The traced run actually recorded something — this is not a
    // vacuous comparison against a disabled tracer.
    EXPECT_FALSE(obs::tracer().records().empty());
  }
}

TEST_F(ObsDeterminismTest, TracingOnVsOffByteIdenticalUnderFaults) {
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    obs::tracer().set_enabled(false);
    const auto baseline = run_session(parallelism, /*with_faults=*/true);
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    const auto traced = run_session(parallelism, true);
    obs::tracer().set_enabled(false);
    expect_runs_equal(baseline, traced);
  }
}

// --------------------------------- logical metrics vs worker count -------

TEST_F(ObsDeterminismTest, LogicalMetricsIdenticalAcrossWorkerCounts) {
  std::vector<obs::MetricsSnapshot> logical;
  for (const int parallelism : {1, 4}) {
    obs::metrics().reset();
    run_session(parallelism, /*with_faults=*/true);
    // The scheduler's owned pool was joined when run_session returned,
    // so every worker shard write happens-before this snapshot.
    logical.push_back(obs::metrics().snapshot().logical());
  }
  EXPECT_EQ(logical[0], logical[1]);

  // Sanity: the logical section carries the session's event totals.
  EXPECT_EQ(logical[0].counters.at("evals.total"),
            static_cast<std::uint64_t>(kBudget));
  // Parameter selection dispatches its samples as one batch as well.
  EXPECT_EQ(logical[0].counters.at("exec.evals_dispatched"),
            static_cast<std::uint64_t>(kBudget + kSelectionSamples));
  EXPECT_GE(logical[0].counters.at("objective.attempts"),
            static_cast<std::uint64_t>(kBudget));
  EXPECT_EQ(logical[0].histograms.at("evals.value_s").total,
            static_cast<std::uint64_t>(kBudget));
  // And no scheduling-dependent name leaked into it.
  for (const auto& [name, value] : logical[0].counters) {
    EXPECT_FALSE(obs::is_runtime_metric(name)) << name;
  }
}

TEST_F(ObsDeterminismTest, BaselineLogicalMetricsIdenticalAcrossWorkerCounts) {
  // The baselines' rounds are fixed by their options, so batch counts and
  // every other logical metric match detached, at 1 and at 4 workers.
  constexpr int kBaselineBudget = 60;  // two Random Search rounds
  for (const std::string name : {"RS", "Gunther", "BestConfig", "RFHOC"}) {
    SCOPED_TRACE(name);
    std::vector<obs::MetricsSnapshot> logical;
    for (const int parallelism : {0, 1, 4}) {  // 0 = detached
      std::unique_ptr<tuners::Tuner> tuner;
      if (name == "RS") tuner = std::make_unique<tuners::RandomSearch>();
      if (name == "Gunther") tuner = std::make_unique<tuners::Gunther>();
      if (name == "BestConfig") {
        tuner = std::make_unique<tuners::BestConfig>();
      }
      if (name == "RFHOC") tuner = std::make_unique<tuners::Rfhoc>();
      std::unique_ptr<exec::EvalScheduler> scheduler;
      if (parallelism > 0) {
        scheduler = std::make_unique<exec::EvalScheduler>(
            exec::SchedulerOptions{.parallelism = parallelism});
        tuner->set_scheduler(scheduler.get());
      }
      auto objective = make_objective(/*with_faults=*/true);
      obs::metrics().reset();
      tuner->tune(objective, kBaselineBudget, kSeed);
      scheduler.reset();  // join the workers before the snapshot
      logical.push_back(obs::metrics().snapshot().logical());
    }
    EXPECT_EQ(logical[0], logical[1]);
    EXPECT_EQ(logical[0], logical[2]);
    EXPECT_EQ(logical[0].counters.at("evals.total"),
              static_cast<std::uint64_t>(kBaselineBudget));
    if (name == "RS") {
      EXPECT_EQ(logical[0].counters.at("exec.batches"), 2u);
    }
  }
}

// ----------------------- acquisition multi-start vs worker count ---------

TEST_F(ObsDeterminismTest, AcquisitionMultiStartInvariantAcrossWorkerCounts) {
  // The parallel multi-start acquisition optimizer (DESIGN.md §8) promises
  // byte-identical sessions AND identical logical metrics at any worker
  // count: inline, a 2-worker pool, a 4-worker pool.
  obs::metrics().reset();
  const auto inline_run = run_session(/*parallelism=*/1, /*with_faults=*/false,
                                      /*acq_workers=*/1);
  const auto inline_logical = obs::metrics().snapshot().logical();

  for (const std::size_t workers : {2u, 4u}) {
    SCOPED_TRACE("acq pool workers " + std::to_string(workers));
    ThreadPool pool(workers);
    obs::metrics().reset();
    const auto pooled = run_session(1, false, /*acq_workers=*/0, &pool);
    const auto pooled_logical = obs::metrics().snapshot().logical();
    expect_runs_equal(inline_run, pooled);
    EXPECT_EQ(inline_logical, pooled_logical);
  }

  // The hot path actually ran through the batched/gradient code: probe
  // screening and analytic acquisition gradients left their counters.
  EXPECT_GT(inline_logical.counters.at("acq.probes"), 0u);
  EXPECT_GT(inline_logical.counters.at("gp.predict_batch.calls"), 0u);
  EXPECT_GT(inline_logical.counters.at("gp.acq_grad"), 0u);
}

// ------------------------------- per-session metric attribution ---------

TEST_F(ObsDeterminismTest, SessionScopedMetricsIdenticalAcrossWorkerCounts) {
  // The service layer runs every hosted session inside an
  // obs::ScopedSession, which additionally tallies logical metrics under
  // "session/<id>/".  That per-session section inherits the full
  // determinism contract: identical for any worker count, and equal to
  // the logical section of the same run executed with no session scope
  // at all (the scope is attribution, never perturbation).
  obs::metrics().reset();
  run_session(/*parallelism=*/1, /*with_faults=*/true);
  const auto unscoped = obs::metrics().snapshot().logical();

  std::vector<obs::MetricsSnapshot> scoped;
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    obs::metrics().reset();
    {
      obs::ScopedSession scope(42);
      run_session(parallelism, /*with_faults=*/true);
    }
    scoped.push_back(obs::metrics().snapshot().session(42));
  }
  EXPECT_EQ(scoped[0], scoped[1]);
  EXPECT_EQ(scoped[0], unscoped);
  EXPECT_EQ(scoped[0].counters.at("evals.total"),
            static_cast<std::uint64_t>(kBudget));
  // Scheduling-dependent names are never duplicated into a session
  // scope — the per-session section stays deterministic by
  // construction.
  for (const auto& [name, value] : scoped[0].counters) {
    EXPECT_FALSE(obs::is_runtime_metric(name)) << name;
  }
}

TEST_F(ObsDeterminismTest, ConcurrentSessionsKeepSeparateTallies) {
  // Two different sessions in one registry epoch: each section carries
  // exactly its own run's events even when both ran back-to-back (the
  // daemon's steady state, minus wall-clock interleaving which the
  // service_test covers end-to-end).
  obs::metrics().reset();
  {
    obs::ScopedSession scope(7);
    run_session(/*parallelism=*/1, /*with_faults=*/true);
  }
  {
    obs::ScopedSession scope(8);
    run_session(/*parallelism=*/4, /*with_faults=*/true);
  }
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_EQ(snapshot.session(7), snapshot.session(8));
  EXPECT_EQ(snapshot.session(7).counters.at("evals.total"),
            static_cast<std::uint64_t>(kBudget));
  // The global logical section totals both sessions.
  EXPECT_EQ(snapshot.logical().counters.at("evals.total"),
            static_cast<std::uint64_t>(2 * kBudget));
}

TEST_F(ObsDeterminismTest, RuntimeMetricsAreSeparatedNotCompared) {
  obs::metrics().reset();
  run_session(4, /*with_faults=*/false);
  const auto snapshot = obs::metrics().snapshot();
  // Worker-count-dependent facts exist, but only under `runtime.`.
  const auto runtime = snapshot.runtime();
  EXPECT_EQ(runtime.gauges.at("runtime.exec.parallelism"), 4.0);
  EXPECT_GE(runtime.counters.at("runtime.pool.workers_started"), 4u);
  for (const auto& [name, value] : runtime.counters) {
    EXPECT_TRUE(obs::is_runtime_metric(name)) << name;
  }
}

}  // namespace
}  // namespace robotune
