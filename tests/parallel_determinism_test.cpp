// Tier-1 determinism suite for the parallel batch-evaluation subsystem:
// every tuner must produce bit-identical results detached and on an
// EvalScheduler at any worker count (1, 4, hardware_concurrency), with and
// without fault injection, and across checkpoint kill/resume — including
// journals written in out-of-order completion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/persistence.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"
#include "tuners/rfhoc.h"

namespace robotune {
namespace {

constexpr int kBudget = 20;
constexpr std::uint64_t kSeed = 5;

sparksim::SparkObjective make_objective(bool with_faults,
                                        std::uint64_t seed = 13) {
  sparksim::SparkObjective objective(
      sparksim::ClusterSpec{},
      sparksim::make_workload(sparksim::WorkloadKind::kTeraSort, 1),
      sparksim::spark24_config_space(), seed);
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

core::RoboTuneOptions fast_robotune(int batch_size = 1) {
  core::RoboTuneOptions options;
  options.selection.generic_samples = 50;
  options.selection.forest_trees = 60;
  options.selection.permutation_repeats = 2;
  options.bo.initial_samples = 10;
  options.bo.hyperfit_every = 10;
  options.bo.batch_size = batch_size;
  return options;
}

std::unique_ptr<tuners::Tuner> make_tuner(const std::string& name) {
  if (name == "ROBOTune") {
    return std::make_unique<core::RoboTune>(fast_robotune());
  }
  if (name == "BestConfig") return std::make_unique<tuners::BestConfig>();
  if (name == "Gunther") return std::make_unique<tuners::Gunther>();
  if (name == "RFHOC") return std::make_unique<tuners::Rfhoc>();
  return std::make_unique<tuners::RandomSearch>();
}

/// `parallelism` for a tuner with no scheduler attached.
constexpr int kDetached = -1;

tuners::TuningResult run_tuner(const std::string& name, int parallelism,
                               bool with_faults) {
  auto objective = make_objective(with_faults);
  auto tuner = make_tuner(name);
  exec::SchedulerOptions options;
  options.parallelism = parallelism;
  exec::EvalScheduler scheduler(options);
  if (parallelism != kDetached) tuner->set_scheduler(&scheduler);
  return tuner->tune(objective, kBudget, kSeed);
}

std::string label(int parallelism) {
  if (parallelism == kDetached) return "detached";
  return "parallelism " + std::to_string(parallelism);
}

void expect_results_equal(const tuners::TuningResult& a,
                          const tuners::TuningResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].unit, b.history[i].unit) << "evaluation " << i;
    EXPECT_EQ(a.history[i].value_s, b.history[i].value_s) << i;
    EXPECT_EQ(a.history[i].cost_s, b.history[i].cost_s) << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status) << i;
    EXPECT_EQ(a.history[i].stopped_early, b.history[i].stopped_early) << i;
    EXPECT_EQ(a.history[i].transient, b.history[i].transient) << i;
    EXPECT_EQ(a.history[i].attempts, b.history[i].attempts) << i;
  }
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.search_cost_s, b.search_cost_s);
}

const std::vector<std::string>& tuner_names() {
  static const std::vector<std::string> names = {
      "ROBOTune", "BestConfig", "Gunther", "RS", "RFHOC"};
  return names;
}

// ------------------------------------------- worker-count invariance ----

TEST(ParallelDeterminismTest, EveryTunerBitIdenticalAcrossWorkerCounts) {
  for (const auto& name : tuner_names()) {
    const auto serial = run_tuner(name, 1, /*with_faults=*/false);
    ASSERT_EQ(serial.history.size(), static_cast<std::size_t>(kBudget))
        << name;
    // 0 = hardware_concurrency; detached = the tuner's own inline rounds.
    for (int parallelism : {4, 0, kDetached}) {
      const auto parallel = run_tuner(name, parallelism, false);
      SCOPED_TRACE(name + " @ " + label(parallelism));
      expect_results_equal(serial, parallel);
    }
  }
}

TEST(ParallelDeterminismTest, EveryTunerBitIdenticalUnderFaultInjection) {
  for (const auto& name : tuner_names()) {
    const auto serial = run_tuner(name, 1, /*with_faults=*/true);
    for (int parallelism : {4, 0, kDetached}) {
      const auto parallel = run_tuner(name, parallelism, true);
      SCOPED_TRACE(name + " @ " + label(parallelism));
      expect_results_equal(serial, parallel);
    }
  }
}

TEST(ParallelDeterminismTest, BatchBoTrajectoryIndependentOfWorkers) {
  std::vector<tuners::TuningResult> results;
  for (int parallelism : {1, 4, 0}) {
    auto objective = make_objective(false);
    core::RoboTune tuner(fast_robotune(/*batch_size=*/4));
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    exec::EvalScheduler scheduler(options);
    const auto report = tuner.tune_report(objective, kBudget, kSeed, nullptr,
                                          nullptr, &scheduler);
    results.push_back(report.tuning);
  }
  expect_results_equal(results[0], results[1]);
  expect_results_equal(results[0], results[2]);
}

// --------------------------------------------------- checkpoint/resume ----

core::RoboTuneReport run_session(core::SessionLog* session, int parallelism,
                                 bool with_faults, int batch_size = 2) {
  auto objective = make_objective(with_faults);
  core::RoboTune tuner(fast_robotune(batch_size));
  exec::SchedulerOptions options;
  options.parallelism = parallelism;
  exec::EvalScheduler scheduler(options);
  return tuner.tune_report(objective, kBudget, kSeed, nullptr, session,
                           &scheduler);
}

TEST(ParallelDeterminismTest, SchedulerSessionResumesIdentically) {
  for (const bool with_faults : {false, true}) {
    core::SessionLog full;
    const auto uninterrupted = run_session(&full, 4, with_faults);
    ASSERT_EQ(full.state.evaluations.size(),
              static_cast<std::size_t>(kBudget));
    EXPECT_TRUE(full.state.indexed_seeding);

    // Resume from several interruption points, at a different worker
    // count than the original session, with the kept journal shuffled
    // into an arbitrary completion order (what a crash mid-batch leaves).
    for (std::size_t kept : {0u, 6u, 13u}) {
      core::SessionLog resumed;
      resumed.state = full.state;
      resumed.state.evaluations.resize(kept);
      Rng rng(kept + 1);
      for (std::size_t i = kept; i > 1; --i) {
        std::swap(resumed.state.evaluations[i - 1],
                  resumed.state.evaluations[rng.uniform_index(i)]);
      }
      const auto continued = run_session(&resumed, 7, with_faults);
      SCOPED_TRACE("faults=" + std::to_string(with_faults) +
                   " kept=" + std::to_string(kept));
      expect_results_equal(uninterrupted.tuning, continued.tuning);
    }
  }
}

TEST(ParallelDeterminismTest, JournalWithHoleReplaysLongestPrefix) {
  core::SessionLog full;
  const auto uninterrupted = run_session(&full, 4, false);

  // Drop eval 5: a crash while 5 was in flight but 6..9 had finished.
  core::SessionLog holed;
  holed.state = full.state;
  holed.state.evaluations.resize(10);
  holed.state.evaluations.erase(holed.state.evaluations.begin() + 5);
  const auto continued = run_session(&holed, 3, false);
  expect_results_equal(uninterrupted.tuning, continued.tuning);
}

core::RoboTuneReport run_detached(core::SessionLog* session,
                                  int batch_size = 2) {
  auto objective = make_objective(false);
  core::RoboTune tuner(fast_robotune(batch_size));
  return tuner.tune_report(objective, kBudget, kSeed, nullptr, session);
}

TEST(ParallelDeterminismTest, DetachedAndSchedulerJournalsResumeEachOther) {
  // A detached session runs its rounds on a local one-worker scheduler,
  // so its journal is the scheduler's and resumes under any worker
  // count — and the other way round.
  core::SessionLog detached;
  const auto uninterrupted_detached = run_detached(&detached);
  EXPECT_TRUE(detached.state.indexed_seeding);
  core::SessionLog scheduled;
  const auto uninterrupted_scheduled = run_session(&scheduled, 4, false);
  expect_results_equal(uninterrupted_detached.tuning,
                       uninterrupted_scheduled.tuning);
  {
    core::SessionLog resumed;
    resumed.state = detached.state;
    resumed.state.evaluations.resize(8);
    const auto continued = run_session(&resumed, 4, false);
    SCOPED_TRACE("detached journal, 4-worker resume");
    expect_results_equal(uninterrupted_detached.tuning, continued.tuning);
  }
  {
    core::SessionLog resumed;
    resumed.state = scheduled.state;
    resumed.state.evaluations.resize(8);
    const auto continued = run_detached(&resumed);
    SCOPED_TRACE("4-worker journal, detached resume");
    expect_results_equal(uninterrupted_scheduled.tuning, continued.tuning);
  }
}

TEST(ParallelDeterminismTest, SequentialSeedingJournalIsRefused) {
  // Older releases ran detached sessions on the objective's sequential
  // seed stream and journaled `seeding sequential`.  Their evaluations
  // cannot be continued on index-derived streams.
  const std::string path = "/tmp/robotune_sequential_seeding.journal";
  core::SessionLog full;
  run_detached(&full);
  core::SessionCheckpoint legacy = full.state;
  legacy.indexed_seeding = false;
  legacy.evaluations.resize(8);
  ASSERT_TRUE(core::save_session_file(legacy, path));
  {
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    ASSERT_NE(text.find("seeding sequential"), std::string::npos);
  }
  core::SessionLog resumed;
  ASSERT_TRUE(core::load_session_file(path, resumed.state));
  EXPECT_FALSE(resumed.state.indexed_seeding);
  for (const bool detached : {true, false}) {
    core::SessionLog attempt;
    attempt.state = resumed.state;
    try {
      detached ? run_detached(&attempt) : run_session(&attempt, 2, false);
      ADD_FAILURE() << "sequential-seeding journal resumed (detached="
                    << detached << ")";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("sequential seeding"),
                std::string::npos)
          << e.what();
    }
  }
  // Before its first evaluation such a checkpoint still continues, and
  // from then on journals indexed seeding.
  core::SessionLog early;
  early.state = resumed.state;
  early.state.evaluations.clear();
  const auto continued = run_detached(&early);
  EXPECT_TRUE(early.state.indexed_seeding);
  expect_results_equal(run_detached(nullptr).tuning, continued.tuning);
  std::remove(path.c_str());
}

TEST(ParallelDeterminismTest, SchedulerJournalRoundTripsThroughDisk) {
  const std::string path = "/tmp/robotune_parallel_determinism.journal";
  std::remove(path.c_str());
  core::SessionLog full;
  const auto uninterrupted = run_session(&full, 4, true);

  core::SessionCheckpoint cut = full.state;
  cut.evaluations.resize(11);
  ASSERT_TRUE(core::save_session_file(cut, path));
  core::SessionLog resumed;
  ASSERT_TRUE(core::load_session_file(path, resumed.state));
  EXPECT_TRUE(resumed.state.indexed_seeding);
  EXPECT_EQ(resumed.state.evaluations.size(), 11u);
  const auto continued = run_session(&resumed, 5, true);
  expect_results_equal(uninterrupted.tuning, continued.tuning);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace robotune
