// Tests for tuning-session checkpoints: serialization round-trips and
// the kill-anytime resume guarantee — a session interrupted mid-budget
// and resumed from its journal finishes with the exact history, best
// configuration, and search cost of a never-interrupted run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "common/frame.h"
#include "core/persistence.h"
#include "core/robotune.h"
#include "sparksim/objective.h"

namespace robotune::core {
namespace {

using sparksim::RunStatus;
using sparksim::WorkloadKind;

sparksim::SparkObjective make_objective(std::uint64_t seed = 42) {
  return sparksim::SparkObjective(sparksim::ClusterSpec{},
                                  sparksim::make_workload(
                                      WorkloadKind::kTeraSort, 1),
                                  sparksim::spark24_config_space(), seed);
}

RoboTuneOptions fast_robotune() {
  RoboTuneOptions options;
  options.selection.generic_samples = 50;
  options.selection.forest_trees = 60;
  options.selection.permutation_repeats = 2;
  options.bo.initial_samples = 10;
  options.bo.hyperfit_every = 10;
  return options;
}

SessionCheckpoint sample_checkpoint() {
  SessionCheckpoint s;
  s.seed = 5;
  s.budget = 20;
  s.workload = "TeraSort";
  s.selected = {0, 1, 29};
  s.selection_cost_s = 1234.5;
  s.memoized.push_back({{0.12345678901234567, 0.5}, 99.25});
  EvalRecord ok;
  ok.unit = {0.25, 0.75};
  ok.value_s = 120.5;
  ok.cost_s = 120.5;
  s.evaluations.push_back(ok);
  EvalRecord stopped;
  stopped.unit = {0.1, 0.9};
  stopped.value_s = 480.0;
  stopped.cost_s = 480.0;
  stopped.status = RunStatus::kTimeLimit;
  stopped.stopped_early = true;
  s.evaluations.push_back(stopped);
  EvalRecord flaky;
  flaky.unit = {0.3, 0.4};
  flaky.value_s = 480.0;
  flaky.cost_s = 733.25;
  flaky.status = RunStatus::kExecutorLost;
  flaky.transient = true;
  flaky.attempts = 3;
  s.evaluations.push_back(flaky);
  return s;
}

void expect_checkpoints_equal(const SessionCheckpoint& a,
                              const SessionCheckpoint& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_DOUBLE_EQ(a.selection_cost_s, b.selection_cost_s);
  ASSERT_EQ(a.memoized.size(), b.memoized.size());
  for (std::size_t i = 0; i < a.memoized.size(); ++i) {
    EXPECT_EQ(a.memoized[i].unit, b.memoized[i].unit);
    EXPECT_DOUBLE_EQ(a.memoized[i].value_s, b.memoized[i].value_s);
  }
  ASSERT_EQ(a.evaluations.size(), b.evaluations.size());
  for (std::size_t i = 0; i < a.evaluations.size(); ++i) {
    const auto& x = a.evaluations[i];
    const auto& y = b.evaluations[i];
    EXPECT_EQ(x.unit, y.unit) << i;  // full precision survives the file
    EXPECT_EQ(x.value_s, y.value_s) << i;
    EXPECT_EQ(x.cost_s, y.cost_s) << i;
    EXPECT_EQ(x.status, y.status) << i;
    EXPECT_EQ(x.stopped_early, y.stopped_early) << i;
    EXPECT_EQ(x.transient, y.transient) << i;
    EXPECT_EQ(x.attempts, y.attempts) << i;
  }
}

void expect_results_equal(const tuners::TuningResult& a,
                          const tuners::TuningResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].unit, b.history[i].unit) << "evaluation " << i;
    EXPECT_EQ(a.history[i].value_s, b.history[i].value_s) << i;
    EXPECT_EQ(a.history[i].cost_s, b.history[i].cost_s) << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status) << i;
    EXPECT_EQ(a.history[i].attempts, b.history[i].attempts) << i;
  }
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.search_cost_s, b.search_cost_s);
}

// ------------------------------------------------- session round trip ----

TEST(SessionCheckpointTest, RoundTripsThroughStream) {
  const auto original = sample_checkpoint();
  std::stringstream stream;
  EXPECT_EQ(save_session(original, stream), 3u);
  SessionCheckpoint loaded;
  EXPECT_EQ(load_session(stream, loaded), 3u);
  expect_checkpoints_equal(original, loaded);
}

TEST(SessionCheckpointTest, EveryRunStatusSurvivesTheJournal) {
  SessionCheckpoint s;
  s.workload = "W";
  for (RunStatus status : sparksim::all_run_statuses()) {
    EvalRecord e;
    e.unit = {0.5};
    e.status = status;
    s.evaluations.push_back(e);
  }
  std::stringstream stream;
  save_session(s, stream);
  SessionCheckpoint loaded;
  load_session(stream, loaded);
  ASSERT_EQ(loaded.evaluations.size(), sparksim::all_run_statuses().size());
  for (std::size_t i = 0; i < loaded.evaluations.size(); ++i) {
    EXPECT_EQ(loaded.evaluations[i].status, sparksim::all_run_statuses()[i]);
  }
}

TEST(SessionCheckpointTest, LoadReplacesExistingState) {
  std::stringstream stream;
  save_session(sample_checkpoint(), stream);
  SessionCheckpoint target;
  target.workload = "Stale";
  target.evaluations.resize(7);
  load_session(stream, target);
  EXPECT_EQ(target.workload, "TeraSort");
  EXPECT_EQ(target.evaluations.size(), 3u);
}

TEST(SessionCheckpointTest, MalformedInputThrows) {
  SessionCheckpoint s;
  {
    std::stringstream stream;
    stream << "robotune-state v1\n";  // state header, not a session
    EXPECT_THROW(load_session(stream, s), InvalidArgument);
  }
  // Well-framed records whose payloads the record parser rejects.
  for (const char* payload :
       {"bogus 1 2", "eval 0 not-a-status 1.0 1.0 0 0 1 1 0.5",
        "eval 0 ok 1.0 1.0 0 0 1 3 0.5",  // promises 3 dims, gives 1
        // Counts no payload could hold: malformed, never an allocation.
        "eval 1 ok 1 1 0 0 1 18446744073709551615 0.5",
        "selected 4000000000 1", "memo 1.0 100000000000 0.5"}) {
    std::stringstream stream;
    stream << "robotune-session v3\n" << frame_message(payload);
    EXPECT_THROW(load_session(stream, s), InvalidArgument) << payload;
  }
}

TEST(SessionCheckpointTest, FileHelpersRoundTripAtomically) {
  const std::string path = "/tmp/robotune_session_test.journal";
  const auto original = sample_checkpoint();
  ASSERT_TRUE(save_session_file(original, path));
  // The temp file of the write-then-rename protocol must be gone.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  SessionCheckpoint loaded;
  ASSERT_TRUE(load_session_file(path, loaded));
  expect_checkpoints_equal(original, loaded);
  std::remove(path.c_str());
  EXPECT_FALSE(load_session_file(path, loaded));
}

// ---------------------------------------------------- resume guarantee ----

/// Thrown by the flush hook to emulate a hard kill mid-session.
struct SimulatedKill : std::runtime_error {
  SimulatedKill() : std::runtime_error("killed") {}
};

TEST(ResumeTest, JournalingDoesNotPerturbTheSearch) {
  auto plain_objective = make_objective(13);
  RoboTune plain(fast_robotune());
  const auto baseline = plain.tune_report(plain_objective, 20, 5);

  auto journaled_objective = make_objective(13);
  RoboTune journaled(fast_robotune());
  SessionLog session;  // no flush: journal kept in memory only
  const auto logged =
      journaled.tune_report(journaled_objective, 20, 5, nullptr, &session);
  expect_results_equal(baseline.tuning, logged.tuning);
  EXPECT_EQ(session.state.evaluations.size(), 20u);
  EXPECT_EQ(session.state.selected, baseline.selected);
}

TEST(ResumeTest, TruncatedJournalResumesIdentically) {
  auto full_objective = make_objective(13);
  RoboTune full_tuner(fast_robotune());
  SessionLog full_session;
  const auto uninterrupted =
      full_tuner.tune_report(full_objective, 20, 5, nullptr, &full_session);

  // Resume from several interruption points: before any evaluation, mid
  // initial design, and mid BO loop (initial_samples = 10).
  for (std::size_t kept : {0u, 6u, 14u}) {
    SessionLog resumed_session;
    resumed_session.state = full_session.state;
    resumed_session.state.evaluations.resize(kept);
    auto resumed_objective = make_objective(13);
    RoboTune resumed_tuner(fast_robotune());
    const auto resumed = resumed_tuner.tune_report(resumed_objective, 20, 5,
                                                   nullptr, &resumed_session);
    expect_results_equal(uninterrupted.tuning, resumed.tuning);
    EXPECT_EQ(resumed.selected, uninterrupted.selected);
    EXPECT_DOUBLE_EQ(resumed.selection_cost_s,
                     uninterrupted.selection_cost_s);
    EXPECT_EQ(resumed_session.state.evaluations.size(), 20u);
  }
}

TEST(ResumeTest, KilledSessionResumesFromItsCheckpointFile) {
  const std::string path = "/tmp/robotune_resume_test.journal";
  std::remove(path.c_str());

  // Uninterrupted reference run.
  auto reference_objective = make_objective(13);
  RoboTune reference_tuner(fast_robotune());
  const auto reference =
      reference_tuner.tune_report(reference_objective, 20, 5);

  // A run that dies after the 8th journal flush (meta + 7 evaluations),
  // as a kill -9 would leave it: checkpoint file intact on disk, the
  // in-flight evaluation lost.
  {
    auto objective = make_objective(13);
    RoboTune tuner(fast_robotune());
    SessionLog session;
    int flushes = 0;
    session.flush = [&](const SessionCheckpoint& state) {
      ASSERT_TRUE(save_session_file(state, path));
      if (++flushes == 8) throw SimulatedKill();
    };
    EXPECT_THROW(tuner.tune_report(objective, 20, 5, nullptr, &session),
                 SimulatedKill);
  }

  SessionLog session;
  ASSERT_TRUE(load_session_file(path, session.state));
  EXPECT_EQ(session.state.evaluations.size(), 7u);
  session.flush = [&](const SessionCheckpoint& state) {
    save_session_file(state, path);
  };
  auto objective = make_objective(13);
  RoboTune tuner(fast_robotune());
  const auto resumed = tuner.tune_report(objective, 20, 5, nullptr, &session);
  expect_results_equal(reference.tuning, resumed.tuning);

  // The final checkpoint on disk now journals the whole session.
  SessionCheckpoint final_state;
  ASSERT_TRUE(load_session_file(path, final_state));
  EXPECT_EQ(final_state.evaluations.size(), 20u);
  std::remove(path.c_str());
}

TEST(ResumeTest, CooperativeCancelLeavesAResumableCheckpoint) {
  // Reference uninterrupted run.
  auto reference_objective = make_objective(13);
  RoboTune reference_tuner(fast_robotune());
  const auto reference =
      reference_tuner.tune_report(reference_objective, 20, 5);

  // A session cancelled mid-budget (the flush hook plays the role of the
  // SIGINT handler: it sets the flag after the 12th journaled
  // evaluation; the engine notices at the next round boundary).
  SessionLog session;
  std::atomic<bool> stop{false};
  int flushes = 0;
  session.flush = [&](const SessionCheckpoint&) {
    if (++flushes == 12) stop.store(true, std::memory_order_relaxed);
  };
  auto objective = make_objective(13);
  RoboTune tuner(fast_robotune());
  tuner.set_pacing(&stop, nullptr);
  const auto interrupted =
      tuner.tune_report(objective, 20, 5, nullptr, &session);
  EXPECT_TRUE(interrupted.bo.interrupted);
  EXPECT_LT(interrupted.tuning.history.size(), 20u);
  // 12 flushes = the selection checkpoint + 11 evaluations, and the
  // cancelled engine finished its in-flight round before stopping.
  EXPECT_GE(session.state.evaluations.size(), 11u);
  // Every completed evaluation made it into the checkpoint.
  EXPECT_EQ(session.state.evaluations.size(),
            interrupted.tuning.history.size());

  // The checkpoint resumes into exactly the uninterrupted session.
  SessionLog resumed_session;
  resumed_session.state = session.state;
  auto resumed_objective = make_objective(13);
  RoboTune resumed_tuner(fast_robotune());
  const auto resumed = resumed_tuner.tune_report(resumed_objective, 20, 5,
                                                 nullptr, &resumed_session);
  EXPECT_FALSE(resumed.bo.interrupted);
  expect_results_equal(reference.tuning, resumed.tuning);
  EXPECT_EQ(resumed_session.state.evaluations.size(), 20u);
}

TEST(ResumeTest, MismatchedCheckpointIsRejected) {
  auto objective = make_objective(13);
  RoboTune tuner(fast_robotune());
  SessionLog session;
  tuner.tune_report(objective, 20, 5, nullptr, &session);

  {
    SessionLog bad;
    bad.state = session.state;  // checkpoint taken at seed 5, resumed at 6
    auto o = make_objective(13);
    RoboTune t(fast_robotune());
    EXPECT_THROW(t.tune_report(o, 20, 6, nullptr, &bad), InvalidArgument);
  }
  {
    SessionLog bad;
    bad.state = session.state;  // checkpoint budget 20, resumed with 25
    auto o = make_objective(13);
    RoboTune t(fast_robotune());
    EXPECT_THROW(t.tune_report(o, 25, 5, nullptr, &bad), InvalidArgument);
  }
  {
    SessionLog bad;
    bad.state = session.state;
    bad.state.workload = "KMeans";
    auto o = make_objective(13);
    RoboTune t(fast_robotune());
    EXPECT_THROW(t.tune_report(o, 20, 5, nullptr, &bad), InvalidArgument);
  }
}

}  // namespace
}  // namespace robotune::core
