// Tests for the evaluation lifecycle layer: KillReason round-trips,
// cooperative cancellation tokens, per-evaluation deadlines, racing
// early-stop (median rule / successive halving), kill accounting
// (censoring + budget refund), and checkpoint/resume compatibility of
// racing sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/persistence.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "obs/metrics.h"
#include "sparksim/lifecycle.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune {
namespace {

using sparksim::CancellationToken;
using sparksim::EvalLifecycle;
using sparksim::KillReason;
using sparksim::RunStatus;
using sparksim::StageProgress;

sparksim::SparkObjective make_objective(std::uint64_t seed = 123) {
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
    EXPECT_EQ(a[i].kill_reason, b[i].kill_reason) << "outcome " << i;
  }
}

/// Median of the value_s of a plain (racing-off) batch: the tests derive
/// deadlines and thresholds from it instead of hard-coding simulator
/// timings.
double baseline_median(const std::vector<std::vector<double>>& units,
                       std::uint64_t seed) {
  auto objective = make_objective(seed);
  exec::EvalScheduler scheduler;
  const auto outcomes =
      scheduler.run_batch(objective, make_requests(units), 0);
  std::vector<double> values;
  for (const auto& o : outcomes) values.push_back(o.value_s);
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// -------------------------------------------------------- KillReason ----

TEST(KillReasonTest, RoundTripsEveryEnumerator) {
  for (KillReason r : sparksim::all_kill_reasons()) {
    const auto label = to_string(r);
    const auto back = sparksim::kill_reason_from_string(label);
    ASSERT_TRUE(back.has_value()) << label;
    EXPECT_EQ(*back, r) << label;
  }
}

TEST(KillReasonTest, LabelsAreUniqueAndUnknownIsRejected) {
  std::set<std::string> labels;
  for (KillReason r : sparksim::all_kill_reasons()) {
    labels.insert(to_string(r));
  }
  EXPECT_EQ(labels.size(), sparksim::all_kill_reasons().size());
  EXPECT_EQ(to_string(static_cast<KillReason>(999)), "unknown");
  EXPECT_FALSE(sparksim::kill_reason_from_string("unknown").has_value());
  EXPECT_FALSE(sparksim::kill_reason_from_string("bogus").has_value());
}

TEST(KillReasonTest, NewRunStatusLabelsRoundTrip) {
  EXPECT_EQ(to_string(RunStatus::kKilled), "killed");
  EXPECT_EQ(to_string(RunStatus::kPreempted), "preempted");
  EXPECT_EQ(*sparksim::run_status_from_string("killed"), RunStatus::kKilled);
  EXPECT_EQ(*sparksim::run_status_from_string("preempted"),
            RunStatus::kPreempted);
}

// -------------------------------------------------------- RacingMode ----

TEST(RacingModeTest, RoundTripsAndRejectsUnknown) {
  for (exec::RacingMode mode : {exec::RacingMode::kOff,
                                exec::RacingMode::kMedian,
                                exec::RacingMode::kHalving}) {
    exec::RacingMode back;
    ASSERT_TRUE(exec::racing_mode_from_string(to_string(mode), back));
    EXPECT_EQ(back, mode);
  }
  exec::RacingMode out;
  EXPECT_FALSE(exec::racing_mode_from_string("hyperband", out));
  EXPECT_FALSE(exec::racing_mode_from_string("", out));
}

TEST(RacingModeTest, SignatureEncodesModeAndDeadline) {
  exec::RacingOptions off;
  EXPECT_EQ(exec::racing_signature(off), "off");
  EXPECT_FALSE(off.active());

  exec::RacingOptions median;
  median.mode = exec::RacingMode::kMedian;
  EXPECT_TRUE(median.active());
  EXPECT_EQ(exec::racing_signature(median), "median");

  exec::RacingOptions deadline;
  deadline.deadline_s = 120.5;
  EXPECT_TRUE(deadline.active());
  const auto sig = exec::racing_signature(deadline);
  EXPECT_NE(sig.find("deadline=120.5"), std::string::npos) << sig;
  // One whitespace-free token: the journal stores it as a single field.
  EXPECT_EQ(sig.find(' '), std::string::npos) << sig;

  exec::RacingOptions both;
  both.mode = exec::RacingMode::kHalving;
  both.deadline_s = 300.0;
  const auto both_sig = exec::racing_signature(both);
  EXPECT_NE(both_sig.find("halving"), std::string::npos) << both_sig;
  EXPECT_NE(both_sig.find("deadline=300"), std::string::npos) << both_sig;
}

// ------------------------------------------------- CancellationToken ----

TEST(CancellationTokenTest, FirstReasonWinsAndResetClears) {
  CancellationToken token;
  EXPECT_FALSE(token.kill_requested());
  EXPECT_EQ(token.requested(), KillReason::kNone);

  token.request(KillReason::kNone);  // no-op: kNone never arms the token
  EXPECT_FALSE(token.kill_requested());

  token.request(KillReason::kDeadline);
  EXPECT_TRUE(token.kill_requested());
  EXPECT_EQ(token.requested(), KillReason::kDeadline);

  token.request(KillReason::kMedianRule);  // losers never overwrite
  EXPECT_EQ(token.requested(), KillReason::kDeadline);

  token.reset();
  EXPECT_FALSE(token.kill_requested());
  token.request(KillReason::kHalvingRung);
  EXPECT_EQ(token.requested(), KillReason::kHalvingRung);
}

// ---------------------------------------------------------- lifecycle ----

TEST(LifecycleTest, ProgressHookReportsMonotoneProgress) {
  auto objective = make_objective();
  // A configuration that completes healthily on the paper testbed (the
  // space defaults OOM there; same shape as sparksim_test's tuned run).
  auto values = objective.space().defaults();
  const auto set = [&](const char* n, double val) {
    values[*objective.space().index_of(n)] = val;
  };
  set("spark.executor.cores", 8);
  set("spark.executor.memory.mb", 32768);
  set("spark.memory.fraction", 0.7);
  set("spark.serializer", 1);
  set("spark.default.parallelism", 400);
  set("spark.executor.gc", 1);
  std::vector<StageProgress> seen;
  EvalLifecycle lifecycle;
  lifecycle.progress = [&](const StageProgress& p) { seen.push_back(p); };
  const auto out = objective.evaluate_decoded(
      values, /*stop_threshold_s=*/0.0, /*apply_cap=*/false, &lifecycle);
  ASSERT_EQ(out.status, RunStatus::kOk);
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].fraction, seen[i - 1].fraction) << i;
    EXPECT_GE(seen[i].sim_elapsed_s, seen[i - 1].sim_elapsed_s) << i;
    EXPECT_EQ(seen[i].total_stages, seen[0].total_stages) << i;
  }
  EXPECT_EQ(seen.back().stages_done, seen.back().total_stages);
  EXPECT_DOUBLE_EQ(seen.back().fraction, 1.0);
}

TEST(LifecycleTest, RequestedTokenKillsAtTheFirstStageBoundary) {
  auto objective = make_objective();
  const auto units = make_units(1, objective.space().size(), 3);

  const auto full = objective.evaluate(units[0]);

  CancellationToken token;
  token.request(KillReason::kMedianRule);
  EvalLifecycle lifecycle;
  lifecycle.token = &token;
  const auto killed = objective.evaluate(units[0], /*stop_threshold_s=*/0.0,
                                         &lifecycle);
  EXPECT_EQ(killed.status, RunStatus::kKilled);
  EXPECT_EQ(killed.kill_reason, KillReason::kMedianRule);
  EXPECT_TRUE(killed.transient);  // censored: partial time is a lower bound
  EXPECT_EQ(killed.attempts, 1);  // a killed config is never retried
  // The charge is the partial simulated time, strictly below a full run.
  EXPECT_GT(killed.cost_s, 0.0);
  EXPECT_LT(killed.cost_s, full.cost_s);
}

TEST(LifecycleTest, NullLifecycleMatchesNoLifecycle) {
  auto plain = make_objective(7);
  auto with_null = make_objective(7);
  const auto units = make_units(3, plain.space().size(), 9);
  for (const auto& u : units) {
    const auto a = plain.evaluate(u);
    const auto b = with_null.evaluate(u, 0.0, nullptr);
    EXPECT_EQ(a.value_s, b.value_s);
    EXPECT_EQ(a.cost_s, b.cost_s);
    EXPECT_EQ(a.status, b.status);
  }
}

// --------------------------------------------------- scheduler racing ----

TEST(SchedulerRacingTest, RacingOffMatchesPlainScheduler) {
  const auto units = make_units(8, make_objective().space().size(), 11);
  auto plain = make_objective(55);
  exec::EvalScheduler no_racing;
  const auto base = no_racing.run_batch(plain, make_requests(units, 480.0), 0);

  auto with_off = make_objective(55);
  exec::SchedulerOptions options;
  options.parallelism = 4;
  options.racing.mode = exec::RacingMode::kOff;  // explicit off
  exec::EvalScheduler scheduler(options);
  EXPECT_FALSE(scheduler.racing().active());
  const auto off =
      scheduler.run_batch(with_off, make_requests(units, 480.0), 0);
  expect_outcomes_equal(base, off);
  for (const auto& o : off) EXPECT_NE(o.status, RunStatus::kKilled);
}

TEST(SchedulerRacingTest, DeadlineKillsEveryRunThatOutlivesIt) {
  const auto units = make_units(10, make_objective().space().size(), 13);
  const double deadline = 0.75 * baseline_median(units, 55);

  auto objective = make_objective(55);
  exec::SchedulerOptions options;
  options.racing.deadline_s = deadline;
  exec::EvalScheduler scheduler(options);
  const auto outcomes =
      scheduler.run_batch(objective, make_requests(units, 480.0), 0);

  std::size_t kills = 0;
  for (const auto& o : outcomes) {
    if (o.status == RunStatus::kKilled) {
      ++kills;
      EXPECT_EQ(o.kill_reason, KillReason::kDeadline);
      EXPECT_TRUE(o.transient);
      // Censored at the frozen threshold, charged the partial time.
      EXPECT_DOUBLE_EQ(o.value_s, 480.0);
      EXPECT_LT(o.cost_s, 480.0);
    } else {
      // Survivors finished under the deadline (the final stage boundary
      // checks the token too, so no run can outlive it unkilled).
      EXPECT_LE(o.raw.seconds, deadline);
    }
  }
  EXPECT_GT(kills, 0u);
  EXPECT_LT(kills, outcomes.size());  // the deadline spares the fast half
}

void expect_racing_parallel_invariant(exec::RacingMode mode,
                                      double deadline_s, bool with_faults) {
  const auto units = make_units(12, make_objective().space().size(), 17);
  const double threshold = baseline_median(units, 321);
  std::vector<std::vector<sparksim::EvalOutcome>> per_level;
  for (int parallelism : {1, 4}) {
    auto objective = make_objective(321);
    if (with_faults) {
      sparksim::FaultProfile faults;
      ASSERT_TRUE(sparksim::FaultProfile::from_preset("moderate", faults));
      faults.preemption_per_stage = 0.05;
      objective.set_fault_profile(faults);
      sparksim::RetryPolicy retry;
      retry.max_retries = 2;
      objective.set_retry_policy(retry);
    }
    exec::SchedulerOptions options;
    options.parallelism = parallelism;
    options.racing.mode = mode;
    options.racing.deadline_s = deadline_s;
    exec::EvalScheduler scheduler(options);
    per_level.push_back(
        scheduler.run_batch(objective, make_requests(units, threshold), 5));
  }
  expect_outcomes_equal(per_level[0], per_level[1]);
  std::size_t kills = 0;
  for (const auto& o : per_level[0]) {
    if (o.status == RunStatus::kKilled) ++kills;
  }
  EXPECT_GT(kills, 0u);  // the policy actually raced something
}

TEST(SchedulerRacingTest, MedianRacingIdenticalAcrossParallelism) {
  expect_racing_parallel_invariant(exec::RacingMode::kMedian, 0.0, false);
}

TEST(SchedulerRacingTest, HalvingRacingIdenticalAcrossParallelism) {
  expect_racing_parallel_invariant(exec::RacingMode::kHalving, 0.0, false);
}

TEST(SchedulerRacingTest, RacingIdenticalUnderFaultsAndPreemptions) {
  expect_racing_parallel_invariant(exec::RacingMode::kMedian, 0.0, true);
}

TEST(SchedulerRacingTest, KillsAreCensoredRefundedAndCounted) {
  obs::metrics().reset();
  const auto units = make_units(10, make_objective().space().size(), 19);
  const double deadline = 0.75 * baseline_median(units, 99);

  auto objective = make_objective(99);
  exec::SchedulerOptions options;
  options.parallelism = 4;
  options.racing.deadline_s = deadline;
  exec::EvalScheduler scheduler(options);

  tuners::GuardPolicy guard(/*static_threshold_s=*/480.0,
                            /*median_multiple=*/0.0);
  tuners::TuningResult result;
  const auto evals = tuners::evaluate_batch_into(scheduler, objective, units,
                                                 guard, result);
  std::size_t kills = 0, clean = 0;
  for (const auto& e : evals) {
    if (e.status == RunStatus::kKilled) {
      ++kills;
      EXPECT_TRUE(e.transient);
      EXPECT_EQ(e.kill_reason, KillReason::kDeadline);
      // The refund: the charge is the partial time, not the threshold a
      // guard stop would have paid.
      EXPECT_LT(e.cost_s, 480.0);
    } else if (e.ok() && !e.stopped_early) {
      ++clean;
    }
  }
  ASSERT_GT(kills, 0u);
  // Killed runs are censored: they never feed the guard median.
  EXPECT_EQ(guard.observations(), clean);
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_EQ(snapshot.counters.at("evals.killed"), kills);
  EXPECT_EQ(snapshot.counters.at("exec.racing.kills"), kills);
  EXPECT_EQ(snapshot.counters.at("exec.racing.kills.deadline"), kills);
  EXPECT_EQ(snapshot.counters.at("evals.censored"), kills);
}

TEST(SchedulerRacingTest, DroppedCancellationDeliveryDelaysTheKill) {
  const auto units = make_units(6, make_objective().space().size(), 23);
  const double deadline = 0.5 * baseline_median(units, 77);

  // With every cancellation delivery dropped, the token is requested but
  // never honored: runs go to completion (or the guard cap) instead.
  chaos::ChaosProfile profile;
  profile.cancel_delivery_failure = 1.0;
  chaos::injector().configure(profile, 42);
  auto objective = make_objective(77);
  exec::SchedulerOptions options;
  options.racing.deadline_s = deadline;
  exec::EvalScheduler scheduler(options);
  const auto outcomes =
      scheduler.run_batch(objective, make_requests(units, 480.0), 0);
  chaos::injector().disarm();
  for (const auto& o : outcomes) {
    EXPECT_NE(o.status, RunStatus::kKilled);
  }

  // Same batch with delivery intact: the deadline lands.
  auto honored = make_objective(77);
  exec::EvalScheduler control(options);
  const auto killed =
      control.run_batch(honored, make_requests(units, 480.0), 0);
  std::size_t kills = 0;
  for (const auto& o : killed) {
    if (o.status == RunStatus::kKilled) ++kills;
  }
  EXPECT_GT(kills, 0u);
}

// ----------------------------------------------- checkpoint & resume ----

constexpr int kBudget = 20;
constexpr std::uint64_t kSeed = 5;

sparksim::SparkObjective make_session_objective() {
  return sparksim::SparkObjective(
      sparksim::ClusterSpec{},
      sparksim::make_workload(sparksim::WorkloadKind::kTeraSort, 1),
      sparksim::spark24_config_space(), 13);
}

core::RoboTuneOptions fast_robotune() {
  core::RoboTuneOptions options;
  options.selection.generic_samples = 50;
  options.selection.forest_trees = 60;
  options.selection.permutation_repeats = 2;
  options.bo.initial_samples = 10;
  options.bo.hyperfit_every = 10;
  options.bo.batch_size = 2;
  return options;
}

core::RoboTuneReport run_session(core::SessionLog* session, int parallelism,
                                 const exec::RacingOptions& racing) {
  auto objective = make_session_objective();
  core::RoboTune tuner(fast_robotune());
  exec::SchedulerOptions options;
  options.parallelism = parallelism;
  options.racing = racing;
  exec::EvalScheduler scheduler(options);
  return tuner.tune_report(objective, kBudget, kSeed, nullptr, session,
                           &scheduler);
}

exec::RacingOptions deadline_racing(double deadline_s) {
  exec::RacingOptions racing;
  racing.deadline_s = deadline_s;
  return racing;
}

void expect_results_equal(const tuners::TuningResult& a,
                          const tuners::TuningResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].unit, b.history[i].unit) << "evaluation " << i;
    EXPECT_EQ(a.history[i].value_s, b.history[i].value_s) << i;
    EXPECT_EQ(a.history[i].cost_s, b.history[i].cost_s) << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status) << i;
    EXPECT_EQ(a.history[i].kill_reason, b.history[i].kill_reason) << i;
  }
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.search_cost_s, b.search_cost_s);
}

TEST(RacingSessionTest, RacingOffJournalHasNoRacingOrKillRecords) {
  core::SessionLog session;
  run_session(&session, 2, exec::RacingOptions{});
  EXPECT_TRUE(session.state.racing_mode.empty());
  EXPECT_TRUE(session.state.kill_events.empty());
  std::stringstream out;
  core::save_session(session.state, out);
  const auto text = out.str();
  // Byte-identity guarantee: a racing-off journal never mentions the
  // racing layer at all.
  EXPECT_EQ(text.find("racing"), std::string::npos);
  EXPECT_EQ(text.find("kill"), std::string::npos);
}

TEST(RacingSessionTest, RacingSessionJournalsKillsAndRoundTrips) {
  core::SessionLog session;
  run_session(&session, 2, deadline_racing(100.0));
  EXPECT_EQ(session.state.racing_mode,
            exec::racing_signature(deadline_racing(100.0)));
  ASSERT_FALSE(session.state.kill_events.empty());
  std::size_t killed_evals = 0;
  for (const auto& e : session.state.evaluations) {
    if (e.status == RunStatus::kKilled) ++killed_evals;
  }
  EXPECT_EQ(session.state.kill_events.size(), killed_evals);

  std::stringstream out;
  core::save_session(session.state, out);
  core::SessionCheckpoint loaded;
  core::load_session(out, loaded);
  EXPECT_EQ(loaded.racing_mode, session.state.racing_mode);
  ASSERT_EQ(loaded.kill_events.size(), session.state.kill_events.size());
  for (std::size_t i = 0; i < loaded.kill_events.size(); ++i) {
    EXPECT_EQ(loaded.kill_events[i].index,
              session.state.kill_events[i].index);
    EXPECT_EQ(loaded.kill_events[i].reason,
              session.state.kill_events[i].reason);
  }
}

TEST(RacingSessionTest, RacingSessionResumesIdentically) {
  const auto racing = deadline_racing(100.0);
  core::SessionLog full;
  const auto uninterrupted = run_session(&full, 4, racing);
  ASSERT_EQ(full.state.evaluations.size(),
            static_cast<std::size_t>(kBudget));
  ASSERT_FALSE(full.state.kill_events.empty());

  for (std::size_t kept : {0u, 6u, 13u}) {
    core::SessionLog resumed;
    resumed.state = full.state;
    resumed.state.evaluations.resize(kept);
    core::canonicalize_journal(resumed.state);
    const auto continued = run_session(&resumed, 7, racing);
    SCOPED_TRACE("kept=" + std::to_string(kept));
    expect_results_equal(uninterrupted.tuning, continued.tuning);
    EXPECT_EQ(resumed.state.kill_events.size(),
              full.state.kill_events.size());
  }
}

TEST(RacingSessionTest, CrossRacingModeResumeIsRefused) {
  core::SessionLog raced;
  run_session(&raced, 2, deadline_racing(100.0));

  // A racing journal must not resume racing-off...
  {
    core::SessionLog resumed;
    resumed.state = raced.state;
    resumed.state.evaluations.resize(8);
    core::canonicalize_journal(resumed.state);
    EXPECT_THROW(run_session(&resumed, 2, exec::RacingOptions{}),
                 InvalidArgument);
  }
  // ...nor under a different deadline...
  {
    core::SessionLog resumed;
    resumed.state = raced.state;
    resumed.state.evaluations.resize(8);
    core::canonicalize_journal(resumed.state);
    EXPECT_THROW(run_session(&resumed, 2, deadline_racing(150.0)),
                 InvalidArgument);
  }
  // ...and a racing-off journal must not resume under racing.
  core::SessionLog plain;
  run_session(&plain, 2, exec::RacingOptions{});
  {
    core::SessionLog resumed;
    resumed.state = plain.state;
    resumed.state.evaluations.resize(8);
    EXPECT_THROW(run_session(&resumed, 2, deadline_racing(100.0)),
                 InvalidArgument);
  }
}

}  // namespace
}  // namespace robotune
