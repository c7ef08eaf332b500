// Tests for the self-healing tuning core: the surrogate degradation
// ladder under forced (chaos-injected) failures, byte-identical degraded
// sessions at any parallelism, the GP add_point rollback guarantee, and
// the non-finite-observation quarantine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"
#include "obs/metrics.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {
namespace {

using sparksim::WorkloadKind;

sparksim::SparkObjective make_objective(std::uint64_t seed = 13) {
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

bool has_rung(const std::vector<DegradeEvent>& events,
              const std::string& rung) {
  for (const auto& e : events) {
    if (e.rung == rung) return true;
  }
  return false;
}

std::string serialize(SessionCheckpoint state) {
  // Parallel sessions journal in completion order; compare the canonical
  // (index-ordered) form, exactly what a resume would replay.
  canonicalize_journal(state);
  std::stringstream out;
  save_session(state, out);
  return out.str();
}

void expect_results_equal(const tuners::TuningResult& a,
                          const tuners::TuningResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].unit, b.history[i].unit) << "evaluation " << i;
    EXPECT_EQ(a.history[i].value_s, b.history[i].value_s) << i;
    EXPECT_EQ(a.history[i].cost_s, b.history[i].cost_s) << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status) << i;
  }
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_DOUBLE_EQ(a.search_cost_s, b.search_cost_s);
}

class DegradeTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::injector().disarm(); }
};

// Every Cholesky factorization fails, so every round walks the whole
// ladder — and the session must still complete its full 100-eval budget
// on space-filling fallback proposals.
TEST_F(DegradeTest, ForcedSurrogateFailureCompletesTheFullBudget) {
  obs::metrics().reset();
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("surrogate", profile));
  chaos::injector().configure(profile, 5);

  auto objective = make_objective();
  RoboTune tuner(fast_robotune());
  SessionLog session;
  const auto report = tuner.tune_report(objective, 100, 5, nullptr, &session);

  EXPECT_EQ(report.tuning.history.size(), 100u);
  EXPECT_TRUE(report.tuning.found_any());
  EXPECT_FALSE(report.bo.interrupted);

  // All ladder rungs were exercised and journaled...
  const auto& events = session.state.degrade_events;
  EXPECT_TRUE(has_rung(events, "gp_refit"));
  EXPECT_TRUE(has_rung(events, "gp_noise_inflate"));
  EXPECT_TRUE(has_rung(events, "gp_skip"));
  EXPECT_TRUE(has_rung(events, "fallback_proposal"));

  // ...and surfaced as observability counters.
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_GT(snapshot.counters.at("degrade.gp_refit"), 0u);
  EXPECT_GT(snapshot.counters.at("degrade.gp_noise_inflate"), 0u);
  EXPECT_GT(snapshot.counters.at("degrade.gp_skip"), 0u);
  EXPECT_GT(snapshot.counters.at("degrade.fallback_proposal"), 0u);
  EXPECT_GT(snapshot.counters.at("chaos.cholesky"), 0u);
  EXPECT_GT(chaos::injector().injections(chaos::Site::kCholesky), 0u);
}

// Two identically-seeded degraded sessions are byte-identical — history,
// best configuration, and the serialized journal — whether the batches
// ran on one worker or four.
TEST_F(DegradeTest, DegradedSessionsAreByteIdenticalAtAnyParallelism) {
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("surrogate", profile));

  const auto run_at = [&](int workers) {
    // configure() resets the injector's counters, so each run replays
    // the identical chaos decision sequence.
    chaos::injector().configure(profile, 5);
    exec::SchedulerOptions sched;
    sched.parallelism = workers;
    exec::EvalScheduler scheduler(sched);
    auto objective = make_objective();
    RoboTune tuner(fast_robotune());
    SessionLog session;
    auto report =
        tuner.tune_report(objective, 30, 5, nullptr, &session, &scheduler);
    return std::make_pair(std::move(report), serialize(session.state));
  };

  const auto [report1, journal1] = run_at(1);
  const auto [report4, journal4] = run_at(4);

  expect_results_equal(report1.tuning, report4.tuning);
  EXPECT_EQ(report1.tuning.best_unit(), report4.tuning.best_unit());
  EXPECT_EQ(journal1, journal4);
  // The degraded session really degraded.
  EXPECT_NE(journal1.find("fallback_proposal"), std::string::npos);
}

// A fractional failure rate (the soak profile) must be just as
// reproducible: decisions are a pure function of (seed, site, counter),
// never of scheduling.
TEST_F(DegradeTest, PartialChaosSoakIsDeterministic) {
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("cholesky=0.25,acq=0.25", profile));

  const auto run_at = [&](int workers) {
    chaos::injector().configure(profile, 21);
    exec::SchedulerOptions sched;
    sched.parallelism = workers;
    exec::EvalScheduler scheduler(sched);
    auto objective = make_objective();
    RoboTune tuner(fast_robotune());
    SessionLog session;
    auto report =
        tuner.tune_report(objective, 30, 21, nullptr, &session, &scheduler);
    return std::make_pair(std::move(report), serialize(session.state));
  };

  const auto [report1, journal1] = run_at(1);
  const auto [report4, journal4] = run_at(4);
  expect_results_equal(report1.tuning, report4.tuning);
  EXPECT_EQ(journal1, journal4);
  EXPECT_EQ(report1.tuning.history.size(), 30u);
}

// A degraded session's checkpoint must resume exactly like a healthy
// one: kill it mid-budget, resume under the same chaos seed, and the
// continuation matches the uninterrupted degraded run.
TEST_F(DegradeTest, DegradedSessionResumesIdentically) {
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("surrogate", profile));

  chaos::injector().configure(profile, 5);
  auto full_objective = make_objective();
  RoboTune full_tuner(fast_robotune());
  SessionLog full_session;
  const auto uninterrupted = full_tuner.tune_report(full_objective, 20, 5,
                                                    nullptr, &full_session);

  SessionLog resumed_session;
  resumed_session.state = full_session.state;
  resumed_session.state.evaluations.resize(14);
  chaos::injector().configure(profile, 5);  // chaos replays from the top
  auto resumed_objective = make_objective();
  RoboTune resumed_tuner(fast_robotune());
  const auto resumed = resumed_tuner.tune_report(resumed_objective, 20, 5,
                                                 nullptr, &resumed_session);
  expect_results_equal(uninterrupted.tuning, resumed.tuning);
  // The regenerated degrade journal matches the uninterrupted one.
  EXPECT_EQ(serialize(resumed_session.state),
            serialize(full_session.state));
}

// ------------------------------------------- add_point rollback ----------

TEST_F(DegradeTest, AddPointRollsBackWhenRefactorizationFails) {
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  // A signal variance of 1e8 with no white noise swamps both the 1e-10
  // jitter floor and the degenerate-path threshold (1e8 + 1e-10 == 1e8 in
  // double), so a duplicate training point collapses the rank-one
  // update's Schur complement to zero and add_point must fall back to the
  // full refactorization — exactly where the forced Cholesky failure
  // lands.
  gp::GaussianProcess model(gp::ard_kernel(2, 0.5, 1e8, 0.0), options, 7);
  const std::vector<std::vector<double>> xs = {
      {0.1, 0.2}, {0.6, 0.7}, {0.9, 0.3}};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  model.fit(xs, ys);

  const std::vector<double> probe = {0.45, 0.55};

  chaos::ChaosProfile profile;
  profile.cholesky_failure = 1.0;
  chaos::injector().configure(profile, 3);
  // The duplicate reaches the degenerate path on the first add on every
  // platform we build for; the bounded retry only hedges against FP
  // contraction pushing an early Schur complement a hair above the
  // threshold (each fast-path add then shrinks the next pivot further,
  // so the collapse is inevitable).  Fast-path adds never factorize, so
  // the armed injector cannot fire on them.
  bool degenerate_hit = false;
  gp::Prediction before;
  for (int attempt = 0; attempt < 8 && !degenerate_hit; ++attempt) {
    before = model.predict(probe);
    try {
      model.add_point(xs[1], 2.5);
    } catch (const NumericalError&) {
      degenerate_hit = true;
    }
  }
  chaos::injector().disarm();
  ASSERT_TRUE(degenerate_hit) << "degenerate add_point path never reached";

  // Strong exception guarantee: the model is unchanged and usable.
  const auto after = model.predict(probe);
  EXPECT_EQ(before.mean, after.mean);
  EXPECT_EQ(before.variance, after.variance);

  // And the same update succeeds once the failure clears.
  EXPECT_NO_THROW(model.add_point(xs[1], 2.5));
  EXPECT_NO_THROW(model.predict(probe));
}

// --------------------------------------- non-finite quarantine -----------

TEST_F(DegradeTest, NonFiniteObservationsAreQuarantined) {
  tuners::GuardPolicy guard(480.0, 2.5);
  tuners::TuningResult result;

  tuners::Evaluation good;
  good.unit = {0.5};
  good.value_s = 100.0;
  good.cost_s = 100.0;
  tuners::append_evaluation(good, guard, result);
  EXPECT_EQ(result.best_index, 0u);

  tuners::Evaluation poisoned;
  poisoned.unit = {0.25};
  poisoned.value_s = std::numeric_limits<double>::quiet_NaN();
  poisoned.cost_s = std::numeric_limits<double>::infinity();
  tuners::append_evaluation(poisoned, guard, result);

  // Censored in place: finite values, classified like a transient run,
  // charged to the session, never the incumbent.
  ASSERT_EQ(result.history.size(), 2u);
  const auto& q = result.history[1];
  EXPECT_TRUE(std::isfinite(q.value_s));
  EXPECT_TRUE(std::isfinite(q.cost_s));
  EXPECT_TRUE(q.transient);
  EXPECT_DOUBLE_EQ(q.value_s, 480.0);  // censored at the guard threshold
  EXPECT_EQ(result.best_index, 0u);    // the NaN never became the best
  EXPECT_TRUE(std::isfinite(result.search_cost_s));

  tuners::Evaluation negative_inf;
  negative_inf.unit = {0.75};
  negative_inf.value_s = -std::numeric_limits<double>::infinity();
  negative_inf.cost_s = 10.0;
  tuners::append_evaluation(negative_inf, guard, result);
  EXPECT_TRUE(std::isfinite(result.history[2].value_s));
  EXPECT_TRUE(result.history[2].transient);
  EXPECT_EQ(result.best_index, 0u);  // -inf would otherwise win everything
}

}  // namespace
}  // namespace robotune::core
