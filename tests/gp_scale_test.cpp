// Tests for the O(n³)-wall work (DESIGN.md §15): rank-1 remove_point
// against refit-from-scratch, bit-identical LIFO round-trips, the RFF
// tier's analytic gradients and fidelity, constant-liar purge counters,
// worker-count invariance of batched sessions, geometric factor growth,
// workspace reuse across tiers, and the chaos-injected degrade rungs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"
#include "gp/rff_gp.h"
#include "gp/surrogate.h"
#include "obs/metrics.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune {
namespace {

using sparksim::WorkloadKind;

void make_data(std::size_t n, std::size_t dims, std::uint64_t seed,
               std::vector<std::vector<double>>& xs,
               std::vector<double>& ys) {
  Rng rng(seed);
  xs.assign(n, std::vector<double>(dims));
  ys.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& c : xs[i]) c = rng.uniform();
    ys[i] = std::sin(3.0 * xs[i][0]) + 0.5 * xs[i][dims - 1] +
            0.1 * std::cos(7.0 * xs[i][1 % dims]);
  }
}

std::vector<std::vector<double>> make_probes(std::size_t count,
                                             std::size_t dims,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> probes(count, std::vector<double>(dims));
  for (auto& p : probes) {
    for (auto& c : p) c = rng.uniform();
  }
  return probes;
}

gp::GpOptions fixed_hypers() {
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  return options;
}

sparksim::SparkObjective make_objective(std::uint64_t seed = 13) {
  return sparksim::SparkObjective(
      sparksim::ClusterSpec{},
      sparksim::make_workload(WorkloadKind::kTeraSort, 1),
      sparksim::spark24_config_space(), seed);
}

core::RoboTuneOptions fast_robotune() {
  core::RoboTuneOptions options;
  options.selection.generic_samples = 50;
  options.selection.forest_trees = 60;
  options.selection.permutation_repeats = 2;
  options.bo.initial_samples = 10;
  options.bo.hyperfit_every = 10;
  return options;
}

bool has_rung(const std::vector<core::DegradeEvent>& events,
              const std::string& rung) {
  for (const auto& e : events) {
    if (e.rung == rung) return true;
  }
  return false;
}

std::string serialize(core::SessionCheckpoint state) {
  core::canonicalize_journal(state);
  std::stringstream out;
  core::save_session(state, out);
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

class GpScaleTest : public ::testing::Test {
 protected:
  void TearDown() override { chaos::injector().disarm(); }
};

// ------------------------------------------ remove_point correctness ----

// Removing any training point via the rank-1 path must agree with a
// fresh fixed-hyperparameter fit on the remaining data — at every index,
// not just the LIFO one the constant-liar purge exercises.
TEST_F(GpScaleTest, RemovePointMatchesRefitAtEveryIndex) {
  const std::size_t n = 16, dims = 3;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(n, dims, 17, xs, ys);
  const auto probes = make_probes(5, dims, 99);

  gp::GaussianProcess full(gp::ard_kernel(dims), fixed_hypers(), 7);
  full.fit(xs, ys);

  for (std::size_t index = 0; index < n; ++index) {
    gp::GaussianProcess removed = full;
    removed.remove_point(index);
    ASSERT_EQ(removed.num_points(), n - 1);

    auto xs_minus = xs;
    auto ys_minus = ys;
    xs_minus.erase(xs_minus.begin() + static_cast<std::ptrdiff_t>(index));
    ys_minus.erase(ys_minus.begin() + static_cast<std::ptrdiff_t>(index));
    gp::GaussianProcess refit(gp::ard_kernel(dims), fixed_hypers(), 7);
    refit.fit(xs_minus, ys_minus);

    for (const auto& p : probes) {
      const auto a = removed.predict(p);
      const auto b = refit.predict(p);
      EXPECT_NEAR(a.mean, b.mean, 1e-8) << "index " << index;
      EXPECT_NEAR(a.variance, b.variance, 1e-8) << "index " << index;
    }
  }
}

// add_point followed by remove_point of that same (last) point is a pure
// truncation: the factor, targets, and predictions are restored
// *bit-identically* — this is what makes the constant-liar purge
// worker-count-invariant.
TEST_F(GpScaleTest, LifoRoundTripIsBitIdentical) {
  const std::size_t n = 14, dims = 3;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(n, dims, 23, xs, ys);
  const auto probes = make_probes(6, dims, 101);

  gp::GaussianProcess model(gp::ard_kernel(dims), fixed_hypers(), 7);
  model.fit(xs, ys);

  std::vector<gp::Prediction> before;
  for (const auto& p : probes) before.push_back(model.predict(p));

  // Several stacked fantasies, purged LIFO — the q > 1 engine pattern.
  const auto extra = make_probes(3, dims, 55);
  for (const auto& x : extra) model.add_point(x, -0.25);
  for (std::size_t k = 0; k < extra.size(); ++k) {
    model.remove_point(model.num_points() - 1);
  }
  ASSERT_EQ(model.num_points(), n);

  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto after = model.predict(probes[i]);
    EXPECT_EQ(before[i].mean, after.mean) << "probe " << i;
    EXPECT_EQ(before[i].variance, after.variance) << "probe " << i;
  }
}

// ----------------------------------------------------- RFF tier ---------

TEST_F(GpScaleTest, RffGradientsMatchCentralDifferences) {
  const std::size_t n = 25, dims = 3;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(n, dims, 31, xs, ys);

  gp::MaternHyperparams hypers;
  hypers.length_scales = {0.4, 0.6, 0.5};
  hypers.signal_variance = 1.2;
  hypers.noise_variance = 1e-3;
  gp::RffGp model(gp::RffOptions{128, 0x5eedULL});
  model.fit(xs, ys, hypers);

  gp::GpWorkspace ws;
  gp::PredictGradient out;
  const double h = 1e-5;
  for (const auto& probe : make_probes(4, dims, 77)) {
    model.predict_with_gradient(probe, ws, out);
    const auto base = model.predict(probe);
    EXPECT_EQ(out.mean, base.mean);
    EXPECT_EQ(out.variance, base.variance);
    for (std::size_t d = 0; d < dims; ++d) {
      auto hi = probe, lo = probe;
      hi[d] += h;
      lo[d] -= h;
      const auto up = model.predict(hi);
      const auto dn = model.predict(lo);
      const double dmean = (up.mean - dn.mean) / (2 * h);
      const double dvar = (up.variance - dn.variance) / (2 * h);
      EXPECT_NEAR(out.dmean[d], dmean,
                  1e-4 * std::max(1.0, std::abs(dmean)));
      EXPECT_NEAR(out.dvariance[d], dvar,
                  1e-4 * std::max(1.0, std::abs(dvar)));
    }
  }
}

// The random-features posterior mean tracks the exact GP it mirrors: the
// Monte-Carlo feature error is O(1/√m), far below this tolerance at
// m = 1024 on a smooth target.
TEST_F(GpScaleTest, RffApproximatesTheExactPosterior) {
  const std::size_t n = 40, dims = 2;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(n, dims, 47, xs, ys);

  gp::GaussianProcess exact(gp::ard_kernel(dims, 0.5, 1.0, 1e-4),
                            fixed_hypers(), 7);
  exact.fit(xs, ys);

  gp::MaternHyperparams hypers;
  hypers.length_scales = {0.5, 0.5};
  hypers.signal_variance = 1.0;
  hypers.noise_variance = 1e-4;
  gp::RffGp rff(gp::RffOptions{1024, 0x5eedULL});
  rff.fit(xs, ys, hypers);
  EXPECT_EQ(rff.num_points(), n);
  EXPECT_STREQ(rff.tier(), "rff");
  EXPECT_DOUBLE_EQ(rff.best_observed(), exact.best_observed());

  for (const auto& p : make_probes(20, dims, 88)) {
    const auto a = exact.predict(p);
    const auto b = rff.predict(p);
    EXPECT_NEAR(a.mean, b.mean, 0.2);
    EXPECT_GE(b.variance, 0.0);
  }
}

// Incremental add/remove on the RFF tier agree with a from-scratch fit
// on the same data (rank-1 update/downdate of the m×m feature factor).
TEST_F(GpScaleTest, RffAddRemoveMatchesRefit) {
  const std::size_t n = 30, dims = 3;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(n, dims, 53, xs, ys);

  gp::MaternHyperparams hypers;
  hypers.length_scales = {0.5, 0.5, 0.5};
  hypers.signal_variance = 1.0;
  hypers.noise_variance = 1e-3;

  const std::size_t held_out = 4;
  std::vector<std::vector<double>> xs_head(xs.begin(),
                                           xs.end() - held_out);
  std::vector<double> ys_head(ys.begin(), ys.end() - held_out);

  gp::RffGp incremental(gp::RffOptions{96, 0x5eedULL});
  incremental.fit(xs_head, ys_head, hypers);
  for (std::size_t i = n - held_out; i < n; ++i) {
    incremental.add_point(xs[i], ys[i]);
  }
  gp::RffGp batch(gp::RffOptions{96, 0x5eedULL});
  batch.fit(xs, ys, hypers);

  const auto probes = make_probes(6, dims, 111);
  for (const auto& p : probes) {
    const auto a = incremental.predict(p);
    const auto b = batch.predict(p);
    EXPECT_NEAR(a.mean, b.mean, 1e-7);
    EXPECT_NEAR(a.variance, b.variance, 1e-7);
  }

  // And removing them again recovers the head-only posterior.
  for (std::size_t k = 0; k < held_out; ++k) {
    incremental.remove_point(incremental.num_points() - 1);
  }
  gp::RffGp head(gp::RffOptions{96, 0x5eedULL});
  head.fit(xs_head, ys_head, hypers);
  for (const auto& p : probes) {
    const auto a = incremental.predict(p);
    const auto b = head.predict(p);
    EXPECT_NEAR(a.mean, b.mean, 1e-7);
    EXPECT_NEAR(a.variance, b.variance, 1e-7);
  }
}

// ------------------------------------ workspace reuse across tiers ------

// One GpWorkspace must serve models of different sizes and tiers back to
// back — buffers are sized at every use, so a reused workspace is
// bit-identical to a fresh one (the stale-workspace contract).
TEST_F(GpScaleTest, WorkspaceSurvivesTierAndSizeChanges) {
  const std::size_t dims = 3;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(20, dims, 61, xs, ys);
  const std::vector<double> probe = {0.3, 0.7, 0.4};

  gp::GaussianProcess exact(gp::ard_kernel(dims), fixed_hypers(), 7);
  exact.fit(xs, ys);
  gp::MaternHyperparams hypers;
  hypers.length_scales = {0.5, 0.5, 0.5};
  gp::RffGp rff(gp::RffOptions{64, 0x5eedULL});
  rff.fit(xs, ys, hypers);

  gp::GpWorkspace reused;
  const auto e1 = exact.predict(probe, reused);   // n = 20 exact
  const auto r1 = rff.predict(probe, reused);     // m = 64 features
  exact.remove_point(5);
  const auto e2 = exact.predict(probe, reused);   // n = 19 exact

  gp::GpWorkspace w1, w2, w3;
  gp::GaussianProcess exact_fresh(gp::ard_kernel(dims), fixed_hypers(), 7);
  exact_fresh.fit(xs, ys);
  const auto f1 = exact_fresh.predict(probe, w1);
  const auto f2 = rff.predict(probe, w2);
  exact_fresh.remove_point(5);
  const auto f3 = exact_fresh.predict(probe, w3);

  EXPECT_EQ(e1.mean, f1.mean);
  EXPECT_EQ(e1.variance, f1.variance);
  EXPECT_EQ(r1.mean, f2.mean);
  EXPECT_EQ(r1.variance, f2.variance);
  EXPECT_EQ(e2.mean, f3.mean);
  EXPECT_EQ(e2.variance, f3.variance);

  // Gradient scratch follows the same contract.
  gp::PredictGradient g_reused, g_fresh;
  rff.predict_with_gradient(probe, reused, g_reused);
  rff.predict_with_gradient(probe, w2, g_fresh);
  EXPECT_EQ(g_reused.dmean, g_fresh.dmean);
  EXPECT_EQ(g_reused.dvariance, g_fresh.dvariance);
}

// ------------------------------------------- geometric growth -----------

// Long add_point streaks must reallocate the factor O(log n) times, not
// O(n): the allocation counter is the regression guard.
TEST_F(GpScaleTest, AddPointReservesGeometrically) {
  obs::metrics().reset();

  const std::size_t dims = 3, adds = 200;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(4, dims, 71, xs, ys);
  gp::GaussianProcess model(gp::ard_kernel(dims), fixed_hypers(), 7);
  model.fit(xs, ys);

  std::vector<std::vector<double>> stream;
  std::vector<double> targets;
  make_data(adds, dims, 73, stream, targets);
  for (std::size_t i = 0; i < adds; ++i) {
    model.add_point(stream[i], targets[i]);
  }
  ASSERT_EQ(model.num_points(), 4 + adds);

  const auto snapshot = obs::metrics().snapshot();
  EXPECT_EQ(snapshot.counters.at("gp.add_point.calls"), adds);
  const auto it = snapshot.counters.find("gp.add_point.reserve");
  ASSERT_NE(it, snapshot.counters.end());
  // 4 → 204 points with doubling capacity: ~⌈log2(204/4)⌉ = 6 reserves.
  EXPECT_LE(it->second, 10u);
  EXPECT_GE(it->second, 1u);
}

// --------------------------------------- constant-liar purge ------------

// At q = 8 the purge must run on the rank-1 path: downdates counted,
// zero full refits.
TEST_F(GpScaleTest, BatchPurgeUsesDowndatesNotRefits) {
  obs::metrics().reset();

  auto objective = make_objective();
  auto options = fast_robotune();
  options.bo.batch_size = 8;
  core::RoboTune tuner(options);
  const auto report = tuner.tune_report(objective, 42, 5);
  EXPECT_EQ(report.tuning.history.size(), 42u);

  const auto snapshot = obs::metrics().snapshot();
  EXPECT_GT(snapshot.counters.at("bo.cl_purge.downdates"), 0u);
  EXPECT_GT(snapshot.counters.at("gp.remove_point.calls"), 0u);
  const auto refits = snapshot.counters.find("bo.cl_purge.refits");
  EXPECT_TRUE(refits == snapshot.counters.end() || refits->second == 0u)
      << "purge fell back to O(n³) refits";
}

// Batched sessions remain byte-identical for any worker count now that
// the purge downdates fantasies instead of refitting.
TEST_F(GpScaleTest, BatchedSessionsAreByteIdenticalAcrossWorkers) {
  const auto run_at = [&](int workers) {
    exec::SchedulerOptions sched;
    sched.parallelism = workers;
    exec::EvalScheduler scheduler(sched);
    auto objective = make_objective();
    auto options = fast_robotune();
    options.bo.batch_size = 4;
    core::RoboTune tuner(options);
    core::SessionLog session;
    auto report =
        tuner.tune_report(objective, 30, 5, nullptr, &session, &scheduler);
    return std::make_pair(std::move(report), serialize(session.state));
  };

  const auto [report1, journal1] = run_at(1);
  const auto [report4, journal4] = run_at(4);
  expect_results_equal(report1.tuning, report4.tuning);
  EXPECT_EQ(report1.tuning.best_unit(), report4.tuning.best_unit());
  EXPECT_EQ(journal1, journal4);
}

// The same invariance across the sparse switchover: the session crosses
// sparse_threshold mid-run, so proposals come from the RFF tier — still
// a pure function of the trajectory, never of scheduling.
TEST_F(GpScaleTest, SparseTierSessionsAreByteIdenticalAcrossWorkers) {
  const auto run_at = [&](int workers) {
    exec::SchedulerOptions sched;
    sched.parallelism = workers;
    exec::EvalScheduler scheduler(sched);
    auto objective = make_objective();
    auto options = fast_robotune();
    options.bo.sparse_threshold = 16;
    options.bo.rff_features = 64;
    core::RoboTune tuner(options);
    core::SessionLog session;
    auto report =
        tuner.tune_report(objective, 30, 5, nullptr, &session, &scheduler);
    return std::make_pair(std::move(report), serialize(session.state));
  };

  obs::metrics().reset();
  const auto [report1, journal1] = run_at(1);
  const auto [report4, journal4] = run_at(4);
  expect_results_equal(report1.tuning, report4.tuning);
  EXPECT_EQ(journal1, journal4);
  // The sparse tier really carried part of the session.
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_GT(snapshot.counters.at("bo.surrogate.rff_fits"), 0u);
}

// ------------------------------------------------ chaos rungs -----------

// remove_point's only failure (a chaos-injected downdate loss) fires
// before any mutation: the model must be bitwise unchanged and usable.
TEST_F(GpScaleTest, RemovePointStrongGuaranteeUnderChaos) {
  const std::size_t dims = 3;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  make_data(12, dims, 83, xs, ys);
  const std::vector<double> probe = {0.2, 0.5, 0.8};

  gp::GaussianProcess exact(gp::ard_kernel(dims), fixed_hypers(), 7);
  exact.fit(xs, ys);
  const auto exact_before = exact.predict(probe);

  gp::MaternHyperparams hypers;
  hypers.length_scales = {0.5, 0.5, 0.5};
  gp::RffGp rff(gp::RffOptions{64, 0x5eedULL});
  rff.fit(xs, ys, hypers);
  const auto rff_before = rff.predict(probe);

  chaos::ChaosProfile profile;
  profile.cholesky_failure = 1.0;
  chaos::injector().configure(profile, 3);
  EXPECT_THROW(exact.remove_point(exact.num_points() - 1), NumericalError);
  EXPECT_THROW(exact.remove_point(4), NumericalError);
  EXPECT_THROW(rff.remove_point(rff.num_points() - 1), NumericalError);
  chaos::injector().disarm();

  const auto exact_after = exact.predict(probe);
  EXPECT_EQ(exact_before.mean, exact_after.mean);
  EXPECT_EQ(exact_before.variance, exact_after.variance);
  const auto rff_after = rff.predict(probe);
  EXPECT_EQ(rff_before.mean, rff_after.mean);
  EXPECT_EQ(rff_before.variance, rff_after.variance);

  // Once the injected failure clears, the same removes succeed.
  EXPECT_NO_THROW(exact.remove_point(exact.num_points() - 1));
  EXPECT_NO_THROW(rff.remove_point(rff.num_points() - 1));
}

// A forced RFF tier under partial chaos lands the journaled
// `rff_fallback` rung and the session still completes its budget on the
// exact ladder.
TEST_F(GpScaleTest, ChaosExercisesRffFallbackRung) {
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("cholesky=0.25", profile));
  chaos::injector().configure(profile, 5);

  auto objective = make_objective();
  auto options = fast_robotune();
  options.bo.surrogate = core::SurrogateTier::kRff;
  options.bo.rff_features = 64;
  // Refit every round: between refits the RFF tier absorbs points via
  // rank-1 updates with no factorization for the injector to hit.
  options.bo.hyperfit_every = 1;
  core::RoboTune tuner(options);
  core::SessionLog session;
  const auto report = tuner.tune_report(objective, 40, 5, nullptr, &session);

  EXPECT_EQ(report.tuning.history.size(), 40u);
  EXPECT_TRUE(has_rung(session.state.degrade_events, "rff_fallback"));
}

// A failed purge downdate lands the journaled `cl_purge` rung, counts a
// full refit, and the session still completes.
TEST_F(GpScaleTest, ChaosExercisesClPurgeRung) {
  obs::metrics().reset();
  chaos::ChaosProfile profile;
  ASSERT_TRUE(chaos::ChaosProfile::parse("cholesky=0.25", profile));
  chaos::injector().configure(profile, 5);

  auto objective = make_objective();
  auto options = fast_robotune();
  options.bo.batch_size = 4;
  core::RoboTune tuner(options);
  core::SessionLog session;
  const auto report = tuner.tune_report(objective, 50, 5, nullptr, &session);

  EXPECT_EQ(report.tuning.history.size(), 50u);
  EXPECT_TRUE(has_rung(session.state.degrade_events, "cl_purge"));
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_GE(snapshot.counters.at("bo.cl_purge.refits"), 1u);
}

}  // namespace
}  // namespace robotune
