// Tests for the fault-injection layer: RunStatus round-trips, injector
// semantics (mitigation knobs, escalation bounds), engine-level
// determinism and opt-in byte-identity, and the objective's retry /
// censoring pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sparksim/engine.h"
#include "sparksim/faults.h"
#include "sparksim/objective.h"
#include "sparksim/param_space.h"
#include "sparksim/spark_config.h"
#include "sparksim/workload.h"

namespace robotune::sparksim {
namespace {

const ConfigSpace& space() {
  static const ConfigSpace s = spark24_config_space();
  return s;
}

// A configuration that completes healthily on the default cluster (same
// shape as sparksim_test's tuned_config).
DecodedConfig tuned_config() {
  auto v = space().defaults();
  const auto set = [&](const char* n, double val) {
    v[*space().index_of(n)] = val;
  };
  set("spark.executor.cores", 8);
  set("spark.executor.memory.mb", 32768);
  set("spark.memory.fraction", 0.7);
  set("spark.serializer", 1);
  set("spark.default.parallelism", 400);
  set("spark.executor.gc", 1);
  return v;
}

SimResult run_with_profile(const FaultProfile& profile, std::uint64_t seed,
                           double noise = 0.0,
                           WorkloadKind kind = WorkloadKind::kPageRank) {
  const auto config = SparkConfig::from_decoded(space(), tuned_config());
  EngineOptions options;
  options.run_noise_sigma = noise;
  options.faults = profile;
  return simulate(ClusterSpec{}, make_workload(kind, 1), config, seed,
                  options);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.seconds, b.seconds);  // bit-identical, not just close
  EXPECT_EQ(a.stage_seconds, b.stage_seconds);
  EXPECT_EQ(a.failure_stage, b.failure_stage);
  EXPECT_EQ(a.metrics.executors_lost, b.metrics.executors_lost);
  EXPECT_EQ(a.metrics.task_retries, b.metrics.task_retries);
  EXPECT_EQ(a.metrics.stage_reattempts, b.metrics.stage_reattempts);
  EXPECT_EQ(a.metrics.fault_delay_s, b.metrics.fault_delay_s);
  EXPECT_EQ(a.metrics.cpu_seconds, b.metrics.cpu_seconds);
  EXPECT_EQ(a.metrics.network_seconds, b.metrics.network_seconds);
}

// --------------------------------------------------------- RunStatus ----

TEST(RunStatusTest, RoundTripsEveryEnumerator) {
  for (RunStatus s : all_run_statuses()) {
    const auto label = to_string(s);
    const auto back = run_status_from_string(label);
    ASSERT_TRUE(back.has_value()) << label;
    EXPECT_EQ(*back, s) << label;
  }
}

TEST(RunStatusTest, LabelsAreUnique) {
  std::set<std::string> labels;
  for (RunStatus s : all_run_statuses()) labels.insert(to_string(s));
  EXPECT_EQ(labels.size(), all_run_statuses().size());
}

TEST(RunStatusTest, UnknownValuesHaveStableLabel) {
  const auto bogus = static_cast<RunStatus>(999);
  EXPECT_EQ(to_string(bogus), "unknown");
  EXPECT_EQ(to_string(bogus), to_string(static_cast<RunStatus>(1000)));
  EXPECT_FALSE(run_status_from_string("unknown").has_value());
  EXPECT_FALSE(run_status_from_string("no-such-status").has_value());
}

TEST(RunStatusTest, OnlyInjectedFaultsAreTransient) {
  // kKilled is deliberately NOT transient: a racer-killed configuration
  // would just be killed again on retry, so the retry loop must not
  // re-run it (censoring happens downstream instead).
  for (RunStatus s : all_run_statuses()) {
    const bool expected = s == RunStatus::kExecutorLost ||
                          s == RunStatus::kFetchFailure ||
                          s == RunStatus::kPreempted;
    EXPECT_EQ(is_transient(s), expected) << to_string(s);
  }
}

// ------------------------------------------------------- FaultProfile ----

TEST(FaultProfileTest, DefaultIsInactive) {
  EXPECT_FALSE(FaultProfile{}.active());
  // Non-rate knobs alone never activate the profile.
  FaultProfile p;
  p.straggler_max_slowdown = 9.0;
  p.max_stage_attempts = 1;
  EXPECT_FALSE(p.active());
  EXPECT_TRUE(FaultProfile::uniform(0.05).active());
  EXPECT_FALSE(FaultProfile::uniform(0.0).active());
}

TEST(FaultProfileTest, PresetsParseAndUnknownIsRejected) {
  FaultProfile p;
  for (const char* name : {"none", "mild", "moderate", "severe"}) {
    EXPECT_TRUE(FaultProfile::from_preset(name, p)) << name;
  }
  EXPECT_TRUE(FaultProfile::from_preset("severe", p));
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(FaultProfile::from_preset("catastrophic", p));
}

// ------------------------------------------------------ FaultInjector ----

TEST(FaultInjectorTest, ExecutorLossEscalatesToTaskMaxFailures) {
  FaultProfile p;
  p.executor_loss_per_stage = 1.0;  // every trial fires
  SparkConfig config;
  config.task_max_failures = 3;
  FaultInjector injector(p, 7);
  const auto f = injector.sample_stage(config, /*has_shuffle_read=*/false);
  EXPECT_EQ(f.executor_losses, 3);
  EXPECT_TRUE(f.executor_exhausted);

  config.task_max_failures = 1;
  FaultInjector strict(p, 7);
  const auto g = strict.sample_stage(config, false);
  EXPECT_EQ(g.executor_losses, 1);
  EXPECT_TRUE(g.executor_exhausted);
}

TEST(FaultInjectorTest, FetchFailuresRequireShuffleRead) {
  FaultProfile p;
  p.fetch_failure_per_stage = 1.0;
  SparkConfig config;  // shuffle_io_max_retries = 3 -> no mitigation
  FaultInjector injector(p, 11);
  const auto map_stage = injector.sample_stage(config, false);
  EXPECT_EQ(map_stage.fetch_retries, 0);
  EXPECT_FALSE(map_stage.fetch_exhausted);
  const auto reduce_stage = injector.sample_stage(config, true);
  EXPECT_EQ(reduce_stage.fetch_retries, p.max_stage_attempts);
  EXPECT_TRUE(reduce_stage.fetch_exhausted);
}

TEST(FaultInjectorTest, HigherIoRetriesMitigateFetchFailures) {
  FaultProfile p;
  p.fetch_failure_per_stage = 0.8;
  SparkConfig low, high;
  low.shuffle_io_max_retries = 3;    // baseline
  high.shuffle_io_max_retries = 12;  // halves the round probability 9x
  FaultInjector a(p, 13), b(p, 13);
  int low_retries = 0, high_retries = 0;
  for (int i = 0; i < 200; ++i) {
    low_retries += a.sample_stage(low, true).fetch_retries;
    high_retries += b.sample_stage(high, true).fetch_retries;
  }
  EXPECT_GT(low_retries, 10 * std::max(1, high_retries));
}

TEST(FaultInjectorTest, SpeculationCapsStragglerSlowdown) {
  FaultProfile p;
  p.straggler_per_stage = 1.0;
  p.straggler_max_slowdown = 8.0;
  SparkConfig spec, plain;
  spec.speculation = true;
  spec.speculation_multiplier = 1.5;
  FaultInjector a(p, 17), b(p, 17);
  double spec_max = 1.0, plain_max = 1.0;
  for (int i = 0; i < 100; ++i) {
    spec_max = std::max(spec_max, a.sample_stage(spec, false).straggler_slowdown);
    plain_max =
        std::max(plain_max, b.sample_stage(plain, false).straggler_slowdown);
  }
  EXPECT_LE(spec_max, 1.5);
  EXPECT_GT(plain_max, 2.0);  // uncapped draws reach well past the multiplier
}

TEST(FaultInjectorTest, PreemptionsCapAtTwoAndEscalate) {
  FaultProfile p;
  p.preemption_per_stage = 1.0;  // every trial fires
  SparkConfig config;
  FaultInjector injector(p, 19);
  const auto f = injector.sample_stage(config, false);
  EXPECT_EQ(f.preemptions, 2);  // capped by the two-strikes rule
  EXPECT_TRUE(f.preempted);
  EXPECT_TRUE(f.any());
}

TEST(FaultInjectorTest, ModeratePreemptionRateLeavesSurvivors) {
  FaultProfile p;
  p.preemption_per_stage = 0.3;
  SparkConfig config;
  FaultInjector injector(p, 23);
  int survivable = 0, fatal = 0, clean = 0;
  for (int i = 0; i < 200; ++i) {
    const auto f = injector.sample_stage(config, false);
    if (f.preempted) {
      ++fatal;
      EXPECT_EQ(f.preemptions, 2);
    } else if (f.preemptions == 1) {
      ++survivable;  // one preemption reschedules; the stage survives
    } else {
      ++clean;
      EXPECT_EQ(f.preemptions, 0);
    }
  }
  EXPECT_GT(survivable, 0);
  EXPECT_GT(fatal, 0);
  EXPECT_GT(clean, 0);
}

TEST(FaultInjectorTest, ZeroPreemptionRateDrawsNothing) {
  // A preemption-free profile must not consume randomness: the
  // executor-loss stream is unchanged whether the knob exists or not.
  FaultProfile base;
  base.executor_loss_per_stage = 0.2;
  FaultProfile with_knob = base;
  with_knob.preemption_per_stage = 0.0;
  SparkConfig config;
  FaultInjector a(base, 31), b(with_knob, 31);
  for (int i = 0; i < 100; ++i) {
    const auto fa = a.sample_stage(config, false);
    const auto fb = b.sample_stage(config, false);
    EXPECT_EQ(fa.executor_losses, fb.executor_losses);
    EXPECT_EQ(fb.preemptions, 0);
    EXPECT_FALSE(fb.preempted);
  }
}

TEST(FaultInjectorTest, DeterministicPerSeed) {
  const auto p = FaultProfile::uniform(0.2, 4.0);
  SparkConfig config;
  FaultInjector a(p, 99), b(p, 99), c(p, 100);
  bool any_difference_across_seeds = false;
  for (int i = 0; i < 100; ++i) {
    const auto fa = a.sample_stage(config, i % 2 == 0);
    const auto fb = b.sample_stage(config, i % 2 == 0);
    const auto fc = c.sample_stage(config, i % 2 == 0);
    EXPECT_EQ(fa.executor_losses, fb.executor_losses);
    EXPECT_EQ(fa.fetch_retries, fb.fetch_retries);
    EXPECT_EQ(fa.straggler_slowdown, fb.straggler_slowdown);
    EXPECT_EQ(fa.executor_exhausted, fb.executor_exhausted);
    EXPECT_EQ(fa.fetch_exhausted, fb.fetch_exhausted);
    if (fa.executor_losses != fc.executor_losses ||
        fa.straggler_slowdown != fc.straggler_slowdown) {
      any_difference_across_seeds = true;
    }
  }
  EXPECT_TRUE(any_difference_across_seeds);
}

// ------------------------------------------------------------- engine ----

TEST(EngineFaultsTest, ZeroRateProfileIsByteIdenticalToDefault) {
  // The fault layer is strictly opt-in: an inactive profile must not
  // consume randomness, so even noisy runs match bit for bit.
  FaultProfile inactive;
  inactive.straggler_max_slowdown = 9.0;  // non-rate knobs are irrelevant
  inactive.max_stage_attempts = 1;
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const auto plain = run_with_profile(FaultProfile{}, seed, 0.04);
    const auto with_profile = run_with_profile(inactive, seed, 0.04);
    expect_identical(plain, with_profile);
    EXPECT_EQ(plain.metrics.executors_lost, 0);
    EXPECT_EQ(plain.metrics.fault_delay_s, 0.0);
  }
}

TEST(EngineFaultsTest, ActiveProfileIsDeterministicPerSeed) {
  const auto p = FaultProfile::uniform(0.15, 3.0);
  for (std::uint64_t seed : {3u, 8u, 21u}) {
    expect_identical(run_with_profile(p, seed, 0.04),
                     run_with_profile(p, seed, 0.04));
  }
}

TEST(EngineFaultsTest, DeterministicAcrossThreadCounts) {
  const auto p = FaultProfile::uniform(0.15, 3.0);
  constexpr std::size_t kRuns = 8;
  std::vector<SimResult> serial(kRuns), pooled(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    serial[i] = run_with_profile(p, 100 + i, 0.04);
  }
  ThreadPool pool(4);
  pool.parallel_for(kRuns, [&](std::size_t i) {
    pooled[i] = run_with_profile(p, 100 + i, 0.04);
  });
  for (std::size_t i = 0; i < kRuns; ++i) {
    expect_identical(serial[i], pooled[i]);
  }
}

TEST(EngineFaultsTest, StragglersOnlySlowTheRunDown) {
  FaultProfile p;
  p.straggler_per_stage = 1.0;
  p.straggler_max_slowdown = 3.0;
  for (std::uint64_t seed : {2u, 5u, 9u}) {
    const auto healthy = run_with_profile(FaultProfile{}, seed);
    const auto slowed = run_with_profile(p, seed);
    ASSERT_EQ(slowed.status, RunStatus::kOk);
    EXPECT_GT(slowed.seconds, healthy.seconds);
    EXPECT_GT(slowed.metrics.fault_delay_s, 0.0);
  }
}

TEST(EngineFaultsTest, HeavyLossRatesKillSomeRunsTransiently) {
  FaultProfile p;
  p.executor_loss_per_stage = 0.5;  // exhaustion chance ~6% per stage
  int lost = 0, ok = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto r = run_with_profile(p, seed);
    if (r.status == RunStatus::kExecutorLost) {
      ++lost;
      EXPECT_FALSE(r.failure_stage.empty());
      EXPECT_TRUE(is_transient(r.status));
    } else if (r.status == RunStatus::kOk) {
      ++ok;
      // Survivors still paid for re-queued tasks along the way.
      if (r.metrics.executors_lost > 0) {
        EXPECT_GT(r.metrics.task_retries, 0);
        EXPECT_GT(r.metrics.fault_delay_s, 0.0);
      }
    }
  }
  EXPECT_GT(lost, 0);
  EXPECT_GT(ok, 0);
}

TEST(EngineFaultsTest, SurvivablePreemptionsOnlySlowTheRunDown) {
  FaultProfile p;
  p.preemption_per_stage = 0.15;  // mostly single hits per stage
  int slowed = 0, preempted = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto healthy = run_with_profile(FaultProfile{}, seed);
    const auto r = run_with_profile(p, seed);
    if (r.status == RunStatus::kPreempted) {
      ++preempted;
      EXPECT_FALSE(r.failure_stage.empty());
      EXPECT_TRUE(is_transient(r.status));
      EXPECT_GE(r.metrics.preemptions, 2);
    } else if (r.metrics.preemptions > 0) {
      ASSERT_EQ(r.status, RunStatus::kOk);
      ++slowed;
      EXPECT_GT(r.seconds, healthy.seconds);
      EXPECT_GT(r.metrics.fault_delay_s, 0.0);
      EXPECT_GT(r.metrics.task_retries, 0);
    }
  }
  EXPECT_GT(slowed, 0);
  EXPECT_GT(preempted, 0);
}

TEST(EngineFaultsTest, PreemptionRunsAreDeterministicPerSeed) {
  FaultProfile p;
  p.preemption_per_stage = 0.25;
  for (std::uint64_t seed : {4u, 12u, 33u}) {
    const auto a = run_with_profile(p, seed, 0.04);
    const auto b = run_with_profile(p, seed, 0.04);
    expect_identical(a, b);
    EXPECT_EQ(a.metrics.preemptions, b.metrics.preemptions);
    EXPECT_EQ(a.kill_reason, b.kill_reason);
  }
}

// ---------------------------------------------------------- objective ----

SparkObjective make_faulty_objective(const FaultProfile& profile,
                                     int max_retries,
                                     std::uint64_t seed = 77) {
  SparkObjective objective(ClusterSpec{},
                           make_workload(WorkloadKind::kPageRank, 1),
                           space(), seed);
  objective.set_fault_profile(profile);
  RetryPolicy retry;
  retry.max_retries = max_retries;
  objective.set_retry_policy(retry);
  return objective;
}

std::vector<std::vector<double>> random_units(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> units(n);
  for (auto& u : units) {
    u.resize(space().size());
    for (auto& x : u) x = rng.uniform();
  }
  return units;
}

TEST(ObjectiveFaultsTest, RetryPolicyBackoffIsExponential) {
  RetryPolicy retry;
  EXPECT_DOUBLE_EQ(retry.backoff_s(0), 5.0);
  EXPECT_DOUBLE_EQ(retry.backoff_s(1), 10.0);
  EXPECT_DOUBLE_EQ(retry.backoff_s(2), 20.0);
}

TEST(ObjectiveFaultsTest, RetriesRecoverTransientFailures) {
  FaultProfile p;
  p.executor_loss_per_stage = 0.5;
  auto objective = make_faulty_objective(p, /*max_retries=*/3);
  std::size_t retried = 0, recovered = 0, exhausted = 0;
  for (const auto& unit : random_units(30, 123)) {
    const auto out = objective.evaluate(unit);
    EXPECT_GE(out.attempts, 1);
    EXPECT_LE(out.attempts, 4);
    if (out.attempts > 1) {
      ++retried;
      if (out.status == RunStatus::kOk) {
        ++recovered;
        // The session paid for the failed attempts and the backoff waits
        // on top of the final successful run.
        EXPECT_GT(out.cost_s, out.raw.seconds + 5.0);
      }
    }
    if (out.transient) {
      ++exhausted;
      EXPECT_EQ(out.attempts, 4);  // all retries consumed
      EXPECT_TRUE(is_transient(out.status));
    }
  }
  EXPECT_GT(retried, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GE(retried, exhausted);
}

TEST(ObjectiveFaultsTest, ExhaustedTransientsAreCensoredAtThreshold) {
  FaultProfile p;
  p.executor_loss_per_stage = 0.95;  // near-certain death, fail fast
  auto objective = make_faulty_objective(p, /*max_retries=*/0);
  bool saw_transient = false;
  for (const auto& unit : random_units(10, 321)) {
    const auto out = objective.evaluate(unit, /*stop_threshold_s=*/350.0);
    if (!out.transient) continue;
    saw_transient = true;
    EXPECT_EQ(out.attempts, 1);
    // Censored like a guard stop: the observation is the threshold, the
    // charge is what the attempt actually cost — never the failure
    // penalty deterministic failures earn (350 * 1.05).
    EXPECT_DOUBLE_EQ(out.value_s, 350.0);
    EXPECT_GT(out.cost_s, 0.0);
    EXPECT_FALSE(out.stopped_early);
  }
  EXPECT_TRUE(saw_transient);
}

TEST(ObjectiveFaultsTest, ResetCountersRestoresTheSeedStream) {
  const auto units = random_units(6, 555);
  auto objective = make_faulty_objective(FaultProfile::uniform(0.2), 2);
  std::vector<EvalOutcome> first;
  for (const auto& u : units) first.push_back(objective.evaluate(u));

  objective.reset_counters();
  EXPECT_EQ(objective.evaluations(), 0u);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto out = objective.evaluate(units[i]);
    EXPECT_EQ(out.value_s, first[i].value_s);
    EXPECT_EQ(out.cost_s, first[i].cost_s);
    EXPECT_EQ(out.status, first[i].status);
    EXPECT_EQ(out.attempts, first[i].attempts);
    EXPECT_EQ(out.transient, first[i].transient);
  }
}

TEST(ObjectiveFaultsTest, PreemptionsRetryAndCensorLikeOtherTransients) {
  FaultProfile p;
  p.preemption_per_stage = 0.6;  // fatal double-preemptions are common
  auto objective = make_faulty_objective(p, /*max_retries=*/2);
  std::size_t retried = 0, censored = 0;
  for (const auto& unit : random_units(30, 456)) {
    const auto out = objective.evaluate(unit, /*stop_threshold_s=*/400.0);
    if (out.attempts > 1) ++retried;
    if (out.transient) {
      ++censored;
      EXPECT_EQ(out.status, RunStatus::kPreempted);
      EXPECT_EQ(out.attempts, 3);  // all retries consumed
      EXPECT_DOUBLE_EQ(out.value_s, 400.0);  // censored at the threshold
      EXPECT_GT(out.cost_s, 0.0);
    }
  }
  EXPECT_GT(retried, 0u);
  EXPECT_GT(censored, 0u);
}

TEST(ObjectiveFaultsTest, InactiveProfileMatchesFaultFreeObjective) {
  const auto units = random_units(5, 888);
  SparkObjective plain(ClusterSpec{},
                       make_workload(WorkloadKind::kPageRank, 1), space(),
                       77);
  auto zeroed = make_faulty_objective(FaultProfile{}, /*max_retries=*/3);
  for (const auto& u : units) {
    const auto a = plain.evaluate(u);
    const auto b = zeroed.evaluate(u);
    EXPECT_EQ(a.value_s, b.value_s);
    EXPECT_EQ(a.cost_s, b.cost_s);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(b.attempts, 1);  // nothing transient to retry
  }
}

}  // namespace
}  // namespace robotune::sparksim
