#include "sparksim/objective.h"

#include <algorithm>

#include "common/rng.h"
#include "obs/metrics.h"

namespace robotune::sparksim {

std::uint64_t derive_eval_seed(std::uint64_t session_seed,
                               std::uint64_t eval_index) noexcept {
  // Mix the index in with a golden-ratio multiply before the SplitMix64
  // finalizer; the extra next() whitens low-entropy (seed, index) pairs.
  SplitMix64 mix(session_seed ^
                 ((eval_index + 1) * 0x9e3779b97f4a7c15ULL));
  mix.next();
  return mix.next();
}

SparkObjective::SparkObjective(ClusterSpec cluster, WorkloadSpec workload,
                               ConfigSpace space, std::uint64_t seed,
                               double time_cap_s, double run_noise_sigma,
                               ObjectiveMetric metric)
    : cluster_(cluster),
      workload_(std::move(workload)),
      space_(std::move(space)),
      initial_seed_(seed),
      time_cap_s_(time_cap_s),
      run_noise_sigma_(run_noise_sigma),
      metric_(metric) {}

EvalOutcome SparkObjective::evaluate(std::span<const double> unit,
                                     double stop_threshold_s,
                                     const EvalLifecycle* lifecycle) {
  return evaluate_decoded(space_.decode(unit), stop_threshold_s,
                          /*apply_cap=*/true, lifecycle);
}

EvalOutcome SparkObjective::evaluate_decoded(const DecodedConfig& values,
                                             double stop_threshold_s,
                                             bool apply_cap,
                                             const EvalLifecycle* lifecycle) {
  const SparkConfig config = SparkConfig::from_decoded(space_, values);

  // Effective kill threshold: the tighter of the global cap and the
  // caller's guard.
  double kill_s = 0.0;
  if (apply_cap && time_cap_s_ > 0.0) kill_s = time_cap_s_;
  if (stop_threshold_s > 0.0) {
    kill_s = kill_s > 0.0 ? std::min(kill_s, stop_threshold_s)
                          : stop_threshold_s;
  }

  EngineOptions engine_options;
  engine_options.time_cap_s = kill_s;
  engine_options.run_noise_sigma = run_noise_sigma_;
  engine_options.faults = fault_profile_;
  engine_options.lifecycle = lifecycle;

  // Run, retrying only transient faults: a lost executor or a failed
  // fetch says nothing about the configuration, so bounded re-runs (with
  // backoff charged to the session) recover the observation.  Every
  // attempt draws a fresh run seed — a retried run sees different luck.
  Rng run_seeds(derive_eval_seed(initial_seed_, index_base_ + evaluations_));
  EvalOutcome out;
  double retry_cost_s = 0.0;
  for (int attempt = 0;; ++attempt) {
    out.raw = simulate(cluster_, workload_, config, run_seeds(),
                       engine_options);
    out.attempts = attempt + 1;
    // Logical fault/retry metrics: attempt outcomes are a pure function
    // of the evaluation's stream, so these totals are identical for any
    // scheduler worker count.
    obs::count("objective.attempts");
    if (out.raw.status == RunStatus::kExecutorLost) {
      obs::count("objective.faults.executor_lost");
    } else if (out.raw.status == RunStatus::kFetchFailure) {
      obs::count("objective.faults.fetch_failure");
    } else if (out.raw.status == RunStatus::kPreempted) {
      obs::count("objective.faults.preempted");
    }
    if (!is_transient(out.raw.status) || attempt >= retry_policy_.max_retries) {
      break;
    }
    obs::count("objective.retries");
    const double backoff = retry_policy_.backoff_s(attempt);
    obs::observe("objective.backoff_s", backoff);
    retry_cost_s += out.raw.seconds + backoff;
  }
  out.status = out.raw.status;

  // Failed runs are observed as "as bad as a killed run, plus a margin":
  // bad enough for surrogates to avoid the region without swamping the
  // response variance the parameter-selection forest has to explain.
  const double penalty = (kill_s > 0.0 ? kill_s : 600.0) * 1.05;
  // Metric transform for successful runs: kExecutionTime is the raw wall
  // clock; kCoreSeconds weights it by the cluster share the configuration
  // occupies.  The session still pays wall-clock time (cost_s).
  const double metric_scale = [&] {
    if (metric_ == ObjectiveMetric::kExecutionTime) return 1.0;
    const auto placement = place_executors(cluster_, config);
    const double granted =
        placement.infeasible
            ? 1.0
            : static_cast<double>(placement.total_executors *
                                  config.executor_cores);
    return granted / static_cast<double>(cluster_.total_cores());
  }();
  switch (out.raw.status) {
    case RunStatus::kOk:
      out.value_s = out.raw.seconds * metric_scale;
      out.cost_s = out.raw.seconds;
      break;
    case RunStatus::kTimeLimit:
      out.value_s = kill_s > 0.0 ? kill_s : out.raw.seconds;
      out.cost_s = out.value_s;
      out.stopped_early = true;
      break;
    case RunStatus::kOom:
    case RunStatus::kInfeasible:
      out.value_s = penalty;
      out.cost_s = out.raw.seconds;  // failures die quickly
      break;
    case RunStatus::kExecutorLost:
    case RunStatus::kFetchFailure:
    case RunStatus::kPreempted:
      // Exhausted transient retries: the flake, not the configuration,
      // killed the run.  Censor at the threshold (like a guard stop) so
      // surrogates are not poisoned by a penalty the configuration did
      // not earn; the session still pays what the attempts actually cost.
      out.value_s = kill_s > 0.0 ? kill_s : out.raw.seconds;
      out.cost_s = out.raw.seconds;
      out.transient = true;
      break;
    case RunStatus::kKilled:
      // Racing/deadline kill: a censored observation, like a transient
      // failure — its partial time says "at least this slow", nothing
      // more, so it must never enter the surrogates as a hard value.
      // The session is charged only the partial time actually simulated;
      // the rest of the threshold is the racer's budget refund.
      out.value_s = kill_s > 0.0 ? kill_s : out.raw.seconds;
      out.cost_s = out.raw.seconds;
      out.transient = true;
      out.kill_reason = out.raw.kill_reason;
      break;
  }
  out.cost_s += retry_cost_s;
  ++evaluations_;
  total_cost_s_ += out.cost_s;
  return out;
}

}  // namespace robotune::sparksim
