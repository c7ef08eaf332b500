// The black-box objective f(configuration) -> execution time that every
// tuner optimizes (paper Eq. 1), backed by the cluster simulator.
//
// Evaluation semantics follow §4/§5.1:
//  * every evaluation is capped at `time_cap_s` (the paper uses 480 s);
//  * the caller may pass an additional stop threshold (the guard against
//    bad configurations) — a run crossing it is killed and charged the
//    threshold, and its observed value is the threshold;
//  * failed configurations (OOM / unplaceable) are charged the short time
//    it took them to die and observed as a distinctly bad penalty value so
//    that surrogate models learn to avoid the region.
//
// Failure resilience (flaky shared clusters): when a FaultProfile is
// attached, runs can also die transiently (executor loss, fetch failure).
// A RetryPolicy re-runs only those transient failures, with exponential
// backoff charged to the session's wall clock.  A transient failure that
// survives every retry is *censored*, not penalized: it observes the kill
// threshold like a guard-stopped run, so flake penalties never poison the
// surrogate models' picture of the configuration space.
//
// Seeding: evaluation k of an objective draws its run seeds (one per
// attempt) from its own stream, derive_eval_seed(seed, k).  A direct
// evaluate() is evaluation number evaluations(); a scheduler runs index k
// on fork_for_eval(k).  Both give the same outcome, so a result depends
// on the seed and the index only.
#pragma once

#include <cstdint>
#include <span>

#include "sparksim/cluster.h"
#include "sparksim/engine.h"
#include "sparksim/param_space.h"
#include "sparksim/spark_config.h"
#include "sparksim/workload.h"

namespace robotune::sparksim {

/// Derives the seed of the run-seed stream of evaluation `eval_index` of
/// an objective constructed with `session_seed`.
std::uint64_t derive_eval_seed(std::uint64_t session_seed,
                               std::uint64_t eval_index) noexcept;

/// What the tuner minimizes (paper §5.1 "Objective": execution time; the
/// conclusion notes other metrics drop in by replacing the objective).
enum class ObjectiveMetric {
  kExecutionTime,  ///< wall-clock seconds of the run (paper default)
  /// Cluster-share-weighted time: seconds x (granted cores / cluster
  /// cores).  Approximates the job's core-hours bill; favors small-
  /// footprint configurations in multi-tenant clusters.
  kCoreSeconds
};

/// Bounded retries for transient failures.  The default (no retries)
/// keeps evaluation byte-identical to the retry-free pipeline.
struct RetryPolicy {
  /// Extra attempts after a transient failure (0 = fail fast).
  /// Deterministic failures (OOM, unplaceable) always fail fast.
  int max_retries = 0;
  /// Exponential backoff before retry k: base * multiplier^k seconds,
  /// charged to the evaluation's cost_s (the session waits it out).
  double backoff_base_s = 5.0;
  double backoff_multiplier = 2.0;

  double backoff_s(int retry_index) const noexcept {
    double b = backoff_base_s;
    for (int i = 0; i < retry_index; ++i) b *= backoff_multiplier;
    return b;
  }
};

struct EvalOutcome {
  RunStatus status = RunStatus::kOk;
  /// Observed objective value in seconds (capped / penalized as above).
  double value_s = 0.0;
  /// Wall-clock seconds the evaluation cost the tuning session, including
  /// every failed attempt and backoff wait.
  double cost_s = 0.0;
  /// True when the guard threshold killed the run.
  bool stopped_early = false;
  /// Simulator runs performed (1 + retries), one seed each from the
  /// evaluation's stream.
  int attempts = 1;
  /// True when the final status is a transient fault that exhausted its
  /// retries — the value is censored at the threshold, not penalized.
  /// Racing/deadline kills (kKilled) are also marked transient so the
  /// same censoring machinery keeps them out of the surrogate models.
  bool transient = false;
  /// Why the run was killed; kNone unless status == kKilled.
  KillReason kill_reason = KillReason::kNone;
  SimResult raw;  ///< last attempt's raw simulation result
};

class SparkObjective {
 public:
  SparkObjective(ClusterSpec cluster, WorkloadSpec workload,
                 ConfigSpace space, std::uint64_t seed,
                 double time_cap_s = 480.0, double run_noise_sigma = 0.04,
                 ObjectiveMetric metric = ObjectiveMetric::kExecutionTime);

  /// Evaluates a configuration given as a unit-cube vector over the full
  /// space.  `stop_threshold_s` <= 0 disables the per-evaluation guard.
  /// `lifecycle` (optional) attaches a progress watcher + cancellation
  /// token to every simulator attempt — see sparksim/lifecycle.h; null
  /// changes nothing.
  EvalOutcome evaluate(std::span<const double> unit,
                       double stop_threshold_s = 0.0,
                       const EvalLifecycle* lifecycle = nullptr);

  /// Evaluates a decoded configuration directly (used for the default-
  /// config comparison, §5.2, where no cap applies).
  EvalOutcome evaluate_decoded(const DecodedConfig& values,
                               double stop_threshold_s = 0.0,
                               bool apply_cap = true,
                               const EvalLifecycle* lifecycle = nullptr);

  /// Attaches transient-fault injection to every subsequent run.  The
  /// default all-zero profile keeps evaluation byte-identical to a
  /// fault-free objective.
  void set_fault_profile(const FaultProfile& profile) {
    fault_profile_ = profile;
  }
  const FaultProfile& fault_profile() const noexcept {
    return fault_profile_;
  }

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  const ConfigSpace& space() const noexcept { return space_; }
  const WorkloadSpec& workload() const noexcept { return workload_; }
  const ClusterSpec& cluster() const noexcept { return cluster_; }
  double time_cap_s() const noexcept { return time_cap_s_; }
  ObjectiveMetric metric() const noexcept { return metric_; }

  std::size_t evaluations() const noexcept { return evaluations_; }
  double total_cost_s() const noexcept { return total_cost_s_; }

  /// Rewinds the objective to its just-constructed state: with the
  /// counters zeroed, the next evaluation runs on stream index_base again,
  /// so a reset objective repeats the evaluations of a fresh one.
  void reset_counters() {
    evaluations_ = 0;
    total_cost_s_ = 0.0;
  }

  /// A copy for one scheduler-dispatched evaluation: its next evaluation
  /// runs on stream `eval_index`, and its counters start at zero.  So
  /// `fork_for_eval(k).evaluate(u)` equals evaluate(u) number k (from 0)
  /// of a fresh objective, whatever the worker count, completion order or
  /// position of the objective forked from; two forks share no writable
  /// state.
  SparkObjective fork_for_eval(std::uint64_t eval_index) const {
    SparkObjective fork(*this);
    fork.index_base_ = eval_index;
    fork.reset_counters();
    return fork;
  }

  /// Folds a completed fork's counters back into this objective.  The
  /// scheduler calls this in canonical (eval-index) order after a batch
  /// completes, so evaluations()/total_cost_s() are deterministic even
  /// though the forks ran concurrently.
  void merge_fork(const SparkObjective& fork) {
    evaluations_ += fork.evaluations_;
    total_cost_s_ += fork.total_cost_s_;
  }

 private:
  ClusterSpec cluster_;
  WorkloadSpec workload_;
  ConfigSpace space_;
  std::uint64_t initial_seed_;
  /// Evaluation k runs on the stream derive_eval_seed(initial_seed_, k),
  /// k = index_base_ + evaluations_; one seed per attempt.
  std::uint64_t index_base_ = 0;
  double time_cap_s_;
  double run_noise_sigma_;
  ObjectiveMetric metric_;
  FaultProfile fault_profile_;
  RetryPolicy retry_policy_;
  std::size_t evaluations_ = 0;
  double total_cost_s_ = 0.0;
};

}  // namespace robotune::sparksim
