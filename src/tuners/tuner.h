// Common tuner interface and shared machinery: evaluation history,
// tuning results, and the guard thresholds that stop pathologically bad
// configurations (paper §4 "Guard against bad configurations" and §5.1,
// where Gunther/RS are augmented with a static threshold for fairness).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"

namespace robotune::tuners {

struct Evaluation {
  std::vector<double> unit;  ///< full-space unit vector evaluated
  double value_s = 0.0;      ///< observed objective (capped/penalized)
  double cost_s = 0.0;       ///< wall-clock charge to the session
  sparksim::RunStatus status = sparksim::RunStatus::kOk;
  bool stopped_early = false;
  /// Simulator attempts consumed (1 + transient retries).
  int attempts = 1;
  /// True when the run died of cluster flakiness after exhausting its
  /// retries: the value is censored at the guard threshold, and the
  /// observation says nothing about the configuration itself.  Racing/
  /// deadline kills (status kKilled) are transient too: their partial
  /// time is a lower bound, not a measurement.
  bool transient = false;
  /// Why the racer killed the run; kNone unless status == kKilled.
  sparksim::KillReason kill_reason = sparksim::KillReason::kNone;

  bool ok() const noexcept { return status == sparksim::RunStatus::kOk; }
};

struct TuningResult {
  std::string tuner;
  std::vector<Evaluation> history;
  std::size_t best_index = 0;
  /// Total time spent generating + evaluating configurations (§5.3).
  double search_cost_s = 0.0;

  bool found_any() const noexcept;
  double best_value_s() const;
  const std::vector<double>& best_unit() const;
  /// best-so-far value after each evaluation (the Fig. 6 curves).
  std::vector<double> best_trajectory() const;
  /// Execution times of all successfully evaluated configurations (the
  /// Fig. 5 distributions; early-stopped runs contribute their threshold).
  std::vector<double> sampled_times() const;
  /// Evaluations that died of transient faults despite retries.
  std::size_t transient_failure_count() const;
  /// Total simulator attempts across the session (>= history.size();
  /// the excess is retries charged to flaky-cluster recovery).
  std::size_t total_attempts() const;
};

/// The paper's static guard (§4): a run is stopped at 480 s.  Every
/// tuner and parameter selection start from it.
inline constexpr double kStaticThresholdS = 480.0;

/// Tracks the guard threshold: the tighter of a static cap and a multiple
/// of the running median of successful evaluations.
class GuardPolicy {
 public:
  GuardPolicy(double static_threshold_s, double median_multiple)
      : static_threshold_s_(static_threshold_s),
        median_multiple_(median_multiple) {}

  /// Threshold to kill a run at; 0 = no guard active yet.
  double current() const {
    double t = static_threshold_s_ > 0.0
                   ? static_threshold_s_
                   : 0.0;
    if (median_multiple_ > 0.0 && observed_.size() >= 5) {
      const double m =
          stats::median(observed_) * median_multiple_;
      t = t > 0.0 ? std::min(t, m) : m;
    }
    return t;
  }

  /// Feeds the running median.  Only clean successes count: failed runs
  /// (deterministic or transient) and early-stopped runs carry censored
  /// or penalized values that would skew the median.
  void record(const Evaluation& e) {
    if (e.ok() && !e.stopped_early) observed_.push_back(e.value_s);
  }

  /// Number of observations feeding the median (diagnostics/tests).
  std::size_t observations() const noexcept { return observed_.size(); }

 private:
  double static_threshold_s_;
  double median_multiple_;
  std::vector<double> observed_;
};

class Tuner {
 public:
  virtual ~Tuner() = default;
  virtual std::string name() const = 0;
  /// Runs a tuning session with a budget of `budget` evaluations.
  virtual TuningResult tune(sparksim::SparkObjective& objective, int budget,
                            std::uint64_t seed) = 0;

  /// Attaches a batch-evaluation scheduler: subsequent tune() calls
  /// dispatch whole rounds (GA generations, DDS sample sets, BO batches)
  /// through it.  Detached (nullptr, the default), the same rounds run
  /// inline on a local one-worker scheduler.  Evaluation i of a session
  /// runs on the objective's stream i either way, so results are
  /// bit-identical attached or detached and at any parallelism (see
  /// exec/eval_scheduler.h).
  void set_scheduler(exec::EvalScheduler* scheduler) noexcept {
    scheduler_ = scheduler;
  }
  exec::EvalScheduler* scheduler() const noexcept { return scheduler_; }

  /// Cooperative pacing for a tuner run to completion on one thread
  /// (core::Session::run).  `cancel` (nullable) is polled at round
  /// boundaries: when set, the tuner returns early with every completed
  /// evaluation kept in the result.  `yield` (nullable) is invoked at the
  /// same boundaries; it must not mutate tuner-visible state — with a
  /// null/no-op yield the session's results are unchanged.
  void set_pacing(const std::atomic<bool>* cancel,
                  std::function<void()> yield) {
    cancel_ = cancel;
    yield_ = std::move(yield);
  }

 protected:
  /// Round-boundary pacing point: runs the yield hook (if any), then
  /// reports whether the session was cancelled.
  bool paced_stop() const {
    if (yield_) yield_();
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// Evaluates one round through evaluate_batch_into, on the attached
  /// scheduler or, detached, on a local one-worker one.
  std::vector<Evaluation> evaluate_round(
      sparksim::SparkObjective& objective,
      const std::vector<std::vector<double>>& units, GuardPolicy& guard,
      TuningResult& result);

 private:
  exec::EvalScheduler* scheduler_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;
  std::function<void()> yield_;
};

/// Records an already-obtained evaluation (guard update, search cost,
/// incumbent tracking).  Batch evaluation and checkpoint resume both
/// append through this, so a resumed session rebuilds byte-identical
/// tuner state.
///
/// This is also the quarantine point for non-finite objective values: a
/// NaN/Inf value or cost is censored in place (classified like a
/// transient run — charged to the session but never trained on and never
/// the incumbent), which is why `e` is taken by mutable reference.
void append_evaluation(Evaluation& e, GuardPolicy& guard,
                       TuningResult& result);

/// Converts a scheduler outcome into the tuner-facing Evaluation record.
Evaluation to_evaluation(const std::vector<double>& unit,
                         const sparksim::EvalOutcome& outcome);

/// Evaluates `units` as one scheduler batch (guard threshold frozen at
/// submission, canonical eval indices starting at result.history.size())
/// and appends the outcomes — guard running-median updates included — in
/// eval-index order.  Returns the evaluations in unit order.
std::vector<Evaluation> evaluate_batch_into(
    exec::EvalScheduler& scheduler, sparksim::SparkObjective& objective,
    const std::vector<std::vector<double>>& units, GuardPolicy& guard,
    TuningResult& result);

}  // namespace robotune::tuners
