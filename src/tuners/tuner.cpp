#include "tuners/tuner.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"

namespace robotune::tuners {

bool TuningResult::found_any() const noexcept {
  for (const auto& e : history) {
    if (e.ok()) return true;
  }
  return false;
}

double TuningResult::best_value_s() const {
  require(!history.empty(), "TuningResult: empty history");
  return history[best_index].value_s;
}

const std::vector<double>& TuningResult::best_unit() const {
  require(!history.empty(), "TuningResult: empty history");
  return history[best_index].unit;
}

std::vector<double> TuningResult::best_trajectory() const {
  std::vector<double> out;
  out.reserve(history.size());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : history) {
    if (e.ok()) best = std::min(best, e.value_s);
    out.push_back(best);
  }
  return out;
}

std::vector<double> TuningResult::sampled_times() const {
  std::vector<double> out;
  out.reserve(history.size());
  for (const auto& e : history) {
    if (e.status == sparksim::RunStatus::kOk ||
        e.status == sparksim::RunStatus::kTimeLimit) {
      out.push_back(e.value_s);
    }
  }
  return out;
}

std::size_t TuningResult::transient_failure_count() const {
  std::size_t n = 0;
  for (const auto& e : history) {
    if (e.transient) ++n;
  }
  return n;
}

std::size_t TuningResult::total_attempts() const {
  std::size_t n = 0;
  for (const auto& e : history) {
    n += static_cast<std::size_t>(std::max(1, e.attempts));
  }
  return n;
}

void append_evaluation(Evaluation& e, GuardPolicy& guard,
                       TuningResult& result) {
  // The canonical-order funnel every tuner's bookkeeping runs through —
  // the one place evaluation metrics are counted, so totals are
  // identical no matter which tuner, scheduler, or worker count
  // produced the evaluations (DESIGN.md §7 determinism contract).
  //
  // Quarantine non-finite values here, at the single funnel: a NaN/Inf
  // observation would otherwise poison every downstream model (GP, RF,
  // Gunther, BestConfig).  The evaluation is censored like a transient
  // run — its value says nothing about the configuration — so it is
  // charged to the session but excluded from model training, the guard
  // median, and incumbent tracking.
  if (!std::isfinite(e.value_s) || !std::isfinite(e.cost_s)) {
    obs::count("evals.quarantined");
    if (!std::isfinite(e.value_s)) {
      const double cap = guard.current();
      e.value_s = cap > 0.0 ? cap : 0.0;
    }
    if (!std::isfinite(e.cost_s)) e.cost_s = std::max(0.0, e.value_s);
    e.transient = true;
  }
  obs::count("evals.total");
  // Lifecycle sub-counters: killed/preempted evaluations are censored
  // (counted below) but observable in their own right.
  if (e.status == sparksim::RunStatus::kKilled) {
    obs::count("evals.killed");
  } else if (e.status == sparksim::RunStatus::kPreempted) {
    obs::count("evals.preempted");
  }
  if (e.transient) {
    obs::count("evals.censored");
  } else if (e.stopped_early) {
    obs::count("evals.guard_kills");
  } else if (e.ok()) {
    obs::count("evals.ok");
  } else {
    obs::count("evals.failed");
  }
  if (e.attempts > 1) {
    obs::count("evals.retries",
               static_cast<std::uint64_t>(e.attempts - 1));
  }
  obs::observe("evals.value_s", e.value_s);
  obs::observe("evals.cost_s", e.cost_s);
  guard.record(e);
  result.search_cost_s += e.cost_s;
  result.history.push_back(e);
  // Track the incumbent: only successful runs can be "best".
  const std::size_t idx = result.history.size() - 1;
  if (e.ok()) {
    if (!result.history[result.best_index].ok() ||
        e.value_s < result.history[result.best_index].value_s) {
      result.best_index = idx;
    }
  }
}

Evaluation to_evaluation(const std::vector<double>& unit,
                         const sparksim::EvalOutcome& outcome) {
  Evaluation e;
  e.unit = unit;
  e.value_s = outcome.value_s;
  e.cost_s = outcome.cost_s;
  e.status = outcome.status;
  e.stopped_early = outcome.stopped_early;
  e.attempts = outcome.attempts;
  e.transient = outcome.transient;
  e.kill_reason = outcome.kill_reason;
  return e;
}

std::vector<Evaluation> evaluate_batch_into(
    exec::EvalScheduler& scheduler, sparksim::SparkObjective& objective,
    const std::vector<std::vector<double>>& units, GuardPolicy& guard,
    TuningResult& result) {
  // Freeze the guard threshold for the whole round: every evaluation of
  // a batch sees the guard state from before the batch, which is what
  // keeps outcomes independent of completion order.
  const double threshold = guard.current();
  std::vector<exec::EvalRequest> requests;
  requests.reserve(units.size());
  for (const auto& unit : units) {
    requests.push_back({unit, threshold});
  }
  const auto outcomes = scheduler.run_batch(objective, requests,
                                            result.history.size());
  std::vector<Evaluation> evals;
  evals.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    evals.push_back(to_evaluation(units[i], outcomes[i]));
    append_evaluation(evals.back(), guard, result);
  }
  return evals;
}

std::vector<Evaluation> Tuner::evaluate_round(
    sparksim::SparkObjective& objective,
    const std::vector<std::vector<double>>& units, GuardPolicy& guard,
    TuningResult& result) {
  if (scheduler_ != nullptr) {
    return evaluate_batch_into(*scheduler_, objective, units, guard, result);
  }
  exec::EvalScheduler inline_scheduler;  // one worker, on this thread
  return evaluate_batch_into(inline_scheduler, objective, units, guard,
                             result);
}

}  // namespace robotune::tuners
