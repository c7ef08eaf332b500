#include "exec/eval_scheduler.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace robotune::exec {

std::string to_string(RacingMode mode) {
  // Exhaustive over the enum: a new mode without a label is a -Wswitch
  // warning, which the -Werror CI build turns into a failure.
  switch (mode) {
    case RacingMode::kOff:
      return "off";
    case RacingMode::kMedian:
      return "median";
    case RacingMode::kHalving:
      return "halving";
  }
  return "unknown";
}

bool racing_mode_from_string(const std::string& label, RacingMode& out) {
  for (const RacingMode mode :
       {RacingMode::kOff, RacingMode::kMedian, RacingMode::kHalving}) {
    if (label == to_string(mode)) {
      out = mode;
      return true;
    }
  }
  return false;
}

std::string racing_signature(const RacingOptions& racing) {
  if (!racing.active()) return "off";
  std::string sig = to_string(racing.mode);
  if (racing.deadline_s > 0.0) {
    // One whitespace-free token: the journal stores the signature as a
    // single field of the `racing` record.
    std::ostringstream os;
    os.precision(17);
    os << ",deadline=" << racing.deadline_s;
    sig += os.str();
  }
  return sig;
}

EvalScheduler::EvalScheduler(SchedulerOptions options) : options_(options) {
  parallelism_ =
      options_.parallelism > 0
          ? options_.parallelism
          : static_cast<int>(std::max<unsigned>(
                1, std::thread::hardware_concurrency()));
  if (options_.pool != nullptr) {
    // An external pool caps concurrency at its own worker count.
    parallelism_ =
        std::min(parallelism_, static_cast<int>(options_.pool->size()));
    parallelism_ = std::max(parallelism_, 1);
  }
}

ThreadPool& EvalScheduler::pool() {
  if (options_.pool != nullptr) return *options_.pool;
  if (!owned_pool_) {
    owned_pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(parallelism_));
  }
  return *owned_pool_;
}

std::vector<sparksim::EvalOutcome> EvalScheduler::run_batch(
    sparksim::SparkObjective& objective,
    const std::vector<EvalRequest>& requests,
    std::uint64_t first_eval_index, const CompletionHook& on_complete) {
  const std::size_t n = requests.size();
  std::vector<sparksim::EvalOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // Batch shape is decided by the tuner, never by the worker count, so
  // these are logical metrics; the effective parallelism is runtime.
  obs::count("exec.batches");
  obs::count("exec.evals_dispatched", n);
  obs::set_gauge("runtime.exec.parallelism",
                 static_cast<double>(parallelism_));
  obs::Span batch_span("eval_batch", "exec");
  batch_span.arg("size", static_cast<std::uint64_t>(n));
  batch_span.arg("first_eval_index", first_eval_index);

  // Every evaluation runs on its own fork: private index-derived RNG
  // stream, private counters.  The parent objective is read-only until
  // the canonical-order merge below.
  std::vector<sparksim::SparkObjective> forks;
  forks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    forks.push_back(objective.fork_for_eval(first_eval_index + i));
  }

  // Racing / deadline watchdog.  One cancellation token per evaluation,
  // allocated up front so workers never observe a reallocation.  The
  // watcher runs synchronously at the run's own stage boundaries and its
  // rules are pure functions of (frozen batch threshold, the run's own
  // simulated progress) — no shared racer state, no wall clock — so a
  // kill decision is identical at any worker count and needs no racer
  // state journaled for resume.
  const RacingOptions& racing = options_.racing;
  const bool racing_active = racing.active();
  std::vector<sparksim::CancellationToken> tokens(racing_active ? n : 0);

  const auto emulate_latency = [this](const sparksim::EvalOutcome& out) {
    if (options_.emulate_latency_per_cost_s <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        out.cost_s * options_.emulate_latency_per_cost_s));
  };

  // Per-evaluation span with eval-index attribution; on the parallel
  // path it runs on the worker thread, so the exported timeline shows
  // which worker ran which evaluation.
  const auto traced_evaluate = [&](std::size_t i) {
    obs::Span span("eval", "exec");
    span.arg("eval_index", first_eval_index + i);
    span.arg("batch_slot", static_cast<std::uint64_t>(i));
    sparksim::EvalLifecycle lifecycle;
    if (racing_active) {
      sparksim::CancellationToken* token = &tokens[i];
      const double threshold = requests[i].stop_threshold_s;
      lifecycle.token = token;
      lifecycle.chaos_index = first_eval_index + i;
      lifecycle.progress = [&racing, threshold,
                            token](const sparksim::StageProgress& p) {
        // Per-attempt simulated-time deadline.
        if (racing.deadline_s > 0.0 &&
            p.sim_elapsed_s > racing.deadline_s) {
          token->request(sparksim::KillReason::kDeadline);
        }
        if (threshold <= 0.0 || p.fraction <= 0.0) return;
        if (racing.mode == RacingMode::kMedian) {
          // Projected dominance: with fraction f of stages done in t
          // simulated seconds, the projected total t/f already dominates
          // the frozen guard threshold once t > threshold * f * slack.
          // The progress floor keeps the projection from firing on the
          // noisy first stages.
          constexpr double kMinProgress = 0.2;
          constexpr double kDominanceSlack = 1.25;
          if (p.fraction >= kMinProgress &&
              p.sim_elapsed_s > threshold * p.fraction * kDominanceSlack) {
            token->request(sparksim::KillReason::kMedianRule);
          }
        } else if (racing.mode == RacingMode::kHalving) {
          // Successive halving: at each rung (25/50/75% of stages) the
          // run must have spent no more than its pro-rated share of the
          // threshold, with a small margin.
          constexpr double kRungMargin = 1.1;
          double rung = 0.0;
          for (const double r : {0.25, 0.5, 0.75}) {
            if (p.fraction >= r) rung = r;
          }
          if (rung > 0.0 &&
              p.sim_elapsed_s > threshold * rung * kRungMargin) {
            token->request(sparksim::KillReason::kHalvingRung);
          }
        }
      };
    }
    outcomes[i] =
        forks[i].evaluate(requests[i].unit, requests[i].stop_threshold_s,
                          racing_active ? &lifecycle : nullptr);
    if (outcomes[i].status == sparksim::RunStatus::kKilled) {
      obs::count("exec.racing.kills");
      obs::count(std::string("exec.racing.kills.") +
                 sparksim::to_string(outcomes[i].kill_reason));
      // The refund: the session is charged the partial time actually
      // simulated instead of the threshold a guard stop would have paid.
      const double refund =
          requests[i].stop_threshold_s - outcomes[i].cost_s;
      if (refund > 0.0) obs::observe("exec.racing.refund_s", refund);
    }
    span.arg("status", sparksim::to_string(outcomes[i].status));
    span.arg("value_s", outcomes[i].value_s);
    span.arg("attempts", outcomes[i].attempts);
  };

  if (parallelism_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      traced_evaluate(i);
      emulate_latency(outcomes[i]);
      if (on_complete) {
        CompletedEval done;
        done.eval_index = first_eval_index + i;
        done.batch_slot = i;
        done.request = &requests[i];
        done.outcome = &outcomes[i];
        on_complete(done);
      }
    }
  } else {
    std::mutex hook_mutex;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.emplace_back([&, i]() {
        traced_evaluate(i);
        emulate_latency(outcomes[i]);
        if (on_complete) {
          std::scoped_lock lock(hook_mutex);
          CompletedEval done;
          done.eval_index = first_eval_index + i;
          done.batch_slot = i;
          done.request = &requests[i];
          done.outcome = &outcomes[i];
          on_complete(done);
        }
      });
    }
    auto futures = pool().submit_batch(std::move(tasks));
    ThreadPool::wait_all(futures);
  }

  // Canonical-order counter merge: evaluations()/total_cost_s() advance
  // as if the batch had run sequentially.
  for (const auto& fork : forks) objective.merge_fork(fork);
  return outcomes;
}

}  // namespace robotune::exec
