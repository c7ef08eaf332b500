// Parallel batch-evaluation scheduler: dispatches groups of configuration
// evaluations onto a thread pool with *deterministic* results.
//
// A production tuning service fronting a real cluster launches several
// trial runs concurrently (OnlineTune, Tuneful); the paper's Algorithm 1
// evaluates one configuration at a time.  This subsystem bridges the two:
// tuners hand the scheduler a whole round — a GA generation, a DDS sample
// set, a q-point BO batch — and get the outcomes back in canonical
// (submission) order.
//
// The determinism contract, which the tier-1 parallel_determinism suite
// enforces:
//  * every evaluation `i` of a session runs on a private fork of the
//    objective whose RNG stream (and therefore fault-injector stream) is
//    derived from (session_seed, eval_index) — see
//    sparksim::derive_eval_seed — so its outcome is a pure function of
//    the session seed and its index;
//  * outcomes are returned, and fork counters merged, in eval-index
//    order, so downstream bookkeeping (guard medians, incumbents, search
//    cost) never sees completion order;
//  * completion hooks fire in completion order (that is the point: the
//    session journal records what actually finished before a crash), but
//    each completion carries its canonical index so resume can replay in
//    order.
// Consequence: results are bit-identical for any `parallelism`, 1
// included.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sparksim/objective.h"

namespace robotune::exec {

/// Early-stop policy the scheduler races in-flight evaluations under.
enum class RacingMode {
  kOff,      ///< no racing: every run goes to completion (or guard cap)
  kMedian,   ///< kill when partial time projects past the guard threshold
  kHalving   ///< successive-halving rungs at 25/50/75% progress
};

/// Stable, unique label per mode ("off", "median", "halving").
std::string to_string(RacingMode mode);
/// Inverse of to_string; returns false for unrecognized labels.
bool racing_mode_from_string(const std::string& label, RacingMode& out);

/// Racing / deadline policy of a scheduler.  Everything is keyed on
/// *simulated* time and the frozen per-batch guard threshold — the rules
/// are pure functions of one evaluation's own progress, with no shared
/// racer state, so kills are bit-identical at any worker count and
/// resume never has to reconstruct racer internals.
struct RacingOptions {
  RacingMode mode = RacingMode::kOff;
  /// Per-evaluation simulated-time deadline, checked at stage
  /// boundaries, applied to each attempt.  <= 0 disables the deadline.
  double deadline_s = 0.0;

  bool active() const noexcept {
    return mode != RacingMode::kOff || deadline_s > 0.0;
  }
};

/// Stable signature of a racing configuration, journaled with the
/// session ("off" when inactive) so resume can refuse a cross-mode
/// restart — a journal produced under one racing policy replays
/// different evaluations than another policy would have produced.
std::string racing_signature(const RacingOptions& racing);

/// One evaluation of a batch: the full-space unit vector and the guard
/// threshold frozen at submission time.  Freezing per batch (instead of
/// per evaluation) is what makes a round's outcomes independent of
/// completion order: every evaluation of the round sees the guard state
/// from before the round.
struct EvalRequest {
  std::vector<double> unit;
  double stop_threshold_s = 0.0;
};

/// A finished evaluation as reported to the completion hook.
struct CompletedEval {
  std::uint64_t eval_index = 0;  ///< canonical index within the session
  std::size_t batch_slot = 0;    ///< position within the submitted batch
  const EvalRequest* request = nullptr;
  const sparksim::EvalOutcome* outcome = nullptr;
};

struct SchedulerOptions {
  /// Concurrent evaluations per batch; 0 = hardware_concurrency.  The
  /// value changes wall-clock time only, never results.
  int parallelism = 1;
  /// Pool to run on; nullptr = a private pool sized to `parallelism`
  /// (created lazily, only when parallelism > 1).
  ThreadPool* pool = nullptr;
  /// Wall-clock seconds slept per simulated cost second of each
  /// evaluation (0 = off).  Emulates real cluster-run latency for
  /// scaling studies (bench/fig_batch_scaling): the sleep happens on the
  /// worker, so it parallelizes exactly like a real trial run would,
  /// without perturbing any result.  Killed evaluations sleep only their
  /// partial cost — the racer's refund is real wall-clock time.
  double emulate_latency_per_cost_s = 0.0;
  /// Deadline + racing early-stop policy (default: off — byte-identical
  /// to a scheduler without the racing layer).
  RacingOptions racing;
};

class EvalScheduler {
 public:
  explicit EvalScheduler(SchedulerOptions options = {});

  EvalScheduler(const EvalScheduler&) = delete;
  EvalScheduler& operator=(const EvalScheduler&) = delete;

  /// Called once per finished evaluation, in completion order, serialized
  /// under an internal mutex (the hook itself need not be thread-safe).
  /// The pointers are valid only for the duration of the call.
  using CompletionHook = std::function<void(const CompletedEval&)>;

  /// Evaluates `requests` as one batch.  Evaluation i of the batch gets
  /// session-wide index `first_eval_index + i` and runs on
  /// `objective.fork_for_eval(index)`; outcomes come back in request
  /// order and fork counters merge into `objective` in the same order.
  /// An exception thrown by an evaluation propagates (lowest batch slot
  /// wins) after the whole batch has drained, so `objective` is never
  /// left with workers still writing to forks.
  std::vector<sparksim::EvalOutcome> run_batch(
      sparksim::SparkObjective& objective,
      const std::vector<EvalRequest>& requests,
      std::uint64_t first_eval_index,
      const CompletionHook& on_complete = nullptr);

  /// Effective worker count (>= 1).
  int parallelism() const noexcept { return parallelism_; }

  /// The racing policy this scheduler runs batches under.
  const RacingOptions& racing() const noexcept { return options_.racing; }

 private:
  ThreadPool& pool();

  SchedulerOptions options_;
  int parallelism_ = 1;
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace robotune::exec
