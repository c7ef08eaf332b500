// ROBOTune: the top-level tuning framework (paper Figure 1).
//
// On a tuning request for (workload, dataset):
//  * the parameter-selection cache is consulted; a miss triggers the
//    Random-Forests selection pipeline on 100 generic LHS samples and the
//    result is cached for the workload;
//  * the configuration memoization buffer supplies up to 4 best recent
//    configurations when the workload was tuned before (on any dataset);
//  * the BO engine searches the selected subspace under the remaining
//    budget and the best configurations found are stored back into the
//    memoization buffer.
//
// ROBOTune implements the common Tuner interface so the benchmark
// harnesses can drive it side by side with BestConfig, Gunther and RS.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bo_engine.h"
#include "core/memoization.h"
#include "core/parameter_selection.h"
#include "tuners/tuner.h"

namespace robotune::core {

/// Selection groups the parameters by the Spark 2.4 joint groups
/// (sparksim::spark24_joint_parameter_groups).
struct RoboTuneOptions {
  BoOptions bo;
  SelectionOptions selection;
};

struct RoboTuneReport {
  tuners::TuningResult tuning;          ///< the BO session (init + search)
  std::vector<std::size_t> selected;    ///< tuned parameter indices
  bool selection_cache_hit = false;
  bool used_memoized_configs = false;
  /// One-time parameter-selection cost (excluded from search cost, §5.3).
  double selection_cost_s = 0.0;
  SelectionReport selection_report;     ///< empty on a cache hit
  BoResult bo;
};

class RoboTune : public tuners::Tuner {
 public:
  explicit RoboTune(RoboTuneOptions options = {})
      : options_(std::move(options)) {}

  std::string name() const override { return "ROBOTune"; }

  /// Tuner-interface entry point: keys the caches by the objective's
  /// workload name (dataset-independent, per §3.2).
  tuners::TuningResult tune(sparksim::SparkObjective& objective, int budget,
                            std::uint64_t seed) override;

  /// Full-featured entry point returning selection + memoization details.
  ///
  /// `session`, when given, makes the run restartable: a fresh session
  /// records its selection result and journals every evaluation through
  /// the log's flush hook; a session whose log already carries state (a
  /// loaded checkpoint) skips parameter selection and replays the journal
  /// so the continuation is identical to an uninterrupted run (the
  /// checkpoint's seed/budget/workload must match).
  ///
  /// `scheduler`, when given, runs the BO evaluation batches concurrently
  /// (see BoEngine::run); without one, the rounds run inline on a local
  /// one-worker scheduler with the same results.  Parameter selection
  /// runs its samples as one inline batch under its own eval indices
  /// (kSelectionEvalIndex), so neither depends on the other.  set_pacing's
  /// hook runs before every round.
  RoboTuneReport tune_report(sparksim::SparkObjective& objective, int budget,
                             std::uint64_t seed,
                             const BoObserver& observer = nullptr,
                             SessionLog* session = nullptr,
                             exec::EvalScheduler* scheduler = nullptr);

  /// tune_report as steps (core::Session): begin_report selects, journals
  /// the metadata and starts the engine; step runs one round
  /// (BoEngine::run_round); end_report fills the memoization buffer.
  /// `external` publishes the BO rounds to an ask/tell bridge instead of
  /// a `scheduler`; selection still probes the simulator objective.
  void begin_report(sparksim::SparkObjective& objective, int budget,
                    std::uint64_t seed, const BoObserver& observer = nullptr,
                    SessionLog* session = nullptr,
                    exec::EvalScheduler* scheduler = nullptr,
                    ExternalBridge* external = nullptr);
  Step step(bool stop) { return engine_->run_round(stop); }
  RoboTuneReport end_report();

  ParameterSelectionCache& selection_cache() { return selection_cache_; }
  ConfigMemoizationBuffer& memo_buffer() { return memo_buffer_; }
  const RoboTuneOptions& options() const { return options_; }

 private:
  RoboTuneOptions options_;
  ParameterSelectionCache selection_cache_;
  ConfigMemoizationBuffer memo_buffer_;
  // ---- begin_report .. end_report (allocated there) ---------------------
  std::unique_ptr<BoEngine> engine_;
  std::unique_ptr<RoboTuneReport> report_;
  std::string workload_key_;
};

}  // namespace robotune::core
