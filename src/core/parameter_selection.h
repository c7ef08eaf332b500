// Parameter Selection (paper §3.3): dimension reduction of the 44-dim
// configuration space via a Random-Forests model and Mean-Decrease-in-
// Accuracy permutation importance on grouped (collinear/joint) parameters.
//
// For an unseen workload, `generic_samples` LHS configurations (paper:
// 100) are evaluated, an RF regressor is fit on (unit configuration →
// observed time), and every joint parameter group whose permutation drops
// the OOB R² by at least 0.05 (the paper's threshold) is selected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ml/permutation_importance.h"
#include "ml/random_forest.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {

/// The forest is fit on log(time) over splits that examine all 44
/// features: execution times are positive and right-skewed
/// (timeout/failure tail), the multiplicative effects of most Spark
/// parameters are additive in log space, and with ~100 samples in 44
/// dimensions the classic p/3 split subsampling hides the weak signal.
struct SelectionOptions {
  std::size_t generic_samples = 100;
  int permutation_repeats = 10;
  std::size_t forest_trees = 400;
  /// Static guard for the sample-collection executions (§4: a static
  /// threshold protects the initial samples).
  double static_threshold_s = tuners::kStaticThresholdS;
  /// Robustness floor: always keep at least this many top-ranked groups
  /// even when fewer clear the importance threshold.  At 100 samples the
  /// MDA estimates of mid-tier groups are noisy enough that an unlucky
  /// draw can leave the BO stage with a uselessly small subspace; the
  /// threshold then only *prunes beyond* the floor.  Set 0 to disable.
  std::size_t min_groups = 4;
  /// Joint groups (by group name) included in the selection regardless of
  /// their measured importance.  The paper reports that the domain-
  /// knowledge "executor size" group (spark.executor.cores +
  /// spark.executor.memory) is "common in the selected set of high-impact
  /// parameters of all the tested workloads" (§5.6); pinning it makes the
  /// selection robust to an unlucky 100-sample draw.  Clear to disable.
  std::vector<std::string> always_selected_groups = {
      "spark.executor.cores+spark.executor.memory.mb"};
  std::uint64_t seed = 101;
};

struct SelectionReport {
  /// Indices (into the config space) of the selected parameters, expanded
  /// from the selected joint groups, ascending.
  std::vector<std::size_t> selected;
  /// Ranked group importances (descending mean OOB-R² drop).
  std::vector<ml::ImportanceResult> importances;
  /// Wall-clock cost of evaluating the generic samples (one-time cost
  /// discussed in §5.5; excluded from the §5.3 search cost).
  double sampling_cost_s = 0.0;
  double oob_r2 = 0.0;
  /// The evaluations performed (reusable as extra training data).
  std::vector<tuners::Evaluation> evaluations;
};

/// Builds the joint-parameter groups for a config space from name-based
/// group definitions; parameters not mentioned become singleton groups.
std::vector<ml::FeatureGroup> build_feature_groups(
    const sparksim::ConfigSpace& space,
    const std::vector<std::vector<std::string>>& joint_names);

/// First eval index of the selection samples: sample i runs on the
/// objective's stream kSelectionEvalIndex + i.  The tag bit keeps them
/// apart from every tuner's indices (0, 1, ... up to the budget), so
/// selection leaves the BO streams untouched.
inline constexpr std::uint64_t kSelectionEvalIndex = std::uint64_t{1} << 63;

/// Runs the full selection pipeline against the objective.  The result
/// depends on the objective's seed and `options`, not on how many
/// evaluations the objective ran before.
SelectionReport select_parameters(
    sparksim::SparkObjective& objective,
    const std::vector<std::vector<std::string>>& joint_names,
    const SelectionOptions& options = {});

/// Selection from an already-collected sample set (used by the Fig. 7
/// recall study, which re-trains on shrinking subsets).
SelectionReport select_parameters_from_samples(
    const sparksim::ConfigSpace& space,
    const std::vector<std::vector<double>>& units,
    const std::vector<double>& values,
    const std::vector<std::vector<std::string>>& joint_names,
    const SelectionOptions& options = {});

}  // namespace robotune::core
