#include "core/parameter_selection.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sampling/latin_hypercube.h"

namespace robotune::core {

std::vector<ml::FeatureGroup> build_feature_groups(
    const sparksim::ConfigSpace& space,
    const std::vector<std::vector<std::string>>& joint_names) {
  std::vector<ml::FeatureGroup> groups;
  std::vector<char> covered(space.size(), 0);
  for (const auto& names : joint_names) {
    ml::FeatureGroup g;
    for (const auto& name : names) {
      const auto idx = space.index_of(name);
      require(idx.has_value(),
              "build_feature_groups: unknown parameter " + name);
      require(!covered[*idx],
              "build_feature_groups: parameter in two groups: " + name);
      covered[*idx] = 1;
      g.features.push_back(*idx);
      g.name += (g.name.empty() ? "" : "+") + name;
    }
    groups.push_back(std::move(g));
  }
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (!covered[i]) {
      groups.push_back({space.spec(i).name, {i}});
    }
  }
  return groups;
}

SelectionReport select_parameters_from_samples(
    const sparksim::ConfigSpace& space,
    const std::vector<std::vector<double>>& units,
    const std::vector<double>& values,
    const std::vector<std::vector<std::string>>& joint_names,
    const SelectionOptions& options) {
  require(units.size() == values.size(),
          "select_parameters_from_samples: X/y size mismatch");
  require(units.size() >= 10,
          "select_parameters_from_samples: too few samples");

  ml::Dataset data(space.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    data.add_row(units[i], std::log(std::max(1e-6, values[i])));
  }

  ml::ForestOptions forest_options;
  forest_options.num_trees = options.forest_trees;
  forest_options.tree.max_features = space.size();
  ml::RandomForest forest(forest_options, options.seed);
  forest.fit(data);

  const auto groups = build_feature_groups(space, joint_names);
  ml::ImportanceOptions imp;
  imp.repeats = options.permutation_repeats;
  imp.seed = options.seed ^ 0xabcdef12345ULL;
  auto importances = ml::permutation_importance(forest, groups, imp);

  SelectionReport report;
  report.oob_r2 = forest.oob_r2();
  constexpr double kImportanceThreshold = 0.05;  // paper §3.3
  auto picked = ml::select_important(importances, kImportanceThreshold);
  // Robustness floor: importances are sorted descending, so extending with
  // the next ranked groups keeps the best-supported candidates.
  for (std::size_t gi = 0;
       picked.size() < options.min_groups && gi < importances.size(); ++gi) {
    if (std::find(picked.begin(), picked.end(), gi) == picked.end()) {
      picked.push_back(gi);
    }
  }
  for (const auto& pinned : options.always_selected_groups) {
    for (std::size_t gi = 0; gi < importances.size(); ++gi) {
      if (importances[gi].group.name == pinned &&
          std::find(picked.begin(), picked.end(), gi) == picked.end()) {
        picked.push_back(gi);
      }
    }
  }
  for (std::size_t gi : picked) {
    for (std::size_t f : importances[gi].group.features) {
      report.selected.push_back(f);
    }
  }
  std::sort(report.selected.begin(), report.selected.end());
  report.selected.erase(
      std::unique(report.selected.begin(), report.selected.end()),
      report.selected.end());
  report.importances = std::move(importances);
  return report;
}

SelectionReport select_parameters(
    sparksim::SparkObjective& objective,
    const std::vector<std::vector<std::string>>& joint_names,
    const SelectionOptions& options) {
  const auto& space = objective.space();
  Rng rng(options.seed);
  const auto design = sampling::latin_hypercube(
      options.generic_samples, space.size(), rng);

  // One batch on a local one-worker scheduler, under the indices
  // kSelectionEvalIndex + i, so the samples depend only on the
  // objective's seed.
  std::vector<exec::EvalRequest> requests;
  requests.reserve(design.size());
  for (const auto& unit : design) {
    requests.push_back({unit, options.static_threshold_s});
  }
  exec::EvalScheduler inline_scheduler;
  const auto outcomes =
      inline_scheduler.run_batch(objective, requests, kSelectionEvalIndex);
  std::vector<tuners::Evaluation> evals;
  evals.reserve(design.size());
  std::vector<double> values;
  values.reserve(design.size());
  double cost = 0.0;
  for (std::size_t i = 0; i < design.size(); ++i) {
    evals.push_back(tuners::to_evaluation(design[i], outcomes[i]));
    cost += evals.back().cost_s;
    values.push_back(evals.back().value_s);
  }

  SelectionReport report = select_parameters_from_samples(
      space, design, values, joint_names, options);
  report.sampling_cost_s = cost;
  report.evaluations = std::move(evals);
  return report;
}

}  // namespace robotune::core
