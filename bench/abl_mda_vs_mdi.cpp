// Ablation: Mean-Decrease-in-Accuracy (permutation) importance vs
// Mean-Decrease-in-Impurity importance for parameter selection.
//
// Paper §3.3 (citing Strobl et al. 2007): MDI is biased when predictors
// differ in scale or number of categories — exactly the Spark space,
// which mixes booleans, small categoricals, and wide numeric ranges.
// We demonstrate the bias on a synthetic ground truth and then show both
// rankings on the real PR-D1 response.
#include <cstdio>

#include "bench/harness.h"
#include "core/parameter_selection.h"
#include "ml/permutation_importance.h"
#include "sampling/latin_hypercube.h"

using namespace robotune;

int main() {
  std::printf("=== Ablation: MDA (permutation) vs MDI importance ===\n");

  // --- Synthetic bias demo -------------------------------------------------
  // y depends ONLY on a binary feature; continuous distractors are pure
  // noise.  MDI systematically inflates the high-cardinality distractors.
  {
    Rng rng(3);
    ml::Dataset d(6);
    for (int i = 0; i < 300; ++i) {
      std::vector<double> x(6);
      for (auto& v : x) v = rng.uniform();
      const double binary = x[0] > 0.5 ? 1.0 : 0.0;
      d.add_row(x, 10.0 * binary + rng.normal(0, 1.0));
    }
    ml::ForestOptions fo;
    fo.num_trees = 200;
    ml::RandomForest rf(fo, 7);
    rf.fit(d);
    const auto mdi = rf.mdi_importance();
    std::vector<ml::FeatureGroup> groups;
    for (std::size_t f = 0; f < 6; ++f) {
      std::string name = "x";
      name += std::to_string(f);
      groups.push_back({name, {f}});
    }
    const auto mda = ml::permutation_importance(rf, groups, {.repeats = 5});
    std::printf("\nsynthetic (x0 binary signal, x1..x5 continuous noise):\n");
    std::printf("%-6s %10s %10s\n", "feat", "MDI", "MDA-drop");
    double mda_by_feature[6] = {};
    for (const auto& r : mda) {
      mda_by_feature[r.group.features[0]] = r.mean_drop;
    }
    double noise_mdi = 0.0;
    for (std::size_t f = 0; f < 6; ++f) {
      std::printf("x%-5zu %10.3f %10.3f\n", f, mdi[f], mda_by_feature[f]);
      if (f > 0) noise_mdi += mdi[f];
    }
    std::printf("MDI mass assigned to pure-noise features: %.2f "
                "(MDA gives them ~0)\n",
                noise_mdi);
  }

  // --- Real configuration space -------------------------------------------
  {
    auto objective =
        bench::make_objective(sparksim::WorkloadKind::kPageRank, 1, 21);
    const auto space = sparksim::spark24_config_space();
    Rng rng(9);
    const auto design = sampling::latin_hypercube(150, space.size(), rng);
    ml::Dataset data(space.size());
    std::vector<std::vector<double>> units;
    std::vector<double> values;
    for (const auto& unit : design) {
      const double y = objective.evaluate(unit, 480.0).value_s;
      data.add_row(unit, std::log(y));
      units.push_back(unit);
      values.push_back(y);
    }
    ml::ForestOptions fo;
    fo.num_trees = 300;
    fo.tree.max_features = space.size();
    ml::RandomForest rf(fo, 7);
    rf.fit(data);
    const auto mdi = rf.mdi_importance();
    std::printf("\nPR-D1, top-8 parameters by MDI vs by MDA:\n");
    std::vector<std::size_t> order(space.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return mdi[a] > mdi[b];
    });
    std::printf("  MDI:");
    for (int i = 0; i < 8; ++i) {
      std::printf(" %s", space.spec(order[static_cast<std::size_t>(i)])
                             .name.c_str());
    }
    std::printf("\n");
    core::SelectionOptions options;
    options.permutation_repeats = 5;
    const auto report = core::select_parameters_from_samples(
        space, units, values, sparksim::spark24_joint_parameter_groups(),
        options);
    std::printf("  MDA:");
    for (std::size_t i = 0; i < 8 && i < report.importances.size(); ++i) {
      std::printf(" [%s]", report.importances[i].group.name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
