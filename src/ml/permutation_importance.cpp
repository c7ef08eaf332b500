#include "ml/permutation_importance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/statistics.h"
#include "common/thread_pool.h"

namespace robotune::ml {

std::vector<ImportanceResult> permutation_importance(
    const RandomForest& forest, const std::vector<FeatureGroup>& groups,
    const ImportanceOptions& options) {
  require(forest.trained(), "permutation_importance: forest not trained");
  require(options.repeats > 0, "permutation_importance: repeats must be > 0");
  const double baseline = forest.oob_r2();
  const std::size_t n = forest.training_data().num_rows();

  // Every (group, repeat) permutation comes from the one generator, in
  // group-major order; the permuted OOB R² are then independent reads of
  // the forest, so they run on the pool and fold per group in repeat order.
  const auto repeats = static_cast<std::size_t>(options.repeats);
  const std::size_t tasks = groups.size() * repeats;
  Rng rng(options.seed);
  std::vector<std::size_t> perms(tasks * n);
  for (std::size_t task = 0; task < tasks; ++task) {
    const auto perm = std::span(perms).subspan(task * n, n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = n; i-- > 1;) {
      const std::size_t j = rng.uniform_index(i + 1);
      std::swap(perm[i], perm[j]);
    }
  }
  std::vector<double> drops(tasks);
  ThreadPool::global().parallel_for(tasks, [&](std::size_t task) {
    const auto& group = groups[task / repeats];
    const auto perm = std::span<const std::size_t>(perms).subspan(task * n, n);
    drops[task] = baseline - forest.oob_r2_permuted(group.features, perm);
  });

  std::vector<ImportanceResult> results;
  results.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto group_drops =
        std::span<const double>(drops).subspan(g * repeats, repeats);
    ImportanceResult r;
    r.group = groups[g];
    r.mean_drop = stats::mean(group_drops);
    r.stddev_drop = stats::stddev(group_drops);
    results.push_back(std::move(r));
  }
  std::stable_sort(results.begin(), results.end(),
                   [](const ImportanceResult& a, const ImportanceResult& b) {
                     return a.mean_drop > b.mean_drop;
                   });
  return results;
}

std::vector<std::size_t> select_important(
    const std::vector<ImportanceResult>& results, double threshold) {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].mean_drop >= threshold) selected.push_back(i);
  }
  return selected;
}

}  // namespace robotune::ml
