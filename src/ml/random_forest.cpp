#include "ml/random_forest.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/statistics.h"
#include "obs/metrics.h"

namespace robotune::ml {

RandomForest RandomForest::extra_trees(std::size_t num_trees,
                                       std::uint64_t seed) {
  ForestOptions options;
  options.num_trees = num_trees;
  options.bootstrap = false;
  options.tree.split_mode = SplitMode::kRandomThreshold;
  return RandomForest(options, seed);
}

void RandomForest::fit(const Dataset& data) {
  require(data.num_rows() >= 2, "RandomForest::fit: need at least 2 rows");
  const std::size_t n = data.num_rows();
  const std::size_t t = options_.num_trees;
  training_data_ = std::make_shared<Dataset>(data);
  oob_paths_ = std::make_shared<LazyOobPaths>();
  trees_.assign(t, DecisionTree(options_.tree));
  in_bag_.assign(t, std::vector<char>(n, 0));

  // Pre-derive one RNG per tree so training is deterministic regardless of
  // thread scheduling (each task owns its generator; no shared state).
  Rng master(seed_);
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(t);
  for (std::size_t i = 0; i < t; ++i) tree_rngs.push_back(master.split());
  // Best splits scan presorted rows: rank every feature once for the
  // forest; the trees only read it.
  std::optional<FeatureRanks> ranks;
  if (options_.tree.split_mode == SplitMode::kBestSplit) {
    ranks.emplace(*training_data_);
  }

  auto train_one = [&](std::size_t ti) {
    Rng& rng = tree_rngs[ti];
    std::vector<std::size_t> rows;
    rows.reserve(n);
    if (options_.bootstrap) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = rng.uniform_index(n);
        rows.push_back(r);
        in_bag_[ti][r] = 1;
      }
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
      std::fill(in_bag_[ti].begin(), in_bag_[ti].end(), 1);
    }
    trees_[ti].fit(*training_data_, ranks ? &*ranks : nullptr, rows, rng);
  };

  if (options_.parallel && ThreadPool::global().size() > 1) {
    ThreadPool::global().parallel_for(t, train_one);
  } else {
    for (std::size_t ti = 0; ti < t; ++ti) train_one(ti);
  }
}

double RandomForest::predict(std::span<const double> x) const {
  require(trained(), "RandomForest::predict: not trained");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predict(x);
  return sum / static_cast<double>(trees_.size());
}

std::optional<double> RandomForest::oob_prediction(std::size_t i) const {
  require(trained(), "RandomForest::oob_prediction: not trained");
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    if (!in_bag_[t][i]) {
      sum += trees_[t].predict(training_data_->row(i));
      ++count;
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

double RandomForest::oob_r2() const {
  require(trained(), "RandomForest::oob_r2: not trained");
  std::vector<double> y_true, y_pred;
  for (std::size_t i = 0; i < training_data_->num_rows(); ++i) {
    if (auto p = oob_prediction(i)) {
      y_true.push_back(training_data_->target(i));
      y_pred.push_back(*p);
    }
  }
  return stats::r2_score(y_true, y_pred);
}

const RandomForest::OobPaths& RandomForest::oob_paths() const {
  std::call_once(oob_paths_->once, [this] {
    OobPaths& cache = oob_paths_->paths;
    const std::size_t n = training_data_->num_rows();
    cache.words = (training_data_->num_features() + 63) / 64;
    cache.row_begin.assign(1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t t = 0; t < trees_.size(); ++t) {
        if (in_bag_[t][i]) continue;
        cache.paths.resize(cache.paths.size() + cache.words, 0);
        cache.tree.push_back(static_cast<std::uint32_t>(t));
        cache.leaf.push_back(trees_[t].predict_marking_path(
            training_data_->row(i),
            std::span(cache.paths).last(cache.words)));
      }
      cache.row_begin.push_back(cache.tree.size());
    }
  });
  return oob_paths_->paths;
}

double RandomForest::oob_r2_permuted(
    std::span<const std::size_t> features,
    std::span<const std::size_t> perm) const {
  require(trained(), "RandomForest::oob_r2_permuted: not trained");
  const std::size_t n = training_data_->num_rows();
  const std::size_t p = training_data_->num_features();
  require(perm.size() == n, "oob_r2_permuted: permutation size mismatch");
  for (std::size_t f : features) {
    require(f < p, "oob_r2_permuted: feature index out of range");
  }
  for (std::size_t r : perm) {
    require(r < n, "oob_r2_permuted: permutation row out of range");
  }
  const OobPaths& cache = oob_paths();
  std::vector<std::uint64_t> group(cache.words, 0);
  for (std::size_t f : features) {
    group[f / 64] |= std::uint64_t{1} << (f % 64);
  }
  const auto touches = [&](std::size_t entry) {
    const std::uint64_t* path = cache.paths.data() + entry * cache.words;
    for (std::size_t w = 0; w < cache.words; ++w) {
      if ((path[w] & group[w]) != 0) return true;
    }
    return false;
  };

  std::vector<double> x(p);
  std::vector<double> y_true, y_pred;
  y_true.reserve(n);
  y_pred.reserve(n);
  std::uint64_t walks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = cache.row_begin[i];
    const std::size_t end = cache.row_begin[i + 1];
    if (begin == end) continue;  // in-bag for every tree: no OOB estimate
    bool permuted_row = false;
    double sum = 0.0;
    for (std::size_t e = begin; e < end; ++e) {
      if (!touches(e)) {
        sum += cache.leaf[e];
        continue;
      }
      if (!permuted_row) {
        const auto row = training_data_->row(i);
        std::copy(row.begin(), row.end(), x.begin());
        for (std::size_t f : features) {
          x[f] = training_data_->feature(perm[i], f);
        }
        permuted_row = true;
      }
      sum += trees_[cache.tree[e]].predict(x);
      ++walks;
    }
    y_true.push_back(training_data_->target(i));
    y_pred.push_back(sum / static_cast<double>(end - begin));
  }
  obs::count("ml.importance.tree_walks", walks);
  return stats::r2_score(y_true, y_pred);
}

std::vector<double> RandomForest::mdi_importance() const {
  require(trained(), "RandomForest::mdi_importance: not trained");
  std::vector<double> total(training_data_->num_features(), 0.0);
  for (const auto& tree : trees_) {
    const auto imp = tree.mdi_importance();
    for (std::size_t f = 0; f < total.size(); ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

}  // namespace robotune::ml
