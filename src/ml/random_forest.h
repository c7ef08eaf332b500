// Random Forests (Breiman 2001) and Extremely Randomized Trees
// (Geurts et al. 2006) regression ensembles.
//
// This is the parameter-selection model of ROBOTune (§3.3): a forest is
// trained on LHS samples of the configuration space, its out-of-bag R²
// serves as the baseline for Mean-Decrease-in-Accuracy permutation
// importance, and features whose permutation drops the OOB R² by at least
// 0.05 are declared high-impact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"

namespace robotune::ml {

struct ForestOptions {
  std::size_t num_trees = 100;
  TreeOptions tree;
  /// Bootstrap resampling (true for RF).  Extra-Trees conventionally fits
  /// each tree on the full sample; `extra_trees()` sets this to false.
  bool bootstrap = true;
  /// Train trees in parallel on the shared pool.
  bool parallel = true;
};

class RandomForest : public Regressor {
 public:
  explicit RandomForest(ForestOptions options = {}, std::uint64_t seed = 1)
      : options_(options), seed_(seed) {}

  /// Standard Extra-Trees configuration: random thresholds, no bootstrap.
  static RandomForest extra_trees(std::size_t num_trees = 100,
                                  std::uint64_t seed = 1);

  void fit(const Dataset& data) override;
  double predict(std::span<const double> x) const override;

  std::size_t num_trees() const noexcept { return trees_.size(); }
  bool trained() const noexcept { return !trees_.empty(); }
  const DecisionTree& tree(std::size_t t) const { return trees_.at(t); }
  /// Whether training row `row` was sampled into tree `t`'s bootstrap.
  bool in_bag(std::size_t t, std::size_t row) const {
    return in_bag_.at(t).at(row) != 0;
  }

  /// Out-of-bag prediction for training row `i`; empty when the row was
  /// in-bag for every tree (rare) or bootstrap is off.
  std::optional<double> oob_prediction(std::size_t i) const;

  /// Out-of-bag R² against the training targets.  Requires bootstrap.
  double oob_r2() const;

  /// OOB R² with the listed feature columns jointly permuted by `perm`
  /// (a permutation of row indices).  This is the inner step of MDA
  /// importance; grouping several columns implements the paper's joint
  /// (collinear) parameters.  Every feature index must be below
  /// num_features() and every entry of `perm` below the row count
  /// (InvalidArgument otherwise).
  ///
  /// Path cache: the first call walks each row through each of its OOB
  /// trees once and keeps, per (row, tree), the leaf value and the set of
  /// features tested on the row's path.  A tree whose path tests none of
  /// the permuted features reaches that same leaf, so later calls re-walk
  /// only the trees whose path the group touches and add the cached leaf
  /// value for the rest, in the same ascending-tree order — the result is
  /// bit-identical to walking every tree.  Each call adds its number of
  /// re-walks to the logical counter `ml.importance.tree_walks`.
  double oob_r2_permuted(std::span<const std::size_t> features,
                         std::span<const std::size_t> perm) const;

  /// Normalized mean-decrease-in-impurity importance (sums to 1).
  /// Exposed for the MDI-vs-MDA ablation bench.
  std::vector<double> mdi_importance() const;

  const Dataset& training_data() const { return *training_data_; }

 private:
  /// Out-of-bag path cache (see oob_r2_permuted), flat per entry.  The
  /// entries of row i are [row_begin[i], row_begin[i + 1]), in ascending
  /// tree order; entry e's feature set is the `words` 64-bit words at
  /// paths[e * words].
  struct OobPaths {
    std::size_t words = 0;
    std::vector<std::size_t> row_begin;
    std::vector<std::uint32_t> tree;
    std::vector<double> leaf;
    std::vector<std::uint64_t> paths;
  };
  /// Built at most once per fit(), by the first oob_r2_permuted call;
  /// copies of a fitted forest share it.
  struct LazyOobPaths {
    std::once_flag once;
    OobPaths paths;
  };
  const OobPaths& oob_paths() const;

  ForestOptions options_;
  std::uint64_t seed_;
  std::vector<DecisionTree> trees_;
  /// in_bag_[t] marks rows sampled into tree t's bootstrap.
  std::vector<std::vector<char>> in_bag_;
  std::shared_ptr<const Dataset> training_data_;
  std::shared_ptr<LazyOobPaths> oob_paths_;
};

}  // namespace robotune::ml
