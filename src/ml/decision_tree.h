// CART regression tree with variance-reduction splits.
//
// Two split modes are supported:
//  * kBestSplit — classic CART: for each candidate feature, scan all split
//    positions and take the one minimizing weighted child variance (used by
//    Random Forests).
//  * kRandomThreshold — Extra-Trees style: draw one uniform threshold per
//    candidate feature and keep the best among those (Geurts et al. 2006).
//
// Presorted splits: kBestSplit never sorts inside a node.  FeatureRanks
// ranks every feature's rows once — a forest builds one and shares it with
// all its trees — and each fit lays out, per feature, its bootstrap copies
// in that (value, row) order: a row drawn c times appears c times.  A node
// scans its segment of each candidate's list, and a split partitions every
// list stably, so each child's segment stays sorted.  The segment is what
// a per-node sort of the node's (value, row) keys would give, so every
// prefix sum, score and threshold is bit-identical to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace robotune::ml {

enum class SplitMode { kBestSplit, kRandomThreshold };

/// Every feature's rows ranked once in ascending (value, row) order, with
/// the values in a column-major copy.  Read-only after construction, so
/// the trees of a forest share one from any thread.  Construction adds the
/// p·n keys it sorts to the logical counter `ml.forest.keys_sorted`.
class FeatureRanks {
 public:
  explicit FeatureRanks(const Dataset& data);

  /// Rows of `feature` in ascending (value, row) order.
  std::span<const std::uint32_t> order(std::size_t feature) const noexcept {
    return {order_.data() + feature * num_rows_, num_rows_};
  }
  /// Values of `feature`, indexed by row.
  std::span<const double> column(std::size_t feature) const noexcept {
    return {columns_.data() + feature * num_rows_, num_rows_};
  }

 private:
  std::size_t num_rows_;
  std::vector<double> columns_;
  std::vector<std::uint32_t> order_;
};

struct TreeOptions {
  /// Number of features examined per split; 0 = max(1, n_features / 3),
  /// the standard default for regression forests.
  std::size_t max_features = 0;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  std::size_t max_depth = 0;  ///< 0 = unlimited
  SplitMode split_mode = SplitMode::kBestSplit;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions options = {}) : options_(options) {}

  /// Fits on the rows of `data` listed in `rows` (with repetition for
  /// bootstrap samples).  `rng` drives feature subsampling / thresholds.
  /// kBestSplit reads `ranks`, which must be built from `data`, or ranks
  /// `data` itself when it is null; kRandomThreshold ignores it.
  void fit(const Dataset& data, const FeatureRanks* ranks,
           std::span<const std::size_t> rows, Rng& rng);

  /// Convenience: fit(data, nullptr, rows, rng).
  void fit(const Dataset& data, std::span<const std::size_t> rows, Rng& rng);

  /// Convenience: fit on all rows.
  void fit(const Dataset& data, Rng& rng);

  double predict(std::span<const double> x) const;

  /// predict(x), also setting bit f % 64 of path[f / 64] for every split
  /// feature f tested on the way to the leaf.  A row whose path tests none
  /// of a set of features reaches the same leaf however those features
  /// change — the random forest's permutation cache rests on this.
  double predict_marking_path(std::span<const double> x,
                              std::span<std::uint64_t> path) const;

  struct Node {
    // Leaf iff feature == kLeaf.
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);
    std::size_t feature = kLeaf;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;  // node mean target (the prediction at leaves)
  };

  /// The fitted nodes in build order (pre-order; the root is node 0).
  std::span<const Node> nodes() const noexcept { return nodes_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t depth() const noexcept { return depth_; }
  bool trained() const noexcept { return !nodes_.empty(); }

  /// Mean-decrease-in-impurity importance accumulated during training
  /// (un-normalized).  Exposed for the MDI-vs-MDA ablation; the paper's
  /// pipeline uses permutation importance instead (§3.3).
  std::span<const double> mdi_importance() const noexcept {
    return mdi_importance_;
  }

 private:
  /// Root-to-leaf walk for `x`, calling on_split(feature) at each split.
  template <typename OnSplit>
  double walk(std::span<const double> x, OnSplit&& on_split) const;

  struct Arena;  // per-fit scratch, defined in decision_tree.cpp

  /// Grows the subtree over [begin, end) of the arena's rows and lists.
  std::int32_t build(Arena& arena, std::size_t begin, std::size_t end,
                     std::size_t depth, Rng& rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<double> mdi_importance_;
  std::size_t depth_ = 0;
};

}  // namespace robotune::ml
