#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

namespace robotune::ml {

namespace {

struct SplitResult {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted SSE
  double parent_sse = 0.0;
};

double sum_targets(const Dataset& data, std::span<const std::size_t> rows) {
  double s = 0.0;
  for (std::size_t r : rows) s += data.target(r);
  return s;
}

// Sum of squared errors about the mean for the given rows.
double sse(const Dataset& data, std::span<const std::size_t> rows) {
  if (rows.empty()) return 0.0;
  const double mean = sum_targets(data, rows) / static_cast<double>(rows.size());
  double s = 0.0;
  for (std::size_t r : rows) {
    const double d = data.target(r) - mean;
    s += d * d;
  }
  return s;
}

// Best CART split on one feature: sort the rows' (value, row) keys, scan
// prefix sums.  Returns weighted child SSE and the threshold, or infinity
// when no valid split exists (e.g. constant feature).  Ties sort by row,
// so the order — and with it every prefix sum — is the same whatever
// order `rows` arrive in.  `keyed` is scratch space.
std::pair<double, double> best_split_on_feature(
    const Dataset& data, std::span<const std::size_t> rows,
    std::size_t feature, std::size_t min_leaf,
    std::vector<std::pair<double, std::size_t>>& keyed) {
  keyed.clear();
  for (std::size_t r : rows) keyed.emplace_back(data.feature(r, feature), r);
  std::sort(keyed.begin(), keyed.end());
  const std::size_t n = keyed.size();
  // Prefix sums of y and y^2 enable O(1) SSE of any prefix/suffix.
  double left_sum = 0.0, left_sq = 0.0;
  double total_sum = 0.0, total_sq = 0.0;
  for (const auto& key : keyed) {
    const double y = data.target(key.second);
    total_sum += y;
    total_sq += y * y;
  }
  double best_score = std::numeric_limits<double>::infinity();
  double best_threshold = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double y = data.target(keyed[i].second);
    left_sum += y;
    left_sq += y * y;
    const double xi = keyed[i].first;
    const double xj = keyed[i + 1].first;
    if (xi == xj) continue;  // can't split between equal values
    const std::size_t nl = i + 1;
    const std::size_t nr = n - nl;
    if (nl < min_leaf || nr < min_leaf) continue;
    const double right_sum = total_sum - left_sum;
    const double right_sq = total_sq - left_sq;
    const double sse_l = left_sq - left_sum * left_sum / static_cast<double>(nl);
    const double sse_r =
        right_sq - right_sum * right_sum / static_cast<double>(nr);
    const double score = sse_l + sse_r;
    if (score < best_score) {
      best_score = score;
      best_threshold = 0.5 * (xi + xj);
    }
  }
  return {best_score, best_threshold};
}

// Extra-Trees split: one uniform threshold in (min, max) of the feature.
std::pair<double, double> random_split_on_feature(
    const Dataset& data, std::span<const std::size_t> rows,
    std::size_t feature, std::size_t min_leaf, Rng& rng) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t r : rows) {
    const double x = data.feature(r, feature);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (!(hi > lo)) {
    return {std::numeric_limits<double>::infinity(), 0.0};
  }
  const double threshold = rng.uniform(lo, hi);
  double ls = 0.0, lq = 0.0, rs = 0.0, rq = 0.0;
  std::size_t nl = 0, nr = 0;
  for (std::size_t r : rows) {
    const double y = data.target(r);
    if (data.feature(r, feature) <= threshold) {
      ls += y;
      lq += y * y;
      ++nl;
    } else {
      rs += y;
      rq += y * y;
      ++nr;
    }
  }
  if (nl < min_leaf || nr < min_leaf) {
    return {std::numeric_limits<double>::infinity(), 0.0};
  }
  const double sse_l = lq - ls * ls / static_cast<double>(nl);
  const double sse_r = rq - rs * rs / static_cast<double>(nr);
  return {sse_l + sse_r, threshold};
}

}  // namespace

void DecisionTree::fit(const Dataset& data, std::span<const std::size_t> rows,
                       Rng& rng) {
  require(!rows.empty(), "DecisionTree::fit: empty row set");
  nodes_.clear();
  depth_ = 0;
  mdi_importance_.assign(data.num_features(), 0.0);
  std::vector<std::size_t> work(rows.begin(), rows.end());
  build(data, work, 0, work.size(), 0, rng);
}

void DecisionTree::fit(const Dataset& data, Rng& rng) {
  std::vector<std::size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit(data, rows, rng);
}

std::int32_t DecisionTree::build(const Dataset& data,
                                 std::vector<std::size_t>& rows,
                                 std::size_t begin, std::size_t end,
                                 std::size_t depth, Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t n = end - begin;
  const std::span<std::size_t> node_rows(rows.data() + begin, n);

  const double node_sum = [&] {
    double s = 0.0;
    for (std::size_t r : node_rows) s += data.target(r);
    return s;
  }();
  const double node_mean = node_sum / static_cast<double>(n);

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.value = node_mean;
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (n < options_.min_samples_split ||
      (options_.max_depth != 0 && depth >= options_.max_depth)) {
    return make_leaf();
  }
  const double parent_sse = sse(data, node_rows);
  if (parent_sse <= 1e-12) return make_leaf();

  // Candidate feature subset.
  const std::size_t num_features = data.num_features();
  std::size_t mtry = options_.max_features;
  if (mtry == 0) mtry = std::max<std::size_t>(1, num_features / 3);
  mtry = std::min(mtry, num_features);
  std::vector<std::size_t> candidates(num_features);
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  // Partial Fisher-Yates: choose mtry distinct features.
  for (std::size_t i = 0; i < mtry; ++i) {
    const std::size_t j = i + rng.uniform_index(num_features - i);
    std::swap(candidates[i], candidates[j]);
  }

  SplitResult best;
  best.parent_sse = parent_sse;
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(n);
  for (std::size_t i = 0; i < mtry; ++i) {
    const std::size_t f = candidates[i];
    std::pair<double, double> result;
    if (options_.split_mode == SplitMode::kBestSplit) {
      result = best_split_on_feature(data, node_rows, f,
                                     options_.min_samples_leaf, keyed);
    } else {
      result = random_split_on_feature(data, node_rows, f,
                                       options_.min_samples_leaf, rng);
    }
    if (result.first < best.score) {
      best.found = true;
      best.score = result.first;
      best.threshold = result.second;
      best.feature = f;
    }
  }
  if (!best.found || best.score >= parent_sse) return make_leaf();

  mdi_importance_[best.feature] += parent_sse - best.score;

  // Partition rows in place around the chosen split.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
        return data.feature(r, best.feature) <= best.threshold;
      });
  const auto mid =
      static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate

  const auto my_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[my_index].feature = best.feature;
  nodes_[my_index].threshold = best.threshold;
  nodes_[my_index].value = node_mean;
  const std::int32_t left = build(data, rows, begin, mid, depth + 1, rng);
  const std::int32_t right = build(data, rows, mid, end, depth + 1, rng);
  nodes_[my_index].left = left;
  nodes_[my_index].right = right;
  return my_index;
}

template <typename OnSplit>
double DecisionTree::walk(std::span<const double> x, OnSplit&& on_split) const {
  std::int32_t idx = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.feature == Node::kLeaf) return node.value;
    on_split(node.feature);
    idx = (x[node.feature] <= node.threshold) ? node.left : node.right;
    if (idx < 0) return node.value;
  }
}

double DecisionTree::predict(std::span<const double> x) const {
  require(trained(), "DecisionTree::predict: tree not trained");
  return walk(x, [](std::size_t) {});
}

double DecisionTree::predict_marking_path(std::span<const double> x,
                                          std::span<std::uint64_t> path) const {
  require(trained(), "DecisionTree::predict_marking_path: tree not trained");
  return walk(x, [path](std::size_t f) {
    path[f / 64] |= std::uint64_t{1} << (f % 64);
  });
}

}  // namespace robotune::ml
