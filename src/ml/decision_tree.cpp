#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace robotune::ml {

namespace {

struct SplitResult {
  bool found = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted SSE
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

// One bootstrap copy of a row in a feature's sorted list: the feature's
// value, the row's target and the row.
struct SortedRow {
  double x;
  double y;
  std::size_t row;
};

// Best CART split on one feature: scan the node's copies in (value, row)
// order, with prefix sums that enable O(1) SSE of any prefix/suffix.
// Returns weighted child SSE and the threshold, or infinity when no valid
// split exists (e.g. constant feature).
std::pair<double, double> best_split_on_sorted(std::span<const SortedRow> sorted,
                                               std::size_t min_leaf) {
  const std::size_t n = sorted.size();
  double total_sum = 0.0, total_sq = 0.0;
  for (const SortedRow& s : sorted) {
    total_sum += s.y;
    total_sq += s.y * s.y;
  }
  double left_sum = 0.0, left_sq = 0.0;
  double best_score = std::numeric_limits<double>::infinity();
  double best_threshold = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double y = sorted[i].y;
    left_sum += y;
    left_sq += y * y;
    const double xi = sorted[i].x;
    const double xj = sorted[i + 1].x;
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

FeatureRanks::FeatureRanks(const Dataset& data)
    : num_rows_(data.num_rows()),
      columns_(data.num_features() * num_rows_),
      order_(columns_.size()) {
  require(num_rows_ <= std::numeric_limits<std::uint32_t>::max(),
          "FeatureRanks: too many rows");
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    double* column = columns_.data() + f * num_rows_;
    for (std::size_t r = 0; r < num_rows_; ++r) column[r] = data.feature(r, f);
    const auto first = order_.begin() + static_cast<std::ptrdiff_t>(f * num_rows_);
    const auto last = first + static_cast<std::ptrdiff_t>(num_rows_);
    std::iota(first, last, std::uint32_t{0});
    std::sort(first, last, [column](std::uint32_t a, std::uint32_t b) {
      return column[a] < column[b] || (column[a] == column[b] && a < b);
    });
  }
  obs::count("ml.forest.keys_sorted", columns_.size());
}

// Scratch for one fit, allocated once: the rows array build partitions
// (bootstrap copies included), the per-node candidate draw, and for
// kBestSplit every feature's sorted list with its partition buffer.
// Feature f's list holds the same copies as `rows`, in (value, row) order,
// and a node owns [begin, end) of both.
struct DecisionTree::Arena {
  const Dataset& data;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> candidates;
  std::vector<SortedRow> sorted;  ///< feature f's list at f * rows.size()
  std::vector<SortedRow> spill;   ///< right half during a stable partition
  std::vector<char> goes_left;    ///< by row, for the split being applied

  std::span<SortedRow> list(std::size_t feature, std::size_t begin,
                            std::size_t end) {
    return {sorted.data() + feature * rows.size() + begin, end - begin};
  }
};

void DecisionTree::fit(const Dataset& data, const FeatureRanks* ranks,
                       std::span<const std::size_t> rows, Rng& rng) {
  require(!rows.empty(), "DecisionTree::fit: empty row set");
  nodes_.clear();
  depth_ = 0;
  mdi_importance_.assign(data.num_features(), 0.0);
  Arena arena{.data = data,
              .rows = {rows.begin(), rows.end()},
              .candidates = std::vector<std::size_t>(data.num_features())};
  if (options_.split_mode == SplitMode::kBestSplit) {
    std::optional<FeatureRanks> own;
    if (ranks == nullptr) ranks = &own.emplace(data);
    // The bootstrap as copies per row; each list repeats a row that often.
    std::vector<std::uint32_t> copies(data.num_rows(), 0);
    for (std::size_t r : rows) ++copies[r];
    arena.sorted.reserve(data.num_features() * rows.size());
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      const auto column = ranks->column(f);
      for (std::uint32_t r : ranks->order(f)) {
        arena.sorted.insert(arena.sorted.end(), copies[r],
                            {column[r], data.target(r), r});
      }
    }
    arena.spill.resize(rows.size());
    arena.goes_left.resize(data.num_rows());
  }
  build(arena, 0, arena.rows.size(), 0, rng);
}

void DecisionTree::fit(const Dataset& data, std::span<const std::size_t> rows,
                       Rng& rng) {
  fit(data, nullptr, rows, rng);
}

void DecisionTree::fit(const Dataset& data, Rng& rng) {
  std::vector<std::size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit(data, rows, rng);
}

std::int32_t DecisionTree::build(Arena& arena, std::size_t begin,
                                 std::size_t end, std::size_t depth,
                                 Rng& rng) {
  const Dataset& data = arena.data;
  depth_ = std::max(depth_, depth);
  const std::size_t n = end - begin;
  const std::span<std::size_t> node_rows(arena.rows.data() + begin, n);

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
  std::vector<std::size_t>& candidates = arena.candidates;
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  // Partial Fisher-Yates: choose mtry distinct features.
  for (std::size_t i = 0; i < mtry; ++i) {
    const std::size_t j = i + rng.uniform_index(num_features - i);
    std::swap(candidates[i], candidates[j]);
  }

  const bool presorted = options_.split_mode == SplitMode::kBestSplit;
  SplitResult best;
  for (std::size_t i = 0; i < mtry; ++i) {
    const std::size_t f = candidates[i];
    const std::pair<double, double> result =
        presorted ? best_split_on_sorted(arena.list(f, begin, end),
                                         options_.min_samples_leaf)
                  : random_split_on_feature(data, node_rows, f,
                                            options_.min_samples_leaf, rng);
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
  const auto goes_left = [&](std::size_t r) {
    return data.feature(r, best.feature) <= best.threshold;
  };
  const auto mid_it = std::partition(
      arena.rows.begin() + static_cast<std::ptrdiff_t>(begin),
      arena.rows.begin() + static_cast<std::ptrdiff_t>(end), goes_left);
  const auto mid = static_cast<std::size_t>(mid_it - arena.rows.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate

  // Partition every sorted list stably around the same split: each child
  // gets the same copies as its rows, still in (value, row) order.
  if (presorted) {
    for (std::size_t r : node_rows) arena.goes_left[r] = goes_left(r);
    for (std::size_t f = 0; f < num_features; ++f) {
      const std::span<SortedRow> list = arena.list(f, begin, end);
      std::size_t left = 0, right = 0;
      for (const SortedRow& s : list) {
        if (arena.goes_left[s.row]) {
          list[left++] = s;
        } else {
          arena.spill[right++] = s;
        }
      }
      std::copy_n(arena.spill.begin(), right, list.begin() + left);
    }
  }

  const auto my_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[my_index].feature = best.feature;
  nodes_[my_index].threshold = best.threshold;
  nodes_[my_index].value = node_mean;
  const std::int32_t left = build(arena, begin, mid, depth + 1, rng);
  const std::int32_t right = build(arena, mid, end, depth + 1, rng);
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
