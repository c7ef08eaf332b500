// Tests for src/ml: CART trees, random forests, extra trees, permutation
// importance, linear models, cross-validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/linear_models.h"
#include "ml/permutation_importance.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"

namespace robotune::ml {
namespace {

// y = 10*x0 + noise-free step on x1; x2..x4 irrelevant.
Dataset make_linear_dataset(std::size_t n, Rng& rng, double noise = 0.0) {
  Dataset d(5);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(5);
    for (auto& v : x) v = rng.uniform();
    const double y = 10.0 * x[0] + 5.0 * (x[1] > 0.5 ? 1.0 : 0.0) +
                     (noise > 0 ? rng.normal(0, noise) : 0.0);
    d.add_row(x, y);
  }
  return d;
}

Dataset make_friedman(std::size_t n, std::size_t p, Rng& rng) {
  Dataset d(p);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(p);
    for (auto& v : x) v = rng.uniform();
    const double y = 10 * std::sin(3.14159 * x[0] * x[1]) +
                     20 * (x[2] - 0.5) * (x[2] - 0.5) + 10 * x[3] +
                     5 * x[4] + rng.normal(0, 0.3);
    d.add_row(x, y);
  }
  return d;
}

// ------------------------------------------------------------- Dataset ----

TEST(DatasetTest, AddRowAndAccess) {
  Dataset d(3);
  d.add_row(std::vector<double>{1, 2, 3}, 9.0);
  d.add_row(std::vector<double>{4, 5, 6}, -1.0);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_DOUBLE_EQ(d.feature(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(d.target(0), 9.0);
}

TEST(DatasetTest, WidthMismatchThrows) {
  Dataset d(2);
  EXPECT_THROW(d.add_row(std::vector<double>{1.0}, 0.0), InvalidArgument);
}

TEST(DatasetTest, SubsetAllowsRepeats) {
  Dataset d(1);
  d.add_row(std::vector<double>{1}, 10);
  d.add_row(std::vector<double>{2}, 20);
  const std::vector<std::size_t> rows = {1, 1, 0};
  const Dataset s = d.subset(rows);
  EXPECT_EQ(s.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(s.target(0), 20.0);
  EXPECT_DOUBLE_EQ(s.target(2), 10.0);
}

// ------------------------------------------------------- DecisionTree ----

TEST(DecisionTreeTest, FitsSimpleStepFunction) {
  Dataset d(1);
  for (int i = 0; i < 50; ++i) {
    const double x = i / 50.0;
    d.add_row(std::vector<double>{x}, x < 0.5 ? 1.0 : 2.0);
  }
  Rng rng(1);
  DecisionTree tree({.max_features = 1, .min_samples_leaf = 1,
                     .min_samples_split = 2});
  tree.fit(d, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.2}), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.8}), 2.0, 1e-9);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Rng rng(2);
  Dataset d = make_friedman(200, 6, rng);
  TreeOptions opt;
  opt.max_depth = 2;
  DecisionTree tree(opt);
  tree.fit(d, rng);
  EXPECT_LE(tree.depth(), 2u);
}

TEST(DecisionTreeTest, ConstantTargetsMakeSingleLeaf) {
  Dataset d(2);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    d.add_row(std::vector<double>{rng.uniform(), rng.uniform()}, 7.0);
  }
  DecisionTree tree;
  tree.fit(d, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.5, 0.5}), 7.0);
}

TEST(DecisionTreeTest, MdiImportanceFavorsInformativeFeature) {
  Rng rng(4);
  Dataset d = make_linear_dataset(300, rng);
  DecisionTree tree({.max_features = 5});
  tree.fit(d, rng);
  const auto imp = tree.mdi_importance();
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[0], imp[3]);
  EXPECT_GT(imp[1], imp[4]);
}

TEST(DecisionTreeTest, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{0.1}), InvalidArgument);
}

TEST(DecisionTreeTest, RandomThresholdModeStillLearns) {
  Rng rng(5);
  Dataset d = make_linear_dataset(400, rng);
  TreeOptions opt;
  opt.split_mode = SplitMode::kRandomThreshold;
  opt.max_features = 5;
  DecisionTree tree(opt);
  tree.fit(d, rng);
  const double lo = tree.predict(std::vector<double>{0.05, 0.2, 0.5, 0.5, 0.5});
  const double hi = tree.predict(std::vector<double>{0.95, 0.8, 0.5, 0.5, 0.5});
  EXPECT_GT(hi, lo + 5.0);
}

// The naive reference split: per node and candidate feature, sort a fresh
// copy of the node's rows by (value, row) and scan.  Everything else
// repeats DecisionTree::build step for step (rng draws, partition, node
// order), so the fitted trees must agree node for node, bit for bit.
class ReferenceTree {
 public:
  ReferenceTree(const Dataset& data, TreeOptions options, Rng& rng)
      : data_(data), options_(options), rng_(rng) {}

  std::vector<DecisionTree::Node> fit(std::vector<std::size_t> rows) {
    build(rows, 0, rows.size(), 0);
    return nodes_;
  }

 private:
  std::int32_t build(std::vector<std::size_t>& rows, std::size_t begin,
                     std::size_t end, std::size_t depth) {
    const std::size_t n = end - begin;
    double node_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) node_sum += data_.target(rows[i]);
    const double node_mean = node_sum / static_cast<double>(n);
    const auto leaf = [&] {
      DecisionTree::Node node;
      node.value = node_mean;
      nodes_.push_back(node);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };
    if (n < options_.min_samples_split ||
        (options_.max_depth != 0 && depth >= options_.max_depth)) {
      return leaf();
    }
    double parent_sse = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double d = data_.target(rows[i]) - node_mean;
      parent_sse += d * d;
    }
    if (parent_sse <= 1e-12) return leaf();

    const std::size_t p = data_.num_features();
    const std::size_t mtry = std::min(options_.max_features, p);
    std::vector<std::size_t> candidates(p);
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
    for (std::size_t i = 0; i < mtry; ++i) {
      std::swap(candidates[i], candidates[i + rng_.uniform_index(p - i)]);
    }
    bool found = false;
    std::size_t best_feature = 0;
    double best_score = std::numeric_limits<double>::infinity();
    double best_threshold = 0.0;
    for (std::size_t c = 0; c < mtry; ++c) {
      const std::size_t f = candidates[c];
      std::vector<std::pair<double, std::size_t>> sorted;
      for (std::size_t i = begin; i < end; ++i) {
        sorted.emplace_back(data_.feature(rows[i], f), rows[i]);
      }
      std::sort(sorted.begin(), sorted.end());
      double total_sum = 0.0, total_sq = 0.0;
      for (const auto& [x, r] : sorted) {
        total_sum += data_.target(r);
        total_sq += data_.target(r) * data_.target(r);
      }
      double left_sum = 0.0, left_sq = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const double y = data_.target(sorted[i].second);
        left_sum += y;
        left_sq += y * y;
        if (sorted[i].first == sorted[i + 1].first) continue;
        const std::size_t nl = i + 1, nr = n - nl;
        if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
          continue;
        }
        const double right_sum = total_sum - left_sum;
        const double score =
            (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
            ((total_sq - left_sq) -
             right_sum * right_sum / static_cast<double>(nr));
        if (score < best_score) {
          found = true;
          best_score = score;
          best_feature = f;
          best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    if (!found || best_score >= parent_sse) return leaf();
    const auto first = rows.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto mid = static_cast<std::size_t>(
        std::partition(first, rows.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](std::size_t r) {
                         return data_.feature(r, best_feature) <=
                                best_threshold;
                       }) -
        rows.begin());
    if (mid == begin || mid == end) return leaf();
    const auto index = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[index].feature = best_feature;
    nodes_[index].threshold = best_threshold;
    nodes_[index].value = node_mean;
    const std::int32_t left = build(rows, begin, mid, depth + 1);
    const std::int32_t right = build(rows, mid, end, depth + 1);
    nodes_[index].left = left;
    nodes_[index].right = right;
    return index;
  }

  const Dataset& data_;
  TreeOptions options_;
  Rng& rng_;
  std::vector<DecisionTree::Node> nodes_;
};

TEST(DecisionTreeTest, MatchesNaiveReferenceSplitNodeForNode) {
  // Discrete features (five levels) tie often, like Spark parameters; a
  // bootstrap sample repeats rows and mtry < p varies the candidate order.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng data_rng(seed);
    Dataset d(8);
    for (int i = 0; i < 120; ++i) {
      std::vector<double> x(8);
      for (auto& v : x) {
        v = 0.25 * static_cast<double>(data_rng.uniform_index(5));
      }
      d.add_row(x, 3.0 * x[0] + (x[1] > 0.4 ? 2.0 : 0.0) + x[2] * x[3] +
                       data_rng.normal(0.0, 0.1));
    }
    std::vector<std::size_t> rows(d.num_rows());
    for (auto& r : rows) r = data_rng.uniform_index(d.num_rows());
    const TreeOptions options{.max_features = 3, .min_samples_leaf = 2,
                              .min_samples_split = 4};
    Rng tree_rng(seed + 100), ref_rng(seed + 100);
    DecisionTree tree(options);
    tree.fit(d, rows, tree_rng);
    const auto reference = ReferenceTree(d, options, ref_rng).fit(rows);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(tree.nodes().size(), reference.size());
    ASSERT_GT(reference.size(), 20u);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& got = tree.nodes()[i];
      EXPECT_EQ(got.feature, reference[i].feature) << "node " << i;
      EXPECT_EQ(got.threshold, reference[i].threshold) << "node " << i;
      EXPECT_EQ(got.left, reference[i].left) << "node " << i;
      EXPECT_EQ(got.right, reference[i].right) << "node " << i;
      EXPECT_EQ(got.value, reference[i].value) << "node " << i;
    }
  }
}

void expect_same_nodes(std::span<const DecisionTree::Node> got,
                       std::span<const DecisionTree::Node> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].feature, want[i].feature) << "node " << i;
    EXPECT_EQ(got[i].threshold, want[i].threshold) << "node " << i;
    EXPECT_EQ(got[i].left, want[i].left) << "node " << i;
    EXPECT_EQ(got[i].right, want[i].right) << "node " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "node " << i;
  }
}

TEST(DecisionTreeTest, MatchesNaiveReferenceAtSelectionShape) {
  // Parameter selection's shape: 44 features, 100 bootstrap rows, every
  // feature a candidate at every node, five-level ties.
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    Rng data_rng(seed);
    Dataset d(44);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> x(44);
      for (auto& v : x) {
        v = 0.25 * static_cast<double>(data_rng.uniform_index(5));
      }
      d.add_row(x, 2.0 * x[3] + (x[17] > 0.4 ? 1.5 : 0.0) + x[29] * x[40] +
                       data_rng.normal(0.0, 0.2));
    }
    std::vector<std::size_t> rows(d.num_rows());
    for (auto& r : rows) r = data_rng.uniform_index(d.num_rows());
    const TreeOptions options{.max_features = 44};
    Rng tree_rng(seed + 100), ref_rng(seed + 100);
    DecisionTree tree(options);
    tree.fit(d, rows, tree_rng);
    const auto reference = ReferenceTree(d, options, ref_rng).fit(rows);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_GT(reference.size(), 20u);
    expect_same_nodes(tree.nodes(), reference);
  }
}

// ------------------------------------------------------- RandomForest ----

TEST(RandomForestTest, BeatsMeanPredictorOnFriedman) {
  Rng rng(6);
  Dataset train = make_friedman(300, 10, rng);
  Dataset test = make_friedman(200, 10, rng);
  RandomForest rf({.num_trees = 100}, 7);
  rf.fit(train);
  std::vector<double> y_true, y_pred;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    y_true.push_back(test.target(i));
    y_pred.push_back(rf.predict(test.row(i)));
  }
  EXPECT_GT(stats::r2_score(y_true, y_pred), 0.6);
}

TEST(RandomForestTest, OobR2IsReasonable) {
  Rng rng(7);
  Dataset d = make_friedman(400, 10, rng);
  RandomForest rf({.num_trees = 150}, 7);
  rf.fit(d);
  EXPECT_GT(rf.oob_r2(), 0.5);
  EXPECT_LE(rf.oob_r2(), 1.0);
}

TEST(RandomForestTest, DeterministicForSeed) {
  Rng rng(8);
  Dataset d = make_friedman(150, 6, rng);
  RandomForest a({.num_trees = 30}, 99);
  RandomForest b({.num_trees = 30}, 99);
  a.fit(d);
  b.fit(d);
  std::vector<double> x = {0.2, 0.4, 0.6, 0.8, 0.1, 0.5};
  EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForestTest, SerialAndParallelTrainingAgree) {
  Rng rng(9);
  Dataset d = make_friedman(120, 6, rng);
  ForestOptions serial;
  serial.num_trees = 20;
  serial.parallel = false;
  ForestOptions parallel = serial;
  parallel.parallel = true;
  RandomForest a(serial, 5);
  RandomForest b(parallel, 5);
  a.fit(d);
  b.fit(d);
  std::vector<double> x = {0.3, 0.3, 0.3, 0.3, 0.3, 0.3};
  EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForestTest, SerialAndParallelTrainingGrowTheSameTrees) {
  // The pooled trees share the forest's feature ranks; each must still be
  // the tree an inline fit grows, node for node.
  Rng rng(15);
  Dataset d = make_friedman(100, 12, rng);
  ForestOptions serial;
  serial.num_trees = 24;
  serial.tree.max_features = 12;
  serial.parallel = false;
  ForestOptions parallel = serial;
  parallel.parallel = true;
  RandomForest a(serial, 5);
  RandomForest b(parallel, 5);
  a.fit(d);
  b.fit(d);
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (std::size_t t = 0; t < a.num_trees(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    ASSERT_GT(a.tree(t).node_count(), 1u);
    expect_same_nodes(b.tree(t).nodes(), a.tree(t).nodes());
  }
}

TEST(RandomForestTest, OobPredictionMissingOnlyWhenAlwaysInBag) {
  Rng rng(10);
  Dataset d = make_friedman(60, 6, rng);
  RandomForest rf({.num_trees = 200}, 3);
  rf.fit(d);
  // With 200 bootstraps the chance a row is in-bag for all trees is ~0.
  int missing = 0;
  for (std::size_t i = 0; i < d.num_rows(); ++i) {
    if (!rf.oob_prediction(i)) ++missing;
  }
  EXPECT_EQ(missing, 0);
}

TEST(RandomForestTest, MdiImportanceSumsToOne) {
  Rng rng(11);
  Dataset d = make_friedman(200, 8, rng);
  RandomForest rf({.num_trees = 50}, 3);
  rf.fit(d);
  const auto imp = rf.mdi_importance();
  EXPECT_NEAR(std::accumulate(imp.begin(), imp.end(), 0.0), 1.0, 1e-9);
}

TEST(RandomForestTest, ExtraTreesLearnsToo) {
  Rng rng(12);
  Dataset train = make_friedman(300, 10, rng);
  Dataset test = make_friedman(150, 10, rng);
  RandomForest et = RandomForest::extra_trees(100, 7);
  et.fit(train);
  std::vector<double> y_true, y_pred;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    y_true.push_back(test.target(i));
    y_pred.push_back(et.predict(test.row(i)));
  }
  EXPECT_GT(stats::r2_score(y_true, y_pred), 0.5);
}

// Fixed small forest, trained inline or on the global pool.  Returns the
// sort keys it counted.
std::uint64_t keys_sorted_by_fixed_forest(bool parallel) {
  Rng rng(36);
  Dataset d = make_friedman(50, 5, rng);
  ForestOptions options;
  options.num_trees = 10;
  options.tree.max_features = 5;
  options.parallel = parallel;
  const auto before =
      obs::metrics().snapshot().counters["ml.forest.keys_sorted"];
  RandomForest(options, 4).fit(d);
  return obs::metrics().snapshot().counters["ml.forest.keys_sorted"] - before;
}

TEST(RandomForestTest, KeysSortedCounterIsPinned) {
  // The forest ranks each of 5 features over 50 rows once; its 10 trees
  // sort nothing.  (A per-node sort of every candidate feature, mtry = p,
  // sorted 12,635 keys.)
  constexpr std::uint64_t kKeys = 5 * 50;
  EXPECT_EQ(keys_sorted_by_fixed_forest(false), kKeys);
  EXPECT_EQ(keys_sorted_by_fixed_forest(true), kKeys);
}

TEST(RandomForestTest, TooFewRowsThrows) {
  Dataset d(2);
  d.add_row(std::vector<double>{0, 0}, 0);
  RandomForest rf;
  EXPECT_THROW(rf.fit(d), InvalidArgument);
}

// --------------------------------------------- PermutationImportance ----

TEST(PermutationImportanceTest, IdentifiesPlantedFeatures) {
  Rng rng(13);
  Dataset d = make_linear_dataset(300, rng, 0.2);
  RandomForest rf({.num_trees = 100}, 3);
  rf.fit(d);
  std::vector<FeatureGroup> groups;
  for (std::size_t f = 0; f < 5; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    groups.push_back({name, {f}});
  }
  const auto results = permutation_importance(rf, groups, {.repeats = 5});
  // Results are sorted descending; the two informative features first.
  EXPECT_TRUE(results[0].group.name == "f0" || results[0].group.name == "f1");
  EXPECT_GT(results[0].mean_drop, 0.1);
  // Irrelevant features have near-zero drops.
  for (const auto& r : results) {
    if (r.group.name != "f0" && r.group.name != "f1") {
      EXPECT_LT(r.mean_drop, 0.05);
    }
  }
}

TEST(PermutationImportanceTest, GroupedFeaturesPermuteJointly) {
  // y depends on x0 XOR-ishly with x1: individually weak, jointly strong.
  Rng rng(14);
  Dataset d(4);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x(4);
    for (auto& v : x) v = rng.uniform();
    const double y =
        ((x[0] > 0.5) != (x[1] > 0.5)) ? 10.0 : 0.0;
    d.add_row(x, y);
  }
  RandomForest rf({.num_trees = 100}, 3);
  rf.fit(d);
  const std::vector<FeatureGroup> joint = {{"x0+x1", {0, 1}},
                                           {"x2", {2}},
                                           {"x3", {3}}};
  const auto results = permutation_importance(rf, joint, {.repeats = 5});
  EXPECT_EQ(results[0].group.name, "x0+x1");
  EXPECT_GT(results[0].mean_drop, 0.3);
}

// The pre-cache oob_r2_permuted body: every OOB tree re-walked for every
// row, whatever the permuted group.
double naive_oob_r2_permuted(const RandomForest& forest,
                             std::span<const std::size_t> features,
                             std::span<const std::size_t> perm) {
  const Dataset& data = forest.training_data();
  std::vector<double> x(data.num_features());
  std::vector<double> y_true, y_pred;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.row(i);
    std::copy(row.begin(), row.end(), x.begin());
    for (std::size_t f : features) x[f] = data.feature(perm[i], f);
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      if (!forest.in_bag(t, i)) {
        sum += forest.tree(t).predict(x);
        ++count;
      }
    }
    if (count > 0) {
      y_true.push_back(data.target(i));
      y_pred.push_back(sum / static_cast<double>(count));
    }
  }
  return stats::r2_score(y_true, y_pred);
}

// permutation_importance's loop (same RNG stream and shuffles) over the
// naive evaluation, in group order.
std::vector<ImportanceResult> naive_importance(
    const RandomForest& forest, const std::vector<FeatureGroup>& groups,
    const ImportanceOptions& options) {
  const double baseline = forest.oob_r2();
  const std::size_t n = forest.training_data().num_rows();
  Rng rng(options.seed);
  std::vector<ImportanceResult> results;
  std::vector<std::size_t> perm(n);
  for (const auto& group : groups) {
    std::vector<double> drops;
    for (int rep = 0; rep < options.repeats; ++rep) {
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      for (std::size_t i = n; i-- > 1;) {
        std::swap(perm[i], perm[rng.uniform_index(i + 1)]);
      }
      drops.push_back(baseline -
                      naive_oob_r2_permuted(forest, group.features, perm));
    }
    ImportanceResult r;
    r.group = group;
    r.mean_drop = stats::mean(drops);
    r.stddev_drop = stats::stddev(drops);
    results.push_back(std::move(r));
  }
  return results;
}

void expect_bit_identical_importance(const RandomForest& forest,
                                     const std::vector<FeatureGroup>& groups) {
  const ImportanceOptions options{.repeats = 4, .seed = 21};
  const auto cached = permutation_importance(forest, groups, options);
  const auto naive = naive_importance(forest, groups, options);
  ASSERT_EQ(cached.size(), naive.size());
  for (const auto& expected : naive) {
    const auto it = std::find_if(cached.begin(), cached.end(),
                                 [&](const ImportanceResult& r) {
                                   return r.group.name == expected.group.name;
                                 });
    ASSERT_NE(it, cached.end()) << expected.group.name;
    // Bitwise: the cache adds the very leaf values the walk would reach,
    // in the same order.
    EXPECT_EQ(it->mean_drop, expected.mean_drop) << expected.group.name;
    EXPECT_EQ(it->stddev_drop, expected.stddev_drop) << expected.group.name;
  }
}

TEST(PermutationImportanceTest, PathCacheBitIdenticalForSingletonGroups) {
  Rng rng(31);
  Dataset d = make_friedman(120, 8, rng);
  RandomForest rf({.num_trees = 60}, 5);
  rf.fit(d);
  std::vector<FeatureGroup> groups;
  for (std::size_t f = 0; f < 8; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    groups.push_back({name, {f}});
  }
  expect_bit_identical_importance(rf, groups);
}

TEST(PermutationImportanceTest, PathCacheBitIdenticalForJointGroups) {
  Rng rng(32);
  Dataset d = make_friedman(120, 8, rng);
  RandomForest rf({.num_trees = 60}, 6);
  rf.fit(d);
  const std::vector<FeatureGroup> groups = {{"x0+x1", {0, 1}},
                                            {"x2+x5+x7", {2, 5, 7}},
                                            {"x3", {3}},
                                            {"all", {0, 1, 2, 3, 4, 5, 6, 7}},
                                            {"none", {}}};
  expect_bit_identical_importance(rf, groups);
}

TEST(PermutationImportanceTest, PathCacheBitIdenticalPastOneWord) {
  // 70 features: path sets span two 64-bit words, and the informative
  // columns sit on both sides of the word boundary.
  Rng rng(33);
  Dataset d(70);
  for (int i = 0; i < 150; ++i) {
    std::vector<double> x(70);
    for (auto& v : x) v = rng.uniform();
    d.add_row(x, 10.0 * x[2] + 8.0 * x[63] + 6.0 * x[64] + 4.0 * x[69] +
                     rng.normal(0, 0.1));
  }
  RandomForest rf({.num_trees = 60}, 7);
  rf.fit(d);
  const std::vector<FeatureGroup> groups = {{"x2", {2}},     {"x63", {63}},
                                            {"x64", {64}},   {"x69", {69}},
                                            {"x63+x64", {63, 64}},
                                            {"x10", {10}}};
  expect_bit_identical_importance(rf, groups);
  // Permuting x64 or x69 must matter: a cache keyed on one word would
  // never re-walk for them and report a zero drop.
  const auto results = permutation_importance(rf, groups, {.repeats = 4});
  for (const auto& r : results) {
    if (r.group.name == "x64" || r.group.name == "x69") {
      EXPECT_GT(r.mean_drop, 0.01) << r.group.name;
    }
  }
}

TEST(PermutationImportanceTest, OutOfRangeFeatureThrows) {
  Rng rng(34);
  Dataset d = make_linear_dataset(80, rng);
  RandomForest rf({.num_trees = 20}, 3);
  rf.fit(d);
  std::vector<std::size_t> perm(d.num_rows());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const std::vector<std::size_t> bad = {1, 5};  // 5 features: 0..4
  EXPECT_THROW(rf.oob_r2_permuted(bad, perm), InvalidArgument);
  EXPECT_THROW(permutation_importance(rf, {{"bad", {7}}}), InvalidArgument);
  perm[3] = d.num_rows();  // a row index past the data
  const std::vector<std::size_t> good = {1};
  EXPECT_THROW(rf.oob_r2_permuted(good, perm), InvalidArgument);
}

// Fixed forest: trained inline or on the global pool, then importance for
// every singleton group.  Returns the tree walks it counted.
std::uint64_t tree_walks_of_fixed_importance(bool parallel_training) {
  Rng rng(35);
  Dataset d = make_friedman(100, 6, rng);
  ForestOptions options;
  options.num_trees = 40;
  options.parallel = parallel_training;
  RandomForest rf(options, 9);
  rf.fit(d);
  std::vector<FeatureGroup> groups;
  for (std::size_t f = 0; f < 6; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    groups.push_back({name, {f}});
  }
  const auto before =
      obs::metrics().snapshot().counters["ml.importance.tree_walks"];
  permutation_importance(rf, groups, {.repeats = 3});
  return obs::metrics().snapshot().counters["ml.importance.tree_walks"] -
         before;
}

TEST(PermutationImportanceTest, TreeWalkCounterIsPinned) {
  // 6 groups x 3 repeats over the OOB entries of 100 rows x 40 trees;
  // the walks are the entries whose cached path tests the group.
  constexpr std::uint64_t kWalks = 17784;
  EXPECT_EQ(tree_walks_of_fixed_importance(false), kWalks);
  EXPECT_EQ(tree_walks_of_fixed_importance(true), kWalks);
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("pool workers " + std::to_string(workers));
    obs::metrics().reset();
    ThreadPool pool(workers);
    pool.parallel_for(4, [](std::size_t) {
      tree_walks_of_fixed_importance(false);
    });
    EXPECT_EQ(obs::metrics().snapshot().counters.at("ml.importance.tree_walks"),
              4 * kWalks);
  }
}

TEST(PermutationImportanceTest, SelectImportantAppliesThreshold) {
  std::vector<ImportanceResult> results(3);
  results[0].mean_drop = 0.2;
  results[1].mean_drop = 0.06;
  results[2].mean_drop = 0.01;
  const auto sel = select_important(results, 0.05);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 1u);
}

TEST(PermutationImportanceTest, UntrainedForestThrows) {
  RandomForest rf;
  EXPECT_THROW(permutation_importance(rf, {}), InvalidArgument);
}

// ------------------------------------------------------- Linear models ----

TEST(LassoTest, RecoversSparseCoefficients) {
  Rng rng(15);
  Dataset d(6);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.uniform(-1, 1);
    const double y = 3.0 * x[0] - 2.0 * x[1] + rng.normal(0, 0.05);
    d.add_row(x, y);
  }
  Lasso lasso(0.01);
  lasso.fit(d);
  const auto coef = lasso.coefficients();
  EXPECT_NEAR(coef[0], 3.0, 0.2);
  EXPECT_NEAR(coef[1], -2.0, 0.2);
  for (std::size_t j = 2; j < 6; ++j) EXPECT_NEAR(coef[j], 0.0, 0.1);
}

TEST(LassoTest, StrongRegularizationZeroesEverything) {
  Rng rng(16);
  Dataset d = make_linear_dataset(100, rng);
  Lasso lasso(1000.0);
  lasso.fit(d);
  for (double c : lasso.coefficients()) EXPECT_DOUBLE_EQ(c, 0.0);
  // Prediction falls back to the target mean.
  const double mean = stats::mean(d.targets());
  EXPECT_NEAR(lasso.predict(d.row(0)), mean, 1e-9);
}

TEST(ElasticNetTest, HandlesConstantFeature) {
  Rng rng(17);
  Dataset d(3);
  for (int i = 0; i < 100; ++i) {
    const double x0 = rng.uniform();
    d.add_row(std::vector<double>{x0, 1.0, rng.uniform()}, 2.0 * x0);
  }
  ElasticNet net({.alpha = 0.01, .l1_ratio = 0.5});
  net.fit(d);
  EXPECT_DOUBLE_EQ(net.coefficients()[1], 0.0);
  EXPECT_NEAR(net.predict(std::vector<double>{0.5, 1.0, 0.5}), 1.0, 0.2);
}

TEST(ElasticNetTest, ConvergesBeforeMaxIterations) {
  Rng rng(18);
  Dataset d = make_linear_dataset(200, rng, 0.1);
  ElasticNet net({.alpha = 0.05, .l1_ratio = 0.7, .max_iterations = 500});
  net.fit(d);
  EXPECT_LT(net.iterations_used(), 500);
}

TEST(ElasticNetTest, PredictBeforeFitThrows) {
  ElasticNet net;
  EXPECT_THROW(net.predict(std::vector<double>{1.0}), InvalidArgument);
}

TEST(LinearVsTreeTest, TreesBeatLassoOnNonlinearTarget) {
  // The Figure-2 rationale: linear models fail on non-linear responses.
  Rng rng(19);
  Dataset d(4);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(4);
    for (auto& v : x) v = rng.uniform();
    const double y = 8.0 * std::sin(6.0 * x[0]) * (x[1] > 0.5 ? 1 : -1);
    d.add_row(x, y);
  }
  const auto lasso_cv = cross_validate(
      d, [] { return std::make_unique<Lasso>(0.01); }, 5, 1);
  const auto rf_cv = cross_validate(
      d,
      [] {
        return std::make_unique<RandomForest>(
            ForestOptions{.num_trees = 80}, 3);
      },
      5, 1);
  EXPECT_GT(rf_cv.mean_score, lasso_cv.mean_score + 0.3);
}

// --------------------------------------------------- Cross-validation ----

TEST(KFoldTest, FoldsPartitionAllRows) {
  Rng rng(20);
  const auto folds = kfold_split(23, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<char> seen(23, 0);
  for (const auto& fold : folds) {
    for (std::size_t r : fold) {
      EXPECT_LT(r, 23u);
      EXPECT_FALSE(seen[r]);
      seen[r] = 1;
    }
  }
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(KFoldTest, FoldSizesDifferByAtMostOne) {
  Rng rng(21);
  const auto folds = kfold_split(23, 5, rng);
  std::size_t lo = 100, hi = 0;
  for (const auto& f : folds) {
    lo = std::min(lo, f.size());
    hi = std::max(hi, f.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(KFoldTest, InvalidArgumentsThrow) {
  Rng rng(22);
  EXPECT_THROW(kfold_split(10, 1, rng), InvalidArgument);
  EXPECT_THROW(kfold_split(3, 5, rng), InvalidArgument);
}

TEST(CrossValidateTest, HighScoreOnLearnableData) {
  Rng rng(23);
  Dataset d = make_linear_dataset(250, rng, 0.1);
  const auto cv = cross_validate(
      d, [] { return std::make_unique<Lasso>(0.001); }, 5, 7);
  EXPECT_EQ(cv.fold_scores.size(), 5u);
  // The step term on x1 is not exactly linear, so a high-but-imperfect
  // score is expected.
  EXPECT_GT(cv.mean_score, 0.85);
}

}  // namespace
}  // namespace robotune::ml
