// Tabular regression dataset: row-major feature matrix plus targets.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace robotune::ml {

class Dataset {
 public:
  Dataset() = default;

  Dataset(std::size_t num_features) : num_features_(num_features) {}

  /// Appends one row.  `x.size()` must equal num_features().
  void add_row(std::span<const double> x, double y) {
    require(x.size() == num_features_, "Dataset::add_row: width mismatch");
    features_.insert(features_.end(), x.begin(), x.end());
    targets_.push_back(y);
  }

  std::size_t num_rows() const noexcept { return targets_.size(); }
  std::size_t num_features() const noexcept { return num_features_; }
  bool empty() const noexcept { return targets_.empty(); }

  std::span<const double> row(std::size_t i) const noexcept {
    return {features_.data() + i * num_features_, num_features_};
  }
  double target(std::size_t i) const noexcept { return targets_[i]; }
  std::span<const double> targets() const noexcept { return targets_; }

  double feature(std::size_t row, std::size_t col) const noexcept {
    return features_[row * num_features_ + col];
  }

  /// Copy of the dataset restricted to the given row indices (repeats
  /// allowed — used for bootstrap resamples).
  Dataset subset(std::span<const std::size_t> rows) const {
    Dataset out(num_features_);
    for (std::size_t r : rows) out.add_row(row(r), target(r));
    return out;
  }

 private:
  std::size_t num_features_ = 0;
  std::vector<double> features_;
  std::vector<double> targets_;
};

/// Common interface so cross-validation and the figure-2 model comparison
/// can treat tree ensembles and linear models uniformly.
class Regressor {
 public:
  virtual ~Regressor() = default;
  virtual void fit(const Dataset& data) = 0;
  virtual double predict(std::span<const double> x) const = 0;
};

}  // namespace robotune::ml
