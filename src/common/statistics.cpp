#include "common/statistics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace robotune::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  const double pos = q * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, copy.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return copy[lo] * (1.0 - frac) + copy[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double r2_score(std::span<const double> y_true,
                std::span<const double> y_pred) {
  if (y_true.empty() || y_true.size() != y_pred.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double m = mean(y_true);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const double r = y_true[i] - y_pred[i];
    const double t = y_true[i] - m;
    ss_res += r * r;
    ss_tot += t * t;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double recall(std::span<const std::size_t> truth,
              std::span<const std::size_t> predicted) {
  if (truth.empty()) return 1.0;
  const std::unordered_set<std::size_t> pred(predicted.begin(),
                                             predicted.end());
  std::size_t hit = 0;
  for (std::size_t t : truth) {
    if (pred.count(t) != 0) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

double normal_pdf(double z) {
  static constexpr double kInvSqrt2Pi = 0.3989422804014326779399461;
  return kInvSqrt2Pi * std::exp(-0.5 * z * z);
}

double normal_cdf(double z) {
  static constexpr double kInvSqrt2 = 0.7071067811865475244008444;
  return 0.5 * std::erfc(-z * kInvSqrt2);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  auto q = [&](double p) {
    const double pos = p * static_cast<double>(copy.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, copy.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return copy[lo] * (1.0 - frac) + copy[hi] * frac;
  };
  s.min = copy.front();
  s.p25 = q(0.25);
  s.median = q(0.5);
  s.p75 = q(0.75);
  s.p90 = q(0.90);
  s.max = copy.back();
  return s;
}

}  // namespace robotune::stats
