#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (double p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.5;
}

Tail tail_of(const std::vector<double>& samples, std::size_t min_beyond) {
  Tail tail;
  tail.n = samples.size();
  tail.p = tail_percentile(tail.n, min_beyond);
  tail.value = percentile(samples, tail.p);
  tail.beyond = samples_beyond(tail.n, tail.p);
  return tail;
}

double geomean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : samples) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double v : samples) total += v;
  return total;
}

}  // namespace perfbench
