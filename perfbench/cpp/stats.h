// Summary statistics the benchmark reports: medians, percentiles, the
// "tail" percentile rule, and geometric means.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p·n).  The samples
// *beyond* it are the n − ceil(p·n) larger ones.  A metric's `_tail` is
// the highest percentile of a fixed ladder (99.9, 99, 95, 90, 75, 50) that
// leaves at least ten samples beyond it, so a tail is never read off a
// handful of outliers.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (any order), p in (0, 1].
/// Returns 0 for an empty sample set.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest ladder percentile with at least `min_beyond` samples beyond
/// it among n samples; 0.5 when even the median has fewer.
double tail_percentile(std::size_t n, std::size_t min_beyond = 10);

struct Tail {
  double p = 0.5;          ///< the percentile chosen (0.5 .. 0.999)
  double value = 0.0;      ///< the sample at that percentile
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples larger than the chosen rank
};

/// Applies the tail rule to `samples`.
Tail tail_of(const std::vector<double>& samples, std::size_t min_beyond = 10);

/// Geometric mean of strictly positive samples; 0 when empty.
double geomean(const std::vector<double>& samples);

double sum(const std::vector<double>& samples);

}  // namespace perfbench
