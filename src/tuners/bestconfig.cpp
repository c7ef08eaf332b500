#include "tuners/bestconfig.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/latin_hypercube.h"

namespace robotune::tuners {

namespace {

// DDS within a box: a Latin hypercube design scaled into [lo, hi] per dim.
std::vector<std::vector<double>> dds(std::size_t count,
                                     const std::vector<double>& lo,
                                     const std::vector<double>& hi,
                                     Rng& rng) {
  sampling::LhsOptions options;
  options.maximin_candidates = 1;  // BestConfig uses plain interval DDS
  auto design =
      sampling::latin_hypercube(count, lo.size(), rng, options);
  for (auto& row : design) {
    for (std::size_t d = 0; d < row.size(); ++d) {
      row[d] = lo[d] + row[d] * (hi[d] - lo[d]);
    }
  }
  return design;
}

}  // namespace

TuningResult BestConfig::tune(sparksim::SparkObjective& objective, int budget,
                              std::uint64_t seed) {
  TuningResult result;
  result.tuner = name();
  Rng rng(seed);
  const std::size_t dims = objective.space().size();
  obs::Span session_span("session", "tuners");
  session_span.arg("tuner", name());
  session_span.arg("budget", budget);
  session_span.arg("seed", seed);

  // BestConfig's runtime threshold: static cap initially, then a multiple
  // of the incumbent best once one exists (paper §5.3 notes BestConfig
  // modifies its threshold during runtime).
  constexpr double kBestMultiple = 4.0;
  double incumbent = std::numeric_limits<double>::infinity();
  auto current_threshold = [&]() {
    if (std::isfinite(incumbent)) {
      return std::min(kStaticThresholdS, incumbent * kBestMultiple);
    }
    return kStaticThresholdS;
  };

  std::vector<double> lo(dims, 0.0), hi(dims, 1.0);
  bool bounded = false;  // current round restricted around the incumbent?

  int remaining = budget;
  while (remaining > 0) {
    if (paced_stop()) break;  // cooperative cancel at round boundary
    const int round = std::min(options_.sample_set_size, remaining);
    obs::count("bestconfig.rounds");
    obs::Span round_span("iteration", "tuners");
    round_span.arg("samples", round);
    round_span.arg("bounded", bounded ? 1 : 0);
    const auto samples =
        dds(static_cast<std::size_t>(round), lo, hi, rng);
    const double round_start_best = incumbent;
    // The whole sample set evaluates as one round under the threshold
    // captured at round start.
    GuardPolicy round_guard(current_threshold(), 0.0);
    for (const auto& e :
         evaluate_round(objective, samples, round_guard, result)) {
      if (e.ok()) incumbent = std::min(incumbent, e.value_s);
    }
    remaining -= round;
    if (remaining <= 0) break;

    const bool improved = incumbent < round_start_best;
    if (!std::isfinite(incumbent) || (bounded && !improved)) {
      // Diverge: back to the full space.
      obs::count("bestconfig.diverges");
      std::fill(lo.begin(), lo.end(), 0.0);
      std::fill(hi.begin(), hi.end(), 1.0);
      bounded = false;
      continue;
    }
    obs::count("bestconfig.shrinks");
    // Bound: for each dimension, the gap between the nearest sampled
    // coordinates below and above the incumbent best.  Transient failures
    // yielded no usable observation at their location, so they do not
    // count as exploration evidence when shrinking the box.
    const auto& best = result.history[result.best_index].unit;
    for (std::size_t d = 0; d < dims; ++d) {
      double below = 0.0, above = 1.0;
      for (const auto& e : result.history) {
        if (e.transient) continue;
        const double v = e.unit[d];
        if (v < best[d]) below = std::max(below, v);
        if (v > best[d]) above = std::min(above, v);
      }
      lo[d] = below;
      hi[d] = above;
    }
    bounded = true;
  }
  return result;
}

}  // namespace robotune::tuners
