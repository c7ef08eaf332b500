#include "tuners/random_search.h"

#include <algorithm>

#include "obs/trace.h"

namespace robotune::tuners {

TuningResult RandomSearch::tune(sparksim::SparkObjective& objective,
                                int budget, std::uint64_t seed) {
  TuningResult result;
  result.tuner = name();
  obs::Span session_span("session", "tuners");
  session_span.arg("tuner", name());
  session_span.arg("budget", budget);
  session_span.arg("seed", seed);
  Rng rng(seed);
  const std::size_t dims = objective.space().size();
  // Transient-fault handling rides entirely on GuardPolicy: censored
  // flake values never enter the guard median, and RS keeps no model
  // state that a flake could poison.
  GuardPolicy guard(kStaticThresholdS, /*median_multiple=*/0.0);
  // Fixed rounds of kRoundSize, so a cancel lands between them.  With a
  // static threshold, RNG-ordered units and fixed eval indices, the
  // chunking cannot change a result; it only trades cancel latency
  // against the workers idling at each round's barrier.
  constexpr int kRoundSize = 50;
  std::vector<std::vector<double>> units;
  for (int done = 0; done < budget; done += kRoundSize) {
    if (paced_stop()) break;
    units.assign(
        static_cast<std::size_t>(std::min(kRoundSize, budget - done)),
        std::vector<double>(dims));
    for (auto& unit : units) {
      for (auto& u : unit) u = rng.uniform();
    }
    evaluate_round(objective, units, guard, result);
  }
  return result;
}

}  // namespace robotune::tuners
