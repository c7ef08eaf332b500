// BestConfig (Zhu et al., SoCC 2017): divide-and-diverge sampling (DDS)
// plus recursive bound-and-search (RBS).
//
// DDS divides each parameter's range into k intervals and draws k samples
// so every interval of every parameter is covered exactly once (a Latin
// hypercube); RBS then bounds a subspace around the incumbent best — for
// each parameter, between the nearest sampled values below and above the
// incumbent — and re-samples inside it.  When a bounded round fails to
// improve, the search *diverges* back to global sampling.
//
// BestConfig's recommended sample-set size is 100; with the paper's total
// budget of 100 evaluations that leaves exactly one DDS round and no RBS,
// which is why it behaves like pure exploration in the evaluation (§5.2).
// Smaller `sample_set_size` values exercise the full recursion.
//
// BestConfig also adapts its kill threshold at runtime (the best time
// seen so far times a multiplier), reproduced here per §5.3.
#pragma once

#include "tuners/tuner.h"

namespace robotune::tuners {

struct BestConfigOptions {
  int sample_set_size = 100;
};

class BestConfig : public Tuner {
 public:
  explicit BestConfig(BestConfigOptions options = {}) : options_(options) {}

  std::string name() const override { return "BestConfig"; }
  TuningResult tune(sparksim::SparkObjective& objective, int budget,
                    std::uint64_t seed) override;

 private:
  BestConfigOptions options_;
};

}  // namespace robotune::tuners
