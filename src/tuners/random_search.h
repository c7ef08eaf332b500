// Random Search baseline (Bergstra & Bengio 2012): parameter ranges are
// explored uniformly at random.  Per §5.1 it is augmented with the static
// threshold guard so its search cost is comparable with the other tuners.
#pragma once

#include "tuners/tuner.h"

namespace robotune::tuners {

class RandomSearch : public Tuner {
 public:
  std::string name() const override { return "RS"; }
  TuningResult tune(sparksim::SparkObjective& objective, int budget,
                    std::uint64_t seed) override;
};

}  // namespace robotune::tuners
