// Gunther (Liao, Datta & Willke, Euro-Par 2013): genetic-algorithm search
// with aggressive selection and mutation, reimplemented for Spark the way
// the paper does (§5.1, using the published algorithm).
//
// Per the paper's discussion (§6), Gunther's initial population is random
// and grows by two for each tuned parameter, so with many parameters the
// initialization consumes a significant share of the budget — the source
// of its exploration-heavy behaviour in Figures 3-5.  §5.1 also augments
// it with a static stop threshold.
#pragma once

#include "tuners/tuner.h"

namespace robotune::tuners {

class Gunther : public Tuner {
 public:
  /// Initial population = kInitialPerParam × dims, clamped to
  /// kMaxInitialBudgetFraction of the budget.  The fraction is
  /// deliberately high: Gunther's initialization really does consume most
  /// of a 100-evaluation budget at 44 parameters (paper §6).
  static constexpr double kInitialPerParam = 2.0;
  static constexpr double kMaxInitialBudgetFraction = 0.85;

  std::string name() const override { return "Gunther"; }
  TuningResult tune(sparksim::SparkObjective& objective, int budget,
                    std::uint64_t seed) override;
};

}  // namespace robotune::tuners
