#include "tuners/rfhoc.h"

#include <algorithm>
#include <cmath>

#include "ml/random_forest.h"
#include "obs/trace.h"
#include "sampling/latin_hypercube.h"

namespace robotune::tuners {

namespace {

/// The model-side GA: population, survivors per generation and per-gene
/// mutation probability.
constexpr int kGaPopulation = 120;
constexpr int kGaElite = 12;
constexpr double kMutationRate = 0.10;

struct ModelIndividual {
  std::vector<double> genes;
  double predicted = 0.0;
};

}  // namespace

TuningResult Rfhoc::tune(sparksim::SparkObjective& objective, int budget,
                         std::uint64_t seed) {
  TuningResult result;
  result.tuner = name();
  Rng rng(seed);
  const std::size_t dims = objective.space().size();
  obs::Span session_span("session", "tuners");
  session_span.arg("tuner", name());
  session_span.arg("budget", budget);
  session_span.arg("seed", seed);
  GuardPolicy guard(kStaticThresholdS, /*median_multiple=*/0.0);

  // ---- Phase 1: collect training executions ------------------------------
  int train_count = static_cast<int>(
      std::lround(budget * std::clamp(options_.train_fraction, 0.1, 0.95)));
  train_count = std::clamp(train_count, std::min(budget, 10), budget);
  const auto design = sampling::latin_hypercube(
      static_cast<std::size_t>(train_count), dims, rng);
  ml::Dataset data(dims);
  // Transient failures are excluded from the training set: their
  // censored value reflects cluster flakiness, not the configuration,
  // and would teach the forest that a random region is slow.
  // Model log(time): same rationale as the BO engine.
  {
    obs::Span span("train", "tuners");
    span.arg("samples", train_count);
    // Sample collection is RFHOC's embarrassingly parallel phase: the
    // whole LHS design evaluates as one round.
    const auto evals = evaluate_round(objective, design, guard, result);
    for (std::size_t i = 0; i < design.size(); ++i) {
      if (evals[i].transient) continue;
      data.add_row(design[i], std::log(std::max(1e-6, evals[i].value_s)));
    }
  }
  if (train_count >= budget) return result;

  // ---- Phase 2: GA over the surrogate -------------------------------------
  ml::ForestOptions forest_options;
  forest_options.num_trees = options_.forest_trees;
  forest_options.tree.max_features = dims;
  std::vector<ModelIndividual> population(
      static_cast<std::size_t>(kGaPopulation));
  for (auto& ind : population) {
    ind.genes.resize(dims);
    for (auto& g : ind.genes) g = rng.uniform();
  }
  // Fits the forest to `data` and evolves `population` against it, best
  // predicted first.
  const auto search_model = [&] {
    obs::Span span("surrogate_ga", "tuners");
    span.arg("population", kGaPopulation);
    span.arg("generations", options_.ga_generations);
    ml::RandomForest model(forest_options, seed ^ 0xabcdULL);
    model.fit(data);
    const auto by_prediction = [](const ModelIndividual& a,
                                  const ModelIndividual& b) {
      return a.predicted < b.predicted;
    };
    for (auto& ind : population) ind.predicted = model.predict(ind.genes);
    for (int gen = 0; gen < options_.ga_generations; ++gen) {
      std::sort(population.begin(), population.end(), by_prediction);
      const auto elite = static_cast<std::size_t>(kGaElite);
      for (std::size_t i = elite; i < population.size(); ++i) {
        const auto& a = population[rng.uniform_index(elite)];
        const auto& b = population[rng.uniform_index(elite)];
        auto& child = population[i];
        for (std::size_t d = 0; d < dims; ++d) {
          child.genes[d] = rng.bernoulli(0.5) ? a.genes[d] : b.genes[d];
          if (rng.bernoulli(kMutationRate)) {
            child.genes[d] = rng.uniform();
          }
        }
        child.predicted = model.predict(child.genes);
      }
    }
    std::sort(population.begin(), population.end(), by_prediction);
  };
  search_model();

  // ---- Phase 3: validate the model's favourites on the cluster -----------
  // One single-evaluation round per probe: the near-duplicate filter
  // depends on what was already validated.  A favourite that fails for
  // good (not a transient fault) shows the forest missed a failure
  // boundary: it joins the training set and the model is searched again
  // before the next probe, so the remaining favourites steer clear of it.
  const int validation_budget = budget - train_count;
  obs::Span validate_span("validate", "tuners");
  validate_span.arg("budget", validation_budget);
  int validated = 0;
  for (std::size_t next = 0; next < population.size();) {
    if (validated >= validation_budget) break;
    if (paced_stop()) return result;  // cooperative cancel between probes
    const auto& ind = population[next++];
    // Skip near-duplicates of already-validated candidates.
    bool duplicate = false;
    for (int j = 0; j < validated; ++j) {
      const auto& prev =
          result.history[result.history.size() - 1 -
                         static_cast<std::size_t>(j)];
      double distance = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        distance += std::abs(prev.unit[d] - ind.genes[d]);
      }
      if (distance < 0.05 * static_cast<double>(dims)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    const auto e = evaluate_round(objective, {ind.genes}, guard, result)[0];
    ++validated;
    if (!e.ok() && !e.transient) {
      data.add_row(e.unit, std::log(std::max(1e-6, e.value_s)));
      search_model();
      next = 0;
    }
  }
  // If dedup starved the validation phase, fill with fresh random probes.
  while (static_cast<int>(result.history.size()) < budget) {
    if (paced_stop()) break;
    std::vector<double> unit(dims);
    for (auto& u : unit) u = rng.uniform();
    evaluate_round(objective, {unit}, guard, result);
  }
  return result;
}

}  // namespace robotune::tuners
