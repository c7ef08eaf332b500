#include "tuners/gunther.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace robotune::tuners {

namespace {

/// Survivors per generation (aggressive truncation selection).
constexpr int kElite = 4;
/// Offspring per generation.
constexpr int kGenerationSize = 10;
/// Per-gene mutation probability (aggressive mutation).
constexpr double kMutationRate = 0.20;
/// A mutation resets the gene at random with this probability (the
/// aggressive variant), otherwise perturbs it by N(0, kGaussianSigma).
constexpr double kResetProbability = 0.5;
constexpr double kGaussianSigma = 0.12;

struct Individual {
  std::vector<double> genes;
  double fitness = std::numeric_limits<double>::infinity();  // lower = better
};

}  // namespace

TuningResult Gunther::tune(sparksim::SparkObjective& objective, int budget,
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

  // Evaluates a whole group of individuals — the initial population or
  // one generation's offspring — as one round (genes were all drawn
  // before any evaluation).  Failed configurations get the penalty value
  // so selection avoids them.  Transient failures carry a censored value
  // that says nothing about the genes, so they rank last instead of
  // mid-population — the GA never breeds from an observation that was
  // pure cluster flake.
  auto evaluate_group = [&](std::vector<Individual>& group) {
    std::vector<std::vector<double>> units;
    units.reserve(group.size());
    for (const auto& ind : group) units.push_back(ind.genes);
    const auto evals = evaluate_round(objective, units, guard, result);
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i].fitness = evals[i].transient
                             ? std::numeric_limits<double>::infinity()
                             : evals[i].value_s;
    }
  };

  // --- Initial population (random, sized by parameter count) -------------
  int init_size = static_cast<int>(
      std::lround(kInitialPerParam * static_cast<double>(dims)));
  init_size = std::min(
      init_size,
      static_cast<int>(budget * kMaxInitialBudgetFraction));
  init_size = std::max(init_size, std::min(budget, 4));

  int remaining = budget;
  std::vector<Individual> population;
  const int init_count = std::min(init_size, remaining);
  population.reserve(static_cast<std::size_t>(init_count));
  for (int i = 0; i < init_count; ++i) {
    Individual ind;
    ind.genes.resize(dims);
    for (auto& g : ind.genes) g = rng.uniform();
    population.push_back(std::move(ind));
  }
  {
    obs::Span span("init", "tuners");
    span.arg("population", init_count);
    evaluate_group(population);
  }
  remaining -= init_count;

  // --- Generations: aggressive selection, crossover, mutation -------------
  while (remaining > 0) {
    if (paced_stop()) break;  // cooperative cancel at generation boundary
    obs::count("gunther.generations");
    obs::Span gen_span("iteration", "tuners");
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    const int elite =
        std::min<int>(kElite, static_cast<int>(population.size()));
    population.resize(static_cast<std::size_t>(std::max(elite, 2)));

    std::vector<Individual> offspring;
    const int gen = std::min(kGenerationSize, remaining);
    gen_span.arg("offspring", gen);
    offspring.reserve(static_cast<std::size_t>(gen));
    for (int c = 0; c < gen; ++c) {
      const auto& a =
          population[rng.uniform_index(population.size())];
      const auto& b =
          population[rng.uniform_index(population.size())];
      Individual child;
      child.genes.resize(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        child.genes[d] = rng.bernoulli(0.5) ? a.genes[d] : b.genes[d];
        if (rng.bernoulli(kMutationRate)) {
          if (rng.bernoulli(kResetProbability)) {
            child.genes[d] = rng.uniform();  // aggressive reset
          } else {
            child.genes[d] = std::clamp(
                child.genes[d] + rng.normal(0.0, kGaussianSigma),
                0.0, 1.0 - 1e-12);
          }
        }
      }
      offspring.push_back(std::move(child));
    }
    evaluate_group(offspring);
    remaining -= gen;
    population.insert(population.end(),
                      std::make_move_iterator(offspring.begin()),
                      std::make_move_iterator(offspring.end()));
  }
  return result;
}

}  // namespace robotune::tuners
