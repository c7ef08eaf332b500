#include "gp/acquisition.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/chaos.h"
#include "common/error.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace robotune::gp {

std::string to_string(AcquisitionKind kind) {
  switch (kind) {
    case AcquisitionKind::kPI:
      return "PI";
    case AcquisitionKind::kEI:
      return "EI";
    case AcquisitionKind::kLCB:
      return "LCB";
  }
  return "?";
}

double acquisition_value(AcquisitionKind kind, double mu, double sigma,
                         double best_observed,
                         const AcquisitionParams& params) {
  switch (kind) {
    case AcquisitionKind::kPI: {
      if (sigma <= 0.0) return 0.0;
      const double d = best_observed - mu - params.xi;
      return stats::normal_cdf(d / sigma);
    }
    case AcquisitionKind::kEI: {
      if (sigma <= 0.0) return 0.0;
      const double d = best_observed - mu - params.xi;
      const double z = d / sigma;
      return d * stats::normal_cdf(z) + sigma * stats::normal_pdf(z);
    }
    case AcquisitionKind::kLCB:
      // Maximizing −(μ − κσ) selects the point with the best (lowest)
      // confidence bound.
      return -(mu - params.kappa * sigma);
  }
  return 0.0;
}

double acquisition_value_gradient(AcquisitionKind kind,
                                  const PredictGradient& posterior,
                                  double best_observed,
                                  const AcquisitionParams& params,
                                  std::span<double> grad) {
  const double sigma = posterior.stddev();
  const std::size_t dims = posterior.dmean.size();
  require(grad.size() == dims,
          "acquisition_value_gradient: gradient size mismatch");

  // Chain rule through σ = √σ²:  ∂σ/∂x_i = ∂σ²/∂x_i / (2σ).  At σ = 0 the
  // posterior is pinned (training point / clipped variance); PI and EI are
  // identically 0 on that set and LCB reduces to −μ.
  if (sigma <= 0.0) {
    switch (kind) {
      case AcquisitionKind::kPI:
      case AcquisitionKind::kEI:
        std::fill(grad.begin(), grad.end(), 0.0);
        return 0.0;
      case AcquisitionKind::kLCB:
        for (std::size_t i = 0; i < dims; ++i) grad[i] = -posterior.dmean[i];
        return -posterior.mean;
    }
  }

  const double d = best_observed - posterior.mean - params.xi;
  const double t = d / sigma;
  switch (kind) {
    case AcquisitionKind::kPI: {
      // U = Φ(t):  ∂U = φ(t)·∂t with ∂t = (−∂μ·σ − d·∂σ)/σ².
      const double pdf = stats::normal_pdf(t);
      for (std::size_t i = 0; i < dims; ++i) {
        const double dsigma = posterior.dvariance[i] / (2.0 * sigma);
        grad[i] = pdf * (-posterior.dmean[i] * sigma - d * dsigma) /
                  (sigma * sigma);
      }
      return stats::normal_cdf(t);
    }
    case AcquisitionKind::kEI: {
      // U = d·Φ(t) + σ·φ(t):  the ∂t cross terms cancel, leaving the
      // classic ∂U = −Φ(t)·∂μ + φ(t)·∂σ.
      const double cdf = stats::normal_cdf(t);
      const double pdf = stats::normal_pdf(t);
      for (std::size_t i = 0; i < dims; ++i) {
        const double dsigma = posterior.dvariance[i] / (2.0 * sigma);
        grad[i] = -cdf * posterior.dmean[i] + pdf * dsigma;
      }
      return d * cdf + sigma * pdf;
    }
    case AcquisitionKind::kLCB: {
      // U = −μ + κσ.
      for (std::size_t i = 0; i < dims; ++i) {
        const double dsigma = posterior.dvariance[i] / (2.0 * sigma);
        grad[i] = -posterior.dmean[i] + params.kappa * dsigma;
      }
      return -(posterior.mean - params.kappa * sigma);
    }
  }
  std::fill(grad.begin(), grad.end(), 0.0);
  return 0.0;
}

std::vector<double> optimize_acquisition(
    const Surrogate& gp, AcquisitionKind kind, std::size_t dims,
    Rng& rng, const AcquisitionParams& params,
    const AcquisitionOptimizerOptions& options) {
  // Chaos site: thrown before the caller's RNG draw is consumed, so a
  // failed proposal leaves the generator exactly where a crash would.
  if (chaos::fail(chaos::Site::kAcqOpt)) {
    throw NumericalError("optimize_acquisition: optimizer diverged (chaos)");
  }
  const double best = gp.best_observed();
  const opt::Bounds bounds = opt::Bounds::unit_cube(dims);

  // Exactly ONE draw from the caller's generator, no matter how many
  // probes, starts or workers follow: every probe stream is derived from
  // (seed, probe index), so the caller's RNG — and therefore the whole
  // session trajectory — is invariant to the execution configuration.
  const std::uint64_t seed = rng();

  const auto num_probes =
      static_cast<std::size_t>(std::max(options.probe_candidates, 1));
  std::vector<std::vector<double>> probes(num_probes);
  for (std::size_t c = 0; c < num_probes; ++c) {
    Rng probe_rng(SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (c + 1))).next());
    probes[c].resize(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      probes[c][i] = probe_rng.uniform(bounds.lower[i], bounds.upper[i]);
    }
  }

  // Screen every probe with one batched prediction (single multi-RHS
  // triangular solve) instead of num_probes independent k*/solve passes.
  obs::count("acq.probes", num_probes);
  const std::vector<Prediction> screened = gp.predict_batch(probes);
  std::vector<double> probe_values(num_probes);
  for (std::size_t c = 0; c < num_probes; ++c) {
    probe_values[c] = -acquisition_value(kind, screened[c].mean,
                                         screened[c].stddev(), best, params);
  }

  // Best `starts` probes seed the descents; stable ordering by
  // (value, probe index) keeps the start list canonical.
  std::vector<std::size_t> order(num_probes);
  for (std::size_t c = 0; c < num_probes; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (probe_values[a] != probe_values[b]) {
      return probe_values[a] < probe_values[b];
    }
    return a < b;
  });
  const std::size_t num_starts = std::min(
      num_probes, static_cast<std::size_t>(std::max(options.starts, 1)));
  std::vector<std::vector<double>> starts(num_starts);
  for (std::size_t s = 0; s < num_starts; ++s) starts[s] = probes[order[s]];

  // Each start gets a freshly minted objective owning private scratch, so
  // concurrent descents never share writable state (the GP is only read).
  // Exact posterior gradients cost one O(n²) pass per L-BFGS evaluation.
  const opt::ObjectiveFactory factory = [&gp, kind, best,
                                         params]() -> opt::Objective {
    auto ws = std::make_shared<GpWorkspace>();
    auto pg = std::make_shared<PredictGradient>();
    return [&gp, kind, best, params, ws, pg](std::span<const double> x,
                                            std::span<double> grad) -> double {
      if (grad.empty()) {
        const Prediction p = gp.predict(x, *ws);
        return -acquisition_value(kind, p.mean, p.stddev(), best, params);
      }
      gp.predict_with_gradient(x, *ws, *pg);
      obs::count("gp.acq_grad");
      const double u =
          acquisition_value_gradient(kind, *pg, best, params, grad);
      for (double& g : grad) g = -g;
      return -u;
    };
  };

  ThreadPool* pool = options.pool;
  if (pool == nullptr && options.workers != 1) pool = &ThreadPool::global();

  opt::LbfgsbOptions descent;
  descent.max_iterations = 60;
  descent.gradient_tolerance = 1e-7;
  descent.value_tolerance = 1e-12;
  const opt::LbfgsbResult descended =
      opt::minimize_starts(factory, starts, bounds, descent, pool);

  // Even a failed descent should not be worse than the best raw probe.
  if (probe_values[order[0]] < descended.value) return probes[order[0]];
  return descended.x;
}

GpHedge::GpHedge(std::size_t dims, std::uint64_t seed)
    : GpHedge(dims, seed, Options{}) {}

GpHedge::GpHedge(std::size_t dims, std::uint64_t seed, Options options)
    : dims_(dims), options_(options), rng_(seed), gains_(3, 0.0) {}

std::vector<double> GpHedge::probabilities() const {
  constexpr double kEta = 1.0;  // Hedge learning rate
  const double max_gain = *std::max_element(gains_.begin(), gains_.end());
  std::vector<double> p(gains_.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < gains_.size(); ++i) {
    p[i] = std::exp(kEta * (gains_[i] - max_gain));
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

GpHedge::Choice GpHedge::propose(const Surrogate& gp) {
  static constexpr AcquisitionKind kKinds[] = {
      AcquisitionKind::kPI, AcquisitionKind::kEI, AcquisitionKind::kLCB};
  Choice choice;
  choice.nominees.reserve(3);
  for (AcquisitionKind kind : kKinds) {
    choice.nominees.push_back(optimize_acquisition(
        gp, kind, dims_, rng_, {}, options_.optimizer));
  }
  const std::vector<double> p = probabilities();
  const double u = rng_.uniform();
  std::size_t pick = p.size() - 1;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    cumulative += p[i];
    if (u < cumulative) {
      pick = i;
      break;
    }
  }
  choice.chosen = kKinds[pick];
  choice.point = choice.nominees[pick];
  return choice;
}

void GpHedge::update_gains(const Surrogate& gp, const Choice& choice) {
  require(choice.nominees.size() == gains_.size(),
          "GpHedge::update_gains: nominee count mismatch");
  // Hoffman et al.: reward each function with the posterior mean of its
  // nominee under the refit model.  We minimize, so the reward is −μ.
  // Means are standardized by the GP's own y-scale implicitly; to keep the
  // gains well-scaled across problems we normalize by the incumbent best.
  const double best = gp.best_observed();
  const double scale = std::max(1e-9, std::abs(best));
  // All three nominees go through one batched prediction (means are
  // bit-identical to per-point predict()).
  const std::vector<Prediction> posts = gp.predict_batch(choice.nominees);
  for (std::size_t i = 0; i < gains_.size(); ++i) {
    gains_[i] += -posts[i].mean / scale;
  }
}

}  // namespace robotune::gp
