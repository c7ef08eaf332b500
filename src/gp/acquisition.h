// Acquisition functions for minimization (paper §3.4, Eqs. 2-4) and the
// GP-Hedge adaptive portfolio (Hoffman, Brochu & de Freitas 2011).
//
// All three functions are expressed as *utilities to maximize*; the
// optimizer minimizes their negation over the unit cube.
//   PI(x)  = Φ(d/σ)                        d = f(x⁺) − μ(x) − ξ
//   EI(x)  = dΦ(d/σ) + σφ(d/σ)             (0 when σ = 0)
//   LCB(x): select argmin μ(x) − κσ(x), i.e. maximize −(μ − κσ)
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gp/surrogate.h"
#include "opt/lbfgsb.h"

namespace robotune::gp {

enum class AcquisitionKind { kPI, kEI, kLCB };

std::string to_string(AcquisitionKind kind);

struct AcquisitionParams {
  double xi = 0.01;     ///< exploration knob for PI/EI (paper §4)
  double kappa = 1.96;  ///< exploration knob for LCB (paper §4)
};

/// Utility value of `kind` at a point with posterior (mu, sigma), given the
/// incumbent best (lowest) observation.  Higher is better.
double acquisition_value(AcquisitionKind kind, double mu, double sigma,
                         double best_observed,
                         const AcquisitionParams& params = {});

/// Utility value of `kind` plus its exact gradient with respect to the
/// query point, computed from a posterior prediction-with-gradient.
/// Writes ∂U/∂x into `grad` (same length as the point) and returns U; the
/// value is identical to acquisition_value() on the same posterior.  At
/// σ = 0 the PI/EI utilities are flat (zero gradient) and the LCB
/// gradient degenerates to −∂μ/∂x.
double acquisition_value_gradient(AcquisitionKind kind,
                                  const PredictGradient& posterior,
                                  double best_observed,
                                  const AcquisitionParams& params,
                                  std::span<double> grad);

struct AcquisitionOptimizerOptions {
  int starts = 8;
  int probe_candidates = 256;
  /// Multi-start execution: 0 runs the starts on the process-wide
  /// ThreadPool::global(); 1 forces the inline sequential path.  An
  /// explicit `pool` overrides both.  The returned point is byte-identical
  /// for every setting — probe streams are derived per index from a
  /// single RNG draw and the per-start argmin is canonical.
  int workers = 0;
  ThreadPool* pool = nullptr;
};

/// Maximizes the acquisition utility of `kind` over the unit cube via
/// multi-start L-BFGS-B (paper §4 uses L-BFGS-B).  Probe candidates are
/// screened with one batched GP prediction; descents then run from the
/// best probes, in parallel when configured (see
/// AcquisitionOptimizerOptions).  Consumes exactly one draw from `rng`
/// regardless of probe/start/worker counts.
std::vector<double> optimize_acquisition(
    const Surrogate& gp, AcquisitionKind kind, std::size_t dims,
    Rng& rng, const AcquisitionParams& params = {},
    const AcquisitionOptimizerOptions& options = {});

/// GP-Hedge portfolio over {PI, EI, LCB}.  Each round every function
/// nominates a candidate (default AcquisitionParams); one nominee is
/// chosen with probability p_j ∝ exp(η g_j), η = 1; after the GP is
/// refit the gains are updated with the (negated, since we minimize)
/// posterior mean at each nominee: g_j ← g_j − μ(x_j).
class GpHedge {
 public:
  struct Options {
    AcquisitionOptimizerOptions optimizer;
  };

  GpHedge(std::size_t dims, std::uint64_t seed);
  GpHedge(std::size_t dims, std::uint64_t seed, Options options);

  struct Choice {
    std::vector<double> point;                   ///< chosen candidate
    AcquisitionKind chosen;                      ///< which function proposed it
    std::vector<std::vector<double>> nominees;   ///< all three candidates
  };

  /// Nominates candidates from each acquisition and picks one by the
  /// current Hedge distribution.
  Choice propose(const Surrogate& gp);

  /// Updates cumulative gains using the refit GP's posterior mean at the
  /// nominees from the last propose() call.
  void update_gains(const Surrogate& gp, const Choice& choice);

  std::span<const double> gains() const noexcept { return gains_; }

  /// Current selection probabilities (softmax of η·gains, numerically
  /// stabilized).
  std::vector<double> probabilities() const;

 private:
  std::size_t dims_;
  Options options_;
  Rng rng_;
  std::vector<double> gains_;  // PI, EI, LCB
};

}  // namespace robotune::gp
