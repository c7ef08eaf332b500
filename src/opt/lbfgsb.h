// Bound-constrained limited-memory BFGS (L-BFGS-B style).
//
// ROBOTune optimizes its acquisition functions with L-BFGS-B (paper §4).
// We implement the projected variant: a limited-memory BFGS direction with
// an Armijo backtracking line search along the *projected* path
// P(x + t d), where P clips onto the box.  Variables pinned at an active
// bound with an outward gradient are dropped from the quasi-Newton
// direction for that step.  This is the standard projected quasi-Newton
// scheme and converges to box-constrained stationary points.
//
// The caller supplies the objective value and gradient.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"

namespace robotune {
class ThreadPool;
}

namespace robotune::opt {

struct Bounds {
  std::vector<double> lower;
  std::vector<double> upper;

  static Bounds unit_cube(std::size_t dims) {
    return {std::vector<double>(dims, 0.0), std::vector<double>(dims, 1.0)};
  }

  std::size_t dims() const noexcept { return lower.size(); }
  void clip(std::span<double> x) const;
};

/// Objective: returns f(x) and writes the gradient into `grad` (same size
/// as x) when `grad` is non-empty.
using Objective =
    std::function<double(std::span<const double> x, std::span<double> grad)>;

struct LbfgsbOptions {
  int max_iterations = 100;
  double gradient_tolerance = 1e-6;
  double value_tolerance = 1e-10;
};

struct LbfgsbResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  int evaluations = 0;
  bool converged = false;
};

/// Minimizes `objective` within `bounds`, starting at x0 (clipped to the
/// box first).
LbfgsbResult minimize(const Objective& objective, std::span<const double> x0,
                      const Bounds& bounds, const LbfgsbOptions& options = {});

struct MultiStartOptions {
  int starts = 10;
  LbfgsbOptions lbfgsb;
  /// Extra pure-random probes evaluated (no descent) to seed the starts —
  /// the best `starts` probes become initial points.
  int probe_candidates = 100;
};

/// Multi-start minimization: probes the box at random, runs L-BFGS-B from
/// the best probes (plus any caller-provided warm starts), and returns the
/// best local minimum found.  This is how the BO engine maximizes its
/// acquisition functions over the unit cube.
LbfgsbResult multistart_minimize(
    const Objective& objective, const Bounds& bounds, Rng& rng,
    const MultiStartOptions& options = {},
    const std::vector<std::vector<double>>& warm_starts = {});

/// Produces a fresh, independently usable Objective.  Each parallel start
/// calls the factory once so objectives can own private scratch state
/// (e.g. a GP prediction workspace) without synchronization.
using ObjectiveFactory = std::function<Objective()>;

/// Runs one L-BFGS-B descent from every start and returns the canonical
/// best: the lowest value, ties broken by lowest start index.  When `pool`
/// is non-null and has more than one worker, starts run concurrently; each
/// start writes only its own result slot and the reduction is a fixed
/// sequential scan, so the returned result is byte-identical at any worker
/// count (including the inline pool == nullptr path).  `evaluations` sums
/// objective evaluations across all starts.
LbfgsbResult minimize_starts(const ObjectiveFactory& factory,
                             const std::vector<std::vector<double>>& starts,
                             const Bounds& bounds,
                             const LbfgsbOptions& options = {},
                             ThreadPool* pool = nullptr);

}  // namespace robotune::opt
