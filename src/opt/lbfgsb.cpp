#include "opt/lbfgsb.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "obs/trace.h"

namespace robotune::opt {

void Bounds::clip(std::span<double> x) const {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lower[i], upper[i]);
  }
}

namespace {

struct Pair {
  std::vector<double> s;  // x_{k+1} - x_k
  std::vector<double> y;  // g_{k+1} - g_k
  double rho = 0.0;       // 1 / (y.s)
};

// Two-loop recursion producing the L-BFGS descent direction -H g, with the
// free-variable mask applied (bound-active coordinates with outward
// gradients are frozen to zero).
std::vector<double> lbfgs_direction(const std::deque<Pair>& history,
                                    std::span<const double> grad,
                                    std::span<const char> free_mask) {
  const std::size_t n = grad.size();
  std::vector<double> q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = free_mask[i] ? grad[i] : 0.0;

  std::vector<double> alpha(history.size());
  for (std::size_t k = history.size(); k-- > 0;) {
    const Pair& p = history[k];
    alpha[k] = p.rho * linalg::dot(p.s, q);
    linalg::axpy(-alpha[k], p.y, q);
  }
  // Initial Hessian scaling gamma = s.y / y.y of the newest pair.
  double gamma = 1.0;
  if (!history.empty()) {
    const Pair& newest = history.back();
    const double yy = linalg::dot(newest.y, newest.y);
    if (yy > 0.0) gamma = linalg::dot(newest.s, newest.y) / yy;
  }
  for (double& v : q) v *= gamma;
  for (std::size_t k = 0; k < history.size(); ++k) {
    const Pair& p = history[k];
    const double beta = p.rho * linalg::dot(p.y, q);
    linalg::axpy(alpha[k] - beta, p.s, q);
  }
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = free_mask[i] ? -q[i] : 0.0;
  }
  return q;
}

// Projected-gradient norm: the standard box-constrained stationarity
// measure ||P(x - g) - x||_inf.
double projected_gradient_norm(std::span<const double> x,
                               std::span<const double> grad,
                               const Bounds& bounds) {
  double norm = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double step =
        std::clamp(x[i] - grad[i], bounds.lower[i], bounds.upper[i]) - x[i];
    norm = std::max(norm, std::abs(step));
  }
  return norm;
}

}  // namespace

LbfgsbResult minimize(const Objective& objective, std::span<const double> x0,
                      const Bounds& bounds, const LbfgsbOptions& options) {
  const std::size_t n = x0.size();
  require(bounds.lower.size() == n && bounds.upper.size() == n,
          "lbfgsb: bounds dimension mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    require(bounds.lower[i] <= bounds.upper[i],
            "lbfgsb: lower bound exceeds upper bound");
  }

  LbfgsbResult result;
  result.x.assign(x0.begin(), x0.end());
  bounds.clip(result.x);

  std::vector<double> grad(n, 0.0);
  result.value = objective(result.x, grad);
  ++result.evaluations;

  std::deque<Pair> history;
  std::vector<char> free_mask(n, 1);
  std::vector<double> x_new(n), grad_new(n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    if (projected_gradient_norm(result.x, grad, bounds) <
        options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Freeze variables sitting on a bound with the gradient pushing
    // outward; the quasi-Newton step acts on the free set only.
    for (std::size_t i = 0; i < n; ++i) {
      const bool at_lower =
          result.x[i] <= bounds.lower[i] && grad[i] > 0.0;
      const bool at_upper =
          result.x[i] >= bounds.upper[i] && grad[i] < 0.0;
      free_mask[i] = (at_lower || at_upper) ? 0 : 1;
    }

    std::vector<double> direction =
        lbfgs_direction(history, grad, free_mask);
    double dir_dot_grad = linalg::dot(direction, grad);
    if (!(dir_dot_grad < 0.0)) {
      // Not a descent direction (stale curvature pairs) — fall back to the
      // projected steepest descent and reset memory.
      history.clear();
      for (std::size_t i = 0; i < n; ++i) {
        direction[i] = free_mask[i] ? -grad[i] : 0.0;
      }
      dir_dot_grad = linalg::dot(direction, grad);
      if (!(dir_dot_grad < 0.0)) {
        result.converged = true;  // gradient vanishes on the free set
        break;
      }
    }

    // Backtracking Armijo line search along the projected path.
    constexpr double kArmijo = 1e-4;
    constexpr int kMaxLineSearchSteps = 25;
    double t = 1.0;
    double f_new = result.value;
    bool accepted = false;
    auto try_step = [&](double step, std::span<double> x_out,
                        std::span<double> grad_out) {
      for (std::size_t i = 0; i < n; ++i) {
        x_out[i] = std::clamp(result.x[i] + step * direction[i],
                              bounds.lower[i], bounds.upper[i]);
      }
      const double f = objective(x_out, grad_out);
      ++result.evaluations;
      return f;
    };
    for (int ls = 0; ls < kMaxLineSearchSteps; ++ls) {
      f_new = try_step(t, x_new, grad_new);
      // Armijo on the actual (projected) displacement.
      double actual_decrease_bound = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        actual_decrease_bound += grad[i] * (x_new[i] - result.x[i]);
      }
      if (f_new <= result.value + kArmijo * actual_decrease_bound &&
          std::isfinite(f_new)) {
        accepted = true;
        break;
      }
      t *= 0.5;
    }
    if (!accepted) break;  // line search failed; x is (numerically) optimal

    // Expansion: when the unit step is accepted immediately, the direction
    // may be badly under-scaled (stale curvature model); greedily double
    // the step while the objective keeps improving.
    if (t == 1.0) {
      std::vector<double> x_try(n), grad_try(n);
      for (int grow = 0; grow < 12; ++grow) {
        const double f_try = try_step(t * 2.0, x_try, grad_try);
        if (!(f_try < f_new) || !std::isfinite(f_try)) break;
        t *= 2.0;
        f_new = f_try;
        x_new.swap(x_try);
        grad_new.swap(grad_try);
      }
    }

    // Curvature pair update.
    Pair p;
    p.s.resize(n);
    p.y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      p.s[i] = x_new[i] - result.x[i];
      p.y[i] = grad_new[i] - grad[i];
    }
    // Relative curvature test: an absolute threshold would reject the
    // (legitimately tiny) pairs produced by small steps and freeze the
    // quasi-Newton model.
    const double sy = linalg::dot(p.s, p.y);
    if (sy > 1e-10 * linalg::norm2(p.s) * linalg::norm2(p.y)) {
      p.rho = 1.0 / sy;
      constexpr std::size_t kHistory = 8;  // limited-memory pairs kept
      history.push_back(std::move(p));
      if (history.size() > kHistory) {
        history.pop_front();
      }
    }

    const double improvement = result.value - f_new;
    result.x = x_new;
    result.value = f_new;
    grad = grad_new;

    if (improvement < options.value_tolerance &&
        improvement >= 0.0) {
      result.converged = true;
      break;
    }
  }
  return result;
}

LbfgsbResult multistart_minimize(
    const Objective& objective, const Bounds& bounds, Rng& rng,
    const MultiStartOptions& options,
    const std::vector<std::vector<double>>& warm_starts) {
  const std::size_t n = bounds.dims();
  require(n > 0, "multistart_minimize: empty bounds");

  // Random probes, keep the best `starts` as initial points.
  struct Probe {
    double value;
    std::vector<double> x;
  };
  std::vector<Probe> probes;
  probes.reserve(static_cast<std::size_t>(options.probe_candidates));
  std::vector<double> no_grad;
  for (int c = 0; c < options.probe_candidates; ++c) {
    Probe p;
    p.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      p.x[i] = rng.uniform(bounds.lower[i], bounds.upper[i]);
    }
    p.value = objective(p.x, no_grad);
    probes.push_back(std::move(p));
  }
  std::sort(probes.begin(), probes.end(),
            [](const Probe& a, const Probe& b) { return a.value < b.value; });

  std::vector<std::vector<double>> starts = warm_starts;
  const auto num_probe_starts = static_cast<std::size_t>(
      std::max(0, options.starts - static_cast<int>(warm_starts.size())));
  for (std::size_t i = 0; i < num_probe_starts && i < probes.size(); ++i) {
    starts.push_back(probes[i].x);
  }
  if (starts.empty() && !probes.empty()) starts.push_back(probes.front().x);

  LbfgsbResult best;
  best.value = std::numeric_limits<double>::infinity();
  for (const auto& x0 : starts) {
    LbfgsbResult r = minimize(objective, x0, bounds, options.lbfgsb);
    best.evaluations += r.evaluations;
    if (r.value < best.value) {
      const int evals = best.evaluations;
      best = std::move(r);
      best.evaluations = evals;
    }
  }
  // Even a failed descent should not be worse than the best raw probe.
  if (!probes.empty() && probes.front().value < best.value) {
    best.x = probes.front().x;
    best.value = probes.front().value;
  }
  return best;
}

LbfgsbResult minimize_starts(const ObjectiveFactory& factory,
                             const std::vector<std::vector<double>>& starts,
                             const Bounds& bounds,
                             const LbfgsbOptions& options, ThreadPool* pool) {
  require(!starts.empty(), "minimize_starts: no starts");

  // One pre-sized slot per start; a parallel start touches only its own
  // slot, so the slot vector's final contents do not depend on scheduling.
  std::vector<LbfgsbResult> slots(starts.size());
  auto run_start = [&](std::size_t i) {
    obs::Span span("lbfgsb_start", "opt");
    span.arg("start_index", static_cast<std::uint64_t>(i));
    const Objective objective = factory();
    slots[i] = minimize(objective, starts[i], bounds, options);
    span.arg("value", slots[i].value);
    span.arg("evaluations", slots[i].evaluations);
  };
  if (pool != nullptr && pool->size() > 1 && starts.size() > 1) {
    pool->parallel_for(starts.size(), run_start);
  } else {
    for (std::size_t i = 0; i < starts.size(); ++i) run_start(i);
  }

  // Canonical reduction: strictly-lower value wins, so the lowest start
  // index breaks ties — the argmin is a pure function of the slots.
  std::size_t best_index = 0;
  int evaluations = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    evaluations += slots[i].evaluations;
    if (slots[i].value < slots[best_index].value) best_index = i;
  }
  LbfgsbResult best = std::move(slots[best_index]);
  best.evaluations = evaluations;
  return best;
}

}  // namespace robotune::opt
