// Central-difference gradients: the reference the analytic gradients of
// the kernels, the GP posterior and the acquisition functions are
// checked against.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "opt/lbfgsb.h"

namespace robotune::opt {

/// Wraps a value-only function with central differences.
inline Objective numeric_gradient(
    std::function<double(std::span<const double>)> f, double step = 1e-6) {
  return [f = std::move(f), step](std::span<const double> x,
                                  std::span<double> grad) -> double {
    const double value = f(x);
    if (!grad.empty()) {
      std::vector<double> xp(x.begin(), x.end());
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double saved = xp[i];
        xp[i] = saved + step;
        const double fp = f(xp);
        xp[i] = saved - step;
        const double fm = f(xp);
        xp[i] = saved;
        grad[i] = (fp - fm) / (2.0 * step);
      }
    }
    return value;
  };
}

}  // namespace robotune::opt
