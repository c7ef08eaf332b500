// The covariance kernel of the Gaussian-process surrogate.
//
// The paper uses the sum of a Matérn 5/2 kernel and a white-noise kernel
// (§4, following CherryPick and Snoek et al.).  This is that kernel with
// per-dimension (ARD) length scales, the form scikit-optimize uses by
// default: irrelevant dimensions learn long scales and drop out of the
// distance, which BO over a mixed-importance configuration subspace
// needs.  The white noise σ² enters only on observed diagonals, so a
// prediction at a training input does not inherit the observation
// noise.  Hyperparameters are held in log space, in the order
// [log l_1..l_d, log s², log σ²], so the marginal-likelihood
// optimization is unconstrained and scale-free.
//
//   k(a, b) = s² (1 + z + z²/3) e^{-z},  z = √5 √(Σ (a_i − b_i)²/l_i²)
//             + σ² on an observed point paired with itself
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace robotune::gp {

class Kernel {
 public:
  explicit Kernel(std::size_t dims, double length_scale = 0.5,
                  double signal_variance = 1.0, double noise_variance = 1e-3);

  /// Covariance of two (same-length) points, without the white noise.
  double operator()(std::span<const double> a,
                    std::span<const double> b) const;

  /// Adds ∂k(a,b)/∂a into `grad` (same length as the points); callers
  /// zero `grad` first when they want the bare gradient.
  void accumulate_gradient(std::span<const double> a,
                           std::span<const double> b,
                           std::span<double> grad) const;

  /// Adds k(points[i], x) into out[i] for every training point — the
  /// kernel-matrix-assembly hot loop behind factorize(), predict() and
  /// predict_batch().  Four points per SIMD block; each lane runs the
  /// scalar recurrence (ascending-dimension distance sum, scalar libm
  /// sqrt/exp), so every entry is bit-identical to operator().
  void accumulate_covariance_row(std::span<const std::vector<double>> points,
                                 std::span<const double> x,
                                 std::span<double> out) const;

  /// Adds w·∂k(a,b)/∂log θ_j into grad[j] for every hyperparameter θ_j,
  /// in log_params() order — the per-pair term of the analytic
  /// log-marginal-likelihood gradient.  `observed_diagonal` marks a
  /// training point paired with itself, the only entry σ² adds to.
  void accumulate_param_gradient(std::span<const double> a,
                                 std::span<const double> b,
                                 bool observed_diagonal, double w,
                                 std::span<double> grad) const;

  std::size_t num_params() const noexcept { return scales_.size() + 2; }
  std::vector<double> log_params() const;
  void set_log_params(std::span<const double> values);
  std::unique_ptr<Kernel> clone() const;

  /// Raises the white noise to σ² + `extra` (the BO engine's
  /// noise-inflation rung refits with extra = 0.1).
  void inflate_noise(double extra);

  std::span<const double> length_scales() const noexcept { return scales_; }
  double signal_variance() const noexcept { return signal_variance_; }
  double noise_variance() const noexcept { return noise_variance_; }

 private:
  /// Σ ((a_i − b_i)/l_i)², summed in ascending dimension order.
  double scaled_squared_distance(std::span<const double> a,
                                 std::span<const double> b) const;

  std::vector<double> scales_;
  /// 1 / l_i², kept beside scales_ so the hyperparameter gradient's
  /// per-pair sweep multiplies instead of dividing.
  std::vector<double> inv_sq_scales_;
  double signal_variance_;
  double noise_variance_;
};

/// The kernel the BO engine starts every session from.
std::unique_ptr<Kernel> ard_kernel(std::size_t dims,
                                   double length_scale = 0.5,
                                   double signal_variance = 1.0,
                                   double noise_variance = 1e-3);

/// The Matérn 5/2 hyperparameters the random-features tier needs to
/// mirror an exact-GP kernel's spectral density.
struct MaternHyperparams {
  std::vector<double> length_scales;  ///< per dimension
  double signal_variance = 1.0;
  double noise_variance = 1e-3;
};

/// The kernel's hyperparameters, or nullopt when `dims` is zero or is not
/// the kernel's dimension — the caller (the BO engine's sparse tier) then
/// degrades to the exact GP instead of fitting a mismatched surrogate.
std::optional<MaternHyperparams> extract_matern_hyperparams(
    const Kernel& kernel, std::size_t dims);

}  // namespace robotune::gp
