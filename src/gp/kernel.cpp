#include "gp/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "linalg/simd.h"

namespace robotune::gp {

namespace {

constexpr double kSqrt5 = 2.2360679774997896964091737;

/// Finishes a Matérn 5/2 evaluation from z = √5 |t| — the scalar tail
/// shared by operator() and each SIMD lane.
double matern52_from_z(double z, double signal_variance) {
  return signal_variance * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

}  // namespace

Kernel::Kernel(std::size_t dims, double length_scale, double signal_variance,
               double noise_variance)
    : scales_(dims, length_scale),
      inv_sq_scales_(dims, 1.0 / (length_scale * length_scale)),
      signal_variance_(signal_variance),
      noise_variance_(noise_variance) {
  require(dims > 0, "Kernel: need at least one dimension");
  require(length_scale > 0.0, "Kernel: length scale must be positive");
  require(signal_variance > 0.0, "Kernel: signal variance must be positive");
  require(noise_variance >= 0.0, "Kernel: noise variance must be >= 0");
}

double Kernel::scaled_squared_distance(std::span<const double> a,
                                       std::span<const double> b) const {
  double ss = 0.0;
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    const double t = (a[i] - b[i]) / scales_[i];
    ss += t * t;
  }
  return ss;
}

double Kernel::operator()(std::span<const double> a,
                          std::span<const double> b) const {
  const double z = kSqrt5 * std::sqrt(scaled_squared_distance(a, b));
  return matern52_from_z(z, signal_variance_);
}

void Kernel::accumulate_gradient(std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> grad) const {
  // Differentiating k through z = √5 |t| and substituting z/|t| = √5
  // collapses to  ∂k/∂a_i = −(5 s²/3) (1+z) e^{-z} (a_i − b_i) / l_i²,
  // which is well-defined at a = b (the gradient vanishes).
  const double z = kSqrt5 * std::sqrt(scaled_squared_distance(a, b));
  const double coef =
      -(5.0 / 3.0) * signal_variance_ * (1.0 + z) * std::exp(-z);
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    grad[i] += coef * (a[i] - b[i]) / (scales_[i] * scales_[i]);
  }
}

void Kernel::accumulate_covariance_row(
    std::span<const std::vector<double>> points, std::span<const double> x,
    std::span<double> out) const {
  const std::size_t n = points.size();
  const std::size_t dims = scales_.size();
  std::size_t i = 0;
  namespace simd = linalg::simd;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const double* p0 = points[i].data();
    const double* p1 = points[i + 1].data();
    const double* p2 = points[i + 2].data();
    const double* p3 = points[i + 3].data();
    simd::v4d ss = simd::broadcast(0.0);
    for (std::size_t d = 0; d < dims; ++d) {
      const simd::v4d t =
          (simd::gather(p0, p1, p2, p3, d) - simd::broadcast(x[d])) /
          simd::broadcast(scales_[d]);
      ss += t * t;
    }
    for (std::size_t lane = 0; lane < simd::kLanes; ++lane) {
      const double z = kSqrt5 * std::sqrt(ss[lane]);
      out[i + lane] += matern52_from_z(z, signal_variance_);
    }
  }
  for (; i < n; ++i) out[i] += (*this)(points[i], x);
}

void Kernel::accumulate_param_gradient(std::span<const double> a,
                                       std::span<const double> b,
                                       bool observed_diagonal, double w,
                                       std::span<double> grad) const {
  // With t_i² = (a_i − b_i)²/l_i² and z = √5 |t|:
  //   ∂k/∂log l_i = (5 s²/3)(1 + z) e^{-z} t_i²,  ∂k/∂log s² = k,
  // and ∂/∂log σ² is σ² on the observed diagonal, zero elsewhere.
  const std::size_t dims = scales_.size();
  double ss = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    ss += d * d * inv_sq_scales_[i];
  }
  const double z = kSqrt5 * std::sqrt(ss);
  const double e = signal_variance_ * std::exp(-z);
  const double coef = w * (5.0 / 3.0) * e * (1.0 + z);
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    grad[i] += coef * d * d * inv_sq_scales_[i];
  }
  grad[dims] += w * e * (1.0 + z + z * z / 3.0);
  if (observed_diagonal) grad[dims + 1] += w * noise_variance_;
}

std::vector<double> Kernel::log_params() const {
  std::vector<double> out;
  out.reserve(num_params());
  for (double s : scales_) out.push_back(std::log(s));
  out.push_back(std::log(signal_variance_));
  out.push_back(std::log(std::max(noise_variance_, 1e-300)));
  return out;
}

void Kernel::set_log_params(std::span<const double> values) {
  require(values.size() == num_params(), "Kernel: parameter count mismatch");
  const std::size_t dims = scales_.size();
  for (std::size_t i = 0; i < dims; ++i) {
    scales_[i] = std::exp(values[i]);
    inv_sq_scales_[i] = 1.0 / (scales_[i] * scales_[i]);
  }
  signal_variance_ = std::exp(values[dims]);
  noise_variance_ = std::exp(values[dims + 1]);
}

std::unique_ptr<Kernel> Kernel::clone() const {
  return std::make_unique<Kernel>(*this);
}

void Kernel::inflate_noise(double extra) {
  require(extra >= 0.0, "Kernel: noise inflation must be >= 0");
  noise_variance_ += extra;
}

std::unique_ptr<Kernel> ard_kernel(std::size_t dims, double length_scale,
                                   double signal_variance,
                                   double noise_variance) {
  return std::make_unique<Kernel>(dims, length_scale, signal_variance,
                                  noise_variance);
}

std::optional<MaternHyperparams> extract_matern_hyperparams(
    const Kernel& kernel, std::size_t dims) {
  const auto scales = kernel.length_scales();
  if (dims == 0 || scales.size() != dims) return std::nullopt;
  return MaternHyperparams{{scales.begin(), scales.end()},
                           kernel.signal_variance(),
                           kernel.noise_variance()};
}

}  // namespace robotune::gp
