#include "gp/kernel.h"

#include <cmath>

#include "common/error.h"
#include "linalg/simd.h"

namespace robotune::gp {

namespace {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    ss += d * d;
  }
  return ss;
}

constexpr double kSqrt5Const = 2.2360679774997896964091737;

/// Finishes a Matérn 5/2 evaluation from the scaled squared distance —
/// the scalar tail shared by operator() and each SIMD lane (z derivation
/// order matters for bit-identity: kSqrt5 * sqrt(ss) first, then the
/// caller applies any length-scale division before passing ss here).
double matern52_from_z(double z, double signal_variance) {
  return signal_variance * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

}  // namespace

Matern52::Matern52(double length_scale, double signal_variance)
    : length_scale_(length_scale), signal_variance_(signal_variance) {
  require(length_scale > 0.0, "Matern52: length scale must be positive");
  require(signal_variance > 0.0, "Matern52: signal variance must be positive");
}

double Matern52::operator()(std::span<const double> a,
                            std::span<const double> b) const {
  static constexpr double kSqrt5 = 2.2360679774997896964091737;
  const double r = std::sqrt(squared_distance(a, b));
  const double z = kSqrt5 * r / length_scale_;
  return signal_variance_ * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

void Matern52::accumulate_gradient(std::span<const double> a,
                                   std::span<const double> b,
                                   std::span<double> grad) const {
  // k(r) = s² (1 + z + z²/3) e^{-z} with z = √5 r / l.  Differentiating
  // through z and substituting z/r = √5/l collapses to
  //   ∂k/∂a_i = −(5 s² / 3 l²) (1 + z) e^{-z} (a_i − b_i),
  // which is well-defined at r = 0 (gradient vanishes).
  static constexpr double kSqrt5 = 2.2360679774997896964091737;
  const double r = std::sqrt(squared_distance(a, b));
  const double z = kSqrt5 * r / length_scale_;
  const double coef = -(5.0 / 3.0) * signal_variance_ * (1.0 + z) *
                      std::exp(-z) / (length_scale_ * length_scale_);
  for (std::size_t i = 0; i < a.size(); ++i) {
    grad[i] += coef * (a[i] - b[i]);
  }
}

void Matern52::accumulate_covariance_row(
    std::span<const std::vector<double>> points, std::span<const double> x,
    std::span<double> out) const {
  const std::size_t n = points.size();
  const std::size_t dims = x.size();
  std::size_t i = 0;
  namespace simd = linalg::simd;
  // Four *independent* points per block: each lane runs the scalar
  // recurrence (ascending-dimension distance sum, then scalar libm
  // sqrt/exp), so every entry is bit-identical to operator().
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const double* p0 = points[i].data();
    const double* p1 = points[i + 1].data();
    const double* p2 = points[i + 2].data();
    const double* p3 = points[i + 3].data();
    simd::v4d ss = simd::broadcast(0.0);
    for (std::size_t d = 0; d < dims; ++d) {
      const simd::v4d t = simd::gather(p0, p1, p2, p3, d) -
                          simd::broadcast(x[d]);
      ss += t * t;
    }
    for (std::size_t lane = 0; lane < simd::kLanes; ++lane) {
      const double z = kSqrt5Const * std::sqrt(ss[lane]) / length_scale_;
      out[i + lane] += matern52_from_z(z, signal_variance_);
    }
  }
  for (; i < n; ++i) {
    const double z =
        kSqrt5Const * std::sqrt(squared_distance(points[i], x)) /
        length_scale_;
    out[i] += matern52_from_z(z, signal_variance_);
  }
}

void Matern52::accumulate_param_gradient(std::span<const double> a,
                                         std::span<const double> b, bool,
                                         double w,
                                         std::span<double> grad) const {
  // With z = √5 r/l:  ∂k/∂log l = −z ∂k/∂z = s² z²(1 + z) e^{-z} / 3
  // and ∂k/∂log s² = k.
  const double z =
      kSqrt5Const * std::sqrt(squared_distance(a, b)) / length_scale_;
  const double e = signal_variance_ * std::exp(-z);
  grad[0] += w * e * z * z * (1.0 + z) / 3.0;
  grad[1] += w * e * (1.0 + z + z * z / 3.0);
}

std::vector<double> Matern52::log_params() const {
  return {std::log(length_scale_), std::log(signal_variance_)};
}

void Matern52::set_log_params(std::span<const double> values) {
  require(values.size() == 2, "Matern52: expected 2 parameters");
  length_scale_ = std::exp(values[0]);
  signal_variance_ = std::exp(values[1]);
}

std::string Matern52::describe() const {
  return "Matern52(l=" + std::to_string(length_scale_) +
         ", s2=" + std::to_string(signal_variance_) + ")";
}

std::unique_ptr<Kernel> Matern52::clone() const {
  return std::make_unique<Matern52>(*this);
}

Matern52Ard::Matern52Ard(std::size_t dims, double length_scale,
                         double signal_variance)
    : scales_(dims, length_scale),
      inv_sq_scales_(dims, 1.0 / (length_scale * length_scale)),
      signal_variance_(signal_variance) {
  require(dims > 0, "Matern52Ard: need at least one dimension");
  require(length_scale > 0.0, "Matern52Ard: length scale must be positive");
  require(signal_variance > 0.0,
          "Matern52Ard: signal variance must be positive");
}

double Matern52Ard::operator()(std::span<const double> a,
                               std::span<const double> b) const {
  static constexpr double kSqrt5 = 2.2360679774997896964091737;
  double ss = 0.0;
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    const double d = (a[i] - b[i]) / scales_[i];
    ss += d * d;
  }
  const double z = kSqrt5 * std::sqrt(ss);
  return signal_variance_ * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

void Matern52Ard::accumulate_gradient(std::span<const double> a,
                                      std::span<const double> b,
                                      std::span<double> grad) const {
  // Same derivation as the isotropic kernel with the scaled distance
  // z = √5 √(Σ d_i²/l_i²):  ∂k/∂a_i = −(5 s²/3) (1+z) e^{-z} d_i / l_i².
  static constexpr double kSqrt5 = 2.2360679774997896964091737;
  double ss = 0.0;
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    const double d = (a[i] - b[i]) / scales_[i];
    ss += d * d;
  }
  const double z = kSqrt5 * std::sqrt(ss);
  const double coef =
      -(5.0 / 3.0) * signal_variance_ * (1.0 + z) * std::exp(-z);
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    grad[i] += coef * (a[i] - b[i]) / (scales_[i] * scales_[i]);
  }
}

void Matern52Ard::accumulate_covariance_row(
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
      const double z = kSqrt5Const * std::sqrt(ss[lane]);
      out[i + lane] += matern52_from_z(z, signal_variance_);
    }
  }
  for (; i < n; ++i) {
    double ss = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double t = (points[i][d] - x[d]) / scales_[d];
      ss += t * t;
    }
    const double z = kSqrt5Const * std::sqrt(ss);
    out[i] += matern52_from_z(z, signal_variance_);
  }
}

void Matern52Ard::accumulate_param_gradient(std::span<const double> a,
                                            std::span<const double> b, bool,
                                            double w,
                                            std::span<double> grad) const {
  // With t_i² = (a_i − b_i)²/l_i² and z = √5 |t|:
  //   ∂k/∂log l_i = (5 s²/3)(1 + z) e^{-z} t_i²,  ∂k/∂log s² = k.
  const std::size_t dims = scales_.size();
  double ss = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    ss += d * d * inv_sq_scales_[i];
  }
  const double z = kSqrt5Const * std::sqrt(ss);
  const double e = signal_variance_ * std::exp(-z);
  const double coef = w * (5.0 / 3.0) * e * (1.0 + z);
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    grad[i] += coef * d * d * inv_sq_scales_[i];
  }
  grad[dims] += w * e * (1.0 + z + z * z / 3.0);
}

std::vector<double> Matern52Ard::log_params() const {
  std::vector<double> out;
  out.reserve(scales_.size() + 1);
  for (double s : scales_) out.push_back(std::log(s));
  out.push_back(std::log(signal_variance_));
  return out;
}

void Matern52Ard::set_log_params(std::span<const double> values) {
  require(values.size() == scales_.size() + 1,
          "Matern52Ard: parameter count mismatch");
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    scales_[i] = std::exp(values[i]);
    inv_sq_scales_[i] = 1.0 / (scales_[i] * scales_[i]);
  }
  signal_variance_ = std::exp(values.back());
}

std::string Matern52Ard::describe() const {
  std::string out = "Matern52Ard(l=[";
  for (std::size_t i = 0; i < scales_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(scales_[i]);
  }
  out += "], s2=" + std::to_string(signal_variance_) + ")";
  return out;
}

std::unique_ptr<Kernel> Matern52Ard::clone() const {
  return std::make_unique<Matern52Ard>(*this);
}

WhiteNoise::WhiteNoise(double noise_variance)
    : noise_variance_(noise_variance) {
  require(noise_variance >= 0.0, "WhiteNoise: variance must be non-negative");
}

double WhiteNoise::operator()(std::span<const double>,
                              std::span<const double>) const {
  // Off-diagonal / cross covariances are zero; the diagonal contribution is
  // routed through diagonal_noise() so that prediction at a training input
  // does not inherit the observation noise.
  return 0.0;
}

void WhiteNoise::accumulate_param_gradient(std::span<const double>,
                                           std::span<const double>,
                                           bool observed_diagonal, double w,
                                           std::span<double> grad) const {
  // σ² sits on the observed diagonal only: ∂/∂log σ² there is σ².
  if (observed_diagonal) grad[0] += w * noise_variance_;
}

std::vector<double> WhiteNoise::log_params() const {
  return {std::log(std::max(noise_variance_, 1e-300))};
}

void WhiteNoise::set_log_params(std::span<const double> values) {
  require(values.size() == 1, "WhiteNoise: expected 1 parameter");
  noise_variance_ = std::exp(values[0]);
}

std::string WhiteNoise::describe() const {
  return "WhiteNoise(s2=" + std::to_string(noise_variance_) + ")";
}

std::unique_ptr<Kernel> WhiteNoise::clone() const {
  return std::make_unique<WhiteNoise>(*this);
}

SumKernel::SumKernel(std::unique_ptr<Kernel> a, std::unique_ptr<Kernel> b)
    : a_(std::move(a)), b_(std::move(b)) {
  require(a_ != nullptr && b_ != nullptr, "SumKernel: null component");
}

double SumKernel::operator()(std::span<const double> x,
                             std::span<const double> y) const {
  return (*a_)(x, y) + (*b_)(x, y);
}

void SumKernel::accumulate_gradient(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<double> grad) const {
  a_->accumulate_gradient(x, y, grad);
  b_->accumulate_gradient(x, y, grad);
}

void SumKernel::accumulate_covariance_row(
    std::span<const std::vector<double>> points, std::span<const double> x,
    std::span<double> out) const {
  // Per-entry this is a_(p,x) added before b_(p,x) — the same order the
  // scalar operator() sums them, so entries are bit-identical as long as
  // callers zero `out` first (our default kernels pair a Matérn with
  // white noise, whose contribution is exactly zero anyway).
  a_->accumulate_covariance_row(points, x, out);
  b_->accumulate_covariance_row(points, x, out);
}

void SumKernel::accumulate_param_gradient(std::span<const double> x,
                                          std::span<const double> y,
                                          bool observed_diagonal, double w,
                                          std::span<double> grad) const {
  const std::size_t split = a_->num_params();
  a_->accumulate_param_gradient(x, y, observed_diagonal, w,
                                grad.first(split));
  b_->accumulate_param_gradient(x, y, observed_diagonal, w,
                                grad.subspan(split));
}

double SumKernel::diagonal_noise() const {
  return a_->diagonal_noise() + b_->diagonal_noise();
}

std::size_t SumKernel::num_params() const {
  return a_->num_params() + b_->num_params();
}

std::vector<double> SumKernel::log_params() const {
  std::vector<double> out = a_->log_params();
  const std::vector<double> tail = b_->log_params();
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void SumKernel::set_log_params(std::span<const double> values) {
  require(values.size() == num_params(), "SumKernel: parameter count");
  a_->set_log_params(values.subspan(0, a_->num_params()));
  b_->set_log_params(values.subspan(a_->num_params()));
}

std::string SumKernel::describe() const {
  return a_->describe() + " + " + b_->describe();
}

std::unique_ptr<Kernel> SumKernel::clone() const {
  return std::make_unique<SumKernel>(a_->clone(), b_->clone());
}

std::unique_ptr<Kernel> default_kernel(double length_scale,
                                       double signal_variance,
                                       double noise_variance) {
  return std::make_unique<SumKernel>(
      std::make_unique<Matern52>(length_scale, signal_variance),
      std::make_unique<WhiteNoise>(noise_variance));
}

std::unique_ptr<Kernel> ard_kernel(std::size_t dims, double length_scale,
                                   double signal_variance,
                                   double noise_variance) {
  return std::make_unique<SumKernel>(
      std::make_unique<Matern52Ard>(dims, length_scale, signal_variance),
      std::make_unique<WhiteNoise>(noise_variance));
}

namespace {

/// Fills the Matérn part of `out` (scales + signal variance) if `kernel`
/// is one of the two Matérn shapes.  Iso scales broadcast to all dims.
bool fill_matern_part(const Kernel& kernel, std::size_t dims,
                      MaternHyperparams& out) {
  if (const auto* ard = dynamic_cast<const Matern52Ard*>(&kernel)) {
    const auto scales = ard->length_scales();
    if (scales.size() != dims) return false;
    out.length_scales.assign(scales.begin(), scales.end());
    out.signal_variance = ard->signal_variance();
    return true;
  }
  if (const auto* iso = dynamic_cast<const Matern52*>(&kernel)) {
    out.length_scales.assign(dims, iso->length_scale());
    out.signal_variance = iso->signal_variance();
    return true;
  }
  return false;
}

}  // namespace

std::optional<MaternHyperparams> extract_matern_hyperparams(
    const Kernel& kernel, std::size_t dims) {
  if (dims == 0) return std::nullopt;
  MaternHyperparams out;
  if (const auto* sum = dynamic_cast<const SumKernel*>(&kernel)) {
    const Kernel* matern = &sum->left();
    const Kernel* noise = &sum->right();
    if (dynamic_cast<const WhiteNoise*>(matern) != nullptr) {
      std::swap(matern, noise);
    }
    const auto* white = dynamic_cast<const WhiteNoise*>(noise);
    if (white == nullptr) return std::nullopt;
    if (!fill_matern_part(*matern, dims, out)) return std::nullopt;
    out.noise_variance = white->noise_variance();
    return out;
  }
  if (fill_matern_part(kernel, dims, out)) {
    out.noise_variance = 0.0;
    return out;
  }
  return std::nullopt;
}

}  // namespace robotune::gp
