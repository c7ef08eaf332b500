// Covariance kernels for the Gaussian-process surrogate.
//
// The paper uses the sum of a Matérn 5/2 kernel and a white-noise kernel
// (§4, following CherryPick and Snoek et al.).  Hyperparameters are held
// in log space so the marginal-likelihood optimization is unconstrained
// and scale-free.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace robotune::gp {

class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance of two (same-length) points.
  virtual double operator()(std::span<const double> a,
                            std::span<const double> b) const = 0;

  /// Adds ∂k(a,b)/∂a into `grad` (same length as the points).  The
  /// accumulate form lets SumKernel forward to its components without a
  /// scratch vector; callers zero `grad` first when they want the bare
  /// gradient.  The default adds nothing (correct for white noise, whose
  /// cross-covariance is identically zero off the observed diagonal).
  virtual void accumulate_gradient(std::span<const double> a,
                                   std::span<const double> b,
                                   std::span<double> grad) const {
    (void)a;
    (void)b;
    (void)grad;
  }

  /// Adds k(points[i], x) into out[i] for every training point — the
  /// kernel-matrix-assembly hot loop behind factorize(), predict() and
  /// predict_batch().  The accumulate form lets SumKernel forward to its
  /// components; callers zero `out` first.  The default loops over
  /// operator(); the Matérn kernels override it with a 4-point SIMD block
  /// whose per-point arithmetic (ascending-dimension distance sum, scalar
  /// libm sqrt/exp per lane) is bit-identical to the scalar path.
  virtual void accumulate_covariance_row(
      std::span<const std::vector<double>> points, std::span<const double> x,
      std::span<double> out) const {
    for (std::size_t i = 0; i < points.size(); ++i) {
      out[i] += (*this)(points[i], x);
    }
  }

  /// Adds w·∂k(a,b)/∂log θ_j into grad[j] for every hyperparameter θ_j,
  /// in log_params() order — the per-pair term of the analytic
  /// log-marginal-likelihood gradient.  `observed_diagonal` marks a
  /// training point paired with itself, the only entry diagonal_noise()
  /// adds to.
  virtual void accumulate_param_gradient(std::span<const double> a,
                                         std::span<const double> b,
                                         bool observed_diagonal, double w,
                                         std::span<double> grad) const = 0;

  /// Extra variance added on the diagonal for *observed* points only
  /// (white noise contributes here, not in cross-covariances with test
  /// points).
  virtual double diagonal_noise() const { return 0.0; }

  virtual std::size_t num_params() const = 0;
  virtual std::vector<double> log_params() const = 0;
  virtual void set_log_params(std::span<const double> values) = 0;
  virtual std::string describe() const = 0;
  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Matérn 5/2 with signal variance s² and isotropic length-scale l:
///   k(r) = s² (1 + √5 r/l + 5r²/(3l²)) exp(−√5 r/l)
class Matern52 : public Kernel {
 public:
  explicit Matern52(double length_scale = 1.0, double signal_variance = 1.0);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  void accumulate_gradient(std::span<const double> a,
                           std::span<const double> b,
                           std::span<double> grad) const override;
  void accumulate_covariance_row(std::span<const std::vector<double>> points,
                                 std::span<const double> x,
                                 std::span<double> out) const override;
  void accumulate_param_gradient(std::span<const double> a,
                                 std::span<const double> b,
                                 bool observed_diagonal, double w,
                                 std::span<double> grad) const override;
  std::size_t num_params() const override { return 2; }
  std::vector<double> log_params() const override;
  void set_log_params(std::span<const double> values) override;
  std::string describe() const override;
  std::unique_ptr<Kernel> clone() const override;

  double length_scale() const noexcept { return length_scale_; }
  double signal_variance() const noexcept { return signal_variance_; }

 private:
  double length_scale_;
  double signal_variance_;
};

/// Matérn 5/2 with per-dimension (ARD) length scales — the form
/// scikit-optimize uses by default.  Irrelevant dimensions learn long
/// scales and drop out of the distance, which is essential for BO over a
/// mixed-importance configuration subspace.
class Matern52Ard : public Kernel {
 public:
  explicit Matern52Ard(std::size_t dims, double length_scale = 0.5,
                       double signal_variance = 1.0);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  void accumulate_gradient(std::span<const double> a,
                           std::span<const double> b,
                           std::span<double> grad) const override;
  void accumulate_covariance_row(std::span<const std::vector<double>> points,
                                 std::span<const double> x,
                                 std::span<double> out) const override;
  void accumulate_param_gradient(std::span<const double> a,
                                 std::span<const double> b,
                                 bool observed_diagonal, double w,
                                 std::span<double> grad) const override;
  std::size_t num_params() const override { return scales_.size() + 1; }
  std::vector<double> log_params() const override;
  void set_log_params(std::span<const double> values) override;
  std::string describe() const override;
  std::unique_ptr<Kernel> clone() const override;

  std::span<const double> length_scales() const noexcept { return scales_; }
  double signal_variance() const noexcept { return signal_variance_; }

 private:
  std::vector<double> scales_;
  /// 1 / l_i², kept beside scales_ so the hyperparameter gradient's
  /// per-pair sweep multiplies instead of dividing.
  std::vector<double> inv_sq_scales_;
  double signal_variance_;
};

/// White noise: k(x,x') = σ²·δ(x,x'), contributing only to observed
/// diagonals.  Models the i.i.d. Gaussian execution-time noise.
class WhiteNoise : public Kernel {
 public:
  explicit WhiteNoise(double noise_variance = 1e-4);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  /// Cross-covariances are identically zero: adding them is a no-op (the
  /// Matérn entries are positive, so skipping the +0.0 cannot flip a
  /// signed zero — bit-identical to the default loop).
  void accumulate_covariance_row(std::span<const std::vector<double>>,
                                 std::span<const double>,
                                 std::span<double>) const override {}
  void accumulate_param_gradient(std::span<const double> a,
                                 std::span<const double> b,
                                 bool observed_diagonal, double w,
                                 std::span<double> grad) const override;
  double diagonal_noise() const override { return noise_variance_; }
  std::size_t num_params() const override { return 1; }
  std::vector<double> log_params() const override;
  void set_log_params(std::span<const double> values) override;
  std::string describe() const override;
  std::unique_ptr<Kernel> clone() const override;

  double noise_variance() const noexcept { return noise_variance_; }

 private:
  double noise_variance_;
};

/// Sum of two kernels; parameters are the concatenation of both.
class SumKernel : public Kernel {
 public:
  SumKernel(std::unique_ptr<Kernel> a, std::unique_ptr<Kernel> b);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;
  void accumulate_gradient(std::span<const double> a,
                           std::span<const double> b,
                           std::span<double> grad) const override;
  void accumulate_covariance_row(std::span<const std::vector<double>> points,
                                 std::span<const double> x,
                                 std::span<double> out) const override;
  void accumulate_param_gradient(std::span<const double> a,
                                 std::span<const double> b,
                                 bool observed_diagonal, double w,
                                 std::span<double> grad) const override;
  double diagonal_noise() const override;
  std::size_t num_params() const override;
  std::vector<double> log_params() const override;
  void set_log_params(std::span<const double> values) override;
  std::string describe() const override;
  std::unique_ptr<Kernel> clone() const override;

  const Kernel& left() const noexcept { return *a_; }
  const Kernel& right() const noexcept { return *b_; }

 private:
  std::unique_ptr<Kernel> a_;
  std::unique_ptr<Kernel> b_;
};

/// The paper's default: Matérn 5/2 + white noise.
std::unique_ptr<Kernel> default_kernel(double length_scale = 0.3,
                                       double signal_variance = 1.0,
                                       double noise_variance = 1e-3);

/// ARD variant used by the BO engine: Matérn 5/2 with per-dimension
/// length scales + white noise.
std::unique_ptr<Kernel> ard_kernel(std::size_t dims,
                                   double length_scale = 0.5,
                                   double signal_variance = 1.0,
                                   double noise_variance = 1e-3);

/// The Matérn 5/2 hyperparameters the random-features tier needs to
/// mirror an exact-GP kernel's spectral density.
struct MaternHyperparams {
  std::vector<double> length_scales;  ///< per-dimension (iso broadcast)
  double signal_variance = 1.0;
  double noise_variance = 1e-3;
};

/// Extracts Matérn 5/2 hyperparameters from a kernel of the shapes this
/// codebase builds: SumKernel(Matern52|Matern52Ard, WhiteNoise) in either
/// order, or a bare Matérn (noise defaults to 0).  Returns nullopt for
/// any other structure — the caller (the BO engine's sparse tier) then
/// degrades to the exact GP instead of fitting a mismatched surrogate.
std::optional<MaternHyperparams> extract_matern_hyperparams(
    const Kernel& kernel, std::size_t dims);

}  // namespace robotune::gp
