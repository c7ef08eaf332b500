// Tests for the bound-constrained L-BFGS optimizer and multistart driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "opt/lbfgsb.h"
#include "numeric_gradient.h"

namespace robotune::opt {
namespace {

Objective quadratic(std::vector<double> center) {
  return [center = std::move(center)](std::span<const double> x,
                                      std::span<double> grad) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - center[i];
      v += d * d;
      if (!grad.empty()) grad[i] = 2.0 * d;
    }
    return v;
  };
}

TEST(BoundsTest, ClipProjectsIntoBox) {
  Bounds b = Bounds::unit_cube(3);
  std::vector<double> x = {-0.5, 0.5, 1.5};
  b.clip(x);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(LbfgsbTest, UnconstrainedQuadraticConverges) {
  const auto obj = quadratic({0.3, 0.7, 0.5});
  Bounds b = Bounds::unit_cube(3);
  const std::vector<double> x0 = {0.9, 0.1, 0.0};
  const auto r = minimize(obj, x0, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.3, 1e-5);
  EXPECT_NEAR(r.x[1], 0.7, 1e-5);
  EXPECT_NEAR(r.x[2], 0.5, 1e-5);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(LbfgsbTest, OptimumOutsideBoxLandsOnBoundary) {
  const auto obj = quadratic({1.5, -0.5});
  Bounds b = Bounds::unit_cube(2);
  const std::vector<double> x0 = {0.5, 0.5};
  const auto r = minimize(obj, x0, b);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-6);
}

TEST(LbfgsbTest, StartOutsideBoxIsClippedFirst) {
  const auto obj = quadratic({0.5});
  Bounds b = Bounds::unit_cube(1);
  const std::vector<double> x0 = {7.0};
  const auto r = minimize(obj, x0, b);
  EXPECT_NEAR(r.x[0], 0.5, 1e-6);
}

TEST(LbfgsbTest, RosenbrockInBox) {
  const Objective rosen = [](std::span<const double> x,
                             std::span<double> grad) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (!grad.empty()) {
      grad[0] = -2.0 * a - 400.0 * x[0] * b;
      grad[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
  };
  Bounds bounds;
  bounds.lower = {-2, -2};
  bounds.upper = {2, 2};
  LbfgsbOptions options;
  options.max_iterations = 500;
  const auto r = minimize(rosen, std::vector<double>{-1.2, 1.0}, bounds,
                          options);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(LbfgsbTest, DimensionMismatchThrows) {
  const auto obj = quadratic({0.5});
  Bounds b = Bounds::unit_cube(2);
  EXPECT_THROW(minimize(obj, std::vector<double>{0.1}, b), InvalidArgument);
}

TEST(LbfgsbTest, InvertedBoundsThrow) {
  const auto obj = quadratic({0.5});
  Bounds b;
  b.lower = {1.0};
  b.upper = {0.0};
  EXPECT_THROW(minimize(obj, std::vector<double>{0.5}, b), InvalidArgument);
}

TEST(NumericGradientTest, MatchesAnalyticGradient) {
  const auto numeric = numeric_gradient(
      [](std::span<const double> x) {
        return std::sin(x[0]) + x[1] * x[1];
      });
  std::vector<double> grad(2);
  const double v = numeric(std::vector<double>{0.3, 0.7}, grad);
  EXPECT_NEAR(v, std::sin(0.3) + 0.49, 1e-12);
  EXPECT_NEAR(grad[0], std::cos(0.3), 1e-5);
  EXPECT_NEAR(grad[1], 1.4, 1e-5);
}

TEST(NumericGradientTest, SkipsGradientWhenEmpty) {
  int calls = 0;
  const auto numeric = numeric_gradient([&](std::span<const double>) {
    ++calls;
    return 1.0;
  });
  std::vector<double> empty;
  numeric(std::vector<double>{0.5}, empty);
  EXPECT_EQ(calls, 1);  // value only, no finite differences
}

TEST(MultistartTest, FindsGlobalMinimumOfMultimodal) {
  // f(x) = sin(12x) + 2(x-0.7)^2 has several local minima in [0,1]; the
  // global one sits where sin is near its -1 trough closest to 0.7,
  // x ≈ 0.916 (f ≈ -0.906); the rival trough at x ≈ 0.393 gives only -0.81.
  const auto f = [](std::span<const double> x) {
    return std::sin(12.0 * x[0]) + 2.0 * (x[0] - 0.7) * (x[0] - 0.7);
  };
  const auto obj = numeric_gradient(f);
  Rng rng(5);
  MultiStartOptions options;
  options.starts = 8;
  options.probe_candidates = 64;
  const auto r = multistart_minimize(obj, Bounds::unit_cube(1), rng, options);
  EXPECT_NEAR(r.x[0], 0.916, 0.05);
}

TEST(MultistartTest, WarmStartIsUsed) {
  const auto obj = quadratic({0.123, 0.456});
  Rng rng(6);
  MultiStartOptions options;
  options.starts = 1;
  options.probe_candidates = 1;
  const std::vector<std::vector<double>> warm = {{0.12, 0.46}};
  const auto r = multistart_minimize(obj, Bounds::unit_cube(2), rng, options,
                                     warm);
  EXPECT_NEAR(r.x[0], 0.123, 1e-4);
  EXPECT_NEAR(r.x[1], 0.456, 1e-4);
}

TEST(MultistartTest, NeverWorseThanBestProbe) {
  // Even on a nasty discontinuous objective the result can't be worse than
  // pure random probing, by construction.
  const auto f = [](std::span<const double> x) {
    return x[0] < 0.37 ? std::floor(x[0] * 10.0) : 5.0;
  };
  const auto obj = numeric_gradient(f);
  Rng rng(7);
  MultiStartOptions options;
  options.probe_candidates = 200;
  const auto r = multistart_minimize(obj, Bounds::unit_cube(1), rng, options);
  EXPECT_LE(r.value, 3.0 + 1e-9);
}

TEST(MultistartTest, EmptyBoundsThrow) {
  const auto obj = quadratic({});
  Rng rng(8);
  EXPECT_THROW(multistart_minimize(obj, Bounds{}, rng), InvalidArgument);
}

// --------------------------------------------- parallel multi-start ----

TEST(MinimizeStartsTest, PicksCanonicalBestAcrossStarts) {
  // Multimodal objective from the multistart test; two starts land in
  // different basins and the global one must win.
  const auto factory = []() {
    return numeric_gradient([](std::span<const double> x) {
      return std::sin(12.0 * x[0]) + 2.0 * (x[0] - 0.7) * (x[0] - 0.7);
    });
  };
  const std::vector<std::vector<double>> starts = {{0.4}, {0.9}};
  const auto r = minimize_starts(factory, starts, Bounds::unit_cube(1));
  EXPECT_NEAR(r.x[0], 0.916, 0.05);
  EXPECT_GT(r.evaluations, 2);  // summed across both starts
}

TEST(MinimizeStartsTest, ByteIdenticalAcrossWorkerCounts) {
  const auto factory = []() {
    return numeric_gradient([](std::span<const double> x) {
      double v = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        v += std::sin(9.0 * x[i] + static_cast<double>(i)) +
             (x[i] - 0.5) * (x[i] - 0.5);
      }
      return v;
    });
  };
  std::vector<std::vector<double>> starts;
  Rng rng(99);
  for (int s = 0; s < 6; ++s) {
    starts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const Bounds bounds = Bounds::unit_cube(3);
  const auto inline_r = minimize_starts(factory, starts, bounds);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {&pool2, &pool4}) {
    const auto r = minimize_starts(factory, starts, bounds, {}, pool);
    EXPECT_EQ(r.value, inline_r.value);
    EXPECT_EQ(r.evaluations, inline_r.evaluations);
    ASSERT_EQ(r.x.size(), inline_r.x.size());
    for (std::size_t i = 0; i < r.x.size(); ++i) {
      EXPECT_EQ(r.x[i], inline_r.x[i]);  // exact, not approximate
    }
  }
}

TEST(MinimizeStartsTest, TieBreaksOnLowestStartIndex) {
  // A flat objective makes every start "win" with the same value; the
  // canonical reduction must return the first start's (clipped) point.
  const auto factory = []() -> Objective {
    return [](std::span<const double>, std::span<double> grad) {
      std::fill(grad.begin(), grad.end(), 0.0);
      return 1.0;
    };
  };
  const std::vector<std::vector<double>> starts = {{0.25}, {0.75}};
  const auto r = minimize_starts(factory, starts, Bounds::unit_cube(1));
  EXPECT_DOUBLE_EQ(r.x[0], 0.25);
}

TEST(MinimizeStartsTest, EmptyStartsThrow) {
  const auto factory = []() { return quadratic({0.5}); };
  EXPECT_THROW(minimize_starts(factory, {}, Bounds::unit_cube(1)),
               InvalidArgument);
}

// Parameterized: quadratic minimization converges from any corner start.
class LbfgsbStartTest : public ::testing::TestWithParam<int> {};

TEST_P(LbfgsbStartTest, ConvergesFromCorner) {
  const int corner = GetParam();
  const auto obj = quadratic({0.4, 0.6, 0.2});
  std::vector<double> x0(3);
  for (int i = 0; i < 3; ++i) x0[static_cast<std::size_t>(i)] =
      (corner >> i) & 1 ? 1.0 : 0.0;
  const auto r = minimize(obj, x0, Bounds::unit_cube(3));
  EXPECT_NEAR(r.value, 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Corners, LbfgsbStartTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace robotune::opt
