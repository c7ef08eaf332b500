// google-benchmark microbenchmarks of the components bench/perf_hotpath
// does not cover: simulator evaluation throughput, RF training and
// single-point GP prediction.  GP fit, batch prediction, add/remove, RFF
// fit and acquisition live in perf_hotpath, which CI gates.
#include <benchmark/benchmark.h>

#include "gp/gaussian_process.h"
#include "ml/random_forest.h"
#include "sparksim/objective.h"

using namespace robotune;

namespace {

const sparksim::ConfigSpace& space() {
  static const auto s = sparksim::spark24_config_space();
  return s;
}

void BM_SimulatorEvaluate(benchmark::State& state) {
  sparksim::SparkObjective objective(
      sparksim::ClusterSpec{},
      sparksim::make_workload(sparksim::WorkloadKind::kPageRank, 1), space(),
      42);
  Rng rng(1);
  std::vector<double> unit(space().size());
  for (auto _ : state) {
    for (auto& u : unit) u = rng.uniform();
    benchmark::DoNotOptimize(objective.evaluate(unit, 480.0).value_s);
  }
}
BENCHMARK(BM_SimulatorEvaluate);

void BM_RandomForestFit(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  ml::Dataset data(44);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(44);
    for (auto& v : x) v = rng.uniform();
    data.add_row(x, 10 * x[0] + 5 * x[1] * x[2] + rng.normal(0, 0.5));
  }
  for (auto _ : state) {
    ml::ForestOptions fo;
    fo.num_trees = 100;
    fo.parallel = false;
    ml::RandomForest rf(fo, 7);
    rf.fit(data);
    benchmark::DoNotOptimize(rf.num_trees());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(100)->Arg(200);

void BM_GpPredictWithGradient(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    std::vector<double> p(8);
    for (auto& v : p) v = rng.uniform();
    x.push_back(p);
    y.push_back(p[0]);
  }
  gp::GaussianProcess model(gp::ard_kernel(8), gp::GpOptions{false}, 1);
  model.fit(x, y);
  std::vector<double> q(8, 0.4);
  gp::GpWorkspace ws;
  gp::PredictGradient pg;
  for (auto _ : state) {
    model.predict_with_gradient(q, ws, pg);
    benchmark::DoNotOptimize(pg.dmean[0]);
  }
}
BENCHMARK(BM_GpPredictWithGradient);

}  // namespace

BENCHMARK_MAIN();
