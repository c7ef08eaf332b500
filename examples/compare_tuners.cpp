// Compare all four tuners (ROBOTune, BestConfig, Gunther, Random Search)
// on one workload — a miniature of the paper's Figures 3 and 4.
//
//   $ ./build/examples/compare_tuners [workload] [dataset] [budget]
//     workload: PR | KM | CC | LR | TS   (default PR)
//     dataset:  1 | 2 | 3                (default 1)
//     budget:   evaluations per tuner    (default 100)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/numbers.h"
#include "core/robotune.h"
#include "sparksim/objective.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"

using namespace robotune;

namespace {

sparksim::WorkloadKind parse_workload(const char* name) {
  for (auto kind : sparksim::all_workloads()) {
    if (sparksim::short_name(kind) == name) return kind;
  }
  std::fprintf(stderr, "unknown workload '%s' (use PR/KM/CC/LR/TS)\n", name);
  std::exit(1);
}

int parse_arg(const char* text, const char* name) {
  int value = 0;
  if (!parse_int(text, value)) {
    std::fprintf(stderr, "bad value '%s' for %s\n", text, name);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const auto kind =
      argc > 1 ? parse_workload(argv[1]) : sparksim::WorkloadKind::kPageRank;
  const int dataset = argc > 2 ? parse_arg(argv[2], "dataset") : 1;
  const int budget = argc > 3 ? parse_arg(argv[3], "budget") : 100;

  std::printf("comparing tuners on %s-D%d (budget %d evaluations each)\n\n",
              sparksim::short_name(kind).c_str(), dataset, budget);

  core::RoboTune robotune;
  tuners::BestConfig bestconfig;
  tuners::Gunther gunther;
  tuners::RandomSearch rs;
  std::vector<tuners::Tuner*> all = {&robotune, &bestconfig, &gunther, &rs};

  std::printf("%-12s %12s %14s %16s\n", "tuner", "best (s)",
              "search cost (s)", "failed configs");
  double rs_best = 0.0, rs_cost = 0.0;
  std::vector<std::pair<std::string, std::pair<double, double>>> rows;
  for (auto* tuner : all) {
    sparksim::SparkObjective objective(
        sparksim::ClusterSpec::paper_testbed(),
        sparksim::make_workload(kind, dataset),
        sparksim::spark24_config_space(), 4242);
    const auto result = tuner->tune(objective, budget, 17);
    int failed = 0;
    for (const auto& e : result.history) {
      if (!e.ok() && !e.stopped_early) ++failed;
    }
    std::printf("%-12s %12.1f %14.0f %16d\n", tuner->name().c_str(),
                result.best_value_s(), result.search_cost_s, failed);
    rows.push_back({tuner->name(),
                    {result.best_value_s(), result.search_cost_s}});
    if (tuner->name() == "RS") {
      rs_best = result.best_value_s();
      rs_cost = result.search_cost_s;
    }
  }
  std::printf("\nscaled to Random Search (the paper's Fig. 3/4 format):\n");
  for (const auto& [name, vals] : rows) {
    std::printf("  %-12s time %.3fx   cost %.3fx\n", name.c_str(),
                vals.first / rs_best, vals.second / rs_cost);
  }
  return 0;
}
