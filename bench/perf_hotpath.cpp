// Hot-path performance regression bench (DESIGN.md §8).
//
// Measures the GP/acquisition kernels this library spends its time in —
// fit (fixed and with the hyperparameter fit), single/batched prediction,
// and acquisition optimization — and writes one JSON report that CI gates
// on: the hyperparameter fit and the acquisition optimization must each
// stay within 2x their committed cost relative to a fixed-hyperparameter
// fit.
//
// Unlike the figN benches this harness times *microseconds*, so it takes
// the best of ROBOTUNE_BENCH_HOTPATH_REPS repetitions (minimum = least
// scheduler noise) and reports nanoseconds per operation.
//
// Environment knobs:
//   ROBOTUNE_BENCH_HOTPATH_SIZES  comma-separated training sizes [20,50,100]
//   ROBOTUNE_BENCH_HOTPATH_REPS   repetitions per measurement    [5]
//   ROBOTUNE_BENCH_HOTPATH_DIMS   search-space dimensionality    [10]
//
// Usage: perf_hotpath [output.json]   (default bench_results/BENCH_hotpath.json)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gp/acquisition.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"
#include "gp/rff_gp.h"

namespace {

using namespace robotune;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-of-reps wall time of fn(), in nanoseconds.
template <typename Fn>
double time_best_ns(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ns();
    fn();
    const double t1 = now_ns();
    best = std::min(best, t1 - t0);
  }
  return best;
}

std::vector<int> parse_sizes(const char* env, std::vector<int> fallback) {
  const char* v = std::getenv(env);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<int> out;
  int current = 0;
  bool have = false;
  for (const char* p = v;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + (*p - '0');
      have = true;
    } else {
      if (have) out.push_back(current);
      current = 0;
      have = false;
      if (*p == '\0') break;
    }
  }
  return out.empty() ? fallback : out;
}

struct SizeReport {
  int n = 0;
  double gp_fit_ns = 0.0;
  double hyperfit_ns = 0.0;  ///< fit() with LML optimization (n <= 512)
  double predict_ns = 0.0;
  double predict_batch_per_point_ns = 0.0;
  double acq_opt_analytic_ns = 0.0;  ///< sequential multi-start
  double acq_opt_analytic_parallel_ns = 0.0;
  double speedup_batch = 0.0;     ///< predict / predict_batch per point
  // ---- DESIGN.md §15: the O(n³)-wall columns -----------------------------
  double gp_add_point_ns = 0.0;     ///< rank-1 factor extension, O(n²)
  double gp_remove_point_ns = 0.0;  ///< LIFO truncation (purge path)
  double rff_fit_ns = 0.0;          ///< sparse-tier fit, m = 256 features
  double speedup_sparse = 0.0;      ///< gp_fit / rff_fit (the kAuto win)
  double purge_cycle_ns = 0.0;      ///< q = 8 CL plant + purge via rank-1
  double speedup_purge = 0.0;       ///< gp_fit / purge_cycle (vs old refit)
};

SizeReport measure(int n, int dims, int reps) {
  Rng rng(1234 + static_cast<std::uint64_t>(n));
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < n; ++i) {
    std::vector<double> p(static_cast<std::size_t>(dims));
    for (auto& v : p) v = rng.uniform();
    x.push_back(p);
    y.push_back(std::sin(5.0 * p[0]) + p[1] * p[2] - 0.5 * p[3]);
  }

  SizeReport report;
  report.n = n;

  report.gp_fit_ns = time_best_ns(reps, [&] {
    gp::GaussianProcess model(gp::ard_kernel(static_cast<std::size_t>(dims)),
                              gp::GpOptions{false}, 1);
    model.fit(x, y);
  });

  // The BO engine's hyperparameter refit: 3 multi-starts of L-BFGS over
  // the log marginal likelihood, from the default kernel every time.
  // O(n³) per evaluation and hundreds of evaluations, so the column
  // stops where the acquisition matrix does.
  if (n <= 512) {
    report.hyperfit_ns = time_best_ns(reps, [&] {
      gp::GaussianProcess fitted(
          gp::ard_kernel(static_cast<std::size_t>(dims)), gp::GpOptions{}, 1);
      fitted.fit(x, y);
    });
  }

  gp::GaussianProcess model(gp::ard_kernel(static_cast<std::size_t>(dims)),
                            gp::GpOptions{false}, 1);
  model.fit(x, y);

  constexpr std::size_t kQueries = 256;
  std::vector<std::vector<double>> queries;
  for (std::size_t i = 0; i < kQueries; ++i) {
    std::vector<double> q(static_cast<std::size_t>(dims));
    for (auto& v : q) v = rng.uniform();
    queries.push_back(q);
  }
  double sink = 0.0;
  report.predict_ns = time_best_ns(reps, [&] {
                        for (const auto& q : queries) {
                          sink += model.predict(q).mean;
                        }
                      }) /
                      static_cast<double>(kQueries);
  report.predict_batch_per_point_ns =
      time_best_ns(reps, [&] {
        for (const auto& p : model.predict_batch(queries)) sink += p.mean;
      }) /
      static_cast<double>(kQueries);
  report.speedup_batch = report.predict_ns / report.predict_batch_per_point_ns;

  // Incremental add/remove (the q > 1 constant-liar hot path): each
  // cycle adds fantasies and purges them LIFO, restoring the model
  // bit-identically — so one model serves every repetition.
  constexpr int kPurgeQ = 8;
  std::vector<std::vector<double>> fantasies;
  for (int k = 0; k < kPurgeQ; ++k) {
    std::vector<double> f(static_cast<std::size_t>(dims));
    for (auto& v : f) v = rng.uniform();
    fantasies.push_back(f);
  }
  double best_add = std::numeric_limits<double>::infinity();
  double best_remove = best_add;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ns();
    model.add_point(fantasies[0], -1.0);
    const double t1 = now_ns();
    model.remove_point(model.num_points() - 1);
    const double t2 = now_ns();
    best_add = std::min(best_add, t1 - t0);
    best_remove = std::min(best_remove, t2 - t1);
  }
  report.gp_add_point_ns = best_add;
  report.gp_remove_point_ns = best_remove;
  report.purge_cycle_ns = time_best_ns(reps, [&] {
    for (int k = 0; k + 1 < kPurgeQ; ++k) model.add_point(fantasies[k], -1.0);
    for (int k = 0; k + 1 < kPurgeQ; ++k) {
      model.remove_point(model.num_points() - 1);
    }
  });
  // The pre-§15 purge was a full fixed-hyperparameter refit per round.
  report.speedup_purge = report.gp_fit_ns / report.purge_cycle_ns;

  // Sparse-tier fit (what SurrogateTier::kAuto runs past the threshold).
  gp::MaternHyperparams hypers;
  hypers.length_scales.assign(static_cast<std::size_t>(dims), 0.5);
  report.rff_fit_ns = time_best_ns(reps, [&] {
    gp::RffGp sparse(gp::RffOptions{256, 0x5eedULL});
    sparse.fit(x, y, hypers);
    sink += sparse.predict(queries[0]).mean;
  });
  report.speedup_sparse = report.gp_fit_ns / report.rff_fit_ns;

  // Acquisition optimization: identical probes and starts for both
  // variants (the optimizer consumes exactly one draw from an identically
  // seeded Rng), so the timing difference is the pooled multi-start.  The
  // acquisition matrix stops at n = 512.
  if (n <= 512) {
    const auto time_acq = [&](int workers) {
      gp::AcquisitionOptimizerOptions options;
      options.workers = workers;
      return time_best_ns(reps, [&] {
        Rng acq_rng(99);
        sink += gp::optimize_acquisition(model, gp::AcquisitionKind::kEI,
                                         static_cast<std::size_t>(dims),
                                         acq_rng, {}, options)[0];
      });
    };
    report.acq_opt_analytic_ns = time_acq(/*workers=*/1);
    report.acq_opt_analytic_parallel_ns = time_acq(/*global pool*/ 0);
  }

  if (sink == 42.0) std::printf("\n");  // defeat dead-code elimination
  return report;
}

void write_json(const std::string& path, int dims, int reps,
                const std::vector<SizeReport>& reports) {
  const std::filesystem::path out_path(path);
  if (out_path.has_parent_path()) {
    std::filesystem::create_directories(out_path.parent_path());
  }
  std::ofstream out(path);
  out << "{\n  \"bench\": \"perf_hotpath\",\n";
  out << "  \"dims\": " << dims << ",\n  \"reps\": " << reps << ",\n";
  out << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    out << "    {\"n\": " << r.n
        << ", \"gp_fit_ns\": " << r.gp_fit_ns
        << ", \"hyperfit_ns\": " << r.hyperfit_ns
        << ", \"predict_ns\": " << r.predict_ns
        << ", \"predict_batch_per_point_ns\": " << r.predict_batch_per_point_ns
        << ", \"speedup_batch\": " << r.speedup_batch
        << ", \"gp_add_point_ns\": " << r.gp_add_point_ns
        << ", \"gp_remove_point_ns\": " << r.gp_remove_point_ns
        << ", \"purge_cycle_ns\": " << r.purge_cycle_ns
        << ", \"speedup_purge\": " << r.speedup_purge
        << ", \"rff_fit_ns\": " << r.rff_fit_ns
        << ", \"speedup_sparse\": " << r.speedup_sparse
        << ", \"acq_opt_analytic_ns\": " << r.acq_opt_analytic_ns
        << ", \"acq_opt_analytic_parallel_ns\": "
        << r.acq_opt_analytic_parallel_ns << "}"
        << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "bench_results/BENCH_hotpath.json";
  const std::vector<int> sizes =
      parse_sizes("ROBOTUNE_BENCH_HOTPATH_SIZES", {20, 50, 100});
  const int reps = bench::env_int("ROBOTUNE_BENCH_HOTPATH_REPS", 5);
  const int dims = bench::env_int("ROBOTUNE_BENCH_HOTPATH_DIMS", 10);

  std::printf("%6s %12s %12s %12s %12s %10s %10s %12s %12s %10s %10s\n",
              "n", "gp_fit_us", "hyperfit_us", "predict_ns", "batch_ns",
              "add_us", "rm_us", "purge8_us", "rff_fit_us", "sparse_x",
              "acq/fit");
  std::vector<SizeReport> reports;
  for (int n : sizes) {
    // The exact fit is O(n³): past n = 1000 a handful of repetitions is
    // already minutes of wall clock, and best-of-2 is stable enough.
    const int size_reps = n >= 1000 ? std::min(reps, 2) : reps;
    const SizeReport r = measure(n, dims, size_reps);
    reports.push_back(r);
    std::printf(
        "%6d %12.1f %12.1f %12.1f %12.1f %10.1f %10.1f %12.1f %12.1f %9.2fx "
        "%10.1f\n",
        r.n, r.gp_fit_ns / 1e3, r.hyperfit_ns / 1e3, r.predict_ns,
        r.predict_batch_per_point_ns, r.gp_add_point_ns / 1e3,
        r.gp_remove_point_ns / 1e3,
        r.purge_cycle_ns / 1e3, r.rff_fit_ns / 1e3, r.speedup_sparse,
        r.acq_opt_analytic_ns / r.gp_fit_ns);
  }
  write_json(out_path, dims, reps, reports);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
