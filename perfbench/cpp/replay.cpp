// Per-layer replays of a traced session.  Each layer's public call is
// re-issued at the sizes the session used, on the data its journal holds,
// so a layer's cost compares across commits at identical inputs.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common.h"
#include "common/error.h"
#include "core/bo_engine.h"
#include "core/parameter_selection.h"
#include "exec/eval_scheduler.h"
#include "gp/acquisition.h"
#include "gp/gaussian_process.h"
#include "gp/rff_gp.h"
#include "linalg/matrix.h"
#include "ml/permutation_importance.h"
#include "ml/random_forest.h"
#include "sampling/latin_hypercube.h"

namespace perfbench {

namespace {

constexpr int kRepeats = 21;
constexpr std::size_t kProbes = 256;

/// Training-set sizes at which the engine refits hyperparameters for
/// `spec`, mirroring BoOptions' schedule (every 5 iterations when fixed,
/// on each doubling of the training set otherwise).
std::vector<std::size_t> refit_sizes(const core::SessionSpec& spec, std::size_t available) {
  const int init = spec.init > 0 ? spec.init : 20;
  const int q = std::max(1, spec.batch);
  const int search = spec.budget - init;
  std::vector<std::size_t> sizes;
  std::size_t next_doubling = 0;
  for (int iter = 0; iter < search; iter += std::min(q, search - iter)) {
    const auto n = static_cast<std::size_t>(init + iter);
    const bool doubling = spec.refit == "doubling" || (spec.refit == "auto" && n >= 256);
    const bool refit = doubling ? n >= std::max<std::size_t>(next_doubling, 1) : iter % 5 == 0;
    if (!refit) continue;
    next_doubling = 2 * n;
    if (n <= available) sizes.push_back(n);
  }
  return sizes;
}

bool uses_rff(const core::SessionSpec& spec, std::size_t n) {
  return spec.surrogate == "rff" || (spec.surrogate == "auto" && n >= 256);
}

template <typename Fn>
double median_us(std::string_view layer, std::string_view name, int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) samples.push_back(timed(layer, name, fn) * 1e6);
  return median(samples);
}

std::vector<std::vector<double>> head(const std::vector<std::vector<double>>& x, std::size_t n) {
  return {x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace

void replay_layers(const Options& options, Report& report, const core::SessionSpec& spec,
                   const core::SessionCheckpoint& journal, const AskTellStats& executor) {
  const auto& selected = journal.selected;
  const std::size_t dims = selected.size();
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (const auto& rec : journal.evaluations) {
    if (rec.transient && rec.status != sparksim::RunStatus::kKilled) continue;
    std::vector<double> sub(dims);
    for (std::size_t d = 0; d < dims; ++d) sub[d] = rec.unit[selected[d]];
    xs.push_back(std::move(sub));
    ys.push_back(std::log(std::max(1e-6, rec.value_s)));
  }
  const std::size_t n = xs.size();
  report.op(n >= 4 && dims > 0, "replay: journal has too little training data");
  if (n < 4 || dims == 0) return;

  try {
    // ---- gp: hyperparameter fits at each refit size, chained like the
    // engine's learned kernel state ------------------------------------------
    std::unique_ptr<gp::Kernel> kernel = gp::ard_kernel(dims);
    std::vector<double> fit_ms;
    std::vector<double> chol_us;
    for (std::size_t size : refit_sizes(spec, n)) {
      const auto x = head(xs, size);
      const std::vector<double> y(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(size));
      gp::GpOptions gp_options;
      gp_options.shrink_restarts_at = 256;
      gp::GaussianProcess model(kernel->clone(), gp_options, derive_seed(spec.seed, 3, size));
      fit_ms.push_back(1e3 * timed("gp", "GaussianProcess::fit(hyperfit)", [&] {
                         model.fit(x, y);
                       }));
      kernel = model.kernel().clone();
      linalg::Matrix k(size, size);
      for (std::size_t i = 0; i < size; ++i) {
        for (std::size_t j = 0; j < size; ++j) k(i, j) = (*kernel)(x[i], x[j]);
      }
      linalg::Matrix factor;
      chol_us.push_back(median_us("linalg", "cholesky", kRepeats,
                                  [&] { factor = linalg::cholesky(k); }));
    }
    const double hyperfit_ms = fit_ms.empty() ? 0.0 : sum(fit_ms) / fit_ms.size();
    const double cholesky_us = chol_us.empty() ? 0.0 : sum(chol_us) / chol_us.size();
    report.set("gp.hyperfit_ms", hyperfit_ms, "ms");
    report.set("gp.hyperfit_count", static_cast<double>(fit_ms.size()), "count");
    report.set("linalg.cholesky_us", cholesky_us, "us");
    report.set("gp.hyperfit_chol_equiv", cholesky_us > 0 ? hyperfit_ms * 1e3 / cholesky_us : 0.0,
               "ratio");
    report.note("gp.hyperfit_ms is the mean of " + std::to_string(fit_ms.size()) +
                " refits (sizes per the spec's schedule, up to n=" + std::to_string(n) +
                "); gp.hyperfit_chol_equiv is computed: hyperfit_ms*1000/cholesky_us");

    // ---- gp: posterior on every journaled point, in the session's tier ------
    gp::GpOptions fixed;
    fixed.optimize_hyperparameters = false;
    gp::GaussianProcess exact(kernel->clone(), fixed, derive_seed(spec.seed, 4, n));
    report.set("gp.fit_us",
               median_us("gp", "GaussianProcess::fit(fixed)", kRepeats, [&] { exact.fit(xs, ys); }),
               "us");
    const auto hypers = gp::extract_matern_hyperparams(*kernel, dims);
    report.op(hypers.has_value(), "replay: learned kernel has no Matern hyperparameters");
    if (!hypers) return;
    gp::RffOptions rff_options;
    rff_options.num_features = static_cast<std::size_t>(spec.rff_features > 0 ? spec.rff_features : 256);
    rff_options.seed = spec.seed ^ 0x5eedULL;
    gp::RffGp rff(rff_options);
    std::vector<double> rff_ms;
    for (int i = 0; i < 5; ++i) {
      rff_ms.push_back(1e3 * timed("gp", "RffGp::fit", [&] { rff.fit(xs, ys, *hypers); }));
    }
    report.set("gp.rff_fit_ms", median(rff_ms), "ms");
    const bool sparse = uses_rff(spec, n);
    const gp::Surrogate& posterior = sparse ? static_cast<const gp::Surrogate&>(rff) : exact;

    gp::GpHedge hedge(dims, derive_seed(spec.seed, 5, n));
    gp::GpHedge::Choice choice;
    std::vector<double> propose_ms;
    for (int i = 0; i < 5; ++i) {
      propose_ms.push_back(1e3 * timed("gp", "GpHedge::propose",
                                       [&] { choice = hedge.propose(posterior); }));
    }
    report.set("gp.propose_ms", median(propose_ms), "ms");
    Rng probe_rng(derive_seed(spec.seed, 6, n));
    std::vector<std::vector<double>> probes(kProbes, std::vector<double>(dims));
    for (auto& p : probes) {
      for (auto& c : p) c = probe_rng.uniform();
    }
    std::vector<gp::Prediction> screened;
    report.set("gp.predict_batch_us",
               median_us("gp", "Surrogate::predict_batch", kRepeats,
                         [&] { screened = posterior.predict_batch(probes); }),
               "us");
    report.set("gp.update_gains_us",
               median_us("gp", "GpHedge::update_gains", kRepeats,
                         [&] { hedge.update_gains(posterior, choice); }),
               "us");

    // add_point / remove_point at the session's n, on the session's tier.
    std::unique_ptr<gp::Surrogate> model;
    const auto x_prefix = head(xs, n - 1);
    const std::vector<double> y_prefix(ys.begin(), ys.end() - 1);
    if (sparse) {
      auto m = std::make_unique<gp::RffGp>(rff_options);
      m->fit(x_prefix, y_prefix, *hypers);
      model = std::move(m);
    } else {
      auto m = std::make_unique<gp::GaussianProcess>(kernel->clone(), fixed, 1);
      m->fit(x_prefix, y_prefix);
      model = std::move(m);
    }
    std::vector<double> add_us, remove_us;
    for (int i = 0; i < 51; ++i) {
      add_us.push_back(1e6 * timed("gp", "Surrogate::add_point",
                                   [&] { model->add_point(xs.back(), ys.back()); }));
      remove_us.push_back(1e6 * timed("gp", "Surrogate::remove_point",
                                      [&] { model->remove_point(model->num_points() - 1); }));
    }
    report.set("gp.add_point_us", median(add_us), "us");
    report.set("gp.remove_point_us", median(remove_us), "us");
    report.note(std::string("gp posterior replays ran on the ") + posterior.tier() +
                " tier at n=" + std::to_string(n) + ", " + std::to_string(dims) + " dims");
  } catch (const std::exception& e) {
    report.op(false, std::string("replay (gp/linalg): ") + e.what());
    return;
  }

  // ---- exec: one 4-wide batch of the session's last configurations ---------
  {
    auto objective = objective_for(spec);
    exec::SchedulerOptions scheduler_options;
    scheduler_options.parallelism =
        static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    exec::EvalScheduler scheduler(scheduler_options);
    const std::size_t total = journal.evaluations.size();
    const std::size_t width = std::min<std::size_t>(4, total);
    std::vector<exec::EvalRequest> requests;
    for (std::size_t i = total - width; i < total; ++i) {
      requests.push_back({journal.evaluations[i].unit, 0.0});
    }
    std::vector<sparksim::EvalOutcome> outcomes;
    report.set("exec.batch_us",
               median_us("exec", "EvalScheduler::run_batch", kRepeats, [&] {
                 outcomes = scheduler.run_batch(objective, requests, total - width);
               }),
               "us");
    report.op(outcomes.size() == width, "replay: scheduler batch lost evaluations");
  }

  // ---- core: the journal flush at every journaled size ----------------------
  {
    core::SessionCheckpoint partial = journal;
    partial.evaluations.clear();
    partial.observe_acks.clear();
    partial.suggests.clear();
    partial.lease_expiries.clear();
    partial.degrade_events.clear();
    partial.kill_events.clear();
    const std::string path = (options.dir / "flush-replay.journal").string();
    std::vector<double> flush_ms;
    double bytes = 0.0;
    bool saved = true;
    for (std::size_t i = 0; i < journal.evaluations.size(); ++i) {
      partial.evaluations.push_back(journal.evaluations[i]);
      if (i < journal.observe_acks.size()) partial.observe_acks.push_back(journal.observe_acks[i]);
      flush_ms.push_back(1e3 * timed("core", "save_session_file", [&] {
                           saved = core::save_session_file(partial, path) && saved;
                         }));
      bytes += static_cast<double>(fs::file_size(path));
    }
    report.op(saved, "replay: save_session_file failed");
    fs::remove(path);
    const Tail tail = tail_of(flush_ms);
    report.set("core.journal_flush_ms_p50", median(flush_ms), "ms");
    report.set("core.journal_flush_ms_tail", tail.value, "ms");
    report.set("core.journal_flushes", static_cast<double>(flush_ms.size()), "count");
    report.set("core.journal_bytes", bytes, "count");
    report.note("core.journal_flush_ms_tail is p" + std::to_string(tail.p * 100).substr(0, 4) +
                " of " + std::to_string(tail.n) + " flushes");
  }

  // ---- core + ml + sparksim: parameter selection on the session's seed -----
  {
    core::SelectionOptions selection;
    if (spec.selection_samples > 0) {
      selection.generic_samples = static_cast<std::size_t>(spec.selection_samples);
    }
    selection.seed ^= spec.seed;
    const auto joint = sparksim::spark24_joint_parameter_groups();
    auto objective = objective_for(spec);
    core::SelectionReport selected_report;
    report.set("core.selection_ms",
               1e3 * timed("core", "select_parameters", [&] {
                 selected_report = core::select_parameters(objective, joint, selection);
               }),
               "ms");
    report.op(selected_report.selected == journal.selected,
              "replay: select_parameters chose other parameters than the session");

    const auto& space = objective.space();
    ml::Dataset data(space.size());
    for (const auto& e : selected_report.evaluations) {
      data.add_row(e.unit, std::log(std::max(1e-6, e.value_s)));
    }
    ml::ForestOptions forest_options;
    forest_options.num_trees = selection.forest_trees;
    forest_options.tree.max_features = space.size();
    ml::RandomForest forest(forest_options, selection.seed);
    report.set("ml.forest_fit_ms",
               1e3 * timed("ml", "RandomForest::fit", [&] { forest.fit(data); }), "ms");
    const auto groups = core::build_feature_groups(space, joint);
    ml::ImportanceOptions importance;
    importance.repeats = selection.permutation_repeats;
    importance.seed = selection.seed ^ 0xabcdef12345ULL;
    std::vector<ml::ImportanceResult> ranked;
    report.set("ml.importance_ms", 1e3 * timed("ml", "permutation_importance", [&] {
                                     ranked = ml::permutation_importance(forest, groups, importance);
                                   }),
               "ms");

    // The selection's own evaluations, one call at a time.
    Rng rng(selection.seed);
    const auto design = sampling::latin_hypercube(selection.generic_samples, space.size(), rng);
    auto fresh = objective_for(spec);
    std::vector<double> evaluate_us = executor.evaluate_us;
    std::uint64_t failed = executor.failed_evals;
    for (const auto& unit : design) {
      sparksim::EvalOutcome outcome;
      evaluate_us.push_back(1e6 * timed("sparksim", "SparkObjective::evaluate", [&] {
                              outcome = fresh.evaluate(unit, selection.static_threshold_s);
                            }));
      if (outcome.status != sparksim::RunStatus::kOk) ++failed;
    }
    report.set("sparksim.evaluate_us", median(evaluate_us), "us");
    report.set("sparksim.failed_evals", static_cast<double>(failed), "count");
    report.note("sparksim.evaluate_us is the median of " + std::to_string(evaluate_us.size()) +
                " calls (executor and selection replay)");
  }
}

}  // namespace perfbench
