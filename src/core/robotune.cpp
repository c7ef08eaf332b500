#include "core/robotune.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace robotune::core {

namespace {

/// Best configurations a session stores into the memoization buffer, and
/// the most a later session of the workload blends into its initial
/// design (paper §3.2: the 4 best recent configurations).
constexpr std::size_t kMemoizeTopK = 4;

}  // namespace

tuners::TuningResult RoboTune::tune(sparksim::SparkObjective& objective,
                                    int budget, std::uint64_t seed) {
  return tune_report(objective, budget, seed, nullptr, nullptr, scheduler())
      .tuning;
}

RoboTuneReport RoboTune::tune_report(sparksim::SparkObjective& objective,
                                     int budget, std::uint64_t seed,
                                     const BoObserver& observer,
                                     SessionLog* session,
                                     exec::EvalScheduler* scheduler) {
  obs::Span session_span("session", "core");
  session_span.arg("tuner", name());
  session_span.arg("workload", sparksim::to_string(objective.workload().kind));
  session_span.arg("budget", budget);
  session_span.arg("seed", seed);
  begin_report(objective, budget, seed, observer, session, scheduler);
  while (step(paced_stop()) == Step::kRound) {
  }
  return end_report();
}

void RoboTune::begin_report(sparksim::SparkObjective& objective, int budget,
                            std::uint64_t seed, const BoObserver& observer,
                            SessionLog* session,
                            exec::EvalScheduler* scheduler,
                            ExternalBridge* external) {
  report_ = std::make_unique<RoboTuneReport>();
  RoboTuneReport& report = *report_;
  workload_key_ = sparksim::to_string(objective.workload().kind);
  const std::string& workload_key = workload_key_;

  // ---- Parameter selection (checkpoint, cache hit, or RF pipeline) ------
  // A loaded checkpoint (non-empty selection) resumes: selection and the
  // memoized-config snapshot come from the checkpoint.
  const bool resuming = session != nullptr && !session->state.selected.empty();
  if (resuming) {
    require(session->state.seed == seed,
            "tune_report: checkpoint seed does not match the session seed");
    require(session->state.budget == budget,
            "tune_report: checkpoint budget does not match");
    require(session->state.workload == workload_key,
            "tune_report: checkpoint was taken for workload " +
                session->state.workload);
    report.selected = session->state.selected;
    report.selection_cost_s = session->state.selection_cost_s;
    selection_cache_.store(workload_key, report.selected);
  } else if (auto cached = selection_cache_.lookup(workload_key)) {
    obs::count("memo.selection_cache.hits");
    report.selected = *cached;
    report.selection_cache_hit = true;
  } else {
    obs::count("memo.selection_cache.misses");
    obs::Span span("selection", "core");
    span.arg("workload", workload_key);
    SelectionOptions sel = options_.selection;
    sel.seed ^= seed;
    report.selection_report = select_parameters(
        objective, sparksim::spark24_joint_parameter_groups(), sel);
    report.selected = report.selection_report.selected;
    report.selection_cost_s = report.selection_report.sampling_cost_s;
    // Defensive fallback: if noise buried every parameter below the
    // threshold, tune the top-5 ranked groups instead of nothing.
    if (report.selected.empty()) {
      for (std::size_t gi = 0;
           gi < std::min<std::size_t>(5, report.selection_report.importances.size());
           ++gi) {
        for (std::size_t f :
             report.selection_report.importances[gi].group.features) {
          report.selected.push_back(f);
        }
      }
      std::sort(report.selected.begin(), report.selected.end());
    }
    selection_cache_.store(workload_key, report.selected);
  }

  // ---- Memoized configurations ------------------------------------------
  const auto memoized =
      resuming ? session->state.memoized
               : memo_buffer_.best(workload_key, kMemoizeTopK);
  report.used_memoized_configs = !memoized.empty();

  // Snapshot the fixed session metadata before the first evaluation, so
  // even the earliest checkpoint can be resumed.
  if (session != nullptr && !resuming) {
    session->state.seed = seed;
    session->state.budget = budget;
    session->state.workload = workload_key;
    session->state.selected = report.selected;
    session->state.selection_cost_s = report.selection_cost_s;
    session->state.memoized = memoized;
    // Ask/tell sessions pin their mode with the very first flush.
    session->state.external = external != nullptr;
    if (session->flush) session->flush(session->state);
  }

  // ---- BO search -----------------------------------------------------------
  BoOptions bo = options_.bo;
  bo.budget = budget;
  bo.seed = seed;
  engine_ = std::make_unique<BoEngine>(report.selected,
                                       objective.space().default_unit(), bo);
  engine_->begin_run(objective, memoized, observer, session, scheduler,
                     external);
}

RoboTuneReport RoboTune::end_report() {
  RoboTuneReport report = std::move(*report_);
  report.bo = engine_->end_run();
  report_.reset();
  engine_.reset();
  report.tuning = report.bo.tuning;
  report.tuning.tuner = name();

  // ---- Store the best configurations back into the buffer -----------------
  std::vector<const tuners::Evaluation*> ok_evals;
  for (const auto& e : report.tuning.history) {
    if (e.ok()) ok_evals.push_back(&e);
  }
  std::sort(ok_evals.begin(), ok_evals.end(),
            [](const tuners::Evaluation* a, const tuners::Evaluation* b) {
              return a->value_s < b->value_s;
            });
  const std::size_t keep = std::min(kMemoizeTopK, ok_evals.size());
  for (std::size_t i = 0; i < keep; ++i) {
    memo_buffer_.store(workload_key_,
                       {ok_evals[i]->unit, ok_evals[i]->value_s});
  }
  return report;
}

}  // namespace robotune::core
