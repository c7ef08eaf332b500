// paper_q1 and batch_rff: standalone sessions driven through
// core::SessionFactory and Session::run, one after another on the calling
// thread (a closed loop of one caller).
#include <cmath>
#include <thread>

#include "common.h"
#include "exec/eval_scheduler.h"

namespace perfbench {

namespace {

// Evaluation budgets of the two standalone workloads.
constexpr int kPaperBudget = 60;
constexpr int kRffBudget = 60;

/// One finished standalone session.
struct SessionRun {
  double wall_s = 0.0;
  std::vector<double> round_ms;  ///< BO rounds only (the initial design excluded)
  std::size_t evaluations = 0;
  JournalCheck journal;
};

SessionRun run_session(const Options& options, Report& report, core::SessionSpec spec,
                       const std::string& label) {
  SessionRun out;
  spec.checkpoint_path = (options.dir / (label + ".journal")).string();
  fs::remove(spec.checkpoint_path);
  std::string why;
  auto session = core::SessionFactory::create(spec, &why);
  report.op(session != nullptr, label + ": spec rejected: " + why);
  if (!session) return out;

  // Round boundaries as the caller sees them: the pacing hook fires once
  // before parameter selection, then at every round of the initial design
  // and of the BO search.  The BO rounds are the last ceil(search / q).
  std::vector<Clock::time_point> boundaries;
  core::SessionOutcome outcome;
  out.wall_s = timed("core", "Session::run", [&] {
    outcome = session->run(nullptr, [&boundaries] { boundaries.push_back(Clock::now()); });
  });
  const auto end = Clock::now();
  const int init = spec.init > 0 ? spec.init : 20;
  const int q = std::max(1, spec.batch);
  const std::size_t bo_rounds = static_cast<std::size_t>((spec.budget - init + q - 1) / q);
  report.op(boundaries.size() >= bo_rounds, label + ": fewer round boundaries than BO rounds");
  if (boundaries.size() >= bo_rounds) {
    boundaries.push_back(end);
    for (std::size_t i = boundaries.size() - 1 - bo_rounds; i + 1 < boundaries.size(); ++i) {
      out.round_ms.push_back(
          std::chrono::duration<double, std::milli>(boundaries[i + 1] - boundaries[i]).count());
    }
  }
  report.op(outcome.ok() && !outcome.interrupted, label + ": session failed: " + outcome.error);
  out.evaluations = outcome.result.history.size();
  report.op(out.evaluations == static_cast<std::size_t>(spec.budget),
            label + ": ran " + std::to_string(out.evaluations) + " evaluations of budget " +
                std::to_string(spec.budget));
  out.journal = check_session(report, label, spec.checkpoint_path, spec.budget);
  if (out.journal.ok && outcome.result.found_any()) {
    report.op(outcome.result.best_value_s() == out.journal.best_s,
              label + ": journal best differs from the session's result");
  }
  return out;
}

/// Builds the workload's fixed objects: the working directory, the
/// session's objective, the assembled session and (in scheduler mode) the
/// evaluation scheduler.  Returns what tears them down again.
std::function<void()> setup_once(const Options& options, const core::SessionSpec& spec) {
  const fs::path root = options.dir / "setup";
  fs::create_directories(root);
  auto objective = std::make_shared<sparksim::SparkObjective>(objective_for(spec));
  std::shared_ptr<core::Session> session = core::SessionFactory::create(spec);
  std::shared_ptr<exec::EvalScheduler> scheduler;
  if (spec.parallel > 0) {
    exec::SchedulerOptions scheduler_options;
    scheduler_options.parallelism = spec.parallel;
    scheduler = std::make_shared<exec::EvalScheduler>(scheduler_options);
  }
  return [root, objective, session, scheduler]() mutable {
    scheduler.reset();
    session.reset();
    objective.reset();
    fs::remove_all(root);
  };
}

void run_standalone(const Options& options, Report& report, const core::SessionSpec& base,
                    std::uint64_t stream) {
  const auto spec_for = [&](std::uint64_t k) {
    core::SessionSpec spec = base;
    spec.seed = derive_seed(options.seed, stream, k);
    return spec;
  };
  const double setup_s = median_setup_seconds(101, [&] { return setup_once(options, spec_for(0)); });

  if (!options.trace) {
    std::vector<double> session_s, round_ms, best_s;
    std::size_t evaluations = 0;
    const auto start = Clock::now();
    // Sessions start while one more is expected to end no later than half
    // a session past the deadline.
    const auto another = [&] {
      const double elapsed = seconds_since(start);
      return session_s.empty() ||
             elapsed + 0.5 * sum(session_s) / static_cast<double>(session_s.size()) <
                 options.seconds;
    };
    for (std::uint64_t k = 0; another(); ++k) {
      const auto run = run_session(options, report, spec_for(k),
                                   options.workload + "-" + std::to_string(k));
      session_s.push_back(run.wall_s);
      round_ms.insert(round_ms.end(), run.round_ms.begin(), run.round_ms.end());
      evaluations += run.evaluations;
      if (run.journal.ok) best_s.push_back(run.journal.best_s);
      fs::remove(options.dir / (options.workload + "-" + std::to_string(k) + ".journal"));
    }
    const Tail round_tail = tail_of(round_ms);
    report.set("session_s", median(session_s), "s");
    report.set("round_ms_p50", median(round_ms), "ms");
    report.set("round_ms_tail", round_tail.value, "ms");
    report.set("evals_per_s", static_cast<double>(evaluations) / sum(session_s), "1/s");
    report.set("best_s", geomean(best_s), "sim_s");
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.note(std::to_string(session_s.size()) + " sessions; round_ms_tail is p" +
                std::to_string(round_tail.p * 100).substr(0, 4) + " of " +
                std::to_string(round_tail.n) + " BO rounds (" +
                std::to_string(round_tail.beyond) + " beyond)");
    return;
  }

  // Traced run: the first session untraced, then again traced, then the
  // layer replays on its journal and the ask/tell probe.
  const std::string label = options.workload + "-0";
  const auto untraced = run_session(options, report, spec_for(0), label);
  SessionRun traced_run;
  TracedPass pass = traced([&] { traced_run = run_session(options, report, spec_for(0), label); });
  pass.session_wall_s = traced_run.wall_s;
  report.op(untraced.journal.digest == traced_run.journal.digest,
            "traced session journal differs from the untraced one");
  report_trace(options, report, pass, untraced.wall_s, traced_run.wall_s);
  const AskTellStats probe = run_probe(options, report, base);
  if (traced_run.journal.ok) {
    replay_layers(options, report, spec_for(0), traced_run.journal.checkpoint, probe);
  }
  report_service(report, probe);
  fs::remove(options.dir / (label + ".journal"));
}

}  // namespace

void run_paper_q1(const Options& options, Report& report) {
  // The reference session: PR-D1, 20 initial samples, q=1, detached
  // seeding (no scheduler), exact GP below 256 points, journaled, fresh
  // selection cache (every Session is assembled new).
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.budget = kPaperBudget;
  run_standalone(options, report, spec, 1);
}

void run_batch_rff(const Options& options, Report& report) {
  // The long-tail batched session: KM-D2, q=4 on the evaluation scheduler,
  // random-features surrogate from the first fit, doubling refits.
  core::SessionSpec spec;
  spec.workload = "KM";
  spec.dataset = 2;
  spec.budget = kRffBudget;
  spec.batch = 4;
  spec.parallel =
      static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  spec.surrogate = "rff";
  spec.refit = "doubling";
  run_standalone(options, report, spec, 2);
}

}  // namespace perfbench
