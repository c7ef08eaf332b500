// fleet: one in-process SessionManager driven only through a LocalClient
// by one executor thread.  The executor keeps a fixed set of lanes busy:
// ask/tell sessions it evaluates itself, and hosted internal sessions that
// share one turnstile slot between more live sessions than slots.  A lane
// whose session ends gets the next one at once, so the work running beside
// any round is the same mix throughout a run instead of being locked to
// the phases of sessions that all started together.
#include "common.h"

namespace perfbench {

namespace {

constexpr int kExternalLanes = 2;
constexpr int kInternalLanes = 2;

core::SessionSpec external_spec(std::uint64_t seed) {
  core::SessionSpec spec;
  spec.workload = "PR";
  spec.dataset = 1;
  spec.mode = "external";
  spec.budget = 48;
  spec.init = 16;
  spec.batch = 4;
  spec.selection_samples = 20;
  spec.seed = seed;
  return spec;
}

core::SessionSpec internal_spec(std::uint64_t seed) {
  core::SessionSpec spec;
  spec.workload = "CC";
  spec.dataset = 1;
  spec.budget = 40;
  spec.seed = seed;
  return spec;
}

service::ServiceOptions service_options(const Options& options) {
  service::ServiceOptions out;
  out.root = (options.dir / "fleet").string();
  out.max_live = 2;
  out.max_pending = 8;
  out.slots = 1;
  out.seed = derive_seed(options.seed, 3, 0);
  out.events_path = out.root + "/events.log";
  out.lease_timeout_ticks = 1u << 30;
  return out;
}

/// Starts one session per lane and drives them; with `refill`, a lane
/// whose session ended gets the next one while that is expected to end no
/// later than half a session past the deadline.  Each lane kind takes its
/// session seeds in a fixed order.  Returns the wall seconds.
double run_lanes(const Options& options, Report& report, service::SessionManager& manager,
                 service::LocalClient& client, AskTellStats& stats, bool refill) {
  const auto start = Clock::now();
  std::uint64_t external_k = 0, internal_k = 0;
  const auto next = [&](bool external) {
    return external ? external_spec(derive_seed(options.seed, 3, external_k++))
                    : internal_spec(derive_seed(options.seed, 4, internal_k++));
  };
  Executor executor(client, report, stats);
  for (int i = 0; i < kExternalLanes; ++i) executor.start(next(true));
  for (int i = 0; i < kInternalLanes; ++i) executor.start(next(false));
  Executor::Refill next_for;
  if (refill) {
    next_for = [&](const core::SessionSpec& ended) -> std::optional<core::SessionSpec> {
      if (seconds_since(start) + 0.5 * median(stats.lifetime_s) >= options.seconds) {
        return std::nullopt;
      }
      return next(ended.mode == "external");
    };
  }
  executor.drive(manager, next_for);
  return seconds_since(start);
}

void run_sessions(const Options& options, Report& report, service::SessionManager& manager,
                  service::LocalClient& client, double setup_s) {
  if (!options.trace) {
    AskTellStats stats;
    const double wall_s = run_lanes(options, report, manager, client, stats, true);
    const Tail round_tail = tail_of(stats.think_ms);
    report.set("session_s", median(stats.session_s), "s");
    report.set("round_ms_p50", median(stats.think_ms), "ms");
    report.set("round_ms_tail", round_tail.value, "ms");
    report.set("evals_per_s", static_cast<double>(stats.evaluations) / wall_s, "1/s");
    report.set("best_s", geomean(stats.best_s), "sim_s");
    report.note("ask/tell round trip p50 " + std::to_string(median(stats.rtt_ms)) + " ms over " +
                std::to_string(stats.rtt_ms.size()) + " evaluations (service.rtt_ms_* per layer)");
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.note(std::to_string(stats.lifetime_s.size()) + " sessions on " +
                std::to_string(kExternalLanes) + " ask/tell + " +
                std::to_string(kInternalLanes) + " internal lanes (" +
                std::to_string(stats.session_s.size()) +
                " internal); round_ms is ask/tell think time, p" +
                std::to_string(round_tail.p * 100).substr(0, 4) + " of " +
                std::to_string(round_tail.n) + " BO rounds for the tail");
  } else {
    // One session per lane, no refill: first untraced, then traced.
    AskTellStats untraced;
    run_lanes(options, report, manager, client, untraced, false);
    AskTellStats stats;
    TracedPass pass =
        traced([&] { run_lanes(options, report, manager, client, stats, false); });
    pass.session_wall_s = sum(stats.lifetime_s);
    report_trace(options, report, pass, median(untraced.session_s), median(stats.session_s));
    report.op(stats.have_external, "no external session journal to replay");
    if (stats.have_external) {
      replay_layers(options, report, stats.external_spec, stats.external_journal, stats);
    }
    report_service(report, stats);
  }
}

}  // namespace

void run_fleet(const Options& options, Report& report) {
  // As `robotune_serve --pool-threads 1`: acquisition multi-starts and
  // forest fits run inline on their session's thread, so the fleet keeps
  // at most 2 ask/tell sessions + 1 turnstile slot + the executor busy,
  // within the 4 cores it is sized for.  With the default pool each of the
  // three computing sessions fans out over every core.
  report.op(ThreadPool::configure_global(1), "global thread pool already created");
  const auto service = service_options(options);
  const double setup_s = median_setup_seconds(101, [&]() -> std::function<void()> {
    auto objective = std::make_shared<sparksim::SparkObjective>(
        objective_for(external_spec(derive_seed(options.seed, 3, 0))));
    auto manager = std::make_shared<service::SessionManager>(service);
    auto client = std::make_shared<service::LocalClient>(*manager);
    // The manager's destructor shuts it down and joins its threads.
    return [&service, objective, manager, client]() mutable {
      client.reset();
      manager.reset();
      objective.reset();
      fs::remove_all(service.root);
    };
  });
  {
    service::SessionManager manager(service);
    service::LocalClient client(manager);
    run_sessions(options, report, manager, client, setup_s);
  }
  fs::remove_all(service.root);
}

}  // namespace perfbench
