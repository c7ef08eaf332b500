#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>

#include "common/crc32.h"
#include "obs/trace.h"
#include "service/protocol.h"

namespace perfbench {

namespace {

// The ask/tell probe: sessions, and evaluations each.
constexpr std::uint64_t kProbeSessions = 4;
constexpr int kProbeBudget = 48;

// How often an idle executor asks for the fleet metrics.
constexpr auto kMetricsInterval = std::chrono::milliseconds(100);

constexpr const char* kLayerSpans[] = {"selection", "gp_fit",     "acq_opt", "cl_purge",
                                       "eval_batch", "eval", "journal"};
constexpr const char* kReportedSpans[] = {"selection", "gp_fit", "acq_opt", "journal"};
constexpr const char* kCounters[] = {
    "bo.gp_refits",          "acq.probes",           "gp.predict_batch.points",
    "gp.add_point.calls",    "gp.remove_point.calls", "rff.fit.calls",
    "bo.cl_purge.downdates", "exec.evals_dispatched", "evals.failed",
    "service.leases.granted", "service.observe.accepted"};

std::string format(const char* fmt, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), fmt, value);
  return buffer;
}

bool terminal_state(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "failed";
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

void Report::print(std::FILE* out) const {
  for (const auto& line : notes_) std::fprintf(out, "# %s\n", line.c_str());
  for (const auto& line : failures_) std::fprintf(out, "FAILED: %s\n", line.c_str());
  std::fprintf(out, "error_rate = %.6g ratio (%" PRIu64 " failed of %" PRIu64
                    " attempted operations)\n",
               attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / attempted_, failed_,
               attempted_);
  bool finite = true;
  for (const auto& [name, metric] : metrics_) {
    std::fprintf(out, "%s = %.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    finite = finite && std::isfinite(metric.value);
  }
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                    ", \"metrics\": {",
               correct() && finite ? "true" : "false", std::max<std::uint64_t>(1, attempted_),
               failed_);
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                 name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                 metric.unit.c_str());
    first = false;
  }
  std::fprintf(out, "}}\n");
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Session seeds travel through spec files as decimal text and are
  // multiplied by the objective; keep them in a readable range.
  return (z % 1000000007ULL) + 1;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

sparksim::SparkObjective objective_for(const core::SessionSpec& spec) {
  sparksim::WorkloadKind kind = sparksim::WorkloadKind::kPageRank;
  for (auto k : sparksim::all_workloads()) {
    if (sparksim::short_name(k) == spec.workload) kind = k;
  }
  return sparksim::SparkObjective(
      sparksim::ClusterSpec::paper_testbed(), sparksim::make_workload(kind, spec.dataset),
      sparksim::spark24_config_space(), spec.seed * 7919, 480.0, 0.04,
      spec.metric == "coreseconds" ? sparksim::ObjectiveMetric::kCoreSeconds
                                   : sparksim::ObjectiveMetric::kExecutionTime);
}

double median_setup_seconds(int reps, const std::function<std::function<void()>()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    const auto teardown = setup();
    samples.push_back(seconds_since(start));
    teardown();
  }
  return median(samples);
}

JournalCheck check_journal(const fs::path& path, std::size_t expected) {
  JournalCheck check;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    check.error = "cannot open " + path.string();
    return check;
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  check.digest = robotune::crc32(bytes);
  check.bytes = bytes.size();
  try {
    core::SessionLoadReport load;
    if (!core::load_session_file(path.string(), check.checkpoint, core::LoadMode::kStrict,
                                 &load)) {
      check.error = "journal did not load";
      return check;
    }
  } catch (const std::exception& e) {
    check.error = std::string("strict load failed: ") + e.what();
    return check;
  }
  const auto& evals = check.checkpoint.evaluations;
  if (evals.size() != expected) {
    check.error = "journal holds " + std::to_string(evals.size()) + " evaluations, expected " +
                  std::to_string(expected);
    return check;
  }
  check.best_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (evals[i].index != i) {
      check.error = "journal is not in canonical order at record " + std::to_string(i);
      return check;
    }
    if (evals[i].status == sparksim::RunStatus::kOk) {
      check.best_s = std::min(check.best_s, evals[i].value_s);
    }
  }
  if (!std::isfinite(check.best_s)) {
    check.error = "journal holds no successful evaluation";
    return check;
  }
  check.ok = true;
  return check;
}

JournalCheck check_session(Report& report, const std::string& label, const fs::path& journal,
                           int budget) {
  JournalCheck check = check_journal(journal, static_cast<std::size_t>(budget));
  report.op(check.ok, label + ": " + check.error);
  char line[160];
  std::snprintf(line, sizeof(line), "%s journal crc32=%08x bytes=%" PRIu64 " best_s=%.6g",
                label.c_str(), check.digest, check.bytes, check.best_s);
  report.note(line);
  return check;
}

// ---- executor -------------------------------------------------------------------

bool Executor::start(const core::SessionSpec& spec) {
  service::Request request;
  request.verb = "start";
  request.spec_body = core::encode_spec_body(spec);
  const auto response = call(request, nullptr, "start");
  if (!response.ok) {
    ++stats_.rejected;
    return false;
  }
  Tracked session;
  session.id = std::stoull(response.fields.at("id"));
  session.spec = spec;
  session.external = spec.mode == "external";
  session.started = Clock::now();
  if (session.external) {
    session.objective = std::make_unique<sparksim::SparkObjective>(objective_for(spec));
  }
  sessions_.push_back(std::move(session));
  return true;
}

service::Response Executor::call(const service::Request& request,
                                 std::vector<double>* latency_us, const char* name) {
  service::Response response;
  const double s = timed("service", name, [&] { response = client_.call(request); });
  if (latency_us != nullptr) latency_us->push_back(s * 1e6);
  report_.op(response.ok, std::string(name) + ": " + response.error);
  // Keep a bounded sample of real traffic for the codec measurement.
  if (stats_.codec_pairs.size() < 256) stats_.codec_pairs.emplace_back(request, response);
  return response;
}

bool Executor::serve(Tracked& session) {
  service::Request ask;
  ask.verb = "suggest";
  ask.session = session.id;
  ask.limit = static_cast<std::uint64_t>(std::max(1, session.spec.batch));
  const auto batch = call(ask, &stats_.suggest_us, "suggest");
  ++stats_.suggests;
  const auto granted_at = Clock::now();
  if (!batch.ok) return false;
  session.state = batch.fields.count("state") ? batch.fields.at("state") : "";
  if (terminal_state(session.state)) {
    session.terminal = true;
    stats_.lifetime_s.push_back(seconds_since(session.started));
    return false;
  }
  if (batch.records.empty()) return false;
  ++stats_.granting_suggests;
  const double suggest_us = stats_.suggest_us.back();
  bool first = true;
  for (const auto& record : batch.records) {
    std::istringstream in(record);
    std::uint64_t index = 0, lease = 0, deadline = 0;
    std::vector<double> unit;
    const bool parsed = static_cast<bool>(in >> index >> lease >> deadline);
    for (double v = 0.0; in >> v;) unit.push_back(v);
    report_.op(parsed && !unit.empty(), "unparsable grant '" + record + "'");
    if (!parsed || unit.empty()) continue;
    const int init = session.spec.init > 0 ? session.spec.init : 20;
    if (first && session.acked && index >= static_cast<std::uint64_t>(init)) {
      stats_.think_ms.push_back(ms_between(session.last_ack, granted_at));
    }
    first = false;
    sparksim::EvalOutcome outcome;
    const double eval_s = timed("sparksim", "SparkObjective::evaluate",
                                [&] { outcome = session.objective->evaluate(unit); });
    stats_.evaluate_us.push_back(eval_s * 1e6);
    ++stats_.evaluations;
    if (outcome.status != sparksim::RunStatus::kOk) ++stats_.failed_evals;

    service::Request tell;
    tell.verb = "observe";
    tell.session = session.id;
    tell.has_observation = true;
    tell.eval = index;
    tell.value_s = outcome.value_s;
    tell.cost_s = outcome.cost_s;
    tell.status = sparksim::to_string(outcome.status);
    const auto ack = call(tell, &stats_.observe_us, "observe");
    const std::string verdict = ack.fields.count("verdict") ? ack.fields.at("verdict") : "";
    const bool accepted = ack.ok && verdict == "accepted";
    if (!accepted) ++stats_.rejected;
    report_.op(accepted, "observe of eval " + std::to_string(index) + " got verdict '" +
                             verdict + "'");
    stats_.rtt_ms.push_back((suggest_us + stats_.observe_us.back()) / 1000.0);
  }
  session.last_ack = Clock::now();
  session.acked = true;
  return true;
}

void Executor::poll(Tracked& session) {
  service::Request request;
  request.verb = "status";
  request.session = session.id;
  const auto status = call(request, &stats_.status_us, "status");
  if (!status.ok) return;
  session.state = status.fields.count("state") ? status.fields.at("state") : "";
  if (!terminal_state(session.state)) return;
  session.terminal = true;
  stats_.lifetime_s.push_back(seconds_since(session.started));
  if (!session.external) stats_.session_s.push_back(stats_.lifetime_s.back());
}

void Executor::drive(service::SessionManager& manager, const Refill& refill) {
  const auto live = [this] {
    return std::any_of(sessions_.begin(), sessions_.end(),
                       [](const Tracked& s) { return !s.terminal; });
  };
  // Offers each session that ended since the last call to `refill`; the
  // new sessions start after the scan, since start() grows sessions_.
  const auto refill_ended = [&] {
    if (!refill) return;
    std::vector<core::SessionSpec> next;
    for (auto& session : sessions_) {
      if (!session.terminal || session.refilled) continue;
      session.refilled = true;
      if (auto spec = refill(session.spec)) next.push_back(std::move(*spec));
    }
    for (const auto& spec : next) start(spec);
  };
  auto last_metrics = Clock::now() - kMetricsInterval;
  while (live()) {
    bool granted = false;
    for (auto& session : sessions_) {
      if (!session.terminal && session.external) granted = serve(session) || granted;
    }
    refill_ended();
    if (granted) continue;
    // Between rounds: poll every live session and the fleet metrics.
    for (auto& session : sessions_) {
      if (!session.terminal) poll(session);
    }
    refill_ended();
    // A fleet `metrics` answer snapshots the whole registry, which grows
    // with every session the manager has hosted.  Polled every idle
    // millisecond, it made the fleet's think time differ by 20% between
    // runs of one seed; poll it as a dashboard would.
    if (Clock::now() - last_metrics >= kMetricsInterval) {
      service::Request metrics;
      metrics.verb = "metrics";
      call(metrics, &stats_.metrics_us, "metrics");
      last_metrics = Clock::now();
    }
    if (live()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& session : sessions_) {
    const std::string label = std::string(session.external ? "external" : "internal") +
                              " session " + std::to_string(session.id);
    report_.op(session.state == "done", label + " ended in state '" + session.state + "'");
    if (!session.external) stats_.evaluations += static_cast<std::uint64_t>(session.spec.budget);
    auto check =
        check_session(report_, label, manager.journal_path(session.id), session.spec.budget);
    if (!check.ok) continue;
    stats_.best_s.push_back(check.best_s);
    if (session.external && !stats_.have_external) {
      stats_.external_spec = session.spec;
      stats_.external_journal = std::move(check.checkpoint);
      stats_.have_external = true;
    }
  }
}

AskTellStats run_probe(const Options& options, Report& report, const core::SessionSpec& spec) {
  core::SessionSpec probe;
  probe.workload = spec.workload;
  probe.dataset = spec.dataset;
  probe.mode = "external";
  probe.budget = kProbeBudget;
  probe.init = 16;
  probe.batch = 4;
  probe.selection_samples = 20;

  service::ServiceOptions service_options;
  service_options.root = (options.dir / "probe").string();
  service_options.max_live = 1;
  service_options.slots = 1;
  service_options.seed = derive_seed(options.seed, 99, 0);
  service_options.lease_timeout_ticks = 1u << 30;
  fs::remove_all(service_options.root);
  AskTellStats stats;
  {
    service::SessionManager manager(service_options);
    service::LocalClient client(manager);
    // One session at a time, so nothing else computes while the executor
    // waits on a round trip.
    for (std::uint64_t k = 0; k < kProbeSessions; ++k) {
      Executor executor(client, report, stats);
      probe.seed = derive_seed(options.seed, 99, k);
      if (executor.start(probe)) executor.drive(manager);
    }
  }
  fs::remove_all(service_options.root);
  return stats;
}

// ---- traced runs ------------------------------------------------------------------

TracedPass traced(const std::function<void()>& pass) {
  TracedPass out;
  obs::tracer().reset();
  span_log().restart_epoch();
  span_log().set_enabled(true);
  obs::MetricsSnapshot before;
  timed("obs", "MetricsRegistry::snapshot", [&] { before = obs::metrics().snapshot(); });
  obs::tracer().set_enabled(true);
  pass();
  obs::tracer().set_enabled(false);
  obs::MetricsSnapshot after;
  timed("obs", "MetricsRegistry::snapshot", [&] { after = obs::metrics().snapshot(); });
  std::vector<obs::SpanRecord> records;
  timed("obs", "Tracer::records", [&] { records = obs::tracer().records(); });
  span_log().set_enabled(false);
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    out.counters.counters[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  for (auto& r : records) {
    out.program.push_back(Interval{std::move(r.name), "", r.tid, r.start_us, r.dur_us});
  }
  out.bench = span_log().spans();
  return out;
}

void report_trace(const Options& options, Report& report, const TracedPass& pass,
                  double untraced_session_s, double traced_session_s) {
  const auto program_self = self_seconds_by(pass.program, false);
  const auto self_of = [&](const std::string& name) {
    const auto it = program_self.find(name);
    return it == program_self.end() ? 0.0 : it->second;
  };
  for (const char* name : kReportedSpans) {
    report.set(std::string("span.") + name + ".self_s", self_of(name), "s");
  }
  for (const char* name : kLayerSpans) {
    report.note(std::string("program span ") + name + " self_s = " +
                format("%.6g", self_of(name)));
  }
  // Coverage counts layer time on the threads that ran a session, so work a
  // session farmed out to pool workers is not counted twice.
  std::set<std::uint32_t> session_threads;
  for (const auto& span : pass.program) {
    if (span.name == "session") session_threads.insert(span.tid);
  }
  const auto self = self_times(pass.program);
  double covered = 0.0;
  for (std::size_t i = 0; i < pass.program.size(); ++i) {
    const auto& span = pass.program[i];
    if (session_threads.count(span.tid) == 0) continue;
    for (const char* name : kLayerSpans) {
      if (span.name == name) covered += static_cast<double>(self[i]) * 1e-6;
    }
  }
  const double coverage = pass.session_wall_s > 0.0 ? covered / pass.session_wall_s : 0.0;
  report.set("obs.coverage", coverage, "ratio");
  report.note("obs.coverage base: " + format("%.6g", covered) +
              " s of layer-span self time over " + format("%.6g", pass.session_wall_s) +
              " s of traced session wall");
  const double overhead =
      untraced_session_s > 0.0 ? traced_session_s / untraced_session_s : 0.0;
  report.set("obs.trace_overhead", overhead, "ratio");
  report.note("obs.trace_overhead base: traced session_s " + format("%.6g", traced_session_s) +
              " s over untraced session_s " + format("%.6g", untraced_session_s) + " s");
  for (const char* name : kCounters) {
    const auto it = pass.counters.counters.find(name);
    report.set(std::string("ctr.") + name,
               it == pass.counters.counters.end() ? 0.0 : static_cast<double>(it->second),
               "count");
  }
  for (const auto& [layer, seconds] : self_seconds_by(pass.bench, true)) {
    report.note("layer " + layer + " self_s = " + format("%.6g", seconds) +
                " (benchmark spans around calls into the module)");
  }

  const fs::path path = options.dir / ("trace-" + options.workload + "-" +
                                       std::to_string(options.seed) + ".jsonl");
  std::ofstream out(path);
  const auto write = [&out](const Interval& span, const char* source) {
    out << "{\"source\":\"" << source << "\",\"name\":\"" << obs::json_escape(span.name)
        << "\",\"layer\":\"" << span.layer << "\",\"tid\":" << span.tid
        << ",\"ts_us\":" << span.start_us << ",\"dur_us\":" << span.dur_us << "}\n";
  };
  for (const auto& span : pass.program) write(span, "program");
  for (const auto& span : pass.bench) write(span, "bench");
  report.note("spans written to " + path.string());
}

void report_service(Report& report, const AskTellStats& stats) {
  const Tail rtt_tail = tail_of(stats.rtt_ms);
  report.set("service.rtt_ms_p50", median(stats.rtt_ms), "ms");
  report.set("service.rtt_ms_tail", rtt_tail.value, "ms");
  report.note("service.rtt_ms_tail is p" + format("%g", rtt_tail.p * 100) + " of " +
              std::to_string(rtt_tail.n) + " round trips (" + std::to_string(rtt_tail.beyond) +
              " beyond)");
  report.set("service.suggest_us_p50", median(stats.suggest_us), "us");
  report.set("service.suggest_us_tail", tail_of(stats.suggest_us).value, "us");
  report.set("service.observe_us_p50", median(stats.observe_us), "us");
  report.set("service.observe_us_tail", tail_of(stats.observe_us).value, "us");
  report.set("service.status_us_p50", median(stats.status_us), "us");
  report.set("service.metrics_us_p50", median(stats.metrics_us), "us");
  report.note("service samples: " + std::to_string(stats.suggest_us.size()) + " suggest, " +
              std::to_string(stats.observe_us.size()) + " observe, " +
              std::to_string(stats.status_us.size()) + " status, " +
              std::to_string(stats.metrics_us.size()) + " metrics; tails are p" +
              format("%g", tail_of(stats.observe_us).p * 100) + " of observe");

  // Codec: encode and decode the same request/response pairs the executor
  // exchanged, through service/protocol.h alone.
  std::vector<double> codec_us;
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto& [request, response] : stats.codec_pairs) {
      service::Request req_out;
      service::Response res_out;
      std::string error;
      bool ok = true;
      const double s = timed("service", "protocol codec", [&] {
        ok = service::decode_request(service::encode_request(request), req_out, error) &&
             service::decode_response(service::encode_response(response), res_out, error);
      });
      report.op(ok, "codec round trip: " + error);
      codec_us.push_back(s * 1e6);
    }
  }
  report.set("service.codec_us", median(codec_us), "us");
  report.set("service.grant_ratio",
             stats.suggests == 0 ? 0.0
                                 : static_cast<double>(stats.granting_suggests) /
                                       static_cast<double>(stats.suggests),
             "ratio");
  report.note("service.grant_ratio base: " + std::to_string(stats.granting_suggests) +
              " granting of " + std::to_string(stats.suggests) + " suggests");
  report.set("service.rejected", static_cast<double>(stats.rejected), "count");
}

}  // namespace perfbench
