// Tuning-as-a-service daemon: hosts a fleet of concurrent tuning
// sessions behind a Unix-domain socket (DESIGN.md §13).
//
//   $ ./build/examples/robotune_serve --root /tmp/rt-fleet
//         --socket /tmp/rt.sock --max-live 2 --slots 1 &
//   $ ./build/examples/robotune_cli --connect /tmp/rt.sock
//         --remote start --workload PR --dataset 2 --budget 24 --init 8
//   session 1 started
//   $ ./build/examples/robotune_cli --connect /tmp/rt.sock
//         --remote status --session 1
//
// On startup the daemon replays every session found under --root:
// completed sessions are re-registered, interrupted ones resume from
// their crash-safe journals, and a session whose files are corrupt
// beyond recovery is quarantined (the fleet keeps serving).  SIGINT and
// SIGTERM shut down gracefully: live sessions stop at their next round
// boundary with resumable journals, so the next start continues the
// fleet where it left off.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "common/numbers.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "service/telemetry.h"

using namespace robotune;

namespace {

std::atomic<bool> g_stop{false};
volatile std::sig_atomic_t g_signal = 0;

extern "C" void handle_stop_signal(int sig) {
  g_signal = sig;
  g_stop.store(true, std::memory_order_relaxed);
}

/// A numeric flag value must be the whole number: `--max-live 2x` is a
/// usage error naming the flag, never a silent 2.
template <typename T>
bool number_flag(const std::string& flag, const char* value, T& out) {
  if (value == nullptr) return false;
  if (parse_number(value, out)) return true;
  std::fprintf(stderr, "bad value '%s' for %s\n", value, flag.c_str());
  return false;
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s --root DIR [options]\n"
      "  --root DIR        service root for per-session spec/journal files\n"
      "  --socket PATH     listening socket      (default DIR/robotune.sock)\n"
      "  --max-live N      concurrent sessions   (default 2)\n"
      "  --queue N         pending-queue bound   (default 8)\n"
      "  --slots N         workers stepping internal sessions round-robin,\n"
      "                    0 = max-live (capped at max-live)\n"
      "                    (default 0; 1 = strict round-robin)\n"
      "  --seed N          service seed for derived session seeds\n"
      "                    (default 2024)\n"
      "  --lease-timeout N ask/tell lease lifetime in ticks (~seconds);\n"
      "                    leased suggestions unobserved for this long\n"
      "                    return to the pending pool  (default 60)\n"
      "  --terminal-ttl N  evict done/cancelled sessions from memory\n"
      "                    after N ticks; 0 = keep resident (default 0)\n"
      "  --idle-timeout N  drop clients that never complete a request\n"
      "                    frame after N seconds       (default 30)\n"
      "  --fsync           fsync every journal flush\n"
      "  --pool-threads N  size the process-global thread pool before\n"
      "                    first use (0 = hardware concurrency)\n"
      "  --events-file P   fleet event journal   (default DIR/events.jsonl)\n"
      "  --no-events       disable the fleet event journal\n"
      "  --events-max-bytes N  event journal rotation threshold\n"
      "  --metrics-file P  Prometheus text dump, rewritten ~1/s and at\n"
      "                    exit (atomic temp+rename; point a scraper or\n"
      "                    node_exporter textfile collector at it)\n"
      "  --trace-dir DIR   enable span tracing; per-session JSONL trace\n"
      "                    files are exported here at shutdown\n",
      argv0);
}

/// Exports the recorded spans split by owning session:
/// `<dir>/session-<id>.trace.jsonl` per session plus
/// `<dir>/fleet.trace.jsonl` for spans outside any session scope.
void export_traces(const std::string& dir) {
  const auto records = obs::tracer().records();
  std::map<std::string, std::vector<obs::SpanRecord>> by_session;
  for (const auto& span : records) {
    std::string sid;
    for (const auto& [key, value] : span.args) {
      if (key == "session") {
        sid = value;
        break;
      }
    }
    by_session[sid].push_back(span);
  }
  for (const auto& [sid, spans] : by_session) {
    const std::string path =
        sid.empty() ? dir + "/fleet.trace.jsonl"
                    : dir + "/session-" + sid + ".trace.jsonl";
    if (!obs::write_spans_file(spans, path, obs::TraceFormat::kJsonl)) {
      std::fprintf(stderr, "warning: cannot write trace file %s\n",
                   path.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  service::ServiceOptions options;
  std::string socket_path;
  std::string events_file;
  bool no_events = false;
  std::string metrics_file;
  std::string trace_dir;
  long pool_threads = -1;
  int idle_timeout_s = 30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (!v) return usage(argv[0]), 2;
      options.root = v;
    } else if (arg == "--socket") {
      const char* v = next();
      if (!v) return usage(argv[0]), 2;
      socket_path = v;
    } else if (arg == "--max-live") {
      int n = 0;
      if (!number_flag(arg, next(), n) || n < 1) return usage(argv[0]), 2;
      options.max_live = static_cast<std::size_t>(n);
    } else if (arg == "--queue") {
      int n = 0;
      if (!number_flag(arg, next(), n) || n < 0) return usage(argv[0]), 2;
      options.max_pending = static_cast<std::size_t>(n);
    } else if (arg == "--slots") {
      int n = 0;
      if (!number_flag(arg, next(), n) || n < 0) return usage(argv[0]), 2;
      options.slots = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      if (!number_flag(arg, next(), options.seed)) return usage(argv[0]), 2;
    } else if (arg == "--lease-timeout") {
      if (!number_flag(arg, next(), options.lease_timeout_ticks) ||
          options.lease_timeout_ticks < 1) {
        return usage(argv[0]), 2;
      }
    } else if (arg == "--terminal-ttl") {
      if (!number_flag(arg, next(), options.terminal_ttl_ticks)) {
        return usage(argv[0]), 2;
      }
    } else if (arg == "--idle-timeout") {
      if (!number_flag(arg, next(), idle_timeout_s) || idle_timeout_s < 1) {
        return usage(argv[0]), 2;
      }
    } else if (arg == "--fsync") {
      options.sync = core::SyncPolicy::kFsync;
    } else if (arg == "--pool-threads") {
      int n = 0;
      if (!number_flag(arg, next(), n) || n < 0) return usage(argv[0]), 2;
      pool_threads = n;
    } else if (arg == "--events-file") {
      const char* v = next();
      if (!v) return usage(argv[0]), 2;
      events_file = v;
    } else if (arg == "--no-events") {
      no_events = true;
    } else if (arg == "--events-max-bytes") {
      std::uint64_t n = 0;
      if (!number_flag(arg, next(), n) || n < 1) return usage(argv[0]), 2;
      options.events_max_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--metrics-file") {
      const char* v = next();
      if (!v) return usage(argv[0]), 2;
      metrics_file = v;
    } else if (arg == "--trace-dir") {
      const char* v = next();
      if (!v) return usage(argv[0]), 2;
      trace_dir = v;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (options.root.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (socket_path.empty()) socket_path = options.root + "/robotune.sock";
  if (pool_threads >= 0 &&
      !ThreadPool::configure_global(
          static_cast<std::size_t>(pool_threads))) {
    std::fprintf(stderr,
                 "warning: global thread pool already created; "
                 "--pool-threads ignored\n");
  }

  // The event journal defaults ON (it is a durability/ops artifact like
  // the session journals): <root>/events.jsonl unless overridden.
  if (!no_events) {
    options.events_path =
        events_file.empty() ? options.root + "/events.jsonl" : events_file;
  }
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    obs::tracer().set_enabled(true);
  }

  {
    struct sigaction sa = {};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
  }

  service::SessionManager manager(options);
  if (!manager.events_error().empty()) {
    std::fprintf(stderr, "warning: event journal disabled: %s\n",
                 manager.events_error().c_str());
  }
  manager.events().emit(0, "daemon.start");
  const auto recovery = manager.recover_fleet();
  std::printf(
      "fleet recovery: %zu resumed, %zu completed, %zu cancelled, "
      "%zu quarantined\n",
      recovery.readmitted, recovery.completed, recovery.cancelled,
      recovery.quarantined);
  for (const auto& file : recovery.quarantined_files) {
    std::printf("  quarantined: %s\n", file.c_str());
  }
  // Operational re-admission failures (not corruption): files are left
  // in place; surface them so the operator knows those sessions are not
  // running.
  for (const auto& line : recovery.errors) {
    std::fprintf(stderr, "recovery failure: %s\n", line.c_str());
  }

  service::Server server(manager, socket_path);
  std::string error;
  if (!server.listen(&error)) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", socket_path.c_str(),
                 error.c_str());
    return 1;
  }
  server.set_idle_timeout(std::chrono::seconds(idle_timeout_s));
  // The serve-loop tick (roughly once a second) drives the manager's
  // virtual clock — lease reaping and terminal-TTL eviction — and,
  // when configured, the Prometheus metrics dump.
  server.set_tick([&manager, metrics_file] {
    manager.tick();
    if (!metrics_file.empty()) {
      obs::write_prometheus_file(obs::metrics().snapshot(), metrics_file);
    }
  });
  std::printf("serving on %s (max-live %zu, queue %zu, slots %zu)\n",
              socket_path.c_str(), options.max_live, options.max_pending,
              manager.service_status().slots);
  std::fflush(stdout);

  const std::size_t served = server.serve(g_stop);

  // Graceful shutdown: every live session checkpoints at its next round
  // boundary; journals stay resumable for the next start.
  std::printf("shutting down after %zu request(s)\n", served);
  manager.shutdown(/*cancel_live=*/true);
  manager.events().emit(0, "daemon.stop",
                        g_signal != 0
                            ? "signal " + std::to_string(g_signal)
                            : "shutdown verb");
  manager.events().flush();
  const auto snapshot = obs::metrics().snapshot();
  if (!metrics_file.empty()) {
    if (!obs::write_prometheus_file(snapshot, metrics_file)) {
      std::fprintf(stderr, "warning: cannot write metrics file %s\n",
                   metrics_file.c_str());
    }
  }
  if (!trace_dir.empty()) export_traces(trace_dir);
  const auto status = manager.service_status();
  std::printf("%s", service::render_fleet_summary(
                        snapshot, status, manager.list_sessions())
                        .c_str());
  std::printf("fleet at exit: %zu done, %zu cancelled, %zu failed\n",
              status.done, status.cancelled, status.failed);
  // The conventional shell exit status for death-by-signal, so process
  // supervisors can tell an operator interrupt from a clean shutdown.
  return g_signal != 0 ? 128 + g_signal : 0;
}
