// Command-line front end: run any of the four tuners on any workload and
// optionally persist ROBOTune's memoized state across invocations.
//
//   $ ./build/examples/robotune_cli --workload PR --dataset 2
//         --tuner robotune --budget 100 --seed 7 --state /tmp/rt.state
//
// Running the same command twice demonstrates cross-process memoization:
// the second run hits the selection cache and seeds BO with the first
// run's best configurations.
//
// Session assembly lives in core::SessionFactory, shared with the
// robotune_serve daemon — a CLI run and a daemon-hosted session with the
// same spec write byte-identical journals.  With --connect the CLI turns
// into a client of a running daemon instead of tuning locally:
//
//   $ ./build/examples/robotune_cli --connect /tmp/rt.sock
//         --remote start --workload PR --budget 24 --init 8
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "common/error.h"
#include "common/numbers.h"
#include "core/persistence.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/summary.h"
#include "obs/trace.h"
#include "service/client.h"
#include "sparksim/objective.h"

using namespace robotune;

namespace {

// Graceful shutdown: SIGINT/SIGTERM set the stop flag, the BO engine
// notices it at the next round boundary, flushes its journal, and
// returns with interrupted = true — so ^C leaves a resumable checkpoint
// instead of a torn session.
std::atomic<bool> g_stop{false};
volatile std::sig_atomic_t g_signal = 0;

extern "C" void handle_stop_signal(int sig) {
  g_signal = sig;
  g_stop.store(true, std::memory_order_relaxed);
}

struct CliOptions {
  std::string workload = "PR";
  int dataset = 1;
  std::string tuner = "robotune";
  int budget = 100;
  std::uint64_t seed = 7;
  bool seed_set = false;  ///< --seed given (client mode: no derivation)
  std::string state_path;
  std::string metric = "time";
  std::string fault_profile = "none";
  int retries = 2;
  std::string checkpoint_path;
  bool resume = false;
  /// Load the checkpoint in recover mode: a torn or corrupt journal tail
  /// is truncated to the longest valid prefix instead of aborting.
  bool recover = false;
  /// fsync the journal (and its directory) on every checkpoint flush.
  bool fsync = false;
  /// Internal chaos injection profile (preset or per-site rates).
  std::string chaos_profile = "none";
  bool quiet = false;
  /// Evaluation workers: N >= 1 = scheduler mode with N workers (0-cost
  /// to results: any N gives bit-identical output, including N = 1);
  /// 0 = no scheduler (robotune still gives the N = 1 output).
  int parallel = 0;
  /// BO batch width q (robotune only; changes the trajectory).
  int batch = 1;
  /// Racing early-stop policy for in-flight evaluations (scheduler mode
  /// only): off | median | halving.
  std::string racing = "off";
  /// Per-evaluation simulated-time deadline in seconds (scheduler mode
  /// only; 0 = off).
  double eval_deadline = 0.0;
  /// Spot-instance preemption probability per stage (0 = off).
  double preempt_rate = 0.0;
  /// BO initial-design size override (0 = engine default of 20).
  int init = 0;
  /// Parameter-selection sample-count override (0 = default 100).
  int selection_samples = 0;
  /// Surrogate tier: exact | rff | auto (robotune only).
  std::string surrogate = "auto";
  /// RFF feature count override (0 = engine default of 256).
  int rff_features = 0;
  /// Hyperparameter-refit schedule: fixed | doubling | auto.
  std::string refit_schedule = "auto";
  /// Observability: span timeline and metrics exports (0-cost to
  /// results — the determinism test pins byte-identical output).
  std::string trace_path;
  obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;
  std::string metrics_path;
  /// Session mode for --remote start: "internal" evaluates daemon-side,
  /// "external" leases suggestions to ask/tell clients (DESIGN.md §16).
  std::string mode = "internal";
  /// Client mode: socket of a robotune_serve daemon.
  std::string connect_path;
  /// Client verb: start|status|suggest|observe|checkpoint|cancel|
  /// metrics|shutdown|drive.
  std::string remote = "status";
  std::uint64_t session_id = 0;
  std::uint64_t from = 0;
  /// observe: record-window cap; suggest (external): max leases per ask.
  /// 0 = verb default (observe: all records; ask: 1).
  std::uint64_t limit = 0;
  /// observe as *tell* (external sessions): --eval switches the verb
  /// from reading the journal window to delivering the observation
  /// below for that evaluation index.
  bool tell_set = false;
  std::uint64_t eval_index = 0;
  double tell_value = 0.0;
  double tell_cost = 0.0;
  std::string tell_status = "ok";
  /// metrics verb: "prom" asks the daemon for the Prometheus text
  /// exposition, printed raw (pipe it into a scrape file).
  std::string format;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workload PR|KM|CC|LR|TS   workload to tune        (default PR)\n"
      "  --dataset 1|2|3             Table-1 dataset          (default 1)\n"
      "  --tuner robotune|bestconfig|gunther|rs               (default robotune)\n"
      "  --budget N                  evaluation budget        (default 100)\n"
      "  --seed N                    RNG seed                 (default 7)\n"
      "  --metric time|coreseconds   objective metric         (default time)\n"
      "  --state PATH                load/save memoized state (robotune only)\n"
      "  --fault-profile P           transient-fault injection (default none)\n"
      "                              preset none|mild|moderate|severe, or\n"
      "                              loss=F,fetch=F,straggler=F[,slowdown=F]\n"
      "  --retries N                 retries per transient failure (default 2)\n"
      "  --checkpoint PATH           journal the session after every\n"
      "                              evaluation (robotune only)\n"
      "  --resume                    resume from --checkpoint if it exists\n"
      "                              (without --checkpoint: usage error)\n"
      "  --recover                   with --resume: truncate a torn or\n"
      "                              corrupt journal tail to the longest\n"
      "                              valid prefix instead of aborting\n"
      "                              (without --resume: usage error)\n"
      "  --fsync                     fsync the journal on every flush\n"
      "  --chaos-profile P           internal fault injection for soak\n"
      "                              testing (default none): preset\n"
      "                              none|surrogate|flaky|full, or\n"
      "                              cholesky=F,acq=F,journal=F,pool=F\n"
      "  --parallel N                evaluate batches on N workers; results\n"
      "                              are bit-identical for any N >= 1\n"
      "                              (default 0 = inline, the N = 1\n"
      "                              results, for every tuner)\n"
      "  --batch q                   BO proposals per round via constant-\n"
      "                              liar fantasies (robotune; default 1)\n"
      "  --racing off|median|halving kill in-flight evaluations whose\n"
      "                              partial time already dominates the\n"
      "                              batch guard threshold (needs\n"
      "                              --parallel >= 1; default off)\n"
      "  --eval-deadline S           per-evaluation simulated-time deadline\n"
      "                              in seconds (needs --parallel >= 1;\n"
      "                              default 0 = off)\n"
      "  --preempt-rate F            spot-instance preemption probability\n"
      "                              per stage (default 0 = off)\n"
      "  --init N                    BO initial-design size override\n"
      "                              (robotune; default 0 = 20)\n"
      "  --selection-samples N       parameter-selection sample count\n"
      "                              override (robotune; default 0 = 100)\n"
      "  --surrogate exact|rff|auto  surrogate tier (robotune; auto uses\n"
      "                              the exact GP below 256 observations\n"
      "                              and random features above; default\n"
      "                              auto)\n"
      "  --rff-features M            random-feature count for the rff\n"
      "                              tier (default 0 = 256)\n"
      "  --refit-schedule fixed|doubling|auto\n"
      "                              hyperparameter-refit cadence (auto:\n"
      "                              fixed below the sparse switchover,\n"
      "                              doubling above; default auto)\n"
      "  --trace PATH                export the span timeline to PATH\n"
      "  --trace-format jsonl|chrome trace format (default jsonl; chrome\n"
      "                              loads in Perfetto / chrome://tracing)\n"
      "  --metrics PATH              export session metrics as JSON\n"
      "  --quiet                     only print the summary line\n"
      "client mode (talk to a robotune_serve daemon instead of tuning):\n"
      "  --connect SOCKET            daemon socket path\n"
      "  --remote VERB               start|status|suggest|observe|\n"
      "                              checkpoint|cancel|metrics|shutdown|\n"
      "                              drive\n"
      "                              (default status; start builds the\n"
      "                              session spec from the options above,\n"
      "                              deriving the seed daemon-side unless\n"
      "                              --seed was given)\n"
      "  --session ID                target session for the verb\n"
      "  --mode internal|external    start: external sessions evaluate\n"
      "                              nothing daemon-side — suggestions\n"
      "                              are leased to ask/tell clients\n"
      "                              (default internal)\n"
      "  --from N                    observe: first evaluation index\n"
      "  --limit N                   observe: max records per page;\n"
      "                              suggest/drive (external sessions):\n"
      "                              max leases per ask (0 = default)\n"
      "  --eval N                    observe as *tell*: deliver --value/\n"
      "                              --cost/--status for eval index N to\n"
      "                              an external (ask/tell) session\n"
      "  --value S                   tell: observed objective seconds\n"
      "  --cost S                    tell: observed cost seconds\n"
      "  --status L                  tell: run status label (default ok)\n"
      "  --format prom               metrics: print the daemon's\n"
      "                              Prometheus text exposition raw\n"
      "drive: run the external-evaluator loop against an ask/tell session\n"
      "  (started with --remote start ... plus mode=external daemon-side):\n"
      "  lease suggestions, evaluate them on the local simulator built\n"
      "  from --workload/--dataset/--metric/--seed/--fault-profile/\n"
      "  --retries/--preempt-rate as an internal session would, and tell\n"
      "  the results back until the session reaches a terminal state.\n",
      argv0);
}

/// A numeric flag value must be the whole number: `--seed abc` or
/// `--budget 12x` is a usage error naming the flag, never a silent 0 or 12.
template <typename T>
bool number_flag(const std::string& flag, const char* value, T& out) {
  if (value == nullptr) return false;
  if (parse_number(value, out)) return true;
  std::fprintf(stderr, "bad value '%s' for %s\n", value, flag.c_str());
  return false;
}

bool parse(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = next();
      if (!v) return false;
      options.workload = v;
    } else if (arg == "--dataset") {
      if (!number_flag(arg, next(), options.dataset)) return false;
    } else if (arg == "--tuner") {
      const char* v = next();
      if (!v) return false;
      options.tuner = v;
    } else if (arg == "--budget") {
      if (!number_flag(arg, next(), options.budget)) return false;
    } else if (arg == "--seed") {
      if (!number_flag(arg, next(), options.seed)) return false;
      options.seed_set = true;
    } else if (arg == "--state") {
      const char* v = next();
      if (!v) return false;
      options.state_path = v;
    } else if (arg == "--metric") {
      const char* v = next();
      if (!v) return false;
      options.metric = v;
    } else if (arg == "--fault-profile") {
      const char* v = next();
      if (!v) return false;
      options.fault_profile = v;
    } else if (arg == "--retries") {
      if (!number_flag(arg, next(), options.retries)) return false;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      options.checkpoint_path = v;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--recover") {
      options.recover = true;
    } else if (arg == "--fsync") {
      options.fsync = true;
    } else if (arg == "--chaos-profile") {
      const char* v = next();
      if (!v) return false;
      options.chaos_profile = v;
    } else if (arg == "--parallel") {
      if (!number_flag(arg, next(), options.parallel)) return false;
      if (options.parallel < 0) return false;
    } else if (arg == "--batch") {
      if (!number_flag(arg, next(), options.batch)) return false;
      if (options.batch < 1) return false;
    } else if (arg == "--racing") {
      const char* v = next();
      if (!v) return false;
      options.racing = v;
    } else if (arg == "--eval-deadline") {
      if (!number_flag(arg, next(), options.eval_deadline)) return false;
      if (options.eval_deadline < 0.0) return false;
    } else if (arg == "--preempt-rate") {
      if (!number_flag(arg, next(), options.preempt_rate)) return false;
      if (options.preempt_rate < 0.0 || options.preempt_rate > 1.0) {
        return false;
      }
    } else if (arg == "--init") {
      if (!number_flag(arg, next(), options.init)) return false;
      if (options.init < 0) return false;
    } else if (arg == "--selection-samples") {
      if (!number_flag(arg, next(), options.selection_samples)) {
        return false;
      }
      if (options.selection_samples < 0) return false;
    } else if (arg == "--surrogate") {
      const char* v = next();
      if (!v) return false;
      options.surrogate = v;
    } else if (arg == "--rff-features") {
      if (!number_flag(arg, next(), options.rff_features)) return false;
      if (options.rff_features < 0) return false;
    } else if (arg == "--refit-schedule") {
      const char* v = next();
      if (!v) return false;
      options.refit_schedule = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return false;
      options.trace_path = v;
    } else if (arg == "--trace-format") {
      const char* v = next();
      if (!v || !obs::parse_trace_format(v, options.trace_format)) {
        return false;
      }
    } else if (arg == "--metrics") {
      const char* v = next();
      if (!v) return false;
      options.metrics_path = v;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--connect") {
      const char* v = next();
      if (!v) return false;
      options.connect_path = v;
    } else if (arg == "--remote") {
      const char* v = next();
      if (!v) return false;
      options.remote = v;
    } else if (arg == "--session") {
      if (!number_flag(arg, next(), options.session_id)) return false;
    } else if (arg == "--mode") {
      const char* v = next();
      if (!v) return false;
      options.mode = v;
    } else if (arg == "--from") {
      if (!number_flag(arg, next(), options.from)) return false;
    } else if (arg == "--limit") {
      if (!number_flag(arg, next(), options.limit)) return false;
    } else if (arg == "--eval") {
      if (!number_flag(arg, next(), options.eval_index)) return false;
      options.tell_set = true;
    } else if (arg == "--value") {
      if (!number_flag(arg, next(), options.tell_value)) return false;
    } else if (arg == "--cost") {
      if (!number_flag(arg, next(), options.tell_cost)) return false;
    } else if (arg == "--status") {
      const char* v = next();
      if (!v) return false;
      options.tell_status = v;
    } else if (arg == "--format") {
      const char* v = next();
      if (!v) return false;
      options.format = v;
    } else {
      return false;
    }
  }
  return options.dataset >= 1 && options.dataset <= 3;
}

/// Maps the local CLI options onto the shared session spec.
core::SessionSpec spec_from(const CliOptions& options) {
  core::SessionSpec spec;
  spec.workload = options.workload;
  spec.dataset = options.dataset;
  spec.tuner = options.tuner;
  spec.budget = options.budget;
  spec.seed = options.seed;
  spec.metric = options.metric;
  spec.fault_profile = options.fault_profile;
  spec.retries = options.retries;
  spec.preempt_rate = options.preempt_rate;
  spec.parallel = options.parallel;
  spec.batch = options.batch;
  spec.racing = options.racing;
  spec.eval_deadline = options.eval_deadline;
  spec.init = options.init;
  spec.selection_samples = options.selection_samples;
  spec.surrogate = options.surrogate;
  spec.rff_features = options.rff_features;
  spec.refit = options.refit_schedule;
  spec.mode = options.mode;
  spec.checkpoint_path = options.checkpoint_path;
  spec.resume = options.resume;
  spec.recover = options.recover;
  spec.sync = options.fsync ? core::SyncPolicy::kFsync
                            : core::SyncPolicy::kNone;
  return spec;
}

/// Parses one external suggest record: `<index> <lease> <deadline>
/// <unit...>` (the wire format dispatch emits for ask grants).
bool parse_grant(const std::string& record, std::uint64_t& index,
                 std::vector<double>& unit) {
  std::istringstream in(record);
  std::uint64_t lease = 0;
  std::uint64_t deadline = 0;
  if (!(in >> index >> lease >> deadline)) return false;
  unit.clear();
  double v = 0.0;
  while (in >> v) unit.push_back(v);
  return !unit.empty();
}

/// The external-evaluator loop (DESIGN.md §16): lease pending
/// suggestions from an ask/tell session, evaluate each on a locally
/// built simulator (core::make_session_objective), and tell the observed
/// (value, cost, status) tuple back — retrying tells the daemon drops
/// (chaos or transport) and treating a duplicate ack as success, so the
/// loop is safe to restart at any point.
int run_drive(service::SocketClient& client, const CliOptions& options) {
  if (options.session_id == 0) {
    std::fprintf(stderr, "drive needs --session ID\n");
    return 2;
  }
  const core::SessionSpec spec = spec_from(options);
  if (const std::string invalid = spec.validate(); !invalid.empty()) {
    std::fprintf(stderr, "%s\n", invalid.c_str());
    return 2;
  }
  // The objective an internal session of the same spec builds; grant i
  // runs on its eval-i stream, so a driven session observes the tuples an
  // internal run would journal, after a restart and out of order too.
  const sparksim::SparkObjective objective =
      core::make_session_objective(spec);

  std::string error;
  std::size_t told = 0;
  std::size_t duplicates = 0;
  std::string state = "unknown";
  while (!g_stop.load(std::memory_order_relaxed)) {
    service::Request ask;
    ask.verb = "suggest";
    ask.session = options.session_id;
    ask.limit = options.limit;
    service::Response batch;
    if (!client.call(ask, batch, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!batch.ok) {
      std::fprintf(stderr, "error: %s\n", batch.error.c_str());
      return 1;
    }
    if (batch.fields["mode"] != "external") {
      std::fprintf(stderr,
                   "session %llu is not external — drive only applies "
                   "to ask/tell sessions\n",
                   static_cast<unsigned long long>(options.session_id));
      return 1;
    }
    state = batch.fields["state"];
    if (state == "done" || state == "cancelled" || state == "failed") break;
    if (batch.records.empty()) {
      // The engine is between rounds (fitting the surrogate on the
      // observations just told) — poll again shortly.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    for (const auto& record : batch.records) {
      std::uint64_t index = 0;
      std::vector<double> unit;
      if (!parse_grant(record, index, unit)) {
        std::fprintf(stderr, "bad suggest record '%s'\n", record.c_str());
        return 1;
      }
      const auto outcome = objective.fork_for_eval(index).evaluate(unit);
      service::Request tell;
      tell.verb = "observe";
      tell.session = options.session_id;
      tell.has_observation = true;
      tell.eval = index;
      tell.value_s = outcome.value_s;
      tell.cost_s = outcome.cost_s;
      tell.status = sparksim::to_string(outcome.status);
      bool delivered = false;
      for (int attempt = 0; attempt < 8 && !delivered; ++attempt) {
        service::Response ack;
        if (!client.call(tell, ack, &error)) {
          std::fprintf(stderr, "%s\n", error.c_str());
          return 1;
        }
        const std::string verdict = ack.fields["verdict"];
        if (ack.ok) {
          delivered = true;
          if (verdict == "duplicate") ++duplicates;
          ++told;
        } else if (verdict == "conflict") {
          std::fprintf(stderr,
                       "eval %llu conflicts with the recorded tuple "
                       "(value=%s cost=%s status=%s) — aborting\n",
                       static_cast<unsigned long long>(index),
                       ack.fields["value"].c_str(),
                       ack.fields["cost"].c_str(),
                       ack.fields["status"].c_str());
          return 1;
        } else if (ack.error.find("retry") != std::string::npos) {
          // Chaos / transient delivery drop: idempotent, so resend.
          continue;
        } else {
          std::fprintf(stderr, "error: %s\n", ack.error.c_str());
          return 1;
        }
      }
      if (!delivered) {
        std::fprintf(stderr,
                     "eval %llu: delivery kept failing — giving up\n",
                     static_cast<unsigned long long>(index));
        return 1;
      }
    }
  }
  if (!options.quiet) {
    std::printf("drove session %llu to state %s: %zu observation(s) told"
                " (%zu duplicate ack(s))\n",
                static_cast<unsigned long long>(options.session_id),
                state.c_str(), told, duplicates);
  }
  return 0;
}

/// Client mode: one request against a robotune_serve daemon.
int run_client(const CliOptions& options) {
  service::SocketClient client;
  std::string error;
  if (!client.connect(options.connect_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (options.remote == "drive") return run_drive(client, options);
  service::Request request;
  request.verb = options.remote;
  request.session = options.session_id;
  request.from = options.from;
  request.limit = options.limit;
  request.format = options.format;
  if (request.verb == "observe" && options.tell_set) {
    request.has_observation = true;
    request.eval = options.eval_index;
    request.value_s = options.tell_value;
    request.cost_s = options.tell_cost;
    request.status = options.tell_status;
  }
  if (request.verb == "start") {
    core::SessionSpec spec = spec_from(options);
    spec.checkpoint_path.clear();  // the daemon owns durability wiring
    if (const auto why = spec.validate(); !why.empty()) {
      std::fprintf(stderr, "%s\n", why.c_str());
      return 2;
    }
    request.spec_body = core::encode_spec_body(spec);
    request.derive_seed = !options.seed_set;
  }
  service::Response response;
  if (!client.call(request, response, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!response.ok) {
    std::fprintf(stderr, "error: %s\n", response.error.c_str());
    return 1;
  }
  if (request.verb == "start") {
    std::printf("session %s started\n", response.fields["id"].c_str());
    return 0;
  }
  // `metrics --format prom` prints the exposition raw — pipe it into a
  // node_exporter textfile or straight at a scraper.
  if (const auto prom = response.fields.find("prom");
      prom != response.fields.end()) {
    std::fputs(prom->second.c_str(), stdout);
    return 0;
  }
  for (const auto& [key, value] : response.fields) {
    std::printf("%s=%s\n", key.c_str(), value.c_str());
  }
  for (const auto& record : response.records) {
    const char* prefix = request.verb == "metrics"    ? "session"
                         : request.verb == "suggest" ? "grant"
                                                     : "eval";
    std::printf("%s %s\n", prefix, record.c_str());
  }
  // Truncation detection: the daemon reports the journal's total record
  // count alongside any observe window, so a short page is visible
  // instead of silently passing for the whole history.
  if (request.verb == "observe" && !request.has_observation) {
    if (const auto it = response.fields.find("total");
        it != response.fields.end()) {
      const std::uint64_t total = std::strtoull(it->second.c_str(),
                                                nullptr, 10);
      const std::uint64_t shown = response.records.size();
      if (options.from + shown < total) {
        std::printf("note: truncated — %llu of %llu record(s) shown; "
                    "next page: --from %llu\n",
                    static_cast<unsigned long long>(shown),
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(options.from + shown));
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse(argc, argv, options)) {
    usage(argv[0]);
    return 2;
  }
  // Flags that only qualify another flag are an error on their own,
  // never silently ignored.
  const char* dangling = nullptr;
  if (options.resume && options.checkpoint_path.empty()) {
    dangling = "--resume needs --checkpoint PATH";
  } else if (options.recover && !options.resume) {
    dangling = "--recover needs --resume";
  } else if (!options.state_path.empty() && options.tuner != "robotune") {
    dangling = "--state needs --tuner robotune";
  }
  if (dangling != nullptr) {
    std::fprintf(stderr, "%s\n", dangling);
    usage(argv[0]);
    return 2;
  }
  if (!options.connect_path.empty()) return run_client(options);

  const core::SessionSpec spec = spec_from(options);
  if (const auto why = spec.validate(); !why.empty()) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }

  chaos::ChaosProfile chaos_profile;
  if (!chaos::ChaosProfile::parse(options.chaos_profile, chaos_profile)) {
    std::fprintf(stderr, "bad --chaos-profile '%s'\n",
                 options.chaos_profile.c_str());
    return 2;
  }
  chaos::injector().configure(chaos_profile, options.seed);

  // Install the graceful-shutdown handlers before any tuning starts.
  {
    struct sigaction sa = {};
    sa.sa_handler = handle_stop_signal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
  }

  // Tracing costs one relaxed atomic load per span unless requested.
  const bool observing =
      !options.trace_path.empty() || !options.metrics_path.empty();
  if (!options.trace_path.empty()) obs::tracer().set_enabled(true);

  std::string why;
  auto session = core::SessionFactory::create(spec, &why);
  if (!session) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  if (!options.state_path.empty()) {
    try {
      if (session->load_state(options.state_path) && !options.quiet) {
        std::printf("loaded memoized state from %s\n",
                    options.state_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load state from %s: %s\n",
                   options.state_path.c_str(), e.what());
      return 2;
    }
  }

  // Resume probe: report what the journal holds before replaying it (the
  // session loads it again itself — the file is tiny).  A strictly
  // corrupt journal aborts here, matching the historical CLI behavior.
  if (!options.checkpoint_path.empty() && options.resume) {
    try {
      const auto mode = options.recover ? core::LoadMode::kRecover
                                        : core::LoadMode::kStrict;
      core::SessionCheckpoint probe;
      core::SessionLoadReport load_report;
      if (core::load_session_file(options.checkpoint_path, probe, mode,
                                  &load_report)) {
        if (!options.quiet) {
          std::printf("resuming from %s (%zu evaluations journaled)\n",
                      options.checkpoint_path.c_str(),
                      probe.evaluations.size());
          if (load_report.recovered) {
            std::printf(
                "recovered journal: dropped %zu torn/corrupt record(s)\n",
                load_report.dropped_records);
          }
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot resume from %s: %s\n",
                   options.checkpoint_path.c_str(), e.what());
      return 2;
    }
  }

  const auto outcome = session->run(&g_stop);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.error.c_str());
    return 2;
  }
  const auto& result = outcome.result;
  const bool interrupted = outcome.interrupted;

  if (outcome.report && !options.quiet) {
    std::printf("selection: %zu parameters (%s), one-time cost %.0f s\n",
                outcome.report->selected.size(),
                outcome.report->selection_cache_hit ? "cache hit" : "fresh",
                outcome.report->selection_cost_s);
    std::printf("memoized configs used: %s\n",
                outcome.report->used_memoized_configs ? "yes" : "no");
  }
  if (!options.state_path.empty() && !session->save_state(options.state_path)) {
    std::fprintf(stderr, "cannot write state to %s\n",
                 options.state_path.c_str());
    return 2;
  }

  // Observability exports: by the time the tuner returned, every worker
  // batch has been joined (wait_all), so snapshot/records are quiescent.
  if (!options.trace_path.empty() &&
      !obs::tracer().write_file(options.trace_path, options.trace_format)) {
    std::fprintf(stderr, "cannot write trace to %s\n",
                 options.trace_path.c_str());
    return 2;
  }
  const auto metrics_snapshot = obs::metrics().snapshot();
  if (!options.metrics_path.empty() &&
      !obs::write_metrics_file(metrics_snapshot, options.metrics_path)) {
    std::fprintf(stderr, "cannot write metrics to %s\n",
                 options.metrics_path.c_str());
    return 2;
  }
  if (observing && !options.quiet) {
    std::fputs(
        obs::render_summary(metrics_snapshot, obs::tracer().records())
            .c_str(),
        stdout);
  }

  if (result.history.empty()) {
    std::printf("%s %s-D%d budget=%d interrupted before any evaluation\n",
                options.tuner.c_str(), options.workload.c_str(),
                options.dataset, options.budget);
    return interrupted ? 128 + static_cast<int>(g_signal) : 0;
  }
  std::printf("%s %s-D%d budget=%d best=%.2f cost=%.0f evals=%zu\n",
              options.tuner.c_str(), options.workload.c_str(),
              options.dataset, options.budget, result.best_value_s(),
              result.search_cost_s, result.history.size());
  if (interrupted) {
    std::printf("interrupted by signal %d after %zu evaluations%s\n",
                static_cast<int>(g_signal), result.history.size(),
                options.checkpoint_path.empty()
                    ? ""
                    : "; checkpoint is resumable with --resume");
  }
  sparksim::FaultProfile faults;
  core::parse_fault_profile(options.fault_profile, faults);
  faults.preemption_per_stage = options.preempt_rate;
  if (faults.active()) {
    std::printf(
        "faults: %zu simulator attempts for %zu evaluations, "
        "%zu unrecovered transient failures\n",
        result.total_attempts(), result.history.size(),
        result.transient_failure_count());
  }
  if (!options.quiet) {
    const auto space = sparksim::spark24_config_space();
    const auto best = space.decode(result.best_unit());
    std::printf("best configuration:\n");
    for (std::size_t i = 0; i < space.size(); ++i) {
      const auto& param = space.spec(i);
      if (best[i] == space.defaults()[i]) continue;  // only show changes
      if (param.kind == sparksim::ParamKind::kCategorical) {
        std::printf("  %-46s %s\n", param.name.c_str(),
                    param.categories[static_cast<std::size_t>(best[i])]
                        .c_str());
      } else {
        std::printf("  %-46s %g\n", param.name.c_str(), best[i]);
      }
    }
  }
  // Conventional "killed by signal N" status so wrapper scripts can tell
  // a graceful interruption from a completed run.
  return interrupted ? 128 + static_cast<int>(g_signal) : 0;
}
