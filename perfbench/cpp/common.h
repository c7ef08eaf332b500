// Shared pieces of the three workloads: run options, the metric report,
// seed derivation, journal output checks, the ask/tell executor, and the
// traced-run bookkeeping (program spans, counters, per-layer replays).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/persistence.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/session_manager.h"
#include "sparksim/objective.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace robotune;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path dir;  ///< working directory for journals and the span export
};

/// Everything one run prints.  Metrics are keyed by their BENCHMARK.json
/// name; `notes` are human-readable lines (sample counts, bases, digests).
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// One attempted operation; `ok == false` counts it failed and keeps
  /// `what` for the failure list.
  void op(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_ == 0; }
  /// Prints the notes, failures and metrics as text, then the result line.
  void print(std::FILE* out) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// SplitMix64 of (workload seed, stream, index): every session seed of a
/// run derives from the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream, std::uint64_t index);

double seconds_since(Clock::time_point start);
double peak_rss_mb();

/// The objective a session of `spec` evaluates against — the construction
/// core::Session::run and `robotune_cli --remote drive` use.
sparksim::SparkObjective objective_for(const core::SessionSpec& spec);

/// Median wall seconds of `reps` calls of `setup`, which builds the run's
/// fixed objects and returns what tears them down; the teardown runs
/// after each call and is not timed.
double median_setup_seconds(int reps, const std::function<std::function<void()>()>& setup);

/// Output check of one finished session's journal: strict load, exactly
/// `expected` evaluations in canonical order.  `digest` is the CRC-32 of
/// the journal bytes and `best_s` the best successful evaluation.
struct JournalCheck {
  bool ok = false;
  std::string error;
  std::uint32_t digest = 0;
  double best_s = 0.0;
  std::uint64_t bytes = 0;
  core::SessionCheckpoint checkpoint;
};
JournalCheck check_journal(const fs::path& path, std::size_t expected);

/// Checks a finished session: journal, budget, and (when given) the best
/// value the caller saw.  Records the digest and best_s as a note.
JournalCheck check_session(Report& report, const std::string& label, const fs::path& journal,
                           int budget);

// ---- ask/tell executor ------------------------------------------------------

/// Latency samples and counts of one executor drive.
struct AskTellStats {
  std::vector<double> rtt_ms;      ///< suggest that granted + its observe
  std::vector<double> think_ms;    ///< last observe ack of a round → next grant
  std::vector<double> suggest_us;  ///< every suggest call
  std::vector<double> observe_us;  ///< every observe (tell) call
  std::vector<double> status_us;
  std::vector<double> metrics_us;
  std::vector<double> evaluate_us;  ///< SparkObjective::evaluate calls
  std::vector<double> session_s;    ///< internal sessions: start ack → done
  std::vector<double> lifetime_s;   ///< every session: start ack → terminal
  std::vector<double> best_s;       ///< journaled best of every session
  std::vector<std::pair<service::Request, service::Response>> codec_pairs;
  /// The first checked external session, for the per-layer replays.
  core::SessionSpec external_spec;
  core::SessionCheckpoint external_journal;
  bool have_external = false;
  std::uint64_t suggests = 0;
  std::uint64_t granting_suggests = 0;
  std::uint64_t rejected = 0;  ///< non-accepted verdicts and admission rejects
  std::uint64_t failed_evals = 0;
  std::uint64_t evaluations = 0;  ///< evaluations completed, all sessions
};

/// One closed-loop executor thread driving a SessionManager only through
/// a LocalClient: it leases suggestions of the external sessions,
/// evaluates them with its own SparkObjective, tells them back, and polls
/// `status` and `metrics` between rounds.
class Executor {
 public:
  Executor(service::LocalClient& client, Report& report, AskTellStats& stats)
      : client_(client), report_(report), stats_(stats) {}

  /// Called with the spec of each session that ended; a spec it returns is
  /// started in the ended session's place.
  using Refill = std::function<std::optional<core::SessionSpec>(const core::SessionSpec&)>;

  /// Starts a session through the client; false when it was not admitted.
  bool start(const core::SessionSpec& spec);
  /// Drives every started session (and every refill) to a terminal state,
  /// then checks each.
  void drive(service::SessionManager& manager, const Refill& refill = {});

 private:
  struct Tracked {
    std::uint64_t id = 0;
    core::SessionSpec spec;
    bool external = false;
    bool terminal = false;
    std::string state;
    Clock::time_point started;
    Clock::time_point last_ack;
    bool acked = false;
    bool refilled = false;
    std::unique_ptr<sparksim::SparkObjective> objective;
  };
  service::Response call(const service::Request& request, std::vector<double>* latency_us,
                         const char* name);
  bool serve(Tracked& session);
  void poll(Tracked& session);

  service::LocalClient& client_;
  Report& report_;
  AskTellStats& stats_;
  std::vector<Tracked> sessions_;
};

/// The small ask/tell probe the traced runs of paper_q1 and batch_rff use
/// for the service metrics: four external sessions of `spec`'s workload (budget 48,
/// 16 initial samples, batch 4, 20 selection samples), one after the
/// other, hosted by an in-process SessionManager and driven by the
/// executor.
AskTellStats run_probe(const Options& options, Report& report, const core::SessionSpec& spec);

// ---- traced runs --------------------------------------------------------------

/// Program spans and counters captured around one traced pass.
struct TracedPass {
  std::vector<Interval> program;  ///< obs::Tracer spans
  std::vector<Interval> bench;    ///< the benchmark's own spans
  obs::MetricsSnapshot counters;  ///< counter deltas over the pass
  double session_wall_s = 0.0;    ///< summed wall of the traced sessions
};

/// Enables the program tracer and the benchmark span log, runs `pass`,
/// and collects both span sets plus the counter deltas.
TracedPass traced(const std::function<void()>& pass);

/// Reports span.<name>.self_s, ctr.<name>, obs.coverage and
/// obs.trace_overhead, prints per-layer self time, and writes every span
/// of the run to <dir>/trace-<workload>-<seed>.jsonl.
void report_trace(const Options& options, Report& report, const TracedPass& pass,
                  double untraced_session_s, double traced_session_s);

/// Re-issues each layer's public calls at the sizes the session journaled
/// in `journal` used, and reports the gp.*, linalg.*, exec.*, core.*,
/// ml.* and sparksim.* per-layer metrics.  The sparksim metrics also
/// count the executor's own evaluations in `executor`.
void replay_layers(const Options& options, Report& report, const core::SessionSpec& spec,
                   const core::SessionCheckpoint& journal, const AskTellStats& executor);

/// Reports the service.* per-layer metrics from executor samples,
/// service.rtt_ms_* included.
void report_service(Report& report, const AskTellStats& stats);

// ---- workloads ------------------------------------------------------------------

void run_paper_q1(const Options& options, Report& report);
void run_batch_rff(const Options& options, Report& report);
void run_fleet(const Options& options, Report& report);

}  // namespace perfbench
