// Reusable tuning-session assembly (shared by robotune_cli and the
// service daemon).
//
// A SessionSpec is the complete, serializable description of one tuning
// run: workload, tuner, budget, seed, fault/racing/parallelism knobs,
// and the durability wiring (journal path, resume/recover, fsync).  The
// SessionFactory validates a spec and builds a Session: the objective,
// evaluation scheduler, tuner, and checkpoint log are assembled exactly
// the way the CLI always did, so a daemon-hosted session and a
// standalone `robotune_cli` invocation with the same spec produce
// byte-identical journals.
//
// Specs persist as a small framed file (same CRC32 framing as the v3
// journal) so the daemon can re-create its fleet after a restart and
// detect a corrupt spec instead of replaying garbage:
//
//   robotune-spec v1
//   <crc32:8 hex> <len> workload=PR dataset=1 tuner=robotune ...
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/persistence.h"
#include "core/robotune.h"
#include "exec/eval_scheduler.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {

/// Everything needed to run (or re-run) one tuning session.  The
/// tuning-relevant fields round-trip through the spec body codec;
/// the durability fields (checkpoint_path, resume, recover, sync) are
/// host wiring — the daemon derives them from its service root — and are
/// not serialized.
class ExternalBridge;

struct SessionSpec {
  std::string workload = "PR";  ///< PR|KM|CC|LR|TS (sparksim short name)
  int dataset = 1;              ///< Table-1 dataset, 1..3
  std::string tuner = "robotune";  ///< robotune|bestconfig|gunther|rs
  int budget = 100;
  std::uint64_t seed = 7;
  std::string metric = "time";  ///< time|coreseconds
  /// Transient-fault injection: preset name or per-site rate list (see
  /// robotune_cli --fault-profile).  Must not contain spaces.
  std::string fault_profile = "none";
  int retries = 2;
  double preempt_rate = 0.0;
  /// Evaluation workers: N >= 1 = scheduler mode (bit-identical results
  /// for any N); 0 = no scheduler: every tuner runs its rounds inline,
  /// with the results of N = 1.
  int parallel = 0;
  int batch = 1;              ///< BO batch width q (robotune only)
  std::string racing = "off";  ///< off|median|halving (needs parallel >= 1)
  double eval_deadline = 0.0;  ///< per-eval deadline seconds (0 = off)
  /// BO initial-design size override (0 = engine default of 20).  Small
  /// budgets — service smoke tests, the fig_service bench — need this to
  /// keep budget >= initial_samples.
  int init = 0;
  /// Parameter-selection sample-count override (0 = default 100).  The
  /// RF selection pipeline dominates a short session's wall clock; the
  /// service bench dials it down to pack hundreds of sessions into CI.
  int selection_samples = 0;
  /// Surrogate tier: exact|rff|auto (robotune only; DESIGN.md §15).
  std::string surrogate = "auto";
  /// RFF feature count override (0 = engine default of 256).
  int rff_features = 0;
  /// Hyperparameter-refit schedule: fixed|doubling|auto.
  std::string refit = "auto";
  /// Session mode: "internal" runs evaluations against the sparksim
  /// objective (everything before DESIGN.md §16); "external" is
  /// ask/tell — the session proposes configurations and waits until an
  /// external executor observes them back (robotune only, parallel 0,
  /// no racing).  Serialized only when external, so internal
  /// spec files stay byte-identical and pre-external daemons reject
  /// external specs cleanly via the unknown-key rule.
  std::string mode = "internal";

  // ---- host durability wiring (not serialized) --------------------------
  std::string checkpoint_path;  ///< empty = no journal
  bool resume = false;
  bool recover = false;
  SyncPolicy sync = SyncPolicy::kNone;

  /// Empty when the spec is well-formed, else a human-readable reason.
  std::string validate() const;
};

/// Serializes the tuning-relevant fields as one line of space-separated
/// key=value tokens (no framing) — the service protocol embeds this in
/// `start` requests.
std::string encode_spec_body(const SessionSpec& spec);
/// Parses encode_spec_body output and validates the result.  Durability
/// fields of `spec` are preserved.
bool decode_spec_body(const std::string& body, SessionSpec& spec,
                      std::string* error = nullptr);

/// Spec files: the header plus one framed encode_spec_body record.  Save
/// replaces the file atomically (obs::write_file_atomically) and returns
/// false, leaving the previous file, when any step fails.  Load leaves
/// the durability fields of `spec` untouched and returns false (with
/// `error` set, when non-null) on a missing, malformed, torn or corrupt
/// spec.
bool save_spec_file(const SessionSpec& spec, const std::string& path);
bool load_spec_file(const std::string& path, SessionSpec& spec,
                    std::string* error = nullptr);

/// Point-in-time view of a running session, delivered on every journal
/// flush (robotune sessions) and once at completion (all tuners).
struct SessionProgress {
  std::size_t evaluations = 0;   ///< completed so far
  double best_value_s = 0.0;     ///< incumbent objective (inf until found)
  std::vector<double> best_unit;  ///< incumbent configuration (may be empty)
};

/// The progress a journal shows: its evaluation count and the incumbent
/// among successful observations (failed/penalized values are not a
/// configuration anyone should be handed as "current best").
SessionProgress progress_of(const SessionCheckpoint& state);

struct SessionOutcome {
  tuners::TuningResult result;
  /// robotune only: selection + memoization details, BoResult.
  std::optional<RoboTuneReport> report;
  bool interrupted = false;  ///< cancelled at a round boundary
  bool resumed = false;      ///< journal prefix was replayed
  std::size_t replayed = 0;  ///< evaluations replayed from the journal
  bool journal_recovered = false;  ///< recover mode dropped a torn tail
  std::size_t dropped_records = 0;
  std::string error;  ///< non-empty = the session failed (nothing ran)

  bool ok() const noexcept { return error.empty(); }
};

/// One assembled tuning session.  It runs once, as a step machine:
/// begin() (the start step), step() until it stops returning
/// Step::kRound, then finish().  run() is that loop on the calling
/// thread; the service's SessionManager schedules the same steps itself
/// (DESIGN.md §13).  A baseline tuner runs whole in its one step.
class Session {
 public:
  const SessionSpec& spec() const noexcept { return spec_; }

  /// Loads / saves the cross-session memoized state (selection cache +
  /// config buffer); no-ops (returning false) for non-robotune tuners.
  bool load_state(const std::string& path);
  bool save_state(const std::string& path);

  /// The host's side of a session; every member is optional.
  struct Hooks {
    /// Polled at round boundaries: stop there, journal resumable.
    const std::atomic<bool>* cancel = nullptr;
    /// Every journal flush, and the end: the incumbent best.
    std::function<void(const SessionProgress&)> progress;
    /// A failed checkpoint write (the path); the session runs on.
    std::function<void(const std::string&)> write_failed;
    /// Where a mode=external session publishes its rounds (only a
    /// standalone replay of a complete journal needs none).
    ExternalBridge* external = nullptr;
  };

  /// The start step: loads the checkpoint, runs parameter selection and
  /// starts the engine.  False when the session failed (finish() says
  /// why).
  bool begin(Hooks hooks);
  /// One round (BoEngine::run_round); kDone = call finish().
  Step step();
  /// The finish step: closes the bridge, fills the memoization buffer,
  /// and rewrites a journal that is not in canonical (eval-index) order
  /// or misses trailing degrade records, so the final bytes are the same
  /// for any worker count.
  SessionOutcome finish();

  /// Runs the session to completion (or to cancellation) on the calling
  /// thread.  `cancel` (nullable) is polled at round boundaries; `yield`
  /// (nullable) is invoked before parameter selection and before every
  /// round; `progress` (nullable) fires on every journal flush with the
  /// incumbent best.
  SessionOutcome run(
      const std::atomic<bool>* cancel = nullptr,
      std::function<void()> yield = nullptr,
      std::function<void(const SessionProgress&)> progress = nullptr);

 private:
  friend class SessionFactory;
  explicit Session(SessionSpec spec);

  void write_checkpoint(const SessionCheckpoint& state);

  SessionSpec spec_;
  sparksim::WorkloadKind kind_;
  exec::RacingMode racing_mode_ = exec::RacingMode::kOff;
  std::unique_ptr<tuners::Tuner> tuner_;
  RoboTune* robotune_ = nullptr;  ///< non-null when tuner is robotune

  /// The run's state, made by begin() so assembling a session stays cheap.
  struct Run {
    Hooks hooks;
    std::optional<sparksim::SparkObjective> objective;
    std::unique_ptr<exec::EvalScheduler> scheduler;
    SessionLog log;
    /// Degrade records on disk as of the last flush: the engine can take
    /// a rung after the last evaluation is journaled (a final cl_purge).
    std::size_t flushed_degrades = 0;
    SessionOutcome outcome;
  };
  std::unique_ptr<Run> run_;
};

/// Parses a fault-profile string (preset name or "loss=F,fetch=F,..."
/// list); shared by the CLI and the spec decoder.  The rates loss, fetch
/// and straggler must be in [0, 1] and slowdown finite.
bool parse_fault_profile(const std::string& text, sparksim::FaultProfile& out);

/// The objective a session of `spec` evaluates: the simulated cluster and
/// workload, the fault profile with `preempt_rate`, and the retry policy.
/// Session::begin and robotune_cli's `--remote drive` loop both build it
/// here, so an external executor that evaluates grant i on
/// fork_for_eval(i) observes what an internal session of the same spec
/// journals.  Throws InvalidArgument on a spec that does not validate.
sparksim::SparkObjective make_session_objective(const SessionSpec& spec);

class SessionFactory {
 public:
  /// Validates `spec` and assembles a Session.  Returns null (with
  /// `error` set, when non-null) when the spec is rejected.
  static std::unique_ptr<Session> create(const SessionSpec& spec,
                                         std::string* error = nullptr);
};

}  // namespace robotune::core
