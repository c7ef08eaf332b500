// Bayesian Optimization Engine (paper §3.4, Algorithm 1).
//
// The engine searches the *selected* low-dimensional subspace: unselected
// parameters stay at a base configuration (the framework defaults).  It
// is a step machine in the ask/tell shape of scikit-optimize's
// Optimizer, which ROBOTune ran on:
//
//   start(memoized)   builds the initial design (memoized configs + LHS)
//   propose()         the next round: the initial design in batch-sized
//                     chunks, then BO rounds (fit the GP, let the GP-Hedge
//                     portfolio propose q points via constant-liar
//                     fantasies); nothing once the budget is spent
//   tell(evals)       the round's evaluations in point order: guard,
//                     history and incumbent bookkeeping, then the model
//                     and Hedge gains
//
// run_round() drives one round over those steps: propose, replay the
// round's journaled prefix, evaluate the rest as one EvalScheduler batch
// (a local one-worker scheduler when none is given) or publish it
// through an ExternalBridge, journal, tell.  Hosts step it between
// begin_run() and end_run(); run() is that loop on the calling thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/memoization.h"
#include "core/persistence.h"
#include "exec/eval_scheduler.h"
#include "gp/acquisition.h"
#include "gp/gaussian_process.h"
#include "sparksim/objective.h"
#include "tuners/tuner.h"

namespace robotune::core {

class ExternalBridge;

/// Which surrogate tier models the observations (DESIGN.md §15).
enum class SurrogateTier {
  kExact,  ///< always the exact GP (O(n³) fits)
  kRff,    ///< always the random-features tier (O(n·m²) fits)
  kAuto,   ///< exact below BoOptions::sparse_threshold points, RFF above
};

/// When kernel hyperparameters are re-learned by marginal likelihood.
enum class RefitSchedule {
  kFixed,     ///< every BoOptions::hyperfit_every iterations
  kDoubling,  ///< when the training set doubles since the last refit —
              ///< total refit cost stays O(n³) *amortized over the run*
  kAuto,      ///< fixed below sparse_threshold, doubling above
};

const char* to_string(SurrogateTier tier) noexcept;
const char* to_string(RefitSchedule schedule) noexcept;
std::optional<SurrogateTier> parse_surrogate_tier(std::string_view name);
std::optional<RefitSchedule> parse_refit_schedule(std::string_view name);

struct BoOptions {
  /// Total evaluation budget, initial samples included (paper: 100).
  int budget = 100;
  /// Initial training set size (paper: 20).
  int initial_samples = 20;
  /// How many memoized configurations to blend into the initial set
  /// (paper: 4 best recent + 16 LHS).
  int memoized_in_initial = 4;
  /// Guard thresholds (§4): static (tuners::kStaticThresholdS) for
  /// initial samples, this multiple of the running median during the
  /// search.
  double median_multiple = 2.5;
  /// Kernel hyperparameters are refit by marginal likelihood every this
  /// many iterations (1 = every iteration) under the fixed schedule.
  int hyperfit_every = 5;
  /// Hyperparameter-refit cadence (see RefitSchedule).  The default
  /// (kAuto) keeps the fixed cadence — and byte-identical trajectories —
  /// below `sparse_threshold` and switches to doubling above it.
  RefitSchedule refit_schedule = RefitSchedule::kAuto;
  /// Surrogate tier selection (see SurrogateTier).  kAuto is exact below
  /// `sparse_threshold` training points, random features at or above.
  SurrogateTier surrogate = SurrogateTier::kAuto;
  /// Training-set size where kAuto switches tiers, doubling-refit
  /// scheduling kicks in, and the exact GP's hyperparameter search drops
  /// to a single warm-started descent.
  int sparse_threshold = 256;
  /// Random-feature count m for the RFF tier (fit O(n·m²)).
  int rff_features = 256;
  /// Model log(time) in the GP: execution times are positive with a
  /// heavy right tail (guard-killed and failed configurations), which a
  /// stationary Matérn kernel fits poorly in linear space.
  bool log_observations = true;
  /// Ablation knob: bypass the Hedge portfolio and always use one
  /// acquisition function (paper §3.4 argues the portfolio beats any
  /// single function; bench/abl_hedge_vs_single measures it).
  std::optional<gp::AcquisitionKind> force_acquisition;
  /// Ablation knob: draw the initial samples uniformly at random instead
  /// of via LHS (bench/abl_lhs_vs_random).
  bool lhs_initialization = true;
  /// Batch width q of the BO loop: each round proposes q configurations
  /// via constant-liar fantasies (CL-min: every pending point pretends to
  /// have returned the best observation so far, pushing later proposals
  /// away from it) and evaluates them as one group — concurrently when a
  /// scheduler is attached.  q = 1 reproduces the sequential Algorithm 1
  /// exactly.  The trajectory depends on q, never on how many workers
  /// evaluate the batch.
  int batch_size = 1;
  /// GP-Hedge portfolio configuration.
  gp::GpHedge::Options hedge;
  std::uint64_t seed = 2024;
};

struct BoObserverInfo {
  int iteration = 0;  ///< 0-based index of the BO iteration (post-init)
  /// The active surrogate (exact GP or RFF tier — check gp->tier()).
  const gp::Surrogate* gp = nullptr;
  const gp::GpHedge::Choice* choice = nullptr;
};

/// Called after every BO iteration; used by the Fig. 9 response-surface
/// bench to snapshot the posterior.
using BoObserver = std::function<void(const BoObserverInfo&)>;

/// Checkpoint/resume journal for a BO session.
///
/// BoEngine::run_round appends one EvalRecord per completed evaluation to
/// `state.evaluations` and calls `flush` after each one (scheduler
/// rounds) or once per resolved round (ask/tell mode, whose observations
/// are journaled as acks when they arrive), so a kill -9 loses at most
/// the evaluations in flight.  On resume, pass the loaded checkpoint back
/// in: the engine proposes exactly as before, and each round's journaled
/// prefix is told instead of run; live evaluations run on index-derived
/// seed streams, so the continuation is bit-identical to a
/// never-interrupted run at any worker count.  Parallel sessions journal
/// in completion order; the driver canonicalizes the journal (sort by
/// eval index, truncate at the first gap) before replaying.  A journal
/// of an older release's sequential-seeding mode (`seeding sequential`)
/// that holds evaluations is refused.
struct SessionLog {
  SessionCheckpoint state;
  std::function<void(const SessionCheckpoint&)> flush;
};

struct BoResult {
  tuners::TuningResult tuning;       ///< all evaluations (init + search)
  std::vector<gp::AcquisitionKind> chosen_acquisitions;
  std::vector<double> hedge_gains;   ///< final gains (PI, EI, LCB)
  /// True when the pacing hook cancelled the session before its budget;
  /// the journal (if any) holds a resumable checkpoint.
  bool interrupted = false;
  int iterations_run = 0;
};

/// What a driven round left behind (BoEngine::run_round).
enum class Step {
  kRound,  ///< more rounds to run
  kAwait,  ///< published to the ask/tell bridge: step once it resolves
  kDone,   ///< the run is over: budget spent or cancelled
};

/// One round handed out by BoEngine::propose().
struct BoRound {
  /// Canonical eval index of points[0]; points[i] is eval first_index + i.
  std::uint64_t first_index = 0;
  /// Guard threshold at proposal; every point of the round runs under it.
  double threshold = 0.0;
  /// Full-space unit vectors to evaluate, in point order.
  std::vector<std::vector<double>> points;
  bool initial = false;  ///< a chunk of the initial design
};

class BoEngine {
 public:
  /// `selected` lists the subspace parameter indices; `base_unit` supplies
  /// the coordinates of all non-selected parameters.
  BoEngine(std::vector<std::size_t> selected, std::vector<double> base_unit,
           BoOptions options = {});

  /// Resets the search; the initial design blends up to
  /// memoized_in_initial of `memoized` with LHS samples.
  void start(const std::vector<MemoizedConfig>& memoized = {},
             BoObserver observer = nullptr);

  /// The next round (at most options.batch_size points), or nothing once
  /// the budget is spent.  Requires start(), and a tell() for the
  /// previous round.
  std::optional<BoRound> propose();

  /// Takes the proposed round's evaluations in point order, as
  /// tuners::to_evaluation makes them.  Ones run_round() booked while
  /// streaming the round (replayed, ask/tell) are not booked twice.
  void tell(const std::vector<tuners::Evaluation>& evals);

  /// Everything told so far; hedge_gains are current.
  const BoResult& result() const noexcept { return result_; }

  /// Runs Algorithm 1 (batched when options.batch_size > 1) to the end.
  /// `paced_stop` runs before every round; true cancels there.
  BoResult run(sparksim::SparkObjective& objective,
               const std::vector<MemoizedConfig>& memoized = {},
               const BoObserver& observer = nullptr,
               SessionLog* session = nullptr,
               exec::EvalScheduler* scheduler = nullptr,
               const std::function<bool()>& paced_stop = nullptr);

  /// Starts a driven run: `memoized` seeds the initial set, `session`
  /// journals and replays (see SessionLog), and rounds run as `scheduler`
  /// batches (bit-identical at any parallelism; inline without one) or
  /// go to the ask/tell bridge `external` (DESIGN.md §16).
  void begin_run(sparksim::SparkObjective& objective,
                 const std::vector<MemoizedConfig>& memoized = {},
                 const BoObserver& observer = nullptr,
                 SessionLog* session = nullptr,
                 exec::EvalScheduler* scheduler = nullptr,
                 ExternalBridge* external = nullptr);
  /// One round boundary: completes a resolved ask/tell round, then
  /// cancels (`stop`, BoResult::interrupted) or runs the next round.  An
  /// unresolved round stays kAwait, or is abandoned (journaled) on stop.
  Step run_round(bool stop);
  /// Ends the driven run: the journal mirrors the final degrade events.
  BoResult end_run();

  /// Projects a full-space unit vector onto the selected subspace.
  std::vector<double> project(const std::vector<double>& full) const;
  /// Expands a subspace point to a full-space unit vector over the base.
  std::vector<double> expand(const std::vector<double>& sub) const;

 private:
  bool in_init() const noexcept { return init_next_ < init_subs_.size(); }
  bool finished() const noexcept;
  int batch() const noexcept { return std::max(1, options_.batch_size); }
  /// The value the GP models for an observed time.
  double model_value(double seconds) const;
  /// Books one evaluation (guard, history, incumbent, cost).
  const tuners::Evaluation& append(tuners::Evaluation e);
  void note_degrade(int iter, const char* rung);

  void propose_batch();
  void mirror_degrades();
  void flush(std::uint64_t eval_index);
  void learn_initial(const tuners::Evaluation* evals);
  void learn_batch(const tuners::Evaluation* evals);

  void dedup_training(std::vector<std::vector<double>>& dx,
                      std::vector<double>& dy) const;
  bool fit_exact_ladder(bool hyperfit, std::uint64_t fit_seed, int iter);
  bool fit_rff(int iter);
  bool fit_with_ladder(bool hyperfit, std::uint64_t fit_seed, int iter);

  std::vector<std::size_t> selected_;
  std::vector<double> base_unit_;
  BoOptions options_;

  // ---- search state, reset by start() ----------------------------------
  Rng rng_;
  tuners::GuardPolicy guard_;
  BoObserver observer_;
  std::vector<std::vector<double>> init_subs_;  ///< initial design
  std::size_t init_next_ = 0;  ///< first design point not yet proposed
  /// Initial-design points withheld as transient (the safety valve).
  std::vector<std::pair<std::vector<double>, double>> censored_init_;
  std::vector<std::vector<double>> xs_;  ///< training points (subspace)
  std::vector<double> ys_;
  /// The learned kernel, kept apart from the model's: the noise-inflation
  /// rung fits a copy with σ² + 0.1, which must not carry forward.
  std::unique_ptr<gp::Kernel> kernel_state_;
  std::unique_ptr<gp::Surrogate> model_;
  std::optional<gp::GpHedge> hedge_;
  bool model_fitted_ = false;
  std::size_t next_doubling_n_ = 0;  ///< size of the next doubling refit
  int iter_ = 0;  ///< BO iterations (post-init evaluations) told
  std::vector<DegradeEvent> degrade_events_;
  BoResult result_;

  // ---- the open round ----------------------------------------------------
  bool round_open_ = false;
  std::uint64_t round_first_ = 0;
  std::vector<std::vector<double>> round_subs_;  ///< proposals (subspace)
  std::vector<gp::GpHedge::Choice> choices_;     ///< BO rounds only
  std::vector<char> fallback_;  ///< 1 = no acquisition chose the slot
  int fantasies_planted_ = 0;

  // ---- begin_run .. end_run -----------------------------------------------
  sparksim::SparkObjective* objective_ = nullptr;
  SessionLog* log_ = nullptr;
  exec::EvalScheduler* scheduler_ = nullptr;  ///< null: inline per round
  ExternalBridge* external_ = nullptr;
  bool external_mode_ = false;
  std::size_t journaled_ = 0;   ///< evaluations the journal held at begin
  std::size_t replay_pos_ = 0;  ///< next of those to replay
  /// The open round waits for tells, under this guard threshold.
  bool awaiting_ = false;
  double awaiting_threshold_ = 0.0;
};

}  // namespace robotune::core
