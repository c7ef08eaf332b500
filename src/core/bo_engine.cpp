#include "core/bo_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.h"
#include "core/external.h"
#include "gp/kernel.h"
#include "gp/rff_gp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/latin_hypercube.h"

namespace robotune::core {

namespace {

EvalRecord record_of(const tuners::Evaluation& e, std::uint64_t index) {
  EvalRecord rec;
  rec.index = index;
  rec.unit = e.unit;
  rec.value_s = e.value_s;
  rec.cost_s = e.cost_s;
  rec.status = e.status;
  rec.stopped_early = e.stopped_early;
  rec.transient = e.transient;
  rec.attempts = e.attempts;
  return rec;
}

/// The evaluation a journal record stands for, with the kill reason the
/// journal keeps in its kill records.
tuners::Evaluation replayed(const EvalRecord& rec,
                            const SessionCheckpoint& state) {
  tuners::Evaluation e;
  e.unit = rec.unit;
  e.value_s = rec.value_s;
  e.cost_s = rec.cost_s;
  e.status = rec.status;
  e.stopped_early = rec.stopped_early;
  e.transient = rec.transient;
  e.attempts = rec.attempts;
  if (e.status == sparksim::RunStatus::kKilled) {
    for (const auto& kill : state.kill_events) {
      if (kill.index == rec.index) {
        e.kill_reason = kill.reason;
        break;
      }
    }
  }
  return e;
}

/// Racer kills certify value >= threshold, like a guard stop, so they
/// train the model at their capped value; other transient faults say
/// nothing about the configuration and are withheld.
bool trains_model(const tuners::Evaluation& e) {
  return !e.transient || e.status == sparksim::RunStatus::kKilled;
}

}  // namespace

const char* to_string(SurrogateTier tier) noexcept {
  switch (tier) {
    case SurrogateTier::kExact:
      return "exact";
    case SurrogateTier::kRff:
      return "rff";
    case SurrogateTier::kAuto:
      return "auto";
  }
  return "auto";
}

const char* to_string(RefitSchedule schedule) noexcept {
  switch (schedule) {
    case RefitSchedule::kFixed:
      return "fixed";
    case RefitSchedule::kDoubling:
      return "doubling";
    case RefitSchedule::kAuto:
      return "auto";
  }
  return "auto";
}

std::optional<SurrogateTier> parse_surrogate_tier(std::string_view name) {
  if (name == "exact") return SurrogateTier::kExact;
  if (name == "rff") return SurrogateTier::kRff;
  if (name == "auto") return SurrogateTier::kAuto;
  return std::nullopt;
}

std::optional<RefitSchedule> parse_refit_schedule(std::string_view name) {
  if (name == "fixed") return RefitSchedule::kFixed;
  if (name == "doubling") return RefitSchedule::kDoubling;
  if (name == "auto") return RefitSchedule::kAuto;
  return std::nullopt;
}

BoEngine::BoEngine(std::vector<std::size_t> selected,
                   std::vector<double> base_unit, BoOptions options)
    : selected_(std::move(selected)),
      base_unit_(std::move(base_unit)),
      options_(options),
      guard_(tuners::kStaticThresholdS, options_.median_multiple) {
  require(!selected_.empty(), "BoEngine: no selected parameters");
  require(!base_unit_.empty(), "BoEngine: empty base configuration");
  for (std::size_t idx : selected_) {
    require(idx < base_unit_.size(), "BoEngine: selected index out of range");
  }
  require(options_.initial_samples >= 2, "BoEngine: need >= 2 initial samples");
  require(options_.budget >= options_.initial_samples,
          "BoEngine: budget smaller than initial sample count");
  require(options_.batch_size >= 1, "BoEngine: batch_size must be >= 1");
  require(options_.sparse_threshold >= 2,
          "BoEngine: sparse_threshold must be >= 2");
  require(options_.rff_features >= 1,
          "BoEngine: rff_features must be >= 1");
}

std::vector<double> BoEngine::project(const std::vector<double>& full) const {
  std::vector<double> sub(selected_.size());
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    sub[i] = full[selected_[i]];
  }
  return sub;
}

std::vector<double> BoEngine::expand(const std::vector<double>& sub) const {
  std::vector<double> full = base_unit_;
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    full[selected_[i]] = std::clamp(sub[i], 0.0, 1.0 - 1e-12);
  }
  return full;
}

// ---- search state ------------------------------------------------------

void BoEngine::start(const std::vector<MemoizedConfig>& memoized,
                     BoObserver observer) {
  const std::size_t dims = selected_.size();
  obs::set_gauge("bo.selected_dims", static_cast<double>(dims));
  rng_ = Rng(options_.seed);
  guard_ = tuners::GuardPolicy(tuners::kStaticThresholdS,
                               options_.median_multiple);
  observer_ = std::move(observer);
  result_ = BoResult{};
  result_.tuning.tuner = "ROBOTune";
  degrade_events_.clear();

  // Initial training set (§3.2): memoized best configs + LHS.
  init_subs_.clear();
  init_next_ = 0;
  const int memo_count = std::min<int>(
      {options_.memoized_in_initial, static_cast<int>(memoized.size()),
       options_.initial_samples});
  for (int i = 0; i < memo_count; ++i) {
    init_subs_.push_back(project(memoized[static_cast<std::size_t>(i)].unit));
  }
  const auto lhs_count =
      static_cast<std::size_t>(options_.initial_samples - memo_count);
  if (lhs_count > 0) {
    const auto design =
        options_.lhs_initialization
            ? sampling::latin_hypercube(lhs_count, dims, rng_)
            : sampling::uniform_random(lhs_count, dims, rng_);
    init_subs_.insert(init_subs_.end(), design.begin(), design.end());
  }
  censored_init_.clear();
  xs_.clear();
  ys_.clear();

  kernel_state_ = gp::ard_kernel(dims);
  model_ = std::make_unique<gp::GaussianProcess>(kernel_state_->clone(),
                                                 gp::GpOptions{}, rng_());
  hedge_.emplace(dims, rng_(), options_.hedge);
  const auto gains = hedge_->gains();
  result_.hedge_gains.assign(gains.begin(), gains.end());
  model_fitted_ = false;
  next_doubling_n_ = 0;
  iter_ = 0;
  round_open_ = false;
}

bool BoEngine::finished() const noexcept {
  return !in_init() && iter_ >= options_.budget - options_.initial_samples;
}

double BoEngine::model_value(double seconds) const {
  return options_.log_observations ? std::log(std::max(1e-6, seconds))
                                   : seconds;
}

const tuners::Evaluation& BoEngine::append(tuners::Evaluation e) {
  tuners::append_evaluation(e, guard_, result_.tuning);
  return result_.tuning.history.back();
}

// One rung of the degradation ladder taken: counted, and journaled by run().
void BoEngine::note_degrade(int iter, const char* rung) {
  obs::count(std::string("degrade.") + rung);
  degrade_events_.push_back(
      DegradeEvent{static_cast<std::uint64_t>(iter), rung});
}

// ---- propose / tell ----------------------------------------------------

std::optional<BoRound> BoEngine::propose() {
  require(hedge_.has_value(), "BoEngine: start() before propose()");
  require(!round_open_, "BoEngine: tell() the open round before proposing");
  if (finished()) return std::nullopt;
  BoRound round;
  round.first_index = result_.tuning.history.size();
  round.initial = in_init();
  if (round.initial) {
    const std::size_t end = std::min(
        init_subs_.size(), init_next_ + static_cast<std::size_t>(batch()));
    round_subs_.assign(
        init_subs_.begin() + static_cast<std::ptrdiff_t>(init_next_),
        init_subs_.begin() + static_cast<std::ptrdiff_t>(end));
    init_next_ = end;
  } else {
    propose_batch();
  }
  round.threshold = guard_.current();
  round.points.reserve(round_subs_.size());
  for (const auto& sub : round_subs_) round.points.push_back(expand(sub));
  round_open_ = true;
  round_first_ = round.first_index;
  return round;
}

void BoEngine::tell(const std::vector<tuners::Evaluation>& evals) {
  require(round_open_, "BoEngine: tell() without a proposed round");
  require(evals.size() == round_subs_.size(),
          "BoEngine: tell() needs one evaluation per proposed point");
  const std::size_t booked = result_.tuning.history.size() - round_first_;
  for (std::size_t j = booked; j < evals.size(); ++j) append(evals[j]);
  round_open_ = false;
  const tuners::Evaluation* told = &result_.tuning.history[round_first_];
  if (round_first_ < init_subs_.size()) {
    learn_initial(told);
  } else {
    learn_batch(told);
  }
  const auto gains = hedge_->gains();
  result_.hedge_gains.assign(gains.begin(), gains.end());
}

void BoEngine::learn_initial(const tuners::Evaluation* evals) {
  for (std::size_t j = 0; j < round_subs_.size(); ++j) {
    const double y = model_value(evals[j].value_s);
    if (trains_model(evals[j])) {
      xs_.push_back(round_subs_[j]);
      ys_.push_back(y);
    } else {
      censored_init_.emplace_back(round_subs_[j], y);
    }
  }
  if (in_init()) return;
  // Safety valve: if flakes wiped out (nearly) the whole initial design,
  // train on the censored values — a biased model beats no model.
  if (xs_.size() < 2) {
    for (auto& [sub, y] : censored_init_) {
      xs_.push_back(std::move(sub));
      ys_.push_back(y);
    }
  }
}

// One BO round (Algorithm 1, lines 8-10): fit, then q proposals.
void BoEngine::propose_batch() {
  const std::size_t dims = selected_.size();
  const int iter = iter_;
  const int q = std::min(batch(),
                         options_.budget - options_.initial_samples - iter);
  obs::count("bo.rounds");

  // (1) Train the surrogate on all priors.  Hyperparameters are refit by
  // marginal likelihood every `hyperfit_every` rounds (fixed) or when the
  // training set has doubled since the last refit (O(n³) amortized).  In
  // between, tell() folded new observations in incrementally.
  const bool doubling_active =
      options_.refit_schedule == RefitSchedule::kDoubling ||
      (options_.refit_schedule == RefitSchedule::kAuto &&
       xs_.size() >= static_cast<std::size_t>(options_.sparse_threshold));
  const bool refit =
      doubling_active
          ? xs_.size() >= std::max<std::size_t>(next_doubling_n_, 1)
          : options_.hyperfit_every > 0 &&
                (iter % options_.hyperfit_every) == 0;
  if (refit) next_doubling_n_ = 2 * std::max<std::size_t>(1, xs_.size());
  if (refit || !model_fitted_) {
    obs::Span span("gp_fit", "bo");
    span.arg("points", static_cast<std::uint64_t>(xs_.size()));
    span.arg("hyperfit", refit ? 1 : 0);
    if (refit) obs::count("bo.gp_refits");
    model_fitted_ = fit_with_ladder(
        refit, options_.seed ^ static_cast<std::uint64_t>(iter), iter);
  }

  // (2) Hedge (or the forced acquisition) proposes q configurations.
  // Between proposals the pending point is planted as a constant-liar
  // fantasy (CL-min) at the best observation so far, so the next proposal
  // explores elsewhere; fantasies depend only on the proposals, never on
  // evaluation scheduling.  Without a usable model the round degrades to
  // a seeded space-filling design, and a failed acquisition optimizer
  // degrades its slot to a seeded uniform point — pure functions of
  // (seed, iteration, slot), excluded from Hedge's bookkeeping.
  choices_.clear();
  choices_.reserve(static_cast<std::size_t>(q));
  fallback_.assign(static_cast<std::size_t>(q), 0);
  fantasies_planted_ = 0;
  if (!model_fitted_) {
    Rng fb_rng(options_.seed ^
               (0xfa11ULL + static_cast<std::uint64_t>(iter) *
                                0x9e3779b97f4a7c15ULL));
    const auto design = sampling::latin_hypercube(
        static_cast<std::size_t>(q), dims, fb_rng);
    for (int j = 0; j < q; ++j) {
      note_degrade(iter, "fallback_proposal");
      gp::GpHedge::Choice choice;
      choice.point = design[static_cast<std::size_t>(j)];
      choice.chosen = gp::AcquisitionKind::kEI;  // placeholder; unused
      choice.nominees = {choice.point, choice.point, choice.point};
      fallback_[static_cast<std::size_t>(j)] = 1;
      choices_.push_back(std::move(choice));
    }
  } else {
    obs::Span span("acq_opt", "bo");
    span.arg("q", q);
    for (int j = 0; j < q; ++j) {
      gp::GpHedge::Choice choice;
      try {
        if (options_.force_acquisition) {
          Rng acq_rng(options_.seed ^
                      (0x9e37ULL + static_cast<std::uint64_t>(iter + j)));
          choice.chosen = *options_.force_acquisition;
          choice.point = gp::optimize_acquisition(
              *model_, choice.chosen, dims, acq_rng, {},
              options_.hedge.optimizer);
          choice.nominees = {choice.point, choice.point, choice.point};
        } else {
          choice = hedge_->propose(*model_);
        }
      } catch (const NumericalError&) {
        note_degrade(iter, "acq_fallback");
        note_degrade(iter, "fallback_proposal");
        Rng fb_rng(options_.seed ^
                   (0xacdfULL + static_cast<std::uint64_t>(iter) * 131ULL +
                    static_cast<std::uint64_t>(j)));
        choice.point.assign(dims, 0.0);
        for (auto& c : choice.point) c = fb_rng.uniform();
        choice.chosen = gp::AcquisitionKind::kEI;  // placeholder; unused
        choice.nominees = {choice.point, choice.point, choice.point};
        fallback_[static_cast<std::size_t>(j)] = 1;
      }
      if (fallback_[static_cast<std::size_t>(j)] == 0) {
        obs::count(std::string("bo.hedge.selected.") +
                   gp::to_string(choice.chosen));
        result_.chosen_acquisitions.push_back(choice.chosen);
      }
      if (j + 1 < q) {
        const double lie =
            ys_.empty() ? 0.0 : *std::min_element(ys_.begin(), ys_.end());
        try {
          model_->add_point(choice.point, lie);
          ++fantasies_planted_;
        } catch (const NumericalError&) {
          // Skip the fantasy: add_point's strong exception guarantee
          // keeps the model usable for the remaining proposals.
          note_degrade(iter, "gp_add_point");
        }
      }
      choices_.push_back(std::move(choice));
    }
  }
  round_subs_.clear();
  for (const auto& choice : choices_) round_subs_.push_back(choice.point);
}

// Folds one BO round's evaluations in (Algorithm 1, lines 11-14).
void BoEngine::learn_batch(const tuners::Evaluation* evals) {
  const int iter = iter_;
  const int q = static_cast<int>(round_subs_.size());
  iter_ += q;

  // (3) Fold the real observations into the model, then update Hedge's
  // gains under the refreshed posterior.  q = 1 adds the point (no
  // fantasy was planted); q > 1 purges the fantasies by LIFO rank-1
  // downdates and adds the reals — O(q·n²), not an O(n³) refit.
  const std::size_t round_begin = xs_.size();
  for (int j = 0; j < q; ++j) {
    const auto& e = evals[j];
    if (!trains_model(e)) continue;
    xs_.push_back(round_subs_[static_cast<std::size_t>(j)]);
    ys_.push_back(model_value(e.value_s));
    if (q == 1 && model_fitted_) {
      try {
        model_->add_point(xs_.back(), ys_.back());
      } catch (const NumericalError&) {
        // The observation is kept in (xs, ys); force the next round
        // through the full refit ladder instead of trusting a model
        // that could not absorb it.
        note_degrade(iter, "gp_add_point");
        model_fitted_ = false;
      }
    }
  }
  if (q > 1 && model_fitted_) {
    bool incremental = true;
    {
      obs::Span span("cl_purge", "bo");
      span.arg("fantasies", fantasies_planted_);
      span.arg("reals", static_cast<std::uint64_t>(xs_.size() - round_begin));
      try {
        for (int k = 0; k < fantasies_planted_; ++k) {
          model_->remove_point(model_->num_points() - 1);
        }
        if (fantasies_planted_ > 0) {
          obs::count("bo.cl_purge.downdates",
                     static_cast<std::uint64_t>(fantasies_planted_));
        }
        for (std::size_t i = round_begin; i < xs_.size(); ++i) {
          model_->add_point(xs_[i], ys_[i]);
        }
      } catch (const NumericalError&) {
        // The strong guarantees kept the model predictable, but its
        // training set no longer matches (xs, ys): rebuild it via the
        // refit rung, seeded by (seed, iter).
        note_degrade(iter, "cl_purge");
        incremental = false;
      }
    }
    if (!incremental) {
      obs::count("bo.cl_purge.refits");
      obs::Span span("gp_fit", "bo");
      span.arg("points", static_cast<std::uint64_t>(xs_.size()));
      span.arg("hyperfit", 0);
      model_fitted_ = fit_with_ladder(
          false,
          options_.seed ^ (0x51edULL + static_cast<std::uint64_t>(iter)),
          iter);
    }
  }
  // Hedge gains need a refreshed posterior; fallback proposals carry no
  // acquisition to reward or punish.
  if (model_fitted_) {
    for (int j = 0; j < q; ++j) {
      if (fallback_[static_cast<std::size_t>(j)] != 0) continue;
      hedge_->update_gains(*model_, choices_[static_cast<std::size_t>(j)]);
    }
  }

  if (observer_ && model_fitted_) {
    for (int j = 0; j < q; ++j) {
      BoObserverInfo info;
      info.iteration = iter + j;
      info.gp = model_.get();
      info.choice = &choices_[static_cast<std::size_t>(j)];
      observer_(info);
    }
  }

  result_.iterations_run = iter + q;
}

// ---- surrogate fits ------------------------------------------------------

// Deduplicates the training set (L-inf distance < 1e-10, first
// occurrence kept) — near-identical points are the classic cause of a
// singular kernel matrix.  Falls back to the full set when fewer than
// two distinct points remain (the GP needs two).
void BoEngine::dedup_training(std::vector<std::vector<double>>& dx,
                              std::vector<double>& dy) const {
  dx.clear();
  dy.clear();
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    bool duplicate = false;
    for (const auto& kept : dx) {
      double dist = 0.0;
      for (std::size_t d = 0; d < kept.size(); ++d) {
        dist = std::max(dist, std::abs(kept[d] - xs_[i][d]));
      }
      if (dist < 1e-10) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      dx.push_back(xs_[i]);
      dy.push_back(ys_[i]);
    }
  }
  if (dx.size() < 2) {
    dx = xs_;
    dy = ys_;
  }
}

// Degradation ladder for exact-GP fits (DESIGN.md §11): a failed fit
// walks deterministic rungs instead of killing the session — deduplicated
// data, then inflated observation noise, then no model this round (the
// proposals degrade to seeded space-filling points).  `model_` changes
// only when a rung succeeds.
bool BoEngine::fit_exact_ladder(bool hyperfit, std::uint64_t fit_seed,
                                int iter) {
  const auto fit = [&](std::unique_ptr<gp::Kernel> kernel,
                       const std::vector<std::vector<double>>& x,
                       const std::vector<double>& y, bool learn) {
    gp::GpOptions gp_options;
    gp_options.optimize_hyperparameters = learn;
    gp_options.shrink_restarts_at = options_.sparse_threshold;
    gp::GaussianProcess candidate(std::move(kernel), gp_options, fit_seed);
    candidate.fit(x, y);
    if (learn) kernel_state_ = candidate.kernel().clone();
    model_ = std::make_unique<gp::GaussianProcess>(std::move(candidate));
  };
  try {
    fit(kernel_state_->clone(), xs_, ys_, hyperfit);
    return true;
  } catch (const NumericalError&) {
    note_degrade(iter, "gp_refit");
  }
  std::vector<std::vector<double>> dx;
  std::vector<double> dy;
  dedup_training(dx, dy);
  try {
    fit(kernel_state_->clone(), dx, dy, false);
    return true;
  } catch (const NumericalError&) {
    note_degrade(iter, "gp_noise_inflate");
  }
  try {
    auto inflated = kernel_state_->clone();
    inflated->inflate_noise(0.1);
    fit(std::move(inflated), dx, dy, false);
    return true;
  } catch (const NumericalError&) {
    note_degrade(iter, "gp_skip");
    return false;
  }
}

// Random-features rung (DESIGN.md §15) under the kernel-state
// hyperparameters.  Any failure lands the `rff_fallback` rung, and the
// caller keeps or rebuilds the exact model instead.
bool BoEngine::fit_rff(int iter) {
  const auto hypers =
      gp::extract_matern_hyperparams(*kernel_state_, selected_.size());
  if (!hypers) {
    note_degrade(iter, "rff_fallback");
    return false;
  }
  gp::RffOptions rff_options;
  rff_options.num_features = static_cast<std::size_t>(options_.rff_features);
  rff_options.seed = options_.seed ^ 0x5eedULL;
  try {
    gp::RffGp candidate(rff_options);
    candidate.fit(xs_, ys_, *hypers);
    model_ = std::make_unique<gp::RffGp>(std::move(candidate));
    obs::count("bo.surrogate.rff_fits");
    return true;
  } catch (const NumericalError&) {
    note_degrade(iter, "rff_fallback");
    return false;
  }
}

// Tier dispatch: below the switchover the engine is exact-only.  Above
// it, hyperfit rounds learn on the exact GP (where the marginal
// likelihood lives) and refit the sparse tier on top; plain rounds fit
// the sparse tier and fall back to the exact ladder if it is lost.
bool BoEngine::fit_with_ladder(bool hyperfit, std::uint64_t fit_seed,
                               int iter) {
  const bool want_sparse =
      options_.surrogate == SurrogateTier::kRff ||
      (options_.surrogate == SurrogateTier::kAuto &&
       xs_.size() >= static_cast<std::size_t>(options_.sparse_threshold));
  if (!want_sparse) return fit_exact_ladder(hyperfit, fit_seed, iter);
  if (hyperfit) {
    if (!fit_exact_ladder(true, fit_seed, iter)) return false;
    // A failed RFF fit keeps the freshly fitted exact model — degraded
    // in speed, never in correctness.
    fit_rff(iter);
    return true;
  }
  if (fit_rff(iter)) return true;
  return fit_exact_ladder(false, fit_seed, iter);
}

// ---- the driver ------------------------------------------------------------

BoResult BoEngine::run(sparksim::SparkObjective& objective,
                       const std::vector<MemoizedConfig>& memoized,
                       const BoObserver& observer, SessionLog* session,
                       exec::EvalScheduler* scheduler,
                       const std::function<bool()>& paced_stop) {
  begin_run(objective, memoized, observer, session, scheduler);
  while (run_round(paced_stop && paced_stop()) == Step::kRound) {
  }
  return end_run();
}

void BoEngine::begin_run(sparksim::SparkObjective& objective,
                         const std::vector<MemoizedConfig>& memoized,
                         const BoObserver& observer, SessionLog* session,
                         exec::EvalScheduler* scheduler,
                         ExternalBridge* external) {
  require(!(scheduler != nullptr && external != nullptr),
          "BoEngine: scheduler and external bridge are mutually exclusive");
  objective_ = &objective;
  log_ = session;
  external_ = external;
  awaiting_ = false;
  // Ask/tell mode: a bridge is attached, or the checkpoint was journaled
  // by an external session (standalone replay needs no bridge).
  external_mode_ =
      external != nullptr || (session != nullptr && session->state.external);
  scheduler_ = scheduler;

  journaled_ = 0;
  replay_pos_ = 0;
  if (session != nullptr) {
    // Parallel sessions journal in completion order; restore canonical
    // order and drop anything stranded past a crash hole.
    canonicalize_journal(session->state);
    journaled_ = session->state.evaluations.size();
    const std::string racing_sig =
        scheduler != nullptr ? exec::racing_signature(scheduler->racing())
                             : std::string("off");
    if (journaled_ > 0 || !session->state.suggests.empty()) {
      // Mode is pinned the moment anything was journaled: an internal
      // checkpoint must not resume in ask/tell mode and vice versa.
      require(!(external != nullptr && !session->state.external),
              "BoEngine: checkpoint was journaled by an internal-mode "
              "session; it cannot resume in ask/tell (external) mode");
    }
    if (journaled_ > 0) {
      // Evaluations of a sequential-seeding journal drew from the
      // objective's sequential stream, which no path consumes any more;
      // continuing it on index-derived streams would silently diverge.
      require(session->state.indexed_seeding,
              "BoEngine: checkpoint was journaled under sequential seeding "
              "(detached mode of an older release); its evaluations cannot "
              "be continued on index-derived seed streams");
      // A journal produced under one racing policy replays evaluations
      // another policy would have killed differently — refuse the
      // cross-mode resume.
      const std::string journaled_sig = session->state.racing_mode.empty()
                                            ? "off"
                                            : session->state.racing_mode;
      require(journaled_sig == racing_sig,
              "BoEngine: checkpoint was journaled under a different "
              "racing configuration; resume with the racing setup "
              "(--racing/--eval-deadline) that produced it");
    } else {
      // Nothing was evaluated yet, so an older sequential-seeding
      // checkpoint can still continue — on index-derived streams.
      session->state.indexed_seeding = true;
      session->state.racing_mode = racing_sig == "off" ? "" : racing_sig;
    }
    // Never cleared once set: a restored external flag survives even
    // when the crash predated the first completed evaluation.
    if (external != nullptr) session->state.external = true;
  }
  // Restore the bridge's ledger (acks, lease ids) from the journal.
  if (external != nullptr) external->bind(session);

  start(memoized, observer);
}

// Degrade events are derived state (a resumed engine re-takes the same
// rungs), so the journal mirrors the engine's list; kill events stay.
void BoEngine::mirror_degrades() {
  if (log_ != nullptr) log_->state.degrade_events = degrade_events_;
}

void BoEngine::flush(std::uint64_t eval_index) {
  if (log_ == nullptr || !log_->flush) return;
  obs::Span span("journal", "bo");
  span.arg("eval_index", eval_index);
  log_->flush(log_->state);
}

Step BoEngine::run_round(bool stop) {
  if (awaiting_) {
    std::vector<ExternalObservation> reported;
    if (!external_->collect(reported)) {
      if (!stop) return Step::kAwait;
      // Cancelled mid-round: the journal keeps the round's suggests and
      // acks, so a resume re-enters this exact round.
      result_.interrupted = true;
      return Step::kDone;
    }
    awaiting_ = false;
    obs::Span span(round_first_ < init_subs_.size() ? "init" : "iteration",
                   "bo");
    const auto& history = result_.tuning.history;
    const std::size_t live_begin = history.size() - round_first_;
    for (std::size_t i = live_begin; i < round_subs_.size(); ++i) {
      const auto& e = append(funnel_external(expand(round_subs_[i]),
                                             reported[i - live_begin],
                                             awaiting_threshold_));
      // Journaled post-funnel.
      if (log_ != nullptr) {
        log_->state.evaluations.push_back(record_of(e, round_first_ + i));
      }
    }
    if (log_ != nullptr) {
      // One flush resolves the round: the eval records land and their
      // suggests leave the pending set (the acks are already durable).
      const std::uint64_t resolved_end = history.size();
      std::erase_if(log_->state.suggests,
                    [resolved_end](const SuggestRecord& s) {
                      return s.index < resolved_end;
                    });
      flush(resolved_end - 1);
    }
    tell({history.begin() + static_cast<std::ptrdiff_t>(round_first_),
          history.end()});
  }
  if (finished()) return Step::kDone;
  // Cancellation lands on round boundaries, where every completed
  // evaluation is journaled.
  if (stop) {
    result_.interrupted = true;
    return Step::kDone;
  }
  obs::Span round_span(in_init() ? "init" : "iteration", "bo");
  BoRound round = *propose();
  round_span.arg("first_index", round.first_index);
  round_span.arg("q", static_cast<std::uint64_t>(round.points.size()));
  mirror_degrades();
  const std::size_t size = round.points.size();
  std::vector<tuners::Evaluation> evals;
  evals.reserve(size);

  // Replay the round's journaled prefix.
  while (evals.size() < size && replay_pos_ < journaled_) {
    const auto& rec = log_->state.evaluations[replay_pos_];
    require(rec.index == replay_pos_,
            "BoEngine: journal is not in canonical order");
    ++replay_pos_;
    obs::count("bo.journal_replayed");
    evals.push_back(append(replayed(rec, log_->state)));
  }

  // The live remainder: published for an external executor, or one
  // scheduler batch.
  const std::size_t live_begin = evals.size();
  const std::uint64_t first_live = round.first_index + live_begin;
  if (live_begin < size && external_mode_) {
    require(external_ != nullptr,
            "BoEngine: external-mode checkpoint has unreplayed budget; "
            "attach an ask/tell bridge (host it in the daemon) to "
            "continue — standalone runs can only replay it");
    const std::vector<std::vector<double>> live(
        round.points.begin() + static_cast<std::ptrdiff_t>(live_begin),
        round.points.end());
    awaiting_ = true;
    awaiting_threshold_ = round.threshold;
    // Once published, a tell may resolve the round and the host step the
    // engine on another thread: publish() is the last touch of engine
    // state.  A round acked in full before a restart completes next step.
    return external_->publish(live, first_live) ? Step::kRound
                                                : Step::kAwait;
  }
  if (live_begin < size) {
    std::vector<exec::EvalRequest> requests;
    requests.reserve(size - live_begin);
    for (std::size_t i = live_begin; i < size; ++i) {
      requests.push_back({round.points[i], round.threshold});
    }
    // Every internal round runs through a scheduler: the attached one, or
    // a local one-worker one evaluating inline on this thread.  Journal
    // completions as they happen, on the worker that finished them —
    // possibly out of index order (canonicalized on resume).
    exec::EvalScheduler inline_scheduler;
    exec::EvalScheduler& scheduler =
        scheduler_ != nullptr ? *scheduler_ : inline_scheduler;
    const auto outcomes = scheduler.run_batch(
        *objective_, requests, first_live,
        [&](const exec::CompletedEval& done) {
          if (log_ == nullptr) return;
          log_->state.evaluations.push_back(record_of(
              tuners::to_evaluation(done.request->unit, *done.outcome),
              done.eval_index));
          if (done.outcome->status == sparksim::RunStatus::kKilled) {
            log_->state.kill_events.push_back(
                KillEvent{done.eval_index, done.outcome->kill_reason});
          }
          flush(done.eval_index);
        });
    for (std::size_t i = live_begin; i < size; ++i) {
      evals.push_back(
          tuners::to_evaluation(round.points[i], outcomes[i - live_begin]));
    }
  }
  tell(evals);
  return finished() ? Step::kDone : Step::kRound;
}

BoResult BoEngine::end_run() {
  mirror_degrades();
  return result_;
}

}  // namespace robotune::core
