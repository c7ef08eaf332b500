#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/frame.h"
#include "common/numbers.h"
#include "core/external.h"
#include "obs/durable_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tuners/bestconfig.h"
#include "tuners/gunther.h"
#include "tuners/random_search.h"

namespace robotune::core {

namespace {

constexpr const char* kSpecHeader = "robotune-spec v1";

bool workload_from_short_name(const std::string& name,
                              sparksim::WorkloadKind& out) {
  for (auto k : sparksim::all_workloads()) {
    if (sparksim::short_name(k) == name) {
      out = k;
      return true;
    }
  }
  return false;
}

bool known_tuner(const std::string& name) {
  return name == "robotune" || name == "bestconfig" || name == "gunther" ||
         name == "rs";
}

}  // namespace

bool parse_fault_profile(const std::string& text,
                         sparksim::FaultProfile& out) {
  if (sparksim::FaultProfile::from_preset(text, out)) return true;
  out = sparksim::FaultProfile{};
  std::size_t pos = 0;
  bool any = false;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    double value = 0.0;
    if (!parse_double(item.substr(eq + 1), value)) return false;
    // The three rates are probabilities; the slowdown is any finite
    // factor.
    if (key != "slowdown" && (value < 0.0 || value > 1.0)) return false;
    if (key == "loss") {
      out.executor_loss_per_stage = value;
    } else if (key == "fetch") {
      out.fetch_failure_per_stage = value;
    } else if (key == "straggler") {
      out.straggler_per_stage = value;
    } else if (key == "slowdown") {
      out.straggler_max_slowdown = value;
    } else {
      return false;
    }
    any = true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return any;
}

std::string SessionSpec::validate() const {
  sparksim::WorkloadKind kind;
  if (!workload_from_short_name(workload, kind)) {
    return "unknown workload '" + workload + "'";
  }
  if (dataset < 1 || dataset > 3) return "dataset must be 1..3";
  if (!known_tuner(tuner)) return "unknown tuner '" + tuner + "'";
  if (budget < 1) return "budget must be >= 1";
  if (metric != "time" && metric != "coreseconds") {
    return "metric must be time|coreseconds";
  }
  sparksim::FaultProfile faults;
  if (fault_profile.find(' ') != std::string::npos ||
      !parse_fault_profile(fault_profile, faults)) {
    return "bad fault profile '" + fault_profile + "'";
  }
  if (retries < 0) return "retries must be >= 0";
  if (preempt_rate < 0.0 || preempt_rate > 1.0) {
    return "preempt rate must be in [0, 1]";
  }
  if (parallel < 0) return "parallel must be >= 0";
  if (batch < 1) return "batch must be >= 1";
  exec::RacingMode racing_mode;
  if (!exec::racing_mode_from_string(racing, racing_mode)) {
    return "bad racing mode '" + racing + "' (off|median|halving)";
  }
  if ((racing_mode != exec::RacingMode::kOff || eval_deadline > 0.0) &&
      parallel < 1) {
    return "racing/eval-deadline need the batch scheduler (parallel >= 1)";
  }
  if (eval_deadline < 0.0) return "eval deadline must be >= 0";
  if (init < 0 || selection_samples < 0) {
    return "init/selection-samples must be >= 0";
  }
  if (tuner == "robotune") {
    const int effective_init = init > 0 ? init : 20;
    if (init > 0 && init < 2) return "init must be >= 2";
    if (budget < effective_init) {
      return "budget smaller than the BO initial sample count";
    }
  }
  if (!parse_surrogate_tier(surrogate)) {
    return "bad surrogate tier '" + surrogate + "' (exact|rff|auto)";
  }
  if (rff_features < 0) return "rff-features must be >= 0";
  if (!parse_refit_schedule(refit)) {
    return "bad refit schedule '" + refit + "' (fixed|doubling|auto)";
  }
  if (mode != "internal" && mode != "external") {
    return "bad session mode '" + mode + "' (internal|external)";
  }
  if (mode == "external") {
    // Ask/tell constraints: only the BO engine speaks the protocol, and
    // the batch scheduler / racing layer drive simulator runs an
    // external executor replaces outright.
    if (tuner != "robotune") return "external mode requires tuner=robotune";
    if (parallel != 0) {
      return "external mode is incompatible with parallel workers "
             "(evaluations run outside the daemon)";
    }
    if (racing != "off" || eval_deadline > 0.0) {
      return "external mode is incompatible with racing/eval-deadline "
             "(lease timeouts bound external evaluations instead)";
    }
  }
  return {};
}

std::string encode_spec_body(const SessionSpec& spec) {
  std::ostringstream payload;
  payload << "workload=" << spec.workload << " dataset=" << spec.dataset
          << " tuner=" << spec.tuner << " budget=" << spec.budget
          << " seed=" << spec.seed << " metric=" << spec.metric
          << " fault=" << spec.fault_profile << " retries=" << spec.retries
          << " preempt=" << format_double(spec.preempt_rate)
          << " parallel=" << spec.parallel << " batch=" << spec.batch
          << " racing=" << spec.racing
          << " deadline=" << format_double(spec.eval_deadline)
          << " init=" << spec.init
          << " selsamples=" << spec.selection_samples
          << " surrogate=" << spec.surrogate
          << " rff=" << spec.rff_features << " refit=" << spec.refit;
  // Emitted only when external, so internal spec files stay
  // byte-identical to pre-external releases (and pre-external daemons
  // reject external specs via the unknown-key hard error).
  if (spec.mode == "external") payload << " mode=" << spec.mode;
  return payload.str();
}

bool decode_spec_body(const std::string& body, SessionSpec& spec,
                      std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  SessionSpec parsed;
  std::istringstream tokens(body);
  std::string token;
  bool numeric_ok = true;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return fail("bad spec token '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "workload") {
      parsed.workload = value;
    } else if (key == "dataset") {
      numeric_ok = parse_int(value, parsed.dataset);
    } else if (key == "tuner") {
      parsed.tuner = value;
    } else if (key == "budget") {
      numeric_ok = parse_int(value, parsed.budget);
    } else if (key == "seed") {
      numeric_ok = parse_u64(value, parsed.seed);
    } else if (key == "metric") {
      parsed.metric = value;
    } else if (key == "fault") {
      parsed.fault_profile = value;
    } else if (key == "retries") {
      numeric_ok = parse_int(value, parsed.retries);
    } else if (key == "preempt") {
      numeric_ok = parse_double(value, parsed.preempt_rate);
    } else if (key == "parallel") {
      numeric_ok = parse_int(value, parsed.parallel);
    } else if (key == "batch") {
      numeric_ok = parse_int(value, parsed.batch);
    } else if (key == "racing") {
      parsed.racing = value;
    } else if (key == "deadline") {
      numeric_ok = parse_double(value, parsed.eval_deadline);
    } else if (key == "init") {
      numeric_ok = parse_int(value, parsed.init);
    } else if (key == "selsamples") {
      numeric_ok = parse_int(value, parsed.selection_samples);
    } else if (key == "surrogate") {
      parsed.surrogate = value;
    } else if (key == "rff") {
      numeric_ok = parse_int(value, parsed.rff_features);
    } else if (key == "refit") {
      parsed.refit = value;
    } else if (key == "mode") {
      parsed.mode = value;
    } else {
      // Unknown keys from a newer writer are a hard error: the spec is
      // the determinism contract, so silently dropping a knob could
      // replay a different session than the one that was started.
      return fail("unknown spec key '" + key + "'");
    }
    if (!numeric_ok) {
      return fail("bad spec value '" + value + "' for key '" + key + "'");
    }
  }
  if (const auto why = parsed.validate(); !why.empty()) return fail(why);
  // Keep the caller's durability wiring.
  parsed.checkpoint_path = spec.checkpoint_path;
  parsed.resume = spec.resume;
  parsed.recover = spec.recover;
  parsed.sync = spec.sync;
  spec = parsed;
  return true;
}

bool save_spec_file(const SessionSpec& spec, const std::string& path) {
  return obs::write_file_atomically(path, [&](std::ostream& out) {
    out << kSpecHeader << '\n';
    write_frame(out, encode_spec_body(spec));
  });
}

bool load_spec_file(const std::string& path, SessionSpec& spec,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  // A spec file is the header plus exactly one record.
  std::string body;
  std::size_t records = 0;
  try {
    read_framed(in, kSpecHeader, LoadMode::kStrict, "load_spec", path,
                [&](std::string_view payload) {
                  if (++records > 1) {
                    throw InvalidArgument("more than one spec record");
                  }
                  body = payload;
                });
  } catch (const InvalidArgument& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (records == 0) {
    if (error != nullptr) *error = "load_spec: " + path + ": no spec record";
    return false;
  }
  return decode_spec_body(body, spec, error);
}

sparksim::SparkObjective make_session_objective(const SessionSpec& spec) {
  sparksim::WorkloadKind kind;
  sparksim::FaultProfile faults;
  require(workload_from_short_name(spec.workload, kind) &&
              parse_fault_profile(spec.fault_profile, faults),
          "make_session_objective: invalid spec");
  faults.preemption_per_stage = spec.preempt_rate;
  sparksim::SparkObjective objective(
      sparksim::ClusterSpec::paper_testbed(),
      sparksim::make_workload(kind, spec.dataset),
      sparksim::spark24_config_space(), spec.seed * 7919, 480.0, 0.04,
      spec.metric == "coreseconds"
          ? sparksim::ObjectiveMetric::kCoreSeconds
          : sparksim::ObjectiveMetric::kExecutionTime);
  objective.set_fault_profile(faults);
  if (faults.active()) {
    sparksim::RetryPolicy retry;
    retry.max_retries = std::max(0, spec.retries);
    objective.set_retry_policy(retry);
  }
  return objective;
}

Session::Session(SessionSpec spec) : spec_(std::move(spec)) {
  workload_from_short_name(spec_.workload, kind_);
  exec::racing_mode_from_string(spec_.racing, racing_mode_);

  if (spec_.tuner == "robotune") {
    RoboTuneOptions options;
    options.bo.batch_size = spec_.batch;
    if (spec_.init > 0) options.bo.initial_samples = spec_.init;
    if (const auto tier = parse_surrogate_tier(spec_.surrogate)) {
      options.bo.surrogate = *tier;
    }
    if (spec_.rff_features > 0) options.bo.rff_features = spec_.rff_features;
    if (const auto schedule = parse_refit_schedule(spec_.refit)) {
      options.bo.refit_schedule = *schedule;
    }
    if (spec_.selection_samples > 0) {
      options.selection.generic_samples =
          static_cast<std::size_t>(spec_.selection_samples);
    }
    auto tuner = std::make_unique<RoboTune>(options);
    robotune_ = tuner.get();
    tuner_ = std::move(tuner);
  } else if (spec_.tuner == "bestconfig") {
    tuner_ = std::make_unique<tuners::BestConfig>();
  } else if (spec_.tuner == "gunther") {
    tuner_ = std::make_unique<tuners::Gunther>();
  } else {
    tuner_ = std::make_unique<tuners::RandomSearch>();
  }
}

bool Session::load_state(const std::string& path) {
  if (robotune_ == nullptr) return false;
  return load_state_file(path, robotune_->selection_cache(),
                         robotune_->memo_buffer());
}

SessionProgress progress_of(const SessionCheckpoint& state) {
  SessionProgress p;
  p.evaluations = state.evaluations.size();
  p.best_value_s = std::numeric_limits<double>::infinity();
  for (const auto& e : state.evaluations) {
    if (e.status != sparksim::RunStatus::kOk) continue;
    if (e.value_s < p.best_value_s) {
      p.best_value_s = e.value_s;
      p.best_unit = e.unit;
    }
  }
  return p;
}

bool Session::save_state(const std::string& path) {
  if (robotune_ == nullptr) return false;
  return save_state_file(robotune_->selection_cache(),
                         robotune_->memo_buffer(), path);
}

// A failed checkpoint write leaves the previous checkpoint in place and
// the session running; it counts `journal.write_failures` and reaches
// the host's write_failed hook.
void Session::write_checkpoint(const SessionCheckpoint& state) {
  if (save_session_file(state, spec_.checkpoint_path, spec_.sync)) return;
  obs::count("journal.write_failures");
  if (run_->hooks.write_failed) run_->hooks.write_failed(spec_.checkpoint_path);
}

bool Session::begin(Hooks hooks) {
  if (run_ != nullptr) {
    run_->outcome.error = "session already ran";
    return false;
  }
  run_ = std::make_unique<Run>();
  run_->hooks = std::move(hooks);
  run_->objective.emplace(make_session_objective(spec_));
  if (spec_.parallel >= 1) {
    exec::SchedulerOptions sched;
    sched.parallelism = spec_.parallel;
    sched.racing.mode = racing_mode_;
    sched.racing.deadline_s = spec_.eval_deadline;
    run_->scheduler = std::make_unique<exec::EvalScheduler>(sched);
  }
  // Only robotune sessions journal; run_->log.flush is set when they do.
  if (robotune_ != nullptr && !spec_.checkpoint_path.empty()) {
    try {
      const auto mode = spec_.recover ? LoadMode::kRecover : LoadMode::kStrict;
      SessionLoadReport load_report;
      if (spec_.resume && load_session_file(spec_.checkpoint_path, run_->log.state,
                                            mode, &load_report)) {
        run_->outcome.resumed = true;
        run_->outcome.replayed = run_->log.state.evaluations.size();
        run_->outcome.journal_recovered = load_report.recovered;
        run_->outcome.dropped_records = load_report.dropped_records;
        run_->flushed_degrades = run_->log.state.degrade_events.size();
      }
    } catch (const std::exception& e) {
      run_->outcome.error = std::string("cannot resume from ") +
                       spec_.checkpoint_path + ": " + e.what();
      return false;
    }
    run_->log.flush = [this](const SessionCheckpoint& state) {
      write_checkpoint(state);
      run_->flushed_degrades = state.degrade_events.size();
      if (run_->hooks.progress) run_->hooks.progress(progress_of(state));
    };
  }
  if (robotune_ == nullptr) return true;
  try {
    robotune_->begin_report(
        *run_->objective, spec_.budget, spec_.seed, nullptr,
        run_->log.flush ? &run_->log : nullptr, run_->scheduler.get(),
        spec_.mode == "external" ? run_->hooks.external : nullptr);
  } catch (const std::exception& e) {
    run_->outcome.error = e.what();
    return false;
  }
  return true;
}

Step Session::step() {
  if (!run_->outcome.ok()) return Step::kDone;
  const bool stop = run_->hooks.cancel != nullptr &&
                    run_->hooks.cancel->load(std::memory_order_relaxed);
  try {
    if (robotune_ != nullptr) return robotune_->step(stop);
    // A baseline tuner runs whole, pacing itself (Tuner::set_pacing).
    tuner_->set_scheduler(run_->scheduler.get());
    run_->outcome.result = tuner_->tune(*run_->objective, spec_.budget, spec_.seed);
    tuner_->set_scheduler(nullptr);
  } catch (const std::exception& e) {
    run_->outcome.error = e.what();
  }
  return Step::kDone;
}

SessionOutcome Session::finish() {
  // From here on no tell touches the journal.
  if (run_->hooks.external != nullptr) run_->hooks.external->close();
  if (run_->outcome.ok() && robotune_ != nullptr) {
    RoboTuneReport report = robotune_->end_report();
    run_->outcome.result = report.tuning;
    run_->outcome.interrupted = report.bo.interrupted;
    run_->outcome.report = std::move(report);
    // Parallel sessions journal in completion order; re-flush the journal
    // in canonical index order so the final bytes are identical for any
    // worker count.  Degrade records taken after the last flush are
    // written the same way, whatever order the last round completed in.
    // Otherwise the journal on disk is already final and stays untouched.
    if (run_->log.flush && !run_->log.state.evaluations.empty()) {
      std::uint64_t next = 0;
      const bool canonical = std::all_of(
          run_->log.state.evaluations.begin(), run_->log.state.evaluations.end(),
          [&next](const EvalRecord& e) { return e.index == next++; });
      if (!canonical ||
          run_->log.state.degrade_events.size() != run_->flushed_degrades) {
        canonicalize_journal(run_->log.state);
        write_checkpoint(run_->log.state);
      }
    }
  } else if (run_->outcome.ok()) {
    run_->outcome.interrupted =
        run_->hooks.cancel != nullptr &&
        run_->hooks.cancel->load(std::memory_order_relaxed) &&
        static_cast<int>(run_->outcome.result.history.size()) < spec_.budget;
  }
  if (run_->outcome.ok() && run_->hooks.progress) {
    SessionProgress last;
    last.evaluations = run_->outcome.result.history.size();
    last.best_value_s = std::numeric_limits<double>::infinity();
    if (run_->outcome.result.found_any()) {
      last.best_value_s = run_->outcome.result.best_value_s();
      last.best_unit = run_->outcome.result.best_unit();
    }
    run_->hooks.progress(last);
  }
  run_->scheduler.reset();
  run_->objective.reset();
  return std::move(run_->outcome);
}

SessionOutcome Session::run(
    const std::atomic<bool>* cancel, std::function<void()> yield,
    std::function<void(const SessionProgress&)> progress) {
  obs::Span span("session", "core");
  span.arg("tuner", tuner_->name());
  span.arg("workload", sparksim::to_string(kind_));
  span.arg("budget", spec_.budget);
  span.arg("seed", spec_.seed);
  // A baseline tuner paces itself at its own round boundaries.
  if (robotune_ == nullptr) {
    tuner_->set_pacing(cancel, std::exchange(yield, nullptr));
  }
  if (yield) yield();
  Hooks hooks;
  hooks.cancel = cancel;
  hooks.progress = std::move(progress);
  if (begin(std::move(hooks))) {
    do {
      if (yield) yield();
    } while (step() == Step::kRound);
  }
  return finish();
}

std::unique_ptr<Session> SessionFactory::create(const SessionSpec& spec,
                                                std::string* error) {
  if (auto why = spec.validate(); !why.empty()) {
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  }
  return std::unique_ptr<Session>(new Session(spec));
}

}  // namespace robotune::core
