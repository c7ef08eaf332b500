#include "core/session.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/frame.h"
#include "obs/metrics.h"
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

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// Strict numeric field parsers: the spec is the determinism contract,
// so a malformed value (`seed=abc` silently becoming 0) must fail the
// decode the same way an unknown key does — otherwise a restart could
// replay a different session than the one that was started.

bool parse_spec_int(const std::string& text, int& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parse_spec_u64(const std::string& text, std::uint64_t& out) {
  // strtoull silently wraps negatives ("-1" → 2^64-1): reject them.
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

bool parse_spec_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

// A failed checkpoint write leaves the previous checkpoint in place and
// the session running; it surfaces as the logical counter
// `journal.write_failures` instead of vanishing.
void write_checkpoint(const SessionCheckpoint& state, const std::string& path,
                      SyncPolicy sync) {
  if (!save_session_file(state, path, sync)) {
    obs::count("journal.write_failures");
  }
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
    char* end = nullptr;
    const double value = std::strtod(item.c_str() + eq + 1, &end);
    if (end == item.c_str() + eq + 1) return false;
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
      numeric_ok = parse_spec_int(value, parsed.dataset);
    } else if (key == "tuner") {
      parsed.tuner = value;
    } else if (key == "budget") {
      numeric_ok = parse_spec_int(value, parsed.budget);
    } else if (key == "seed") {
      numeric_ok = parse_spec_u64(value, parsed.seed);
    } else if (key == "metric") {
      parsed.metric = value;
    } else if (key == "fault") {
      parsed.fault_profile = value;
    } else if (key == "retries") {
      numeric_ok = parse_spec_int(value, parsed.retries);
    } else if (key == "preempt") {
      numeric_ok = parse_spec_double(value, parsed.preempt_rate);
    } else if (key == "parallel") {
      numeric_ok = parse_spec_int(value, parsed.parallel);
    } else if (key == "batch") {
      numeric_ok = parse_spec_int(value, parsed.batch);
    } else if (key == "racing") {
      parsed.racing = value;
    } else if (key == "deadline") {
      numeric_ok = parse_spec_double(value, parsed.eval_deadline);
    } else if (key == "init") {
      numeric_ok = parse_spec_int(value, parsed.init);
    } else if (key == "selsamples") {
      numeric_ok = parse_spec_int(value, parsed.selection_samples);
    } else if (key == "surrogate") {
      parsed.surrogate = value;
    } else if (key == "rff") {
      numeric_ok = parse_spec_int(value, parsed.rff_features);
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

std::string encode_spec(const SessionSpec& spec) {
  return std::string(kSpecHeader) + "\n" +
         frame_message(encode_spec_body(spec));
}

bool decode_spec(const std::string& text, SessionSpec& spec,
                 std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kSpecHeader) {
    return fail("bad spec header");
  }
  if (!std::getline(in, line)) return fail("missing spec record");
  std::string_view body;
  std::string why;
  if (!unframe_line(line, body, why)) return fail("spec: " + why);
  return decode_spec_body(std::string(body), spec, error);
}

bool save_spec_file(const SessionSpec& spec, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << encode_spec(spec);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool load_spec_file(const std::string& path, SessionSpec& spec,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_spec(buffer.str(), spec, error);
}

Session::Session(SessionSpec spec) : spec_(std::move(spec)) {
  workload_from_short_name(spec_.workload, kind_);
  metric_ = spec_.metric == "coreseconds"
                ? sparksim::ObjectiveMetric::kCoreSeconds
                : sparksim::ObjectiveMetric::kExecutionTime;
  parse_fault_profile(spec_.fault_profile, faults_);
  faults_.preemption_per_stage = spec_.preempt_rate;
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

bool Session::save_state(const std::string& path) {
  if (robotune_ == nullptr) return false;
  return save_state_file(robotune_->selection_cache(),
                         robotune_->memo_buffer(), path);
}

SessionOutcome Session::run(
    const std::atomic<bool>* cancel, std::function<void()> yield,
    std::function<void(const SessionProgress&)> progress) {
  SessionOutcome outcome;
  if (ran_) {
    outcome.error = "session already ran";
    return outcome;
  }
  ran_ = true;

  sparksim::SparkObjective objective(
      sparksim::ClusterSpec::paper_testbed(),
      sparksim::make_workload(kind_, spec_.dataset),
      sparksim::spark24_config_space(), spec_.seed * 7919, 480.0, 0.04,
      metric_);
  objective.set_fault_profile(faults_);
  if (faults_.active()) {
    sparksim::RetryPolicy retry;
    retry.max_retries = std::max(0, spec_.retries);
    objective.set_retry_policy(retry);
  }

  std::unique_ptr<exec::EvalScheduler> scheduler;
  if (spec_.parallel >= 1) {
    exec::SchedulerOptions sched;
    sched.parallelism = spec_.parallel;
    sched.racing.mode = racing_mode_;
    sched.racing.deadline_s = spec_.eval_deadline;
    scheduler = std::make_unique<exec::EvalScheduler>(sched);
  }

  tuner_->set_pacing(cancel, std::move(yield));

  // Incumbent-best extraction for the progress hook: successful
  // observations only (failed/penalized values are not a configuration
  // anyone should be handed as "current best").
  const auto best_of = [](const SessionCheckpoint& state) {
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
  };

  if (robotune_ != nullptr) {
    SessionLog session;
    SessionLog* session_ptr = nullptr;
    if (!spec_.checkpoint_path.empty()) {
      try {
        const auto mode =
            spec_.recover ? LoadMode::kRecover : LoadMode::kStrict;
        SessionLoadReport load_report;
        if (spec_.resume &&
            load_session_file(spec_.checkpoint_path, session.state, mode,
                              &load_report)) {
          outcome.resumed = true;
          outcome.replayed = session.state.evaluations.size();
          outcome.journal_recovered = load_report.recovered;
          outcome.dropped_records = load_report.dropped_records;
        }
      } catch (const std::exception& e) {
        outcome.error = std::string("cannot resume from ") +
                        spec_.checkpoint_path + ": " + e.what();
        return outcome;
      }
      const std::string path = spec_.checkpoint_path;
      const auto sync = spec_.sync;
      session.flush = [path, sync, progress,
                       &best_of](const SessionCheckpoint& state) {
        write_checkpoint(state, path, sync);
        if (progress) progress(best_of(state));
      };
      session_ptr = &session;
    }
    RoboTuneReport report;
    try {
      report = robotune_->tune_report(objective, spec_.budget, spec_.seed,
                                      nullptr, session_ptr, scheduler.get(),
                                      spec_.mode == "external" ? external_
                                                               : nullptr);
    } catch (const std::exception& e) {
      outcome.error = e.what();
      return outcome;
    }
    outcome.result = report.tuning;
    outcome.interrupted = report.bo.interrupted;
    outcome.report = std::move(report);
    // Parallel sessions journal in completion order; re-flush the journal
    // in canonical index order so the final bytes are identical for any
    // worker count.  Already-canonical journals (every sequential or q=1
    // session) are left byte-for-byte untouched.
    if (session_ptr != nullptr && !session.state.evaluations.empty()) {
      bool canonical = true;
      for (std::size_t i = 0; i < session.state.evaluations.size(); ++i) {
        if (session.state.evaluations[i].index != i) {
          canonical = false;
          break;
        }
      }
      if (!canonical) {
        canonicalize_journal(session.state);
        write_checkpoint(session.state, spec_.checkpoint_path, spec_.sync);
      }
    }
  } else {
    try {
      tuner_->set_scheduler(scheduler.get());
      outcome.result = tuner_->tune(objective, spec_.budget, spec_.seed);
      tuner_->set_scheduler(nullptr);
    } catch (const std::exception& e) {
      outcome.error = e.what();
      return outcome;
    }
    outcome.interrupted =
        cancel != nullptr && cancel->load(std::memory_order_relaxed) &&
        static_cast<int>(outcome.result.history.size()) < spec_.budget;
  }

  if (progress) {
    SessionProgress final_progress;
    final_progress.evaluations = outcome.result.history.size();
    if (outcome.result.found_any()) {
      final_progress.best_value_s = outcome.result.best_value_s();
      final_progress.best_unit = outcome.result.best_unit();
    } else {
      final_progress.best_value_s = std::numeric_limits<double>::infinity();
    }
    progress(final_progress);
  }
  return outcome;
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
