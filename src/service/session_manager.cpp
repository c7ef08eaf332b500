#include "service/session_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "common/chaos.h"
#include "obs/durable_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/telemetry.h"

namespace robotune::service {

namespace fs = std::filesystem;

namespace {

bool terminal(SessionState state) {
  return state == SessionState::kDone || state == SessionState::kCancelled ||
         state == SessionState::kFailed;
}

/// splitmix64 over (service seed, session id): well-spread, stable
/// across restarts, and documented — the daemon's seeding discipline.
std::uint64_t derive_session_seed(std::uint64_t service_seed,
                                  std::uint64_t id) {
  std::uint64_t z = service_seed + 0x9e3779b97f4a7c15ULL * (id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(SessionState state) noexcept {
  static constexpr const char* kNames[] = {"queued", "running", "done",
                                           "cancelled", "failed"};
  return kNames[static_cast<std::size_t>(state)];
}

// ---- SessionManager ------------------------------------------------------

SessionManager::SessionManager(ServiceOptions options)
    : options_(std::move(options)),
      step_pool_(std::clamp<std::size_t>(
          options_.slots == 0 ? options_.max_live : options_.slots, 1,
          std::max<std::size_t>(1, options_.max_live))) {
  fs::create_directories(options_.root);
  if (!options_.events_path.empty()) {
    EventJournal::Options ev;
    ev.path = options_.events_path;
    ev.max_bytes = options_.events_max_bytes;
    ev.fsync = options_.sync == core::SyncPolicy::kFsync;
    std::string error;
    // An unopenable event journal degrades observability, never
    // availability: the fleet serves regardless.
    if (!events_.open(ev, &error)) events_error_ = error;
  }
}

SessionManager::~SessionManager() { shutdown(/*cancel_live=*/true); }

std::string SessionManager::journal_path(std::uint64_t id) const {
  return options_.root + "/session-" + std::to_string(id) + ".journal";
}

std::string SessionManager::spec_path(std::uint64_t id) const {
  return options_.root + "/session-" + std::to_string(id) + ".spec";
}

std::string SessionManager::tombstone_path(std::uint64_t id) const {
  return options_.root + "/session-" + std::to_string(id) + ".cancelled";
}

SessionManager::StartResult SessionManager::start(core::SessionSpec spec,
                                                  bool derive_seed) {
  return admit(std::move(spec), derive_seed, /*fixed_id=*/0);
}

SessionManager::StartResult SessionManager::admit(core::SessionSpec spec,
                                                  bool derive_seed,
                                                  std::uint64_t fixed_id) {
  StartResult result;
  // Hosted sessions must journal — that is what makes the fleet
  // recoverable — and only the robotune stack takes a SessionLog.
  if (spec.tuner != "robotune") {
    result.error = "service sessions require tuner=robotune";
    events_.emit(0, "admission.reject", result.error);
    return result;
  }
  if (const auto why = spec.validate(); !why.empty()) {
    result.error = why;
    events_.emit(0, "admission.reject", result.error);
    return result;
  }
  std::uint64_t id = 0;
  bool backpressure = false;
  {
    std::scoped_lock lock(mutex_);
    if (!accepting_) {
      result.error = "service is shutting down";
    } else if (fixed_id == 0 && queued_ >= options_.max_pending) {
      // Backpressure gates client start requests only, never recovery
      // (fixed_id != 0) of sessions admitted before a crash.
      result.error = "queue full (" + std::to_string(queued_) +
                     " pending); retry later";
      obs::count("service.admission.rejected");
      backpressure = true;
    } else {
      id = fixed_id != 0 ? fixed_id : next_id_++;
      if (fixed_id != 0) next_id_ = std::max(next_id_, fixed_id + 1);
      ++queued_;  // reserve the queue slot; rolled back if the write fails
      sample_gauges_locked();
    }
  }
  if (!result.error.empty()) {
    // Event emission is disk I/O — never under the manager mutex.
    if (backpressure) {
      events_.emit(0, "admission.backpressure", result.error);
    }
    return result;
  }
  // The spec write happens outside the manager lock, so no verb stalls
  // behind disk I/O; the id and queue slot are already reserved.
  if (derive_seed) spec.seed = derive_session_seed(options_.seed, id);
  spec.checkpoint_path = journal_path(id);
  spec.sync = options_.sync;
  if (!save_spec_file(spec, spec_path(id))) {
    {
      std::scoped_lock lock(mutex_);
      --queued_;
      sample_gauges_locked();
    }
    result.error = "cannot write spec file under " + options_.root;
    events_.emit(0, "admission.reject", result.error);
    return result;
  }
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->spec = spec;
  if (spec.mode == "external") {
    entry->bridge = std::make_shared<core::ExternalBridge>();
  }
  entry->progress.best_value_s = std::numeric_limits<double>::infinity();
  entry->enqueued_at = std::chrono::steady_clock::now();
  result.admitted = true;
  result.id = id;
  obs::count("service.admission.accepted");
  // Emitted before the start step is queued, so this session's event
  // stream always opens accept → enter before the step's queue.leave.
  events_.emit(id, "admission.accept", fixed_id != 0 ? "readmission" : "");
  events_.emit(id, "queue.enter");
  std::scoped_lock lock(mutex_);
  sessions_[id] = entry;
  // A cancelling shutdown may have swept sessions_ while the spec was
  // being written; catch this late-inserted entry up with the sweep.
  if (cancel_all_) entry->cancel.store(true, std::memory_order_relaxed);
  const std::size_t workers = std::max<std::size_t>(1, options_.max_live);
  if (entry->bridge == nullptr && live_internal_ == workers) {
    entry->stepping = true;  // owned by the scheduler from here on
    waiting_.push_back(entry);
    return result;
  }
  if (entry->bridge == nullptr) ++live_internal_;
  if (entry->bridge != nullptr && external_pool_ == nullptr) {
    external_pool_ = std::make_unique<ThreadPool>(workers);
  }
  submit_step_locked(entry);
  return result;
}

void SessionManager::submit_step_locked(const std::shared_ptr<Entry>& entry) {
  entry->stepping = true;
  ThreadPool& pool =
      entry->bridge != nullptr ? *external_pool_ : step_pool_;
  pool.submit([this, entry] { run_step(entry); });
}

void SessionManager::wake_locked(const std::shared_ptr<Entry>& entry) {
  if (terminal(entry->state)) return;
  if (entry->stepping) {
    entry->rewake = true;
    return;
  }
  submit_step_locked(entry);
}

void SessionManager::release_live_locked(const Entry& entry) {
  if (entry.bridge != nullptr) return;
  --live_internal_;
  if (waiting_.empty()) return;
  ++live_internal_;
  submit_step_locked(waiting_.front());
  waiting_.pop_front();
}

void SessionManager::run_step(const std::shared_ptr<Entry>& entry) {
  // Every metric and span of the step (and of pool tasks it submits)
  // lands under session/<id>/.
  obs::ScopedSession scope(entry->id);
  core::Step next = core::Step::kRound;
  {
    obs::Span span("session", "service");
    if (entry->session != nullptr) {
      next = entry->session->step();
    } else if (!start_session(entry)) {
      return;
    }
  }
  if (next == core::Step::kDone) {
    finish_session(entry, entry->session->finish());
    return;
  }
  std::scoped_lock lock(mutex_);
  if (next == core::Step::kAwait && !entry->rewake &&
      !entry->cancel.load(std::memory_order_relaxed)) {
    entry->stepping = false;  // until the resolving tell or a cancel
    return;
  }
  // The tail of the FIFO queue: every other runnable session steps first.
  entry->rewake = false;
  submit_step_locked(entry);
}

bool SessionManager::start_session(const std::shared_ptr<Entry>& entry) {
  const double wait_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -
                             entry->enqueued_at)
                             .count();
  const bool cancelled = entry->cancel.load(std::memory_order_relaxed);
  {
    std::scoped_lock lock(mutex_);
    entry->queue_wait_ms = wait_ms;
    if (!cancelled) {
      entry->state = SessionState::kRunning;
      --queued_;
      ++running_;
      sample_gauges_locked();
    }
  }
  events_.emit(entry->id, "queue.leave");
  core::SessionOutcome failed;
  if (cancelled) {
    // Cancelled while still queued: terminal without ever running.
    failed.interrupted = true;
    finish_session(entry, std::move(failed));
    return false;
  }
  obs::metrics().observe("runtime.service.queue.wait_ms", wait_ms,
                         queue_wait_buckets_ms());
  events_.emit(entry->id, "session.running");
  obs::count("service.sessions.started");

  core::Session::Hooks hooks;
  hooks.cancel = &entry->cancel;
  hooks.progress = [this, e = entry.get()](const core::SessionProgress& p) {
    std::scoped_lock lock(mutex_);
    e->progress = p;
  };
  hooks.write_failed = [this, id = entry->id](const std::string& path) {
    events_.emit(id, "journal.write_failed", path);
  };
  hooks.external = entry->bridge.get();
  try {  // one session's failure must never wedge the fleet
    entry->session = core::SessionFactory::create(entry->spec, &failed.error);
    if (entry->session != nullptr) {
      entry->session->begin(std::move(hooks));  // errors wait for finish
      return true;
    }
  } catch (const std::exception& e) {
    failed.error = e.what();
  }
  finish_session(entry, std::move(failed));
  return false;
}

void SessionManager::finish_session(const std::shared_ptr<Entry>& entry,
                                    core::SessionOutcome outcome) {
  entry->session.reset();
  const std::uint64_t id = entry->id;
  // Only this session's own steps write its state.
  const bool queued = entry->state == SessionState::kQueued;
  const SessionState state = !outcome.ok() ? SessionState::kFailed
                             : outcome.interrupted
                                 ? SessionState::kCancelled
                                 : SessionState::kDone;
  // Emit the terminal event and outcome counter BEFORE committing the state
  // transition: drain() returns as soon as the counters read zero, and its
  // contract is that the journal then contains every terminal event. Per-id
  // event order is safe — a session's steps never run concurrently.
  obs::count(state == SessionState::kDone     ? "service.sessions.done"
             : state == SessionState::kFailed ? "service.sessions.failed"
                                              : "service.sessions.cancelled");
  events_.emit(id,
               state == SessionState::kDone     ? "session.done"
               : state == SessionState::kFailed ? "session.failed"
                                                : "session.cancelled",
               queued ? "cancelled while queued" : outcome.error);
  std::scoped_lock lock(mutex_);
  --(queued ? queued_ : running_);
  ++(state == SessionState::kDone     ? done_
     : state == SessionState::kFailed ? failed_
                                      : cancelled_);
  entry->state = state;
  entry->terminal_tick = now_tick_.load(std::memory_order_relaxed);
  entry->error = outcome.error;
  entry->resumed = outcome.resumed;
  entry->replayed = outcome.replayed;
  entry->journal_recovered = outcome.journal_recovered;
  release_live_locked(*entry);
  sample_gauges_locked();
  // Notify under the lock: once drain() observes the counters at zero
  // the manager may be destroyed, so an after-unlock notify could hit
  // a dead condition variable.
  terminal_cv_.notify_all();
}

bool SessionManager::cancel(std::uint64_t id, std::string* error) {
  std::string why;
  const auto entry = find_or_rehydrate(id, &why);
  if (entry == nullptr) {
    if (error != nullptr) *error = why;
    return false;
  }
  {
    std::scoped_lock lock(mutex_);
    if (terminal(entry->state)) {
      if (error != nullptr) {
        *error = std::string("session already ") + to_string(entry->state);
      }
      return false;
    }
    entry->cancel.store(true, std::memory_order_relaxed);
    // An ask/tell session waiting for tells has no step queued to see
    // the flag: step it now.
    if (entry->bridge != nullptr) wake_locked(entry);
  }
  // Tombstone the explicit cancel so a daemon restart keeps the session
  // cancelled (a graceful shutdown leaves none: its sessions resume).
  // Idempotent, so written outside the lock.  A failed write surfaces: a
  // restart would resume the session the client cancelled.
  std::FILE* f = std::fopen(tombstone_path(id).c_str(), "w");
  if (f == nullptr || std::fclose(f) != 0) {
    obs::count("service.cancel.tombstone_failures");
    events_.emit(id, "cancel.tombstone_failed", tombstone_path(id));
  }
  events_.emit(id, "cancel.requested");
  return true;
}

SessionStatus SessionManager::status_of(const Entry& e) {
  SessionStatus s;
  s.id = e.id;
  s.state = e.state;
  s.spec = e.spec;
  s.evaluations = e.progress.evaluations;
  s.best_value_s = e.progress.best_value_s;
  s.best_unit = e.progress.best_unit;
  s.resumed = e.resumed;
  s.replayed = e.replayed;
  s.journal_recovered = e.journal_recovered;
  s.error = e.error;
  s.queue_wait_ms = e.queue_wait_ms;
  s.external = e.spec.mode == "external";
  s.reclaimed = e.reclaimed;
  return s;
}

void SessionManager::fill_bridge_status(SessionStatus& status,
                                        const Entry& entry) const {
  if (entry.bridge == nullptr) return;
  status.pending = entry.bridge->pending();
  status.leased =
      entry.bridge->leased(now_tick_.load(std::memory_order_relaxed));
}

std::optional<SessionStatus> SessionManager::status(std::uint64_t id) {
  std::string ignored;
  const auto entry = find_or_rehydrate(id, &ignored);
  if (entry == nullptr) return std::nullopt;
  SessionStatus s;
  {
    std::scoped_lock lock(mutex_);
    s = status_of(*entry);
  }
  fill_bridge_status(s, *entry);
  return s;
}

ServiceStatus SessionManager::service_status() const {
  std::scoped_lock lock(mutex_);
  ServiceStatus s;
  s.queued = queued_;
  s.running = running_;
  s.done = done_;
  s.cancelled = cancelled_;
  s.failed = failed_;
  s.accepting = accepting_;
  s.max_live = options_.max_live;
  s.max_pending = options_.max_pending;
  s.slots = step_pool_.size();
  s.reclaimed = reclaimed_;
  s.evicted = evicted_done_ + evicted_cancelled_;
  return s;
}

ServiceStatus SessionManager::recount_status() const {
  std::scoped_lock lock(mutex_);
  ServiceStatus s;
  for (const auto& [id, entry] : sessions_) {
    const SessionState state = entry->state;
    ++(state == SessionState::kQueued      ? s.queued
       : state == SessionState::kRunning   ? s.running
       : state == SessionState::kDone      ? s.done
       : state == SessionState::kCancelled ? s.cancelled
                                           : s.failed);
  }
  // The incremental counters are lifetime counts; evicted terminal
  // sessions left the map without decrementing them, so the scan twin
  // adds the eviction ledger back before comparing.
  s.done += evicted_done_;
  s.cancelled += evicted_cancelled_;
  s.accepting = accepting_;
  s.max_live = options_.max_live;
  s.max_pending = options_.max_pending;
  s.slots = step_pool_.size();
  s.reclaimed = reclaimed_;
  s.evicted = evicted_done_ + evicted_cancelled_;
  return s;
}

std::vector<SessionStatus> SessionManager::list_sessions() const {
  std::vector<SessionStatus> out;
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::scoped_lock lock(mutex_);
    // std::map iteration: ascending id order by construction.
    for (const auto& [id, entry] : sessions_) {
      out.push_back(status_of(*entry));
      entries.push_back(entry);
    }
  }
  // Bridge gauges read outside mutex_ (lock order: bridge → manager).
  for (std::size_t i = 0; i < out.size(); ++i) {
    fill_bridge_status(out[i], *entries[i]);
  }
  return out;
}

std::size_t SessionManager::resident_sessions() const {
  std::scoped_lock lock(mutex_);
  return sessions_.size();
}

std::shared_ptr<SessionManager::Entry> SessionManager::find_or_rehydrate(
    std::uint64_t id, std::string* error) {
  SessionState evicted_state = SessionState::kDone;
  {
    std::scoped_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) return it->second;
    const auto ev = evicted_.find(id);
    if (ev == evicted_.end()) {
      if (error != nullptr) *error = "no such session";
      return nullptr;
    }
    evicted_state = ev->second;
  }
  // Disk I/O outside the lock: reload the spec and replay the journal to
  // rebuild the progress snapshot the evicted Entry carried.
  core::SessionSpec spec;
  std::string why;
  if (!load_spec_file(spec_path(id), spec, &why)) {
    if (error != nullptr) *error = "spec unreadable: " + why;
    return nullptr;
  }
  core::SessionCheckpoint state;
  if (!load_journal(id, state, error)) return nullptr;
  const auto entry = terminal_entry(id, spec, state, evicted_state);
  {
    std::scoped_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) return it->second;  // raced another verb
    // Back in the map: reverse the eviction bookkeeping.  The lifetime
    // counters were never decremented, so nothing to re-add.
    evicted_.erase(id);
    --(evicted_state == SessionState::kDone ? evicted_done_
                                            : evicted_cancelled_);
    sessions_[id] = entry;
  }
  obs::count("service.sessions.rehydrated");
  return entry;
}

bool SessionManager::load_journal(std::uint64_t id,
                                  core::SessionCheckpoint& state,
                                  std::string* error) const {
  try {
    if (load_session_file(journal_path(id), state,
                          core::LoadMode::kRecover)) {
      core::canonicalize_journal(state);
    }
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("journal unreadable: ") + e.what();
    }
    return false;
  }
}

std::shared_ptr<SessionManager::Entry> SessionManager::terminal_entry(
    std::uint64_t id, const core::SessionSpec& spec,
    const core::SessionCheckpoint& state, SessionState terminal_state) {
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->spec = spec;
  entry->spec.checkpoint_path = journal_path(id);
  entry->spec.sync = options_.sync;
  entry->state = terminal_state;
  entry->progress = core::progress_of(state);
  entry->terminal_tick = now_tick_.load(std::memory_order_relaxed);
  if (spec.mode == "external") {
    // Late executor retries still get truthful answers from the
    // journaled ack ledger.
    entry->bridge = std::make_shared<core::ExternalBridge>();
    entry->bridge->restore(state);
    entry->bridge->close();
  }
  return entry;
}

void SessionManager::sample_gauges_locked() {
  obs::set_gauge("runtime.service.queue.depth",
                 static_cast<double>(queued_));
  obs::set_gauge("runtime.service.sessions.live",
                 static_cast<double>(running_));
  obs::set_gauge("runtime.service.sessions.done",
                 static_cast<double>(done_));
  obs::set_gauge("runtime.service.sessions.cancelled",
                 static_cast<double>(cancelled_));
  obs::set_gauge("runtime.service.sessions.failed",
                 static_cast<double>(failed_));
  std::size_t busy = step_pool_.size() - step_pool_.idle_workers();
  if (external_pool_ != nullptr) {
    busy += external_pool_->size() - external_pool_->idle_workers();
  }
  obs::set_gauge("runtime.service.pool.busy", static_cast<double>(busy));
}

SessionManager::SuggestResult SessionManager::suggest(std::uint64_t id) {
  SuggestResult result;
  const auto entry = find_or_rehydrate(id, &result.error);
  if (entry == nullptr) return result;
  std::scoped_lock lock(mutex_);
  const Entry& e = *entry;
  if (e.progress.best_unit.empty()) {
    result.error = "no successful evaluation yet";
    return result;
  }
  result.ok = true;
  result.evaluations = e.progress.evaluations;
  result.best_value_s = e.progress.best_value_s;
  result.best_unit = e.progress.best_unit;
  return result;
}

SessionManager::CheckpointResult SessionManager::checkpoint(
    std::uint64_t id) {
  CheckpointResult result;
  const auto entry = find_or_rehydrate(id, &result.error);
  if (entry == nullptr) return result;
  {
    std::scoped_lock lock(mutex_);
    result.evaluations = entry->progress.evaluations;
  }
  // The journal is already flushed after every evaluation; the verb adds
  // the durability barrier (fsync file + directory) that the default
  // SyncPolicy::kNone skips.
  const std::string path = journal_path(id);
  obs::fsync_path(path);
  obs::fsync_path(spec_path(id));
  obs::fsync_path(options_.root);
  result.ok = true;
  result.journal_path = path;
  return result;
}

SessionManager::ObserveResult SessionManager::observe(
    std::uint64_t id, std::uint64_t from, std::uint64_t limit) {
  ObserveResult result;
  if (find_or_rehydrate(id, &result.error) == nullptr) return result;
  // A corrupt journal must not take the daemon down with the request.
  core::SessionCheckpoint state;
  if (!load_journal(id, state, &result.error)) return result;
  result.ok = true;
  result.total = state.evaluations.size();
  for (const auto& record : state.evaluations) {
    if (record.index < from) continue;
    if (limit != 0 && result.records.size() >= limit) break;
    result.records.push_back(record);
  }
  return result;
}

SessionManager::AskResult SessionManager::ask(std::uint64_t id,
                                              std::size_t max_count) {
  AskResult result;
  const auto entry = find_or_rehydrate(id, &result.error);
  if (entry == nullptr) return result;
  if (entry->spec.mode != "external") {
    result.error = "session is not in ask/tell (external) mode";
    return result;
  }
  const auto bridge = entry->bridge;
  const std::uint64_t now = now_tick_.load(std::memory_order_relaxed);
  result.grants = bridge->lease(std::max<std::size_t>(1, max_count), now,
                                options_.lease_timeout_ticks);
  result.pending = bridge->pending();
  result.leased = bridge->leased(now);
  result.ok = true;
  if (!result.grants.empty()) {
    obs::count("service.leases.granted", result.grants.size());
  }
  return result;
}

SessionManager::TellResult SessionManager::tell(
    std::uint64_t id, std::uint64_t index,
    const core::ExternalObservation& observation) {
  TellResult result;
  const auto entry = find_or_rehydrate(id, &result.error);
  if (entry == nullptr) return result;
  if (entry->spec.mode != "external") {
    result.error = "session is not in ask/tell (external) mode";
    return result;
  }
  // Chaos site kObserveDelivery: a per-delivery counter decision either
  // drops the delivery before it reaches the ledger (the client
  // retries; idempotency makes the blind retry safe, and a later
  // attempt draws a fresh decision) or re-delivers an accepted
  // observation internally (the ledger must ack the duplicate without
  // effect).  The drop pattern is scheduling-dependent, but the journal
  // bytes are not: accepted tuples are exactly what the client sent,
  // whichever delivery attempt lands them.
  if (chaos::fail(chaos::Site::kObserveDelivery)) {
    result.error = "chaos: observe delivery dropped; retry";
    obs::count("service.observe.chaos_dropped");
    return result;
  }
  const auto verdict = entry->bridge->tell(index, observation);
  if (verdict.resolved) {
    std::scoped_lock lock(mutex_);
    wake_locked(entry);
  }
  if (verdict.verdict == core::TellVerdict::kAccepted &&
      chaos::fail(chaos::Site::kObserveDelivery)) {
    obs::count("service.observe.chaos_duplicated");
    entry->bridge->tell(index, observation);
  }
  result.verdict = verdict.verdict;
  result.recorded = verdict.recorded;
  switch (verdict.verdict) {
    case core::TellVerdict::kAccepted:
      result.ok = true;
      obs::count("service.observe.accepted");
      break;
    case core::TellVerdict::kDuplicate:
      result.ok = true;
      obs::count("service.observe.duplicate");
      break;
    case core::TellVerdict::kConflict:
      result.error = "observation conflicts with the recorded tuple for "
                     "eval " +
                     std::to_string(index);
      obs::count("service.observe.conflict");
      break;
    case core::TellVerdict::kUnknown:
      result.error =
          "no pending suggestion with index " + std::to_string(index);
      break;
  }
  return result;
}

std::size_t SessionManager::tick() {
  const std::uint64_t now =
      now_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Reaper sweep: collect the live ask/tell bridges under the lock, reap
  // outside it — reap() journals the expiries, and the journal flush
  // re-enters the manager through the progress callback.
  std::vector<std::shared_ptr<Entry>> live;
  {
    std::scoped_lock lock(mutex_);
    for (const auto& [id, entry] : sessions_) {
      if (entry->bridge != nullptr && !terminal(entry->state)) {
        live.push_back(entry);
      }
    }
  }
  std::size_t reclaimed = 0;
  for (const auto& entry : live) {
    const auto expiries = entry->bridge->reap(now);
    if (expiries.empty()) continue;
    reclaimed += expiries.size();
    for (const auto& expiry : expiries) {
      obs::count("service.evals.reclaimed");
      events_.emit(entry->id, "lease.expired",
                   "eval " + std::to_string(expiry.index) + " lease " +
                       std::to_string(expiry.lease));
    }
    std::scoped_lock lock(mutex_);
    entry->reclaimed += expiries.size();
    reclaimed_ += expiries.size();
  }
  // Terminal-TTL eviction: done/cancelled entries past the TTL leave the
  // map; their terminal state moves to the eviction ledger so later
  // verbs can re-hydrate them from disk.  Failed sessions stay — their
  // error string exists only here.
  if (options_.terminal_ttl_ticks != 0) {
    std::scoped_lock lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const Entry& e = *it->second;
      const bool evictable = e.state == SessionState::kDone ||
                             e.state == SessionState::kCancelled;
      if (!evictable ||
          now < e.terminal_tick + options_.terminal_ttl_ticks) {
        ++it;
        continue;
      }
      evicted_[it->first] = e.state;
      ++(e.state == SessionState::kDone ? evicted_done_ : evicted_cancelled_);
      obs::count("service.sessions.evicted");
      it = sessions_.erase(it);
    }
  }
  return reclaimed;
}

FleetRecovery SessionManager::recover_fleet() {
  FleetRecovery recovery;
  std::vector<std::uint64_t> ids;
  {
    std::error_code ec;
    for (const auto& dirent : fs::directory_iterator(options_.root, ec)) {
      const std::string name = dirent.path().filename().string();
      // session-<id>.spec
      if (name.rfind("session-", 0) != 0) continue;
      const std::size_t dot = name.rfind(".spec");
      if (dot == std::string::npos || dot + 5 != name.size()) continue;
      const std::string digits = name.substr(8, dot - 8);
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      ids.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
  }
  std::sort(ids.begin(), ids.end());

  for (const std::uint64_t id : ids) {
    core::SessionSpec spec;
    std::string error;
    if (!load_spec_file(spec_path(id), spec, &error)) {
      quarantine(id, recovery);
      continue;
    }
    // Replay the journal (recover mode: a torn tail from kill -9 is the
    // expected case and truncates to the longest valid prefix).  A
    // journal whose header is unusable is corruption beyond recovery:
    // quarantine the session rather than silently restarting it.
    core::SessionCheckpoint state;
    core::SessionLoadReport report;
    bool have_journal = false;
    try {
      have_journal = load_session_file(journal_path(id), state,
                                       core::LoadMode::kRecover, &report);
    } catch (const std::exception&) {
      quarantine(id, recovery);
      continue;
    }
    if (have_journal && report.version == 0) {
      quarantine(id, recovery);
      continue;
    }
    if (have_journal) core::canonicalize_journal(state);

    const bool tombstoned = fs::exists(tombstone_path(id));
    const bool complete =
        have_journal &&
        static_cast<int>(state.evaluations.size()) >= spec.budget;
    if (tombstoned || complete) {
      // Terminal on disk: re-register without re-running.
      const auto entry = terminal_entry(
          id, spec, state,
          tombstoned ? SessionState::kCancelled : SessionState::kDone);
      {
        std::scoped_lock lock(mutex_);
        sessions_[id] = entry;
        next_id_ = std::max(next_id_, id + 1);
        ++(tombstoned ? cancelled_ : done_);
        sample_gauges_locked();
      }
      events_.emit(id, tombstoned ? "recovery.cancelled"
                                  : "recovery.completed");
      ++(tombstoned ? recovery.cancelled : recovery.completed);
      continue;
    }
    // Incomplete: re-admit with resume+recover so the journal prefix
    // replays and the session continues exactly where it died.  A
    // rejection here (re-admission bypasses max_pending) is operational —
    // shutdown racing recovery, an unwritable root — never corruption:
    // the files stay in place and the session is reported.
    spec.resume = true;
    spec.recover = true;
    // Emitted before admit() so the logical stream of a resumed session
    // always opens recovery.resumed → admission.accept → queue.enter.
    events_.emit(id, "recovery.resumed");
    const auto result = admit(std::move(spec), /*derive_seed=*/false, id);
    if (result.admitted) {
      ++recovery.readmitted;
    } else {
      ++recovery.failed;
      recovery.errors.push_back("session " + std::to_string(id) + ": " +
                                result.error);
      events_.emit(id, "recovery.failed", result.error);
    }
  }
  obs::set_gauge("service.recovery.readmitted",
                 static_cast<double>(recovery.readmitted));
  obs::set_gauge("service.recovery.quarantined",
                 static_cast<double>(recovery.quarantined));
  return recovery;
}

void SessionManager::quarantine(std::uint64_t id, FleetRecovery& recovery) {
  const std::string dir = options_.root + "/quarantine";
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::string moved;  // the file names, for the event
  for (const std::string& path :
       {spec_path(id), journal_path(id), tombstone_path(id)}) {
    if (!fs::exists(path, ec)) continue;
    const std::string name = fs::path(path).filename().string();
    fs::rename(path, dir + "/" + name, ec);
    if (ec) continue;
    recovery.quarantined_files.push_back(dir + "/" + name);
    moved += (moved.empty() ? "" : " ") + name;
  }
  ++recovery.quarantined;
  obs::count("service.sessions.quarantined");
  events_.emit(id, "recovery.quarantined", moved);
}

void SessionManager::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  terminal_cv_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

void SessionManager::shutdown(bool cancel_live) {
  {
    std::scoped_lock lock(mutex_);
    accepting_ = false;
    if (cancel_live) {
      cancel_all_ = true;
      for (const auto& [id, entry] : sessions_) {
        if (terminal(entry->state)) continue;
        entry->cancel.store(true, std::memory_order_relaxed);
        // Ask/tell sessions waiting for tells step once more, to stop.
        if (entry->bridge != nullptr) wake_locked(entry);
      }
    }
  }
  drain();
}

}  // namespace robotune::service
