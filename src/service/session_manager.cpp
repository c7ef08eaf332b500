#include "service/session_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "common/chaos.h"
#include "obs/metrics.h"
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

/// Best-effort fsync of a path (file or directory).
void sync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

// ---- Turnstile -----------------------------------------------------------

void Turnstile::wait_for_turn(std::unique_lock<std::mutex>& lock,
                              std::uint64_t id) {
  if (active_ < slots_ && waiting_.empty()) {
    ++active_;
    return;
  }
  waiting_.push_back(id);
  cv_.wait(lock, [&] {
    return active_ < slots_ && !waiting_.empty() && waiting_.front() == id;
  });
  waiting_.pop_front();
  ++active_;
  // With several slots the next waiter may be eligible too.
  cv_.notify_all();
}

void Turnstile::enter(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_for_turn(lock, id);
}

void Turnstile::yield(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (waiting_.empty()) return;  // nobody wants the slice — keep running
  --active_;
  cv_.notify_all();
  wait_for_turn(lock, id);
}

void Turnstile::leave() {
  std::scoped_lock lock(mutex_);
  --active_;
  cv_.notify_all();
}

// ---- SessionManager ------------------------------------------------------

SessionManager::SessionManager(ServiceOptions options)
    : options_(std::move(options)),
      turnstile_(options_.slots == 0 ? options_.max_live : options_.slots),
      pool_(std::max<std::size_t>(1, options_.max_live)) {
  fs::create_directories(options_.root);
  if (!options_.events_path.empty()) {
    EventJournal::Options ev;
    ev.path = options_.events_path;
    ev.max_bytes = options_.events_max_bytes;
    ev.keep = options_.events_keep;
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
      // Backpressure gates *external* start requests only: fleet
      // recovery (fixed_id != 0) re-admits sessions that were already
      // admitted before the crash, so a full pre-crash queue must never
      // turn a healthy session away.
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
  // The spec write (file + rename) happens outside the manager lock so
  // status/suggest/dispatch and the sessions' progress callbacks never
  // stall behind disk I/O.  The id and queue slot are already reserved.
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
  bool cancel_now = false;
  {
    std::scoped_lock lock(mutex_);
    sessions_[id] = entry;
    // A cancelling shutdown may have swept sessions_ while the spec was
    // being written; catch this late-inserted entry up with the sweep.
    if (cancel_all_) {
      entry->cancel.store(true, std::memory_order_relaxed);
      cancel_now = true;
    }
  }
  if (cancel_now && entry->bridge) entry->bridge->request_cancel();
  result.admitted = true;
  result.id = id;
  obs::count("service.admission.accepted");
  // Emitted before the pool submit so this session's event stream
  // always opens accept → enter before the worker's queue.leave.
  events_.emit(id, "admission.accept", fixed_id != 0 ? "readmission" : "");
  events_.emit(id, "queue.enter");
  if (entry->bridge) {
    // Ask/tell sessions get a dedicated thread, never a pool worker or a
    // turnstile slice: they spend their life parked in exchange() waiting
    // on remote executors, so a pool slot would cap concurrent external
    // sessions at max_live and let idle leases starve compute-bound
    // internal sessions.
    std::thread runner([this, entry] { run_entry(entry); });
    std::scoped_lock lock(mutex_);
    external_threads_.push_back(std::move(runner));
  } else {
    pool_.submit([this, entry] { run_entry(entry); });
  }
  return result;
}

void SessionManager::run_entry(const std::shared_ptr<Entry>& entry) {
  const double wait_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -
                             entry->enqueued_at)
                             .count();
  if (entry->cancel.load(std::memory_order_relaxed)) {
    // Cancelled while still queued: terminal without ever running. Journal
    // the terminal event before committing the counters — drain() returns
    // the moment the counters read zero and promises a complete journal.
    events_.emit(entry->id, "queue.leave");
    events_.emit(entry->id, "session.cancelled", "cancelled while queued");
    obs::count("service.sessions.cancelled");
    std::scoped_lock lock(mutex_);
    --queued_;
    ++cancelled_;
    entry->state = SessionState::kCancelled;
    entry->terminal_tick = now_tick_.load(std::memory_order_relaxed);
    entry->queue_wait_ms = wait_ms;
    sample_gauges_locked();
    terminal_cv_.notify_all();
    return;
  }
  {
    std::scoped_lock lock(mutex_);
    entry->state = SessionState::kRunning;
    --queued_;
    ++running_;
    entry->queue_wait_ms = wait_ms;
    sample_gauges_locked();
  }
  obs::metrics().observe("runtime.service.queue.wait_ms",
                         entry->queue_wait_ms, queue_wait_buckets_ms());
  events_.emit(entry->id, "queue.leave");
  events_.emit(entry->id, "session.running");
  // Scope every metric and span of this session (and of its private
  // evaluation pool — ThreadPool::submit propagates the scope) under
  // session/<id>/.
  obs::ScopedSession scope(entry->id);
  obs::count("service.sessions.started");
  const std::uint64_t id = entry->id;
  const bool external = entry->bridge != nullptr;
  // External sessions skip the turnstile entirely (see admit): no slice
  // to enter, no yield hook — their round boundaries are client-paced.
  if (!external) turnstile_.enter(id);

  core::SessionOutcome outcome;
  try {
    std::string create_error;
    if (auto session = core::SessionFactory::create(entry->spec,
                                                    &create_error)) {
      if (external) session->attach_external(entry->bridge.get());
      outcome = session->run(
          &entry->cancel,
          external ? std::function<void()>{}
                   : std::function<void()>([this, id] {
                       turnstile_.yield(id);
                     }),
          [this, entry](const core::SessionProgress& p) {
            std::scoped_lock lock(mutex_);
            entry->progress = p;
          });
    } else {
      outcome.error = create_error;
    }
  } catch (const std::exception& e) {
    // One session's failure must never wedge the fleet: record it and
    // keep the worker (and the turnstile slice accounting) healthy.
    outcome.error = e.what();
  }
  if (!external) turnstile_.leave();
  // Terminal: stop granting leases.  tell() keeps answering late
  // duplicate observes from the bridge's recorded-ack ledger.
  if (external) entry->bridge->close();

  const SessionState state = !outcome.ok() ? SessionState::kFailed
                             : outcome.interrupted
                                 ? SessionState::kCancelled
                                 : SessionState::kDone;
  // Emit the terminal event and outcome counter BEFORE committing the state
  // transition: drain() returns as soon as the counters read zero, and its
  // contract is that the journal then contains every terminal event. Per-id
  // event order is safe — this thread is the only writer for this session.
  obs::count(state == SessionState::kDone     ? "service.sessions.done"
             : state == SessionState::kFailed ? "service.sessions.failed"
                                              : "service.sessions.cancelled");
  events_.emit(id,
               state == SessionState::kDone     ? "session.done"
               : state == SessionState::kFailed ? "session.failed"
                                                : "session.cancelled",
               outcome.error);
  {
    std::scoped_lock lock(mutex_);
    --running_;
    switch (state) {
      case SessionState::kDone:
        ++done_;
        break;
      case SessionState::kFailed:
        ++failed_;
        break;
      default:
        ++cancelled_;
        break;
    }
    entry->state = state;
    entry->terminal_tick = now_tick_.load(std::memory_order_relaxed);
    entry->error = outcome.error;
    entry->resumed = outcome.resumed;
    entry->replayed = outcome.replayed;
    entry->journal_recovered = outcome.journal_recovered;
    sample_gauges_locked();
    // Notify under the lock: once drain() observes the counters at zero
    // the manager may be destroyed, so an after-unlock notify could hit
    // a dead condition variable.
    terminal_cv_.notify_all();
  }
}

bool SessionManager::cancel(std::uint64_t id, std::string* error) {
  std::string why;
  const auto entry = find_or_rehydrate(id, &why);
  if (entry == nullptr) {
    if (error != nullptr) *error = why;
    return false;
  }
  std::shared_ptr<core::ExternalBridge> bridge;
  {
    std::scoped_lock lock(mutex_);
    if (terminal(entry->state)) {
      if (error != nullptr) {
        *error = std::string("session already ") + to_string(entry->state);
      }
      return false;
    }
    entry->cancel.store(true, std::memory_order_relaxed);
    bridge = entry->bridge;
  }
  // Wake an engine parked in an ask/tell exchange: the cancel flag is
  // only polled at round boundaries, which an external session may never
  // reach on its own.  Outside mutex_ — bridge calls take the bridge
  // lock, whose journal flush re-enters the manager.
  if (bridge != nullptr) bridge->request_cancel();
  // Tombstone the explicit cancel so a daemon restart keeps the session
  // cancelled instead of resuming it (graceful shutdown, by contrast,
  // leaves no tombstone — its sessions resume).  Written outside the
  // manager lock: tombstone creation is idempotent and nothing else
  // races it, so the fleet need not stall behind this disk write.  A
  // tombstone that cannot be written surfaces: a restart would resume
  // the session the client cancelled.
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

void SessionManager::fill_bridge_status(
    SessionStatus& status,
    const std::shared_ptr<core::ExternalBridge>& bridge) const {
  if (bridge == nullptr) return;
  const std::uint64_t now = now_tick_.load(std::memory_order_relaxed);
  status.pending = bridge->pending();
  status.leased = bridge->leased(now);
}

std::optional<SessionStatus> SessionManager::status(std::uint64_t id) {
  std::string ignored;
  const auto entry = find_or_rehydrate(id, &ignored);
  if (entry == nullptr) return std::nullopt;
  SessionStatus s;
  std::shared_ptr<core::ExternalBridge> bridge;
  {
    std::scoped_lock lock(mutex_);
    s = status_of(*entry);
    bridge = entry->bridge;
  }
  fill_bridge_status(s, bridge);
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
  s.slots = options_.slots == 0 ? options_.max_live : options_.slots;
  s.reclaimed = reclaimed_;
  s.evicted = evicted_done_ + evicted_cancelled_;
  return s;
}

ServiceStatus SessionManager::recount_status() const {
  std::scoped_lock lock(mutex_);
  ServiceStatus s;
  for (const auto& [id, entry] : sessions_) {
    switch (entry->state) {
      case SessionState::kQueued:
        ++s.queued;
        break;
      case SessionState::kRunning:
        ++s.running;
        break;
      case SessionState::kDone:
        ++s.done;
        break;
      case SessionState::kCancelled:
        ++s.cancelled;
        break;
      case SessionState::kFailed:
        ++s.failed;
        break;
    }
  }
  // The incremental counters are lifetime counts; evicted terminal
  // sessions left the map without decrementing them, so the scan twin
  // adds the eviction ledger back before comparing.
  s.done += evicted_done_;
  s.cancelled += evicted_cancelled_;
  s.accepting = accepting_;
  s.max_live = options_.max_live;
  s.max_pending = options_.max_pending;
  s.slots = options_.slots == 0 ? options_.max_live : options_.slots;
  s.reclaimed = reclaimed_;
  s.evicted = evicted_done_ + evicted_cancelled_;
  return s;
}

std::vector<SessionStatus> SessionManager::list_sessions() const {
  std::vector<SessionStatus> out;
  std::vector<std::shared_ptr<core::ExternalBridge>> bridges;
  {
    std::scoped_lock lock(mutex_);
    out.reserve(sessions_.size());
    bridges.reserve(sessions_.size());
    // std::map iteration: ascending id order by construction.
    for (const auto& [id, entry] : sessions_) {
      out.push_back(status_of(*entry));
      bridges.push_back(entry->bridge);
    }
  }
  // Bridge gauges read outside mutex_ (lock order: bridge → manager).
  for (std::size_t i = 0; i < out.size(); ++i) {
    fill_bridge_status(out[i], bridges[i]);
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
  try {
    if (load_session_file(journal_path(id), state,
                          core::LoadMode::kRecover)) {
      core::canonicalize_journal(state);
    }
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("journal unreadable: ") + e.what();
    }
    return nullptr;
  }
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->spec = spec;
  entry->spec.checkpoint_path = journal_path(id);
  entry->spec.sync = options_.sync;
  entry->state = evicted_state;
  entry->progress = core::progress_of(state);
  entry->terminal_tick = now_tick_.load(std::memory_order_relaxed);
  {
    std::scoped_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) return it->second;  // raced another verb
    // Back in the map: reverse the eviction bookkeeping.  The lifetime
    // counters were never decremented, so nothing to re-add.
    evicted_.erase(id);
    if (evicted_state == SessionState::kDone) {
      --evicted_done_;
    } else {
      --evicted_cancelled_;
    }
    sessions_[id] = entry;
  }
  obs::count("service.sessions.rehydrated");
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
  obs::set_gauge("runtime.service.pool.busy",
                 static_cast<double>(pool_.size() - pool_.idle_workers()));
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
  std::size_t evaluations = 0;
  {
    const auto entry = find_or_rehydrate(id, &result.error);
    if (entry == nullptr) return result;
    std::scoped_lock lock(mutex_);
    evaluations = entry->progress.evaluations;
  }
  // The journal is already flushed after every evaluation; the verb adds
  // the durability barrier (fsync file + directory) that the default
  // SyncPolicy::kNone skips.
  const std::string path = journal_path(id);
  sync_path(path);
  sync_path(spec_path(id));
  sync_path(options_.root);
  result.ok = true;
  result.journal_path = path;
  result.evaluations = evaluations;
  return result;
}

SessionManager::ObserveResult SessionManager::observe(
    std::uint64_t id, std::uint64_t from, std::uint64_t limit) {
  ObserveResult result;
  if (find_or_rehydrate(id, &result.error) == nullptr) return result;
  core::SessionCheckpoint state;
  try {
    if (load_session_file(journal_path(id), state,
                          core::LoadMode::kRecover)) {
      core::canonicalize_journal(state);
    }
  } catch (const std::exception& e) {
    // A corrupt journal must not take the daemon down with the request.
    result.error = std::string("journal unreadable: ") + e.what();
    return result;
  }
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
  // The bridge pointer is written once before the entry is published and
  // never reassigned, so it is safe to read without mutex_.
  const auto bridge = entry->bridge;
  if (bridge == nullptr) {
    // Rehydrated terminal session: nothing will ever be pending again.
    result.ok = true;
    return result;
  }
  const std::uint64_t now = now_tick_.load(std::memory_order_relaxed);
  result.grants = bridge->lease(std::max<std::size_t>(1, max_count), now,
                                options_.lease_timeout_ticks);
  result.pending = bridge->pending();
  result.leased = bridge->leased(now);
  result.ok = true;
  for (std::size_t i = 0; i < result.grants.size(); ++i) {
    obs::count("service.leases.granted");
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
  const auto bridge = entry->bridge;
  core::ExternalBridge::TellResult verdict;
  if (bridge != nullptr) {
    verdict = bridge->tell(index, observation);
    if (verdict.verdict == core::TellVerdict::kAccepted &&
        chaos::fail(chaos::Site::kObserveDelivery)) {
      obs::count("service.observe.chaos_duplicated");
      bridge->tell(index, observation);
    }
  } else {
    // Evicted-then-rehydrated terminal session: the bridge is gone, but
    // the journaled ack ledger still answers late executor retries
    // truthfully.
    core::SessionCheckpoint state;
    try {
      load_session_file(journal_path(id), state, core::LoadMode::kRecover);
      core::canonicalize_journal(state);
    } catch (const std::exception& e) {
      result.error = std::string("journal unreadable: ") + e.what();
      return result;
    }
    verdict.verdict = core::TellVerdict::kUnknown;
    for (const auto& ack : state.observe_acks) {
      if (ack.index != index) continue;
      verdict.recorded = {ack.value_s, ack.cost_s, ack.status};
      verdict.verdict = core::same_observation(verdict.recorded, observation)
                            ? core::TellVerdict::kDuplicate
                            : core::TellVerdict::kConflict;
      break;
    }
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
  std::vector<std::pair<std::shared_ptr<Entry>,
                        std::shared_ptr<core::ExternalBridge>>>
      live;
  {
    std::scoped_lock lock(mutex_);
    for (const auto& [id, entry] : sessions_) {
      if (entry->bridge != nullptr && !terminal(entry->state)) {
        live.emplace_back(entry, entry->bridge);
      }
    }
  }
  std::size_t reclaimed = 0;
  for (const auto& [entry, bridge] : live) {
    const auto expiries = bridge->reap(now);
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
  }
  if (reclaimed != 0) {
    std::scoped_lock lock(mutex_);
    reclaimed_ += reclaimed;
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
      if (e.state == SessionState::kDone) {
        ++evicted_done_;
      } else {
        ++evicted_cancelled_;
      }
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
      auto entry = std::make_shared<Entry>();
      entry->id = id;
      entry->spec = spec;
      entry->spec.checkpoint_path = journal_path(id);
      entry->spec.sync = options_.sync;
      entry->state =
          tombstoned ? SessionState::kCancelled : SessionState::kDone;
      entry->terminal_tick = now_tick_.load(std::memory_order_relaxed);
      entry->progress = core::progress_of(state);
      {
        std::scoped_lock lock(mutex_);
        sessions_[id] = entry;
        next_id_ = std::max(next_id_, id + 1);
        if (tombstoned) {
          ++cancelled_;
        } else {
          ++done_;
        }
        sample_gauges_locked();
      }
      events_.emit(id, tombstoned ? "recovery.cancelled"
                                  : "recovery.completed");
      if (tombstoned) {
        ++recovery.cancelled;
      } else {
        ++recovery.completed;
      }
      continue;
    }
    // Incomplete: re-admit with resume+recover so the journal prefix
    // replays and the session continues exactly where it died.
    // Re-admission bypasses the max_pending backpressure check (the
    // pre-crash fleet was already admitted), so a rejection here is an
    // operational failure — shutdown racing recovery, an unwritable
    // root — never evidence of corruption.  Quarantine is reserved for
    // corrupt files; a healthy session that cannot be re-admitted keeps
    // its spec and journal in place and is reported instead.
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
  for (const std::string& path :
       {spec_path(id), journal_path(id), tombstone_path(id)}) {
    if (!fs::exists(path, ec)) continue;
    const std::string target =
        dir + "/" + fs::path(path).filename().string();
    fs::rename(path, target, ec);
    if (!ec) recovery.quarantined_files.push_back(target);
  }
  ++recovery.quarantined;
  obs::count("service.sessions.quarantined");
  std::string moved;
  for (const std::string& target : recovery.quarantined_files) {
    if (fs::path(target).string().find("session-" + std::to_string(id) +
                                       ".") == std::string::npos) {
      continue;
    }
    if (!moved.empty()) moved += " ";
    moved += fs::path(target).filename().string();
  }
  events_.emit(id, "recovery.quarantined", moved);
}

void SessionManager::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  terminal_cv_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

void SessionManager::shutdown(bool cancel_live) {
  std::vector<std::shared_ptr<core::ExternalBridge>> to_wake;
  {
    std::scoped_lock lock(mutex_);
    accepting_ = false;
    if (cancel_live) {
      cancel_all_ = true;
      for (const auto& [id, entry] : sessions_) {
        if (!terminal(entry->state)) {
          entry->cancel.store(true, std::memory_order_relaxed);
          if (entry->bridge != nullptr) to_wake.push_back(entry->bridge);
        }
      }
    }
  }
  // Outside mutex_ (lock order: bridge → manager).  Engines parked in an
  // ask/tell exchange never reach a round boundary on their own, so the
  // cancel sweep must wake them explicitly.
  for (const auto& bridge : to_wake) bridge->request_cancel();
  drain();
  // Runner threads decrement the terminal counters just before they
  // unwind, so drain() can return a beat ahead of thread exit — join
  // picks up the tail.  Safe to run twice (destructor after an explicit
  // shutdown): the vector was swapped out the first time.
  std::vector<std::thread> runners;
  {
    std::scoped_lock lock(mutex_);
    runners.swap(external_threads_);
  }
  for (std::thread& runner : runners) {
    if (runner.joinable()) runner.join();
  }
}

}  // namespace robotune::service
