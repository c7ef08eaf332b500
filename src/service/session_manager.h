// Tuning-as-a-service: a SessionManager owns a fleet of concurrent
// tuning sessions (DESIGN.md §13).
//
// Each admitted session is the full stack core::SessionFactory assembles
// for `robotune_cli`, fully independent of its neighbours (no shared
// selection cache or memo buffer): a hosted session with spec S writes
// the journal `robotune_cli` writes for S, byte for byte, whatever runs
// beside it and however many workers step it.
//
// Sessions are step machines the manager schedules — core::Session's
// begin/step/finish, the code Session::run loops over: a start step
// (checkpoint, parameter selection, engine start), one step per round,
// and a finish step (canonical journal re-flush, memo store).  No thread
// ever waits inside a session.
//
// Internal sessions: at most `max_live` are live; up to `max_pending`
// more wait FIFO, and further starts are rejected (backpressure).  Every
// step is one task on a pool of `slots` workers and a session re-queues
// at the tail after each round, so the pool's FIFO queue rotates the CPU
// round-robin among runnable sessions.  That re-orders wall-clock time
// only, never results or journal bytes.
//
// Ask/tell sessions (spec mode=external, DESIGN.md §16): `ask` leases
// suggestions with tick deadlines, `tell` accepts observations
// idempotently, and `tick()` (Server::set_tick; a virtual clock in
// tests) reaps abandoned leases.  A round step publishes its suggestions
// and returns; the session then holds no thread until the tell that
// resolves the round, or a cancel, queues its next step on `max_live`
// ask/tell workers of their own (created at the first ask/tell
// admission).  An idle lease never starves internal sessions.
//
// Durability: `<root>/session-<id>.journal` and `.spec` per session.
// recover_fleet() rebuilds the fleet after a crash: complete sessions
// are re-registered as done, incomplete ones re-admitted with
// resume+recover (bypassing max_pending: they were admitted before), and
// a session corrupt beyond recovery is quarantined into
// `<root>/quarantine/`.  Quarantine is strictly a corruption verdict; an
// operational re-admission failure keeps the files and is reported.
//
// Terminal-TTL eviction: with terminal_ttl_ticks set, done/cancelled
// sessions leave the in-memory map after the TTL (their files stay and
// any later verb re-hydrates them), so resident state tracks the live
// fleet.  Failed sessions stay: their error exists only in memory.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/external.h"
#include "core/persistence.h"
#include "core/session.h"
#include "service/events.h"
#include "service/protocol.h"

namespace robotune::service {

struct ServiceOptions {
  /// Directory holding per-session spec/journal files (created if
  /// missing).  Required.
  std::string root;
  /// Internal sessions live at once, and the ask/tell workers: at most
  /// this many ask/tell sessions compute (propose a round) at once.
  std::size_t max_live = 2;
  /// Admitted-but-not-yet-running sessions tolerated before start
  /// requests are rejected with "queue full".
  std::size_t max_pending = 8;
  /// Workers stepping internal sessions, capped at max_live; 0 = max_live.
  /// 1 = strict round-robin time slicing.
  std::size_t slots = 0;
  /// Service seed: session seeds are derived from (this, session id)
  /// when a start request asks for derivation.
  std::uint64_t seed = 2024;
  /// Journal durability for every hosted session.
  core::SyncPolicy sync = core::SyncPolicy::kNone;
  /// Fleet event journal path (DESIGN.md §14); empty = no event
  /// journal.  A durability/ops artifact like the session journals,
  /// not instrumentation.
  std::string events_path;
  /// Event journal rotation threshold; rotated files are kept as
  /// EventJournal::Options::keep says.
  std::size_t events_max_bytes = 256 * 1024;
  /// Ask/tell lease lifetime in virtual-clock ticks: a leased suggestion
  /// not observed within this many tick() calls is reclaimed back to the
  /// pending pool.  The daemon drives tick() once per second, so the
  /// default is roughly one minute of executor silence.
  std::uint64_t lease_timeout_ticks = 60;
  /// Ticks a done/cancelled session stays resident after reaching its
  /// terminal state before tick() evicts it from the in-memory map
  /// (spec and journal stay on disk; verbs re-hydrate on demand).
  /// 0 = never evict.
  std::uint64_t terminal_ttl_ticks = 0;
};

enum class SessionState { kQueued, kRunning, kDone, kCancelled, kFailed };

const char* to_string(SessionState state) noexcept;

/// Point-in-time snapshot of one session.
struct SessionStatus {
  std::uint64_t id = 0;
  SessionState state = SessionState::kQueued;
  core::SessionSpec spec;
  std::size_t evaluations = 0;
  double best_value_s = 0.0;  ///< +inf until a successful evaluation
  std::vector<double> best_unit;
  bool resumed = false;           ///< journal prefix replayed at start
  std::size_t replayed = 0;
  bool journal_recovered = false;  ///< recover mode dropped a torn tail
  std::string error;               ///< kFailed: why
  /// Wall-clock milliseconds the session spent admitted-but-queued
  /// before its first run (0 while still queued; scheduling-dependent).
  double queue_wait_ms = 0.0;
  // ---- ask/tell sessions only -------------------------------------------
  bool external = false;      ///< spec mode=external
  std::size_t pending = 0;    ///< undelivered suggestions this round
  std::size_t leased = 0;     ///< of those, out on a live lease
  std::uint64_t reclaimed = 0;  ///< leases the reaper expired (lifetime)
};

/// Fleet-wide counters.
struct ServiceStatus {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  bool accepting = true;
  std::size_t max_live = 0;
  std::size_t max_pending = 0;
  std::size_t slots = 0;
  /// Leases the reaper expired back to the pending pool, fleet-wide.
  std::uint64_t reclaimed = 0;
  /// Terminal sessions currently evicted from the in-memory map.  The
  /// state counters above are lifetime counts and include them; the
  /// recount twin scans resident entries and adds this back.
  std::size_t evicted = 0;
};

/// What recover_fleet() found on disk.
struct FleetRecovery {
  std::size_t readmitted = 0;   ///< incomplete sessions resumed
  std::size_t completed = 0;    ///< finished sessions re-registered
  std::size_t cancelled = 0;    ///< tombstoned sessions kept terminal
  std::size_t quarantined = 0;  ///< corrupt sessions moved aside
  /// Intact sessions re-admission failed on (shutdown racing recovery,
  /// unwritable root, ...).  Their files stay in place — operational
  /// failure is not corruption, so they are never quarantined.
  std::size_t failed = 0;
  std::vector<std::string> quarantined_files;
  std::vector<std::string> errors;  ///< one line per failed session
};

class SessionManager {
 public:
  explicit SessionManager(ServiceOptions options);
  /// Cancels everything still live and drains before destruction.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  struct StartResult {
    bool admitted = false;
    std::uint64_t id = 0;
    std::string error;
  };
  /// Admits a session (backpressure-rejects when the pending queue is
  /// full).  `derive_seed` replaces spec.seed with a seed derived from
  /// (service seed, session id) — the daemon's seeding discipline.
  StartResult start(core::SessionSpec spec, bool derive_seed = false);

  /// Requests cooperative cancellation; the session stops at its next
  /// round boundary with a resumable journal (an ask/tell session waiting
  /// for tells stops at once).  False: no such session.
  bool cancel(std::uint64_t id, std::string* error = nullptr);

  std::optional<SessionStatus> status(std::uint64_t id);
  /// O(1): served from incrementally maintained state counters — never
  /// a scan over the registered sessions (ROADMAP 5).
  ServiceStatus service_status() const;
  /// O(n) verification twin of service_status(): recomputes the counts
  /// by scanning every registered session.  For tests asserting the
  /// incremental counters never drift; not for the hot path.
  ServiceStatus recount_status() const;
  /// Snapshot of every registered session, ascending id order (the
  /// `metrics` verb's per-session records).
  std::vector<SessionStatus> list_sessions() const;

  struct SuggestResult {
    bool ok = false;
    std::string error;
    std::size_t evaluations = 0;
    double best_value_s = 0.0;
    std::vector<double> best_unit;
  };
  /// Current incumbent: the best successfully evaluated configuration.
  SuggestResult suggest(std::uint64_t id);

  struct CheckpointResult {
    bool ok = false;
    std::string error;
    std::string journal_path;
    std::size_t evaluations = 0;
  };
  /// Durability barrier: fsyncs the session's journal (and the service
  /// root) so everything journaled so far survives power loss.
  CheckpointResult checkpoint(std::uint64_t id);

  struct ObserveResult {
    bool ok = false;
    std::string error;
    std::size_t total = 0;  ///< canonical journal length
    std::vector<core::EvalRecord> records;
  };
  /// Reads the session's journaled evaluations [from, from+limit).
  ObserveResult observe(std::uint64_t id, std::uint64_t from,
                        std::uint64_t limit = 0);

  struct AskResult {
    bool ok = false;
    std::string error;
    std::vector<core::LeaseGrant> grants;
    std::size_t pending = 0;  ///< undelivered suggestions after granting
    std::size_t leased = 0;   ///< of those, out on a live lease
  };
  /// Ask/tell sessions only: leases up to max(1, max_count) pending
  /// suggestions to the caller.  Between rounds (or once the session is
  /// terminal) the grant list is empty with ok=true — poll status to
  /// distinguish "thinking" from "done".
  AskResult ask(std::uint64_t id, std::size_t max_count);

  struct TellResult {
    bool ok = false;
    std::string error;
    core::TellVerdict verdict = core::TellVerdict::kUnknown;
    core::ExternalObservation recorded;  ///< accepted/duplicate/conflict
  };
  /// Ask/tell sessions only: delivers an externally observed
  /// (value, cost, status) tuple for eval `index`.  Idempotent — an
  /// exact re-delivery acks with kDuplicate and the recorded tuple, a
  /// conflicting one is rejected with kConflict (ok=false).  Works
  /// against the journaled ack ledger even after the session finished
  /// and was evicted, so late executor retries always get a truthful
  /// answer.
  TellResult tell(std::uint64_t id, std::uint64_t index,
                  const core::ExternalObservation& obs);

  /// Advances the virtual clock one tick and runs the periodic sweeps:
  /// the lease reaper (expired leases return to the pending pool with a
  /// journaled lease_expired record) and terminal-TTL eviction.  The
  /// daemon wires this into Server::set_tick; tests call it directly —
  /// the clock only moves when someone drives it, which is what makes
  /// deadline tests deterministic.  Returns the leases reclaimed.
  std::size_t tick();
  std::uint64_t now_tick() const noexcept {
    return now_tick_.load(std::memory_order_relaxed);
  }

  /// Sessions currently resident in the in-memory map (the eviction
  /// regression's measure; list_sessions() reports exactly these).
  std::size_t resident_sessions() const;

  /// Rebuilds the fleet from the service root after a restart.  Must be
  /// called before serving requests (not thread-safe against start()).
  FleetRecovery recover_fleet();

  /// Blocks until every admitted session reaches a terminal state.
  void drain();
  /// Stops admissions, optionally cancels live sessions, and drains.
  void shutdown(bool cancel_live = true);

  const ServiceOptions& options() const noexcept { return options_; }
  std::string journal_path(std::uint64_t id) const;
  std::string spec_path(std::uint64_t id) const;

  /// The fleet event journal (disabled unless options.events_path is
  /// set).  Exposed so the server/daemon can emit transport-level
  /// events (client connects, protocol errors) into the same stream.
  EventJournal& events() noexcept { return events_; }
  /// Non-empty when options.events_path was set but could not be
  /// opened (the manager keeps serving; the operator should know).
  const std::string& events_error() const noexcept { return events_error_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    core::SessionSpec spec;
    SessionState state = SessionState::kQueued;
    std::atomic<bool> cancel{false};
    core::SessionProgress progress;
    bool resumed = false;
    std::size_t replayed = 0;
    bool journal_recovered = false;
    std::string error;
    std::chrono::steady_clock::time_point enqueued_at;
    double queue_wait_ms = 0.0;
    /// Non-null for ask/tell sessions: set before the entry is published
    /// (so read without mutex_) and kept after the session turns
    /// terminal, so late duplicate observes still ack idempotently.
    std::shared_ptr<core::ExternalBridge> bridge;
    /// From the start step to the finish step; only its steps touch it.
    std::unique_ptr<core::Session> session;
    /// False only while an ask/tell session waits for tells (no step
    /// queued, running, or waiting for a live slot).
    bool stepping = false;
    bool rewake = false;  ///< woken while stepping: step again after
    /// tick() value when the session turned terminal (eviction clock).
    std::uint64_t terminal_tick = 0;
    std::uint64_t reclaimed = 0;  ///< leases the reaper expired
  };

  StartResult admit(core::SessionSpec spec, bool derive_seed,
                    std::uint64_t fixed_id);
  /// One step (the start step first); then re-queue, park or finish.
  void run_step(const std::shared_ptr<Entry>& entry);
  /// False when the session turned terminal instead of starting.
  bool start_session(const std::shared_ptr<Entry>& entry);
  void finish_session(const std::shared_ptr<Entry>& entry,
                      core::SessionOutcome outcome);
  // The *_locked helpers run under mutex_.
  void submit_step_locked(const std::shared_ptr<Entry>& entry);
  /// Steps a parked ask/tell session, or marks a stepping one to rewake.
  void wake_locked(const std::shared_ptr<Entry>& entry);
  /// An internal session left the live set: start the next waiting one.
  void release_live_locked(const Entry& entry);
  /// Looks the id up in the resident map, re-hydrating an evicted
  /// terminal session from its on-disk spec/journal if necessary.  Null
  /// (with `error` set) for ids that were never admitted or whose files
  /// turned unreadable.
  std::shared_ptr<Entry> find_or_rehydrate(std::uint64_t id,
                                           std::string* error);
  /// Loads the session's journal (recover mode) in canonical order; a
  /// missing journal is empty.  False, with `error` set, when corrupt.
  bool load_journal(std::uint64_t id, core::SessionCheckpoint& state,
                    std::string* error) const;
  /// The entry of a session that is terminal on disk.
  std::shared_ptr<Entry> terminal_entry(std::uint64_t id,
                                        const core::SessionSpec& spec,
                                        const core::SessionCheckpoint& state,
                                        SessionState terminal_state);
  static SessionStatus status_of(const Entry& entry);
  /// Fills SessionStatus::pending/leased from the bridge.  Takes the
  /// bridge mutex, so it must be called WITHOUT mutex_ held (the
  /// bridge's journal flush re-enters the manager via the progress
  /// callback — lock order is bridge → manager, never the reverse).
  void fill_bridge_status(SessionStatus& status, const Entry& entry) const;
  /// Re-samples the fleet gauges (queue depth, live/terminal counts,
  /// pool occupancy) — called at every state transition, under mutex_.
  void sample_gauges_locked();
  std::string tombstone_path(std::uint64_t id) const;
  void quarantine(std::uint64_t id, FleetRecovery& recovery);

  ServiceOptions options_;
  EventJournal events_;
  std::string events_error_;
  mutable std::mutex mutex_;
  std::condition_variable terminal_cv_;
  std::map<std::uint64_t, std::shared_ptr<Entry>> sessions_;
  std::uint64_t next_id_ = 1;
  // Incrementally maintained state counts (ROADMAP 5): every transition
  // updates these under mutex_, so service_status() is O(1) instead of
  // scanning sessions_.  recount_status() is the O(n) verification twin.
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  std::size_t done_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t failed_ = 0;
  bool accepting_ = true;
  /// Set by a cancelling shutdown so an admit() that reserved its slot
  /// before the sweep still sees the cancel when it inserts its entry.
  bool cancel_all_ = false;
  std::size_t live_internal_ = 0;  ///< internal sessions started, not done
  /// Internal sessions admitted while max_live were live, FIFO.
  std::deque<std::shared_ptr<Entry>> waiting_;
  /// Virtual clock: advanced only by tick(), never by wall time.
  std::atomic<std::uint64_t> now_tick_{0};
  std::uint64_t reclaimed_ = 0;  ///< fleet-wide reaper expiries
  /// Eviction ledger: terminal state of every session tick() evicted
  /// from sessions_, so find_or_rehydrate() re-admits exactly the ids
  /// the manager once owned (a few bytes per evicted session, vs. the
  /// full Entry with its spec strings and incumbent vector).
  std::map<std::uint64_t, SessionState> evicted_;
  std::size_t evicted_done_ = 0;
  std::size_t evicted_cancelled_ = 0;
  // The step pools come last, so they are destroyed (their workers
  // joined) before any state a step touches.
  ThreadPool step_pool_;  ///< internal sessions: `slots` workers
  std::unique_ptr<ThreadPool> external_pool_;  ///< ask/tell: max_live
};

/// Shared request dispatcher: the in-process LocalClient and the socket
/// server both route through this, so tests on the local path cover the
/// daemon's behavior too.
Response dispatch_request(SessionManager& manager, const Request& request,
                          std::atomic<bool>* shutdown_flag = nullptr);

}  // namespace robotune::service
