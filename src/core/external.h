// Ask/tell bridge for external-mode sessions (DESIGN.md §16).
//
// An external session proposes configurations but never runs them: an
// outside executor (a real Spark cluster, a benchmark harness, a human)
// leases suggestions, measures them on its own schedule, and reports
// `(value, cost, status)` tuples back.  That executor crashes, retries,
// and duplicates messages, so the bridge owns the robustness contract
// between the deterministic BO engine and the unreliable outside world:
//
//   - the ENGINE side publishes a batch with `exchange()` and blocks
//     until every point in the round is resolved (or the session is
//     cancelled);
//   - the SERVICE side hands suggestions out under monotonic lease ids
//     with tick deadlines (`lease`), accepts observations idempotently
//     (`tell` — a re-sent observe returns the recorded ack, a
//     conflicting one is rejected), and expires abandoned leases back
//     to the pending pool (`reap`).
//
// Every ledger transition is journaled through the session's
// checkpoint (suggest / observe_ack / lease_expired records) *before*
// it becomes observable to clients, so a kill -9 at any instant
// restarts into exactly the same pending set: nothing lost, nothing
// double-issued.
//
// Concurrency invariant: service calls mutate the shared SessionLog
// only while at least one suggestion in the round is undelivered —
// which is precisely while the engine is parked inside `exchange()`.
// Once the round resolves, the engine owns the log again (journals the
// eval records, prunes the resolved suggests) and service calls are
// read-only until the next round.  All bridge state is guarded by one
// internal mutex; callers must NOT hold their own locks across bridge
// calls (the bridge flushes the journal, which can be slow).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/persistence.h"
#include "tuners/tuner.h"

namespace robotune::core {

struct SessionLog;

/// One externally observed measurement for a suggested configuration,
/// exactly as the client reported it (pre-funnel).
struct ExternalObservation {
  double value_s = 0.0;
  double cost_s = 0.0;
  sparksim::RunStatus status = sparksim::RunStatus::kOk;
};

/// True when two observations are the same tuple.  Exact equality on
/// purpose: the journal and the wire round-trip doubles through %.17g
/// losslessly, so a faithful client retry compares equal even across a
/// daemon restart, while any re-measured (different) value is a
/// conflict the client must see.
bool same_observation(const ExternalObservation& a,
                      const ExternalObservation& b);

/// One leased suggestion handed to an external executor.
struct LeaseGrant {
  std::uint64_t index = 0;     ///< canonical eval index
  std::uint64_t lease = 0;     ///< monotonic lease id (never reused)
  std::uint64_t deadline = 0;  ///< tick at which the reaper reclaims it
  std::vector<double> unit;    ///< full-space unit vector to evaluate
};

/// Maps an externally reported observation onto the evaluation the
/// simulator path would have produced under the round's guard
/// `threshold`: successes at or above it are censored like a guard stop,
/// failures carry the same penalty/censoring split as sparksim's
/// objective, and non-finite values fall through to append_evaluation's
/// quarantine.  External executors report one measurement per
/// suggestion, so attempts is always 1.
tuners::Evaluation funnel_external(const std::vector<double>& unit,
                                   const ExternalObservation& o,
                                   double threshold);

/// What `tell` did with an observation.
enum class TellVerdict {
  kAccepted,   ///< first delivery: recorded, journaled, engine woken
  kDuplicate,  ///< exact re-delivery: recorded ack returned, no effect
  kConflict,   ///< same index, different tuple: rejected
  kUnknown,    ///< index never suggested (or not yet published)
};

/// Wire name: accepted|duplicate|conflict|unknown.
const char* to_string(TellVerdict verdict) noexcept;

class ExternalBridge {
 public:
  /// Outcome of `tell`; `recorded` is the ledger's tuple (the accepted
  /// or previously-recorded observation) for kAccepted/kDuplicate.
  struct TellResult {
    TellVerdict verdict = TellVerdict::kUnknown;
    ExternalObservation recorded;
  };

  // ---- engine side ------------------------------------------------

  /// Attaches the session journal (nullable for in-memory ask/tell)
  /// and restores the ledger a previous process left behind: the
  /// idempotency map from observe_ack records and the next lease id
  /// from the largest id ever journaled.  Called once, by the engine,
  /// before the first exchange.
  void bind(SessionLog* log);

  /// Publishes one round of proposals (canonical indices first_index,
  /// first_index+1, ...) and blocks until every one is resolved by
  /// `tell` (or restored acks).  Suggestions are journaled before they
  /// become leasable.  Returns false — with `out` unspecified — when
  /// the session was cancelled or closed mid-round; the round's
  /// pending entries stay journaled so a resume re-enters the same
  /// round.  On true, `out[i]` is the observation for points[i].
  bool exchange(const std::vector<std::vector<double>>& points,
                std::uint64_t first_index,
                std::vector<ExternalObservation>& out);

  /// Wakes a parked exchange and makes it (and all future exchanges)
  /// return false.  Safe from any thread.
  void request_cancel();

  /// Marks the session terminal: lease() stops granting and tell()
  /// answers only from the recorded-ack ledger.  Called by the session
  /// host after the engine returns.
  void close();

  // ---- service side -----------------------------------------------

  /// Leases up to `max_count` unleased pending suggestions of the
  /// active round, stamping each with a fresh lease id and the
  /// deadline `now + timeout_ticks`.  A suggestion already out on an
  /// unexpired-or-unreaped lease is not re-issued — the reaper is the
  /// only path back to the pool, so every reclaim is journaled.
  std::vector<LeaseGrant> lease(std::size_t max_count, std::uint64_t now,
                                std::uint64_t timeout_ticks);

  /// Delivers an observation for eval `index`.  Resolves by index
  /// regardless of lease state (a slow executor whose lease expired
  /// can still land its measurement — unless someone else already
  /// did, which is a conflict).  Accepted observations are journaled
  /// before the ack returns.
  TellResult tell(std::uint64_t index, const ExternalObservation& obs);

  /// Reaper sweep: every leased, undelivered suggestion whose deadline
  /// has arrived (now >= deadline) returns to the pending pool with a
  /// journaled lease_expired record.  Returns the reclaimed leases.
  std::vector<LeaseExpiry> reap(std::uint64_t now);

  /// Undelivered suggestions in the active round (0 between rounds).
  std::size_t pending() const;

  /// Undelivered suggestions currently out on a live lease.
  std::size_t leased(std::uint64_t now) const;

  bool closed() const;

 private:
  struct Slot {
    std::uint64_t index = 0;
    std::vector<double> unit;
    std::uint64_t lease = 0;  ///< last issued id (0 = never)
    std::uint64_t deadline = 0;
    bool leased = false;
    bool delivered = false;
    ExternalObservation obs;
  };

  // All private helpers assume mu_ is held.
  void flush_journal();
  Slot* find_slot(std::uint64_t index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  SessionLog* log_ = nullptr;
  std::vector<Slot> round_;
  bool round_active_ = false;
  bool cancel_ = false;
  bool closed_ = false;
  std::uint64_t next_lease_ = 1;
  /// Every observation ever accepted, by eval index — the idempotency
  /// ledger `tell` consults before treating a delivery as new.
  std::unordered_map<std::uint64_t, ExternalObservation> acks_;
};

}  // namespace robotune::core
