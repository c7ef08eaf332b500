// Ask/tell bridge for external-mode sessions (DESIGN.md §16).
//
// An external session proposes configurations but never runs them: an
// outside executor (a Spark cluster, a benchmark harness, a human)
// leases suggestions, measures them on its own schedule, and reports
// `(value, cost, status)` tuples back — crashing, retrying and
// duplicating messages as it goes.  The bridge is the lease ledger that
// keeps the deterministic engine safe from that:
//
//   - the ENGINE side publishes a round (`publish`) and returns; once
//     the round is resolved, its next step takes the observations
//     (`collect`).  No thread waits on the bridge.
//   - the SERVICE side leases suggestions under monotonic ids with tick
//     deadlines (`lease`), accepts observations idempotently (`tell`:
//     a re-send returns the recorded ack, a conflict is rejected, and
//     the delivery that resolves the round says so), and expires
//     abandoned leases back to the pending pool (`reap`).
//
// Every ledger transition is journaled (suggest / observe_ack /
// lease_expired records) *before* clients can observe it, so a kill -9
// at any instant restarts into exactly the same pending set.
//
// Concurrency: service calls mutate the SessionLog only while a
// published round has an undelivered suggestion; the engine touches it
// only before publishing and after the round resolves or the bridge is
// closed.  One internal mutex guards the bridge; callers must NOT hold
// their own locks across bridge calls (the bridge flushes the journal).
#pragma once

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
  kAccepted,   ///< first delivery: recorded and journaled
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
    /// This delivery resolved the round: the host schedules the
    /// engine's next step.  True for exactly one tell per round.
    bool resolved = false;
  };

  // ---- engine side ------------------------------------------------

  /// Attaches the session journal (nullable for in-memory ask/tell)
  /// and restores its ledger.  Called once, by the engine, before the
  /// first publish.
  void bind(SessionLog* log);

  /// Restores the ledger a journal holds: the idempotency map from
  /// observe_ack records and the next lease id from the largest id ever
  /// journaled.  A closed bridge restored from a finished session's
  /// journal answers late retries without the session.
  void restore(const SessionCheckpoint& state);

  /// Publishes one round of proposals (canonical indices first_index,
  /// first_index+1, ...).  Suggestions are journaled before they become
  /// leasable.  Returns true when the round is resolved already (every
  /// point was acked before a restart); otherwise exactly one later
  /// tell reports `resolved`.
  bool publish(const std::vector<std::vector<double>>& points,
               std::uint64_t first_index);

  /// Takes the resolved round's observations in point order and retires
  /// the round.  False, with nothing taken, while a point is
  /// undelivered or after close().
  bool collect(std::vector<ExternalObservation>& out);

  /// Marks the session terminal: lease() stops granting and tell()
  /// answers only from the recorded-ack ledger.  An unresolved round
  /// stays journaled, so a resume re-enters it.  Called by the session
  /// host before its final journal write.
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
  SuggestRecord* find_suggest(std::uint64_t index);  ///< null if no log
  bool all_delivered() const;

  mutable std::mutex mu_;
  SessionLog* log_ = nullptr;
  std::vector<Slot> round_;
  bool round_active_ = false;
  std::uint64_t next_lease_ = 1;
  /// Every observation ever accepted, by eval index — the idempotency
  /// ledger `tell` consults before treating a delivery as new.
  std::unordered_map<std::uint64_t, ExternalObservation> acks_;
};

}  // namespace robotune::core
