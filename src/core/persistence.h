// Disk persistence for ROBOTune's memoized state and for in-flight
// tuning-session checkpoints.
//
// The paper's memoized sampling (§3.2) reuses knowledge "from prior
// sessions"; for a deployed tuner those sessions span process lifetimes,
// so the parameter-selection cache and the configuration memoization
// buffer can be saved to and restored from a plain-text file.
//
// Format (line oriented, whitespace separated, '#' comments):
//   robotune-state v1
//   selection <workload> <n> <idx...>
//   memo <workload> <value_s> <dim> <unit...>
//
// Session checkpoints make the tuning loop itself restartable: the BO
// engine journals every completed evaluation, and a session killed
// mid-budget resumes from the journal with an identical continuation —
// replayed evaluations rebuild the guard, surrogate, and RNG state
// deterministically instead of re-running the cluster.
//
// Checkpoint format (v3, crash-safe).  The first line is the bare
// header; every following line is a *framed record*:
//
//   robotune-session v3
//   <crc32:8 lowercase hex> <len:decimal payload bytes> <payload>
//
// where the CRC covers exactly the payload bytes (common/frame.h).
// Payloads are the familiar line records:
//   meta <seed> <budget> <workload>
//   seeding sequential|indexed
//   selected <n> <idx...>
//   selection-cost <seconds>
//   memo <value_s> <dim> <unit...>
//   eval <index> <status> <value_s> <cost_s> <stopped> <transient>
//        <attempts> <dim> <unit...>
//   degrade <iter> <rung>
//   racing <signature>
//   kill <index> <reason>
//   mode external
//   suggest <index> <lease> <dim> <unit...>
//   observe_ack <index> <status> <value_s> <cost_s>
//   lease_expired <index> <lease>
//
// `seeding` is `indexed` in every journal this release writes (each
// evaluation's stream derives from the session seed and its index);
// `sequential` survives only in older detached-mode journals, which
// resume refuses once they hold an evaluation.  Older releases also
// wrote a `selection-draws <n>` record; the reader parses and discards it.
//
// `racing` (emitted only when a racing policy was active — racing-off
// journals stay byte-identical to pre-racing releases) pins the racing
// signature so resume can refuse a cross-mode restart; `kill` records a
// mid-flight racing/deadline kill of evaluation <index> with its reason
// ("deadline", "median-rule", "halving-rung").
//
// The last four kinds exist only for ask/tell sessions (DESIGN.md §16)
// and are emitted only when `mode=external` — internal-mode journals
// stay byte-identical to pre-external releases.  `mode external` pins
// the session mode so resume refuses a cross-mode restart; `suggest`
// journals a proposed-but-unresolved configuration (with the
// last-issued lease id, 0 if never leased — lease deadlines are
// daemon-tick-relative and deliberately NOT persisted: a restart voids
// every outstanding lease); `observe_ack` records an accepted external
// observation so a re-delivered observe after a crash acks
// idempotently; `lease_expired` is the reaper's audit trail.
//
// The framing makes a torn write (power loss mid-checkpoint) or a bit
// flip detectable at load time (read_framed below): in LoadMode::kRecover
// the loader truncates at the first bad line — a bad frame, a final line
// without its '\n', or a well-framed record that does not parse — and
// returns the longest valid record prefix instead of throwing;
// LoadMode::kStrict throws on it.  Any other header (including the
// unframed v1/v2 formats nothing writes anymore), a torn header and an
// empty file are not a journal: strict loads throw, recover loads keep
// nothing and report version 0.
//
// A parallel session journals evaluations in *completion* order, which
// under concurrency is not index order and can have holes after a crash
// (eval 7 finished, eval 6 was in flight).  canonicalize_journal sorts
// the records into index order and truncates at the first gap, restoring
// the contiguous prefix that replay needs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/memoization.h"
#include "sparksim/engine.h"

namespace robotune::core {

/// One journaled evaluation of a checkpointed session.
struct EvalRecord {
  /// Canonical (session-wide, 0-based) evaluation index.  Sequential
  /// sessions journal in index order; parallel sessions journal in
  /// completion order and rely on this field to replay canonically.
  std::uint64_t index = 0;
  std::vector<double> unit;  ///< full-space unit vector evaluated
  double value_s = 0.0;
  double cost_s = 0.0;
  sparksim::RunStatus status = sparksim::RunStatus::kOk;
  bool stopped_early = false;
  bool transient = false;
  /// Simulator attempts (= seed draws) the evaluation consumed.
  int attempts = 1;
};

/// One rung of the degradation ladder (DESIGN.md §11) taken during the
/// session: which BO iteration degraded and how.  Journaled so a degraded
/// session is auditable and byte-reproducible; never replayed into model
/// state (the resumed engine re-derives the same rungs deterministically).
struct DegradeEvent {
  std::uint64_t iter = 0;
  std::string rung;  ///< e.g. "gp_refit", "gp_noise_inflate", "gp_skip"
};

/// One racing/deadline kill taken during the session: which evaluation
/// the racer stopped mid-flight and why.  Unlike degrade events, kill
/// events are KEPT on resume: they belong to journaled evaluations,
/// which replay from the journal instead of re-running, so the events
/// would otherwise be lost.  canonicalize_journal prunes events whose
/// evaluation fell past the replayable prefix.
struct KillEvent {
  std::uint64_t index = 0;  ///< canonical eval index the racer killed
  sparksim::KillReason reason = sparksim::KillReason::kNone;
};

/// One proposed-but-unresolved configuration of an ask/tell session
/// (DESIGN.md §16).  Journaled when the engine publishes a batch so a
/// kill -9 mid-lease restarts into exactly the same pending set; pruned
/// (by the engine at flush, and by canonicalize_journal after a torn
/// write) once the matching eval record lands.
struct SuggestRecord {
  std::uint64_t index = 0;  ///< canonical eval index of the suggestion
  /// Last lease id ever issued for this suggestion (0 = never leased).
  /// Persisted only so lease ids stay monotonic across restarts; the
  /// runtime lease/deadline state itself is voided by a restart.
  std::uint64_t lease = 0;
  std::vector<double> unit;  ///< full-space unit vector proposed
};

/// One accepted external observation, journaled at tell time (before
/// the round's eval record exists) so `observe` stays idempotent across
/// daemon restarts: a re-delivered observe finds the ack and returns
/// it instead of being treated as new.  The tuple is stored exactly as
/// the client sent it (pre-funnel); a restart replays it through the
/// engine's deterministic quarantine/censoring funnel and lands on the
/// same eval record bytes.  Never pruned.
struct ObserveAck {
  std::uint64_t index = 0;
  sparksim::RunStatus status = sparksim::RunStatus::kOk;
  double value_s = 0.0;
  double cost_s = 0.0;
};

/// Reaper audit record: lease <lease> of suggestion <index> expired and
/// the suggestion returned to the pending pool.  Kept for the life of
/// the session (and consulted for lease-id monotonicity on restart).
struct LeaseExpiry {
  std::uint64_t index = 0;
  std::uint64_t lease = 0;
};

/// Everything needed to resume a killed tuning session with an identical
/// continuation.  The journal grows by one record per completed
/// evaluation; all other fields are fixed at session start.
struct SessionCheckpoint {
  std::uint64_t seed = 0;         ///< tuner seed of the session
  int budget = 0;                 ///< total evaluation budget
  std::string workload;           ///< cache key (workload kind)
  std::vector<std::size_t> selected;  ///< tuned parameter indices
  double selection_cost_s = 0.0;
  /// Memoized configurations blended into the initial design; recorded so
  /// the resumed engine regenerates the same initial sample plan.
  std::vector<MemoizedConfig> memoized;
  /// Evaluation seed-stream mode of the session.  true: each
  /// evaluation's stream was derived from (seed, eval_index) — every
  /// session this release writes.  false (`seeding sequential`): the
  /// evaluations consumed the objective's sequential stream, as the
  /// detached mode of older releases did; such a checkpoint holding
  /// evaluations is refused on resume, since its continuation would
  /// silently diverge.
  bool indexed_seeding = true;
  /// Racing signature the session ran under (exec::racing_signature).
  /// Empty means racing off; the `racing` record is only emitted when
  /// non-empty and not "off", so racing-off journals are byte-identical
  /// to releases without the racing layer.
  std::string racing_mode;
  /// True for ask/tell (`mode=external`) sessions: evaluations arrive
  /// from an external executor via suggest/observe instead of the
  /// simulator.  A checkpoint only resumes under the same mode.
  bool external = false;
  std::vector<EvalRecord> evaluations;  ///< completed-evaluation journal
  /// Pending (proposed, not yet resolved) suggestions of an external
  /// session, in index order.  Empty for internal sessions and for any
  /// external session idle between batches.
  std::vector<SuggestRecord> suggests;
  /// Accepted external observations, in acceptance order.  Never pruned:
  /// the idempotency ledger must survive both flush cycles and restarts.
  std::vector<ObserveAck> observe_acks;
  /// Reaper audit trail, in expiry order.
  std::vector<LeaseExpiry> lease_expiries;
  /// Degradation-ladder rungs taken so far, in canonical (iteration)
  /// order.  Cleared and regenerated by the engine on resume.
  std::vector<DegradeEvent> degrade_events;
  /// Racing/deadline kills taken so far.  Kept (not regenerated) on
  /// resume — see KillEvent.
  std::vector<KillEvent> kill_events;
};

/// Restores canonical order after an out-of-order (parallel) journal:
/// sorts records by eval index and truncates at the first gap or
/// duplicate, leaving the longest replayable prefix 0,1,2,...  Returns
/// the number of records dropped (0 for any sequential journal).
std::size_t canonicalize_journal(SessionCheckpoint& session);

/// Serializes both caches to a stream.  Returns the number of records.
std::size_t save_state(const ParameterSelectionCache& selection,
                       const ConfigMemoizationBuffer& memo,
                       std::ostream& out);

/// Restores both caches from a stream previously written by save_state.
/// Existing entries are kept; loaded entries overwrite/merge per workload.
/// Throws InvalidArgument on malformed input.  Returns records loaded.
std::size_t load_state(std::istream& in, ParameterSelectionCache& selection,
                       ConfigMemoizationBuffer& memo);

/// Convenience file wrappers.  Save replaces the file atomically
/// (obs::write_file_atomically) and returns false, leaving the previous
/// file, when any step fails.  Load returns false when the file cannot be
/// opened (a missing state file is not an error for a fresh install).
bool save_state_file(const ParameterSelectionCache& selection,
                     const ConfigMemoizationBuffer& memo,
                     const std::string& path);
bool load_state_file(const std::string& path,
                     ParameterSelectionCache& selection,
                     ConfigMemoizationBuffer& memo);

/// How load_session treats a torn or corrupt journal.
enum class LoadMode {
  kStrict,   ///< any bad frame / malformed record throws InvalidArgument
  kRecover,  ///< truncate at the first bad record, keep the valid prefix
};

/// What read_framed found.
struct FramedReadReport {
  bool header_ok = false;       ///< the first line was `<header>\n`
  std::size_t dropped = 0;      ///< lines from the first bad one on
  std::size_t valid_bytes = 0;  ///< header plus accepted records, in bytes
};

/// The one reader of CRC-framed files — session journals, the fleet event
/// journal and spec files: `<header>\n`, then one frame (common/frame.h)
/// per line.  Every line, the header included, must end in '\n': a final
/// line without it is a torn write.  Each payload goes to `parse`, which
/// throws InvalidArgument to reject the record.  kStrict throws
/// InvalidArgument("<what>: <source>:<line>: <why>") at the first bad
/// header, frame or record, and "<what>: <source>: empty stream" on an
/// empty stream.  kRecover never throws for bad input: it stops at the
/// first bad line and counts it and every line after it as dropped.  An
/// empty stream has no header and drops nothing; each caller decides
/// what that means.
FramedReadReport read_framed(
    std::istream& in, std::string_view header, LoadMode mode,
    std::string_view what, const std::string& source,
    const std::function<void(std::string_view payload)>& parse);

/// Durability of save_session_file.
enum class SyncPolicy {
  kNone,   ///< rely on the OS page cache (default; write-then-rename only)
  kFsync,  ///< fsync the checkpoint and its directory before returning
};

/// What a load actually did — populated by the LoadMode overloads.
struct SessionLoadReport {
  std::size_t evaluations = 0;      ///< eval records loaded
  std::size_t dropped_records = 0;  ///< journal lines discarded (recover)
  bool recovered = false;           ///< true when anything was dropped
  int version = 0;  ///< journal format version (3); 0 = unusable header
};

/// Serializes a session checkpoint (v3 framed format).  Returns the
/// journal length.
std::size_t save_session(const SessionCheckpoint& session, std::ostream& out);

/// Restores a checkpoint written by save_session.  Strict mode: throws
/// InvalidArgument on malformed input.  Returns the journal length.
std::size_t load_session(std::istream& in, SessionCheckpoint& session);

/// LoadMode-aware variant.  In kRecover, a journal with a torn or
/// bit-flipped tail loads its longest valid record prefix and never
/// throws (a corrupt header yields an empty checkpoint and version 0).
/// `source` labels error messages (file path); `report`, when non-null,
/// receives what happened.
std::size_t load_session(std::istream& in, SessionCheckpoint& session,
                         LoadMode mode, SessionLoadReport* report = nullptr,
                         const std::string& source = "<stream>");

/// File wrappers; save replaces the file atomically
/// (obs::write_file_atomically; SyncPolicy::kFsync adds
/// fsync-per-checkpoint durability) and returns false, leaving the
/// previous checkpoint, when any step fails.  Load returns false when the
/// file cannot be opened (no checkpoint yet).
bool save_session_file(const SessionCheckpoint& session,
                       const std::string& path,
                       SyncPolicy sync = SyncPolicy::kNone);
bool load_session_file(const std::string& path, SessionCheckpoint& session,
                       LoadMode mode = LoadMode::kStrict,
                       SessionLoadReport* report = nullptr);

}  // namespace robotune::core
