// Crash-safe structured fleet event journal (DESIGN.md §14).
//
// The daemon appends one CRC-framed JSONL record per fleet lifecycle
// event — admissions, queue transitions, session state changes,
// recovery verdicts, client connects, protocol errors — to
// `<root>/events.jsonl`:
//
//   robotune-events v1
//   <crc32:8 hex> <len> {"seq":1,"sid":3,"ts_ms":...,"kind":"admission.accept","detail":""}
//
// The framing is the wire protocol's / journal v3's `<crc32> <len>
// <payload>` line frame (common/frame.h), so the loader mirrors journal
// v3 semantics: LoadMode::kStrict throws InvalidArgument at the first
// torn or corrupt record (with file:line), LoadMode::kRecover truncates
// to the longest valid prefix and reports how many trailing lines were
// dropped — the kill -9 case.  Reopening an existing journal
// recover-loads it first, truncates any torn tail *on disk*, and
// continues the sequence from the last durable record, so a crashed
// daemon's event history stays a single monotonic stream across
// restarts.
//
// Rotation is size-based: when the current file exceeds `max_bytes`
// after an append it is renamed to `<path>.1` (shifting older rotations
// up to `<path>.keep`, dropping the oldest) and a fresh headered file
// continues the same sequence.
//
// Event taxonomy — `kind` values and their determinism class:
//
//   logical (per-session lifecycle; for a fixed request sequence the
//   per-session subsequences are byte-identical at any max_live /
//   slots / worker count — pinned by service_obs_test):
//     admission.accept   queue.enter        queue.leave
//     session.running    session.done       session.cancelled
//     session.failed     cancel.requested
//     recovery.resumed   recovery.completed recovery.cancelled
//     recovery.quarantined
//   runtime (fleet-level or timing/connection-dependent; sid may be 0):
//     admission.reject   admission.backpressure  recovery.failed
//     client.connect     client.disconnect       protocol.corrupt
//     rpc.error          daemon.start            daemon.stop
//     lease.expired      client.idle_drop
//   (lease.expired carries "eval <i> lease <l>" detail; it is runtime
//   because reaper ticks race external tells, but the *journal v3*
//   lease_expired record it mirrors is part of the session's durable
//   state — see DESIGN.md §16.  client.idle_drop is the serve loop
//   shedding a connection that never completed a frame.)
//
// logical_event_projection() extracts exactly the logical class,
// grouped by session id with global sequence numbers and timestamps
// stripped — the projection the byte-identity contract is stated over.
//
// The journal is a durability/ops artifact like the session journals:
// it is written whenever ServiceOptions::events_path is set, whether
// or not the tracer is enabled.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/persistence.h"

namespace robotune::service {

struct FleetEvent {
  std::uint64_t seq = 0;      ///< monotonic across rotation and restarts
  std::uint64_t session = 0;  ///< 0 = fleet-level
  std::int64_t ts_ms = 0;     ///< unix wall-clock milliseconds
  std::string kind;
  std::string detail;

  bool operator==(const FleetEvent&) const = default;
};

/// True for the per-session lifecycle kinds covered by the
/// byte-identity contract (see the taxonomy above).
bool logical_event_kind(std::string_view kind);

/// The deterministic projection: logical-kind events with sid != 0,
/// grouped by session id (ascending), per-session order preserved, one
/// `session <sid> <kind>` line each.  Sequence numbers and timestamps
/// are excluded — they encode global interleaving, which is
/// scheduling-dependent by nature.
std::string logical_event_projection(const std::vector<FleetEvent>& events);

class EventJournal {
 public:
  struct Options {
    std::string path;  ///< empty = journal disabled (every emit no-ops)
    std::size_t max_bytes = 256 * 1024;  ///< rotate above this size
    std::size_t keep = 3;                ///< rotated files retained
    bool fsync = false;  ///< fsync after every record (flush is always on)
  };

  struct LoadReport {
    std::size_t events = 0;
    std::size_t dropped = 0;    ///< torn/corrupt trailing lines (recover)
    bool recovered = false;     ///< recover mode dropped something
    bool header_ok = true;      ///< false: file exists but header is bad
    std::size_t valid_bytes = 0;  ///< byte length of the valid prefix
  };

  EventJournal() = default;
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Opens (creating or continuing) the journal.  An existing file with
  /// a torn tail is truncated to its valid prefix; one whose header is
  /// corrupt beyond recovery is set aside as `<path>.corrupt` and a
  /// fresh journal starts (mirroring the quarantine verdict — corrupt
  /// history is preserved, never silently overwritten).  False when the
  /// path cannot be opened for appending.
  bool open(const Options& options, std::string* error = nullptr);
  void close();

  bool enabled() const;
  std::string path() const;
  /// Sequence number of the last emitted (or recovered) event.
  std::uint64_t last_seq() const;

  /// Appends one event (no-op while disabled).  Thread-safe; the global
  /// sequence number is assigned under the journal lock.  Every record
  /// is flushed to the OS immediately, so kill -9 loses at most the
  /// record being written (the torn tail recover-load truncates).
  void emit(std::uint64_t session, std::string_view kind,
            std::string_view detail = {});

  /// Durability barrier: fsync the journal file.
  void flush();

  /// Rotation chain, oldest first, existing files only (ends with the
  /// active path).
  std::vector<std::string> chain() const;

  /// Loads one journal file.  Strict mode throws InvalidArgument with
  /// `<path>:<line>` on the first bad header/frame/record; recover mode
  /// truncates to the longest valid prefix.  False: file unreadable.
  static bool load_file(const std::string& path,
                        std::vector<FleetEvent>& out, core::LoadMode mode,
                        LoadReport* report = nullptr);

  /// Loads the whole rotation chain (oldest first) in recover mode.
  static bool load_chain(const Options& options,
                         std::vector<FleetEvent>& out,
                         LoadReport* report = nullptr);

 private:
  void rotate_locked();
  bool open_fresh_locked(std::string* error);

  mutable std::mutex mutex_;
  Options options_;
  std::FILE* file_ = nullptr;
  std::size_t bytes_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace robotune::service
