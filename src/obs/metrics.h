// Zero-dependency metrics registry: counters, gauges, and fixed-bucket
// histograms for the tuning pipeline.
//
// Determinism contract (DESIGN.md §7): *logical* metrics — evaluation
// counts, guard kills, retries, memoization hits, hedge selections —
// count events whose multiset is a pure function of the session seed, so
// their merged totals are identical for any `--parallel` worker count.
// Anything scheduling- or wall-clock-dependent (pool task counts,
// effective parallelism) lives under the `runtime.` name prefix and is
// excluded from the deterministic section; span *durations* live in the
// Tracer, never here.
//
// Concurrency: the hot path writes to a per-thread shard guarded by a
// shard-local mutex that only the owning thread and snapshot()/reset()
// ever take — writes stay contention-free in steady state, while
// snapshot() may run concurrently with instrumented work (the daemon's
// `metrics` verb and --metrics-file dumps poll a live fleet).  A live
// snapshot is coherent per shard but not across shards: events written
// while the merge walks other shards may or may not be included.
// Determinism assertions (exact totals, byte-identical logical
// sections) therefore still require quiescence ordered after the
// workers' writes (a ThreadPool::wait_all or future.get() establishes
// the needed happens-before edge).  Counter and bucket merges are
// integer sums, so the merged snapshot is independent of how events
// were sharded across threads; histograms deliberately carry no
// floating-point sum (cross-shard FP addition order would make the
// last bits scheduling-dependent).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace robotune::obs {

/// Metrics named under this prefix are scheduling-dependent (worker
/// counts, pool task placement) and excluded from the deterministic
/// "logical" section of a snapshot.
inline constexpr std::string_view kRuntimePrefix = "runtime.";

inline bool is_runtime_metric(std::string_view name) {
  return name.substr(0, kRuntimePrefix.size()) == kRuntimePrefix;
}

/// Session-scoped tallies live under this prefix: while an
/// obs::ScopedSession is active on a thread, every logical counter,
/// gauge, and histogram is *additionally* recorded under
/// "session/<id>/<name>", so a multi-session process (the service layer)
/// can attribute events per session.  Runtime metrics are never
/// duplicated into a session scope — they are scheduling-dependent by
/// definition, and the per-session section keeps the same
/// byte-identical-at-any-worker-count guarantee the global logical
/// section has (pinned by obs_determinism_test).
inline constexpr std::string_view kSessionPrefix = "session/";

/// "session/<id>/" — the name prefix a session's tallies live under.
std::string session_prefix(std::uint64_t session_id);

/// Fixed-bucket histogram: counts[i] tallies values <= bounds[i] (first
/// matching bound wins), counts.back() tallies the overflow.  Bounds are
/// fixed per metric name at first observation; all counts are integers so
/// merged histograms are deterministic.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
  std::uint64_t total = 0;

  bool operator==(const HistogramData&) const = default;
};

/// A merged, point-in-time view of every metric, keyed in canonical
/// (lexicographic) name order.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool operator==(const MetricsSnapshot&) const = default;

  /// The deterministic section: everything not under `runtime.`.
  MetricsSnapshot logical() const;
  /// The scheduling-dependent section: everything under `runtime.`.
  MetricsSnapshot runtime() const;
  /// One session's tallies ("session/<id>/..."), with the scope prefix
  /// stripped — directly comparable against a single-session run's
  /// logical section.
  MetricsSnapshot session(std::uint64_t session_id) const;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Default bucket bounds for metrics measured in (simulated) seconds:
/// roughly exponential, with knots at the paper's 480 s cap.
const std::vector<double>& seconds_buckets();

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (per-thread shard; the shard
  /// mutex is only ever contended by a concurrent snapshot).
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Sets the named gauge (mutex-protected; call from canonical-order
  /// code, last write wins).
  void set_gauge(std::string_view name, double value);
  /// Records `value` into the named histogram with seconds_buckets().
  void observe(std::string_view name, double value);
  /// Records `value` into the named histogram; `bounds` fixes the bucket
  /// upper bounds on the histogram's first observation in each shard
  /// (pass the same bounds at every call site for a given name).
  void observe(std::string_view name, double value,
               const std::vector<double>& bounds);

  /// Merges every shard in canonical name order.  Safe to call while
  /// instrumented work is in flight (live exposition); exact totals
  /// require quiescence (see file comment).
  MetricsSnapshot snapshot() const;
  /// Clears all shards and gauges.  Requires quiescence.
  void reset();

  struct Shard;  // public for the thread-local registration machinery

 private:
  Shard& local_shard();

  const std::uint64_t id_;  ///< process-unique, never reused
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Shard>> shards_;
  std::map<std::string, double, std::less<>> gauges_;
};

/// RAII session attribution: while alive on a thread, logical metrics
/// are additionally tallied under "session/<id>/<name>" and spans carry
/// a "session" arg.  Scopes nest (the previous id is restored on
/// destruction) and propagate across ThreadPool::submit/submit_batch —
/// a task observes the session that *enqueued* it, whichever worker
/// runs it.  Id 0 means "no session" and records nothing extra.
class ScopedSession {
 public:
  explicit ScopedSession(std::uint64_t id) noexcept;
  ~ScopedSession();

  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;

  /// The session id attached to the calling thread; 0 = none.
  static std::uint64_t current() noexcept;

 private:
  std::uint64_t prev_;
};

/// Process-wide registry all instrumentation hooks write to.
MetricsRegistry& metrics();

// Convenience wrappers over the global registry (the instrumentation
// call-site idiom).
inline void count(std::string_view name, std::uint64_t delta = 1) {
  metrics().add(name, delta);
}
inline void set_gauge(std::string_view name, double value) {
  metrics().set_gauge(name, value);
}
inline void observe(std::string_view name, double value) {
  metrics().observe(name, value);
}

}  // namespace robotune::obs
