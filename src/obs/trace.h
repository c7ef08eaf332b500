// Zero-dependency structured tracer: nested spans over the tuning
// pipeline (session → iteration → {gp_fit, acq_opt, eval, journal}),
// with thread and eval-index attribution.
//
// Spans are RAII: constructing an obs::Span opens it, destruction closes
// it and appends one record to the current thread's buffer.  Nesting is
// implicit (a thread-local depth counter per tracer); spans opened on
// scheduler worker threads carry that worker's stable tid, which is how
// per-evaluation work is attributed in the exported timeline.
//
// Export formats:
//  * JSONL — one JSON object per completed span per line, sorted by
//    start time: {"name","cat","ts_us","dur_us","tid","depth","args"}.
//  * Chrome trace-event format — complete ("ph":"X") events plus thread
//    metadata, loadable in Perfetto / chrome://tracing.
//
// The tracer is disabled by default (one relaxed atomic load per span
// construction).  Span timestamps are wall-clock and therefore
// non-deterministic by nature — the determinism contract lives in the
// metrics registry, never here.
// Like the metrics shards, records()/reset() require quiescence ordered
// after the workers' writes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace robotune::obs {

struct SpanRecord {
  std::string name;
  std::string category;
  std::int64_t start_us = 0;  ///< microseconds since the tracer's epoch
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;    ///< stable per-thread index within the tracer
  std::uint32_t depth = 0;  ///< nesting depth on its thread (0 = root)
  std::vector<std::pair<std::string, std::string>> args;
};

enum class TraceFormat { kJsonl, kChrome };

/// "jsonl" / "chrome" → format; false on anything else.
bool parse_trace_format(std::string_view text, TraceFormat& out);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view text);

/// Writes an explicit span list in the given format — the same output
/// Tracer::write produces, for callers exporting a *subset* of the
/// recorded spans (e.g. the daemon's per-session --trace-dir files).
/// Spans are written in the order given; pass Tracer::records() slices
/// to keep the canonical (start_us, tid) order.
void write_spans(const std::vector<SpanRecord>& spans, std::ostream& out,
                 TraceFormat format);

/// File wrapper over write_spans (temp file + rename); false when the
/// path is unwritable, leaving no partial file behind.
bool write_spans_file(const std::vector<SpanRecord>& spans,
                      const std::string& path, TraceFormat format);

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans constructed while disabled record nothing (and cost one
  /// relaxed atomic load).  Enabling mid-session is allowed; a span that
  /// was open at enable time is simply absent from the output.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All completed spans, merged across threads and sorted by
  /// (start_us, tid).  Requires quiescence (see file comment).
  std::vector<SpanRecord> records() const;
  /// Drops every recorded span and restarts the time epoch.
  void reset();

  void write(std::ostream& out, TraceFormat format) const;
  /// Writes via a temp file + rename; false when the path is unwritable
  /// (no partial file is left behind).
  bool write_file(const std::string& path, TraceFormat format) const;

  struct Buffer;  // public for the thread-local registration machinery

 private:
  friend class Span;

  Buffer& local_buffer();
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const std::uint64_t id_;  ///< process-unique, never reused
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
  std::uint32_t next_tid_ = 0;
};

/// Process-wide tracer all instrumentation hooks write to.
Tracer& tracer();

/// RAII span over the global (or an explicit) tracer.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "");
  Span(std::string_view name, std::string_view category, Tracer& tracer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value annotation (eval index, iteration, ...).
  /// No-ops when the tracer was disabled at construction.
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, const char* value) {
    arg(key, std::string_view(value));
  }
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, int value) {
    arg(key, static_cast<std::int64_t>(value));
  }
  void arg(std::string_view key, double value);

 private:
  Tracer* tracer_ = nullptr;  ///< nullptr when disabled at construction
  Tracer::Buffer* buffer_ = nullptr;
  SpanRecord record_;
};

}  // namespace robotune::obs
