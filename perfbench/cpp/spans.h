// The benchmark's own spans, and the self-time arithmetic shared by them
// and by the program's spans.
//
// The benchmark times every call it makes into a library module from its
// own files: `timed(layer, name, fn)` runs `fn`, returns the wall seconds
// it took and, while the span log is enabled (traced runs only), keeps a
// span for it in memory.  Spans are written out once, when the run ends.
//
// Self time: a span's duration minus the part of its interval covered by
// its direct children.  A child is a span on the same thread whose interval
// lies inside the parent's; the innermost enclosing span is the parent.
// The same rule applies to the program's obs::Tracer spans, so both trees
// go through `self_times`.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One finished span, in microseconds since its log's epoch.
struct Interval {
  std::string name;
  std::string layer;  ///< module the call went into ("" for program spans)
  std::uint32_t tid = 0;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;

  std::int64_t end_us() const { return start_us + dur_us; }
};

/// Self time (µs) of every interval, index-aligned with `spans`.
std::vector<std::int64_t> self_times(const std::vector<Interval>& spans);

/// Self time in seconds, summed per key (span name or layer).
std::map<std::string, double> self_seconds_by(const std::vector<Interval>& spans,
                                              bool by_layer);

/// Thread-safe in-memory span store with its own steady-clock epoch.
class SpanLog {
 public:
  void set_enabled(bool on);
  /// Restarts the epoch; call right after obs::tracer().reset() so the two
  /// logs share a time base (to within a microsecond or two).
  void restart_epoch();
  void record(std::string_view layer, std::string_view name, Clock::time_point start,
              Clock::time_point end);
  std::vector<Interval> spans() const;

 private:
  mutable std::mutex mutex_;
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Interval> spans_;
};

/// The process-wide log `timed` records into.
SpanLog& span_log();

/// Runs `fn`, records a span for it when the log is enabled, and returns
/// the call's wall time in seconds.
template <typename Fn>
double timed(std::string_view layer, std::string_view name, Fn&& fn) {
  const auto start = Clock::now();
  std::forward<Fn>(fn)();
  const auto end = Clock::now();
  span_log().record(layer, name, start, end);
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace perfbench
