#include "spans.h"

#include <algorithm>
#include <atomic>
#include <numeric>

namespace perfbench {

namespace {

// Microsecond timestamps are truncated separately for start and duration,
// so a child's computed end can overrun its parent's by a tick or two.
constexpr std::int64_t kRoundingUs = 2;

bool contains(const Interval& parent, const Interval& child) {
  if (child.start_us < parent.start_us) return false;
  if (child.end_us() > parent.end_us() + kRoundingUs) return false;
  // A span starting exactly where the parent ends is a sibling, unless
  // both are zero-length.
  return child.start_us < parent.end_us() || parent.dur_us == 0;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::vector<std::int64_t> self_times(const std::vector<Interval>& spans) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  // Parents sort before their children: by thread, then start, then the
  // longer span first.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Interval& x = spans[a];
    const Interval& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::int64_t> children(spans.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t idx : order) {
    const Interval& span = spans[idx];
    while (!open.empty() &&
           (spans[open.back()].tid != span.tid || !contains(spans[open.back()], span))) {
      open.pop_back();
    }
    if (!open.empty()) children[open.back()] += span.dur_us;
    open.push_back(idx);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max<std::int64_t>(0, spans[i].dur_us - children[i]);
  }
  return self;
}

std::map<std::string, double> self_seconds_by(const std::vector<Interval>& spans,
                                              bool by_layer) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[by_layer ? spans[i].layer : spans[i].name] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

void SpanLog::set_enabled(bool on) {
  std::lock_guard lock(mutex_);
  enabled_ = on;
}

void SpanLog::restart_epoch() {
  std::lock_guard lock(mutex_);
  epoch_ = Clock::now();
  spans_.clear();
}

void SpanLog::record(std::string_view layer, std::string_view name, Clock::time_point start,
                     Clock::time_point end) {
  std::lock_guard lock(mutex_);
  if (!enabled_) return;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
  };
  spans_.push_back(Interval{std::string(name), std::string(layer), thread_index(), us(start),
                            us(end) - us(start)});
}

std::vector<Interval> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

}  // namespace perfbench
