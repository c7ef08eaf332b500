// Prometheus text-format exposition (format version 0.0.4) over a
// MetricsSnapshot, plus the fixed-bucket quantile estimator the fleet
// telemetry reports p50/p95/p99 through.
//
// Name mapping: every metric is prefixed `robotune_` and sanitized to
// the Prometheus charset ([a-zA-Z0-9_:], everything else becomes '_').
// Session-scoped metrics — names under "session/<id>/" (obs/metrics.h)
// — are exported as the *unscoped* metric name carrying a
// `session="<id>"` label, so one scrape sees the fleet aggregate and
// every per-session series under the same metric family.  Histograms
// emit cumulative `_bucket{le="..."}` series plus `_count`; there is
// deliberately no `_sum` — the registry keeps no floating-point sums
// (cross-shard FP addition order would be scheduling-dependent).
//
// Like obs/summary.h this is plain data-shuffling over snapshots: it
// never touches the live registry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace robotune::obs {

/// Upper-bound estimate of the q-quantile (0 < q <= 1) of a
/// fixed-bucket histogram, linearly interpolated within the selected
/// bucket (Prometheus `histogram_quantile` semantics).  Ranks landing
/// in the overflow bucket report the largest finite bound; an empty
/// histogram reports 0.
double histogram_quantile(const HistogramData& histogram, double q);

/// Writes the whole snapshot in Prometheus text exposition format.
void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& out);

/// String convenience over write_prometheus (the `metrics format=prom`
/// verb ships this over the socket).
std::string render_prometheus(const MetricsSnapshot& snapshot);

/// File wrapper over write_file_atomically (a scraper never sees a
/// partial dump); false when any step fails, leaving the previous dump.
bool write_prometheus_file(const MetricsSnapshot& snapshot,
                           const std::string& path);

}  // namespace robotune::obs
