// End-of-session reporting over the metrics registry and tracer: a
// machine-readable JSON export and a human-readable summary table.
//
// Both consumers keep the determinism split explicit: the JSON document
// has separate "logical" and "runtime" sections, and the summary table
// labels its wall-clock block non-deterministic.  This module is plain
// data-shuffling over snapshots.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace robotune::obs {

/// Serializes a snapshot as JSON: {"logical": {...}, "runtime": {...}}
/// with counters/gauges/histograms per section.  The runtime section is
/// annotated as scheduling-dependent.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);

/// File wrapper (temp file + rename); false when the path is unwritable,
/// leaving no partial file behind.
bool write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path);

/// Renders the end-of-session summary table: logical counts (guard
/// kills, retries, censored evaluations, memoization hits, hedge
/// selections), the simulated eval-latency histogram, and per-phase
/// wall-clock aggregates from the spans (labelled NON-deterministic).
std::string render_summary(const MetricsSnapshot& snapshot,
                           const std::vector<SpanRecord>& spans);

}  // namespace robotune::obs
