#include "obs/summary.h"

#include "obs/durable_file.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

namespace robotune::obs {

namespace {

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void write_section(std::ostream& out, const MetricsSnapshot& section) {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : section.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << v;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : section.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << format_double(v);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : section.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out << ",";
      out << format_double(h.bounds[i]);
    }
    out << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out << ",";
      out << h.counts[i];
    }
    out << "],\"total\":" << h.total << "}";
  }
  out << "}}";
}

/// A counter's value, or 0 when it never fired.
std::uint64_t counter_or_zero(const MetricsSnapshot& snapshot,
                              const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void append_line(std::string& out, const std::string& label,
                 const std::string& value) {
  out += "  ";
  out += label;
  if (label.size() < 38) out += std::string(38 - label.size(), '.');
  out += " ";
  out += value;
  out += "\n";
}

}  // namespace

void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out) {
  out << "{\"logical\":";
  write_section(out, snapshot.logical());
  out << ",\"runtime\":";
  write_section(out, snapshot.runtime());
  out << ",\"note\":\"logical metrics are deterministic for any worker "
         "count; runtime metrics are scheduling-dependent\"}\n";
}

bool write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  return write_file_atomically(path, [&](std::ostream& out) {
    write_metrics_json(snapshot, out);
  });
}

std::string render_summary(const MetricsSnapshot& snapshot,
                           const std::vector<SpanRecord>& spans) {
  std::string out;
  out += "== observability summary "
         "==============================================\n";
  out += "-- logical metrics (deterministic for any --parallel) --\n";
  append_line(out, "evaluations",
              std::to_string(counter_or_zero(snapshot, "evals.total")));
  append_line(out, "  ok",
              std::to_string(counter_or_zero(snapshot, "evals.ok")));
  append_line(out, "  guard kills",
              std::to_string(counter_or_zero(snapshot, "evals.guard_kills")));
  append_line(out, "  failed (oom/unplaceable)",
              std::to_string(counter_or_zero(snapshot, "evals.failed")));
  append_line(out, "  censored (transient)",
              std::to_string(counter_or_zero(snapshot, "evals.censored")));
  append_line(out, "retried attempts",
              std::to_string(counter_or_zero(snapshot, "evals.retries")));
  append_line(
      out, "simulator attempts",
      std::to_string(counter_or_zero(snapshot, "objective.attempts")));
  append_line(
      out, "memo: selection cache hits",
      std::to_string(
          counter_or_zero(snapshot, "memo.selection_cache.hits")) +
          " / " +
          std::to_string(
              counter_or_zero(snapshot, "memo.selection_cache.hits") +
              counter_or_zero(snapshot, "memo.selection_cache.misses")) +
          " lookups");
  append_line(
      out, "memo: config buffer hits",
      std::to_string(counter_or_zero(snapshot, "memo.configs.hits")) + " / " +
          std::to_string(counter_or_zero(snapshot, "memo.configs.hits") +
                         counter_or_zero(snapshot, "memo.configs.misses")) +
          " lookups");
  append_line(
      out, "hedge selections (PI | EI | LCB)",
      std::to_string(counter_or_zero(snapshot, "bo.hedge.selected.PI")) +
          " | " +
          std::to_string(counter_or_zero(snapshot, "bo.hedge.selected.EI")) +
          " | " +
          std::to_string(counter_or_zero(snapshot, "bo.hedge.selected.LCB")));

  const auto hist = snapshot.histograms.find("evals.value_s");
  if (hist != snapshot.histograms.end() && hist->second.total > 0) {
    out += "  eval latency histogram (simulated seconds):\n";
    const auto& h = hist->second;
    const std::uint64_t peak =
        *std::max_element(h.counts.begin(), h.counts.end());
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      char label[64];
      if (i == 0) {
        std::snprintf(label, sizeof(label), "<= %g s", h.bounds[0]);
      } else if (i == h.bounds.size()) {
        std::snprintf(label, sizeof(label), "> %g s",
                      h.bounds[h.bounds.size() - 1]);
      } else {
        std::snprintf(label, sizeof(label), "(%g, %g] s", h.bounds[i - 1],
                      h.bounds[i]);
      }
      char line[128];
      const int bar_len = static_cast<int>(
          peak == 0 ? 0 : (40 * h.counts[i] + peak - 1) / peak);
      std::snprintf(line, sizeof(line), "    %-14s %6llu  %s\n", label,
                    static_cast<unsigned long long>(h.counts[i]),
                    std::string(static_cast<std::size_t>(bar_len), '#')
                        .c_str());
      out += line;
    }
  }

  out += "-- wall clock (NON-deterministic: timing only, never results) "
         "--\n";
  struct PhaseAgg {
    std::uint64_t count = 0;
    std::int64_t total_us = 0;
  };
  std::map<std::string, PhaseAgg> phases;
  for (const auto& span : spans) {
    auto& agg = phases[span.name];
    agg.count += 1;
    agg.total_us += span.dur_us;
  }
  if (phases.empty()) {
    out += "  (no spans recorded; run with tracing enabled)\n";
  } else {
    char header[128];
    std::snprintf(header, sizeof(header), "  %-24s %8s %12s %12s\n", "phase",
                  "count", "total ms", "mean ms");
    out += header;
    for (const auto& [name, agg] : phases) {
      char line[160];
      const double total_ms = static_cast<double>(agg.total_us) / 1000.0;
      std::snprintf(line, sizeof(line), "  %-24s %8llu %12.2f %12.3f\n",
                    name.c_str(),
                    static_cast<unsigned long long>(agg.count), total_ms,
                    agg.count == 0 ? 0.0
                                   : total_ms / static_cast<double>(agg.count));
      out += line;
    }
  }
  out += "================================================================="
         "======\n";
  return out;
}

}  // namespace robotune::obs
