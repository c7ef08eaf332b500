#include "obs/prometheus.h"

#include "obs/durable_file.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

namespace robotune::obs {

namespace {

std::string sanitize(std::string_view name) {
  std::string out = "robotune_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Splits "session/<id>/rest" into (rest, session label); other names
/// pass through with an empty label.
void split_session(const std::string& name, std::string& base,
                   std::string& label) {
  label.clear();
  base = name;
  if (!std::string_view(name).starts_with(kSessionPrefix)) return;
  const std::size_t id_begin = kSessionPrefix.size();
  const std::size_t slash = name.find('/', id_begin);
  if (slash == std::string::npos || slash == id_begin) return;
  const std::string digits = name.substr(id_begin, slash - id_begin);
  if (digits.find_first_not_of("0123456789") != std::string::npos) return;
  base = name.substr(slash + 1);
  label = "session=\"" + digits + "\"";
}

std::string format_value(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

struct Series {
  std::string label;  ///< "" or `session="<id>"`
  std::uint64_t count = 0;
  double gauge = 0.0;
  const HistogramData* histogram = nullptr;
};

/// Metric family: one # TYPE line, then every series (the fleet
/// aggregate first — empty label sorts before any session label).
using Families = std::map<std::string, std::vector<Series>>;

void emit_scalar_families(std::ostream& out, const Families& families,
                          const char* type, bool gauge) {
  for (const auto& [name, series] : families) {
    out << "# TYPE " << name << ' ' << type << '\n';
    for (const Series& s : series) {
      out << name;
      if (!s.label.empty()) out << '{' << s.label << '}';
      out << ' ';
      if (gauge) {
        out << format_value(s.gauge);
      } else {
        out << s.count;
      }
      out << '\n';
    }
  }
}

}  // namespace

double histogram_quantile(const HistogramData& histogram, double q) {
  if (histogram.total == 0 || histogram.counts.empty()) return 0.0;
  q = std::min(1.0, std::max(q, 0.0));
  const double target_rank =
      std::max(1.0, std::ceil(q * static_cast<double>(histogram.total)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
    const std::uint64_t before = cumulative;
    cumulative += histogram.counts[i];
    if (static_cast<double>(cumulative) < target_rank) continue;
    if (i >= histogram.bounds.size()) {
      // Overflow bucket: no finite upper bound to interpolate toward.
      return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
    }
    const double hi = histogram.bounds[i];
    const double lo = i == 0 ? 0.0 : histogram.bounds[i - 1];
    const double in_bucket = static_cast<double>(histogram.counts[i]);
    const double frac =
        in_bucket == 0.0
            ? 1.0
            : (target_rank - static_cast<double>(before)) / in_bucket;
    return lo + (hi - lo) * frac;
  }
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& out) {
  out << "# robotune metrics exposition (text format 0.0.4)\n";
  std::string base;
  std::string label;

  Families counters;
  for (const auto& [name, value] : snapshot.counters) {
    split_session(name, base, label);
    Series s;
    s.label = label;
    s.count = value;
    counters[sanitize(base)].push_back(std::move(s));
  }
  emit_scalar_families(out, counters, "counter", /*gauge=*/false);

  Families gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    split_session(name, base, label);
    Series s;
    s.label = label;
    s.gauge = value;
    gauges[sanitize(base)].push_back(std::move(s));
  }
  emit_scalar_families(out, gauges, "gauge", /*gauge=*/true);

  Families histograms;
  for (const auto& [name, histogram] : snapshot.histograms) {
    split_session(name, base, label);
    Series s;
    s.label = label;
    s.histogram = &histogram;
    histograms[sanitize(base)].push_back(std::move(s));
  }
  for (const auto& [name, series] : histograms) {
    out << "# TYPE " << name << " histogram\n";
    for (const Series& s : series) {
      const HistogramData& h = *s.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        cumulative += h.counts[i];
        const std::string le =
            i < h.bounds.size() ? format_value(h.bounds[i]) : "+Inf";
        out << name << "_bucket{";
        if (!s.label.empty()) out << s.label << ',';
        out << "le=\"" << le << "\"} " << cumulative << '\n';
      }
      out << name << "_count";
      if (!s.label.empty()) out << '{' << s.label << '}';
      out << ' ' << h.total << '\n';
    }
  }
}

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  write_prometheus(snapshot, out);
  return out.str();
}

bool write_prometheus_file(const MetricsSnapshot& snapshot,
                           const std::string& path) {
  return write_file_atomically(path, [&](std::ostream& out) {
    write_prometheus(snapshot, out);
  });
}

}  // namespace robotune::obs
