#include "service/telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <limits>

#include "common/numbers.h"
#include "obs/prometheus.h"

namespace robotune::service {

namespace {

constexpr std::string_view kVerbs[] = {
    "start",  "suggest", "observe",  "checkpoint",
    "cancel", "status",  "shutdown", "metrics",
};

std::string format_us(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", v);
  return buffer;
}

std::uint64_t counter_or_zero(const obs::MetricsSnapshot& snapshot,
                              const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

const obs::HistogramData* find_histogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? nullptr : &it->second;
}

double histogram_p(const obs::MetricsSnapshot& snapshot,
                   const std::string& name, double q) {
  const obs::HistogramData* h = find_histogram(snapshot, name);
  return h == nullptr ? 0.0 : obs::histogram_quantile(*h, q);
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

const std::vector<double>& rpc_latency_buckets_us() {
  static const std::vector<double> bounds = {
      1.0,    2.0,    5.0,     10.0,    25.0,    50.0,    100.0,
      250.0,  500.0,  1000.0,  2500.0,  5000.0,  10000.0, 25000.0,
      50000.0, 100000.0, 250000.0, 1000000.0};
  return bounds;
}

const std::vector<double>& queue_wait_buckets_ms() {
  static const std::vector<double> bounds = {
      0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
      1000.0, 5000.0, 10000.0, 60000.0};
  return bounds;
}

bool known_verb(std::string_view verb) {
  for (const std::string_view candidate : kVerbs) {
    if (verb == candidate) return true;
  }
  return false;
}

std::string session_suggest_metric(std::uint64_t session_id) {
  return "runtime.service.rpc.suggest.latency_us.session." +
         std::to_string(session_id);
}

double session_suggest_p99_us(const obs::MetricsSnapshot& snapshot,
                              std::uint64_t session_id) {
  return histogram_p(snapshot, session_suggest_metric(session_id), 0.99);
}

void record_rpc(std::string_view verb, std::uint64_t session, bool ok,
                double latency_us) {
  // Unknown verbs collapse into one name: arbitrary client strings must
  // never grow the registry without bound.
  const std::string v(known_verb(verb) ? verb : std::string_view("unknown"));
  obs::count("service.rpc." + v);
  if (!ok) obs::count("service.rpc." + v + ".errors");
  obs::metrics().observe("runtime.service.rpc." + v + ".latency_us",
                         latency_us, rpc_latency_buckets_us());
  if (v == "suggest" && session != 0) {
    obs::metrics().observe(session_suggest_metric(session), latency_us,
                           rpc_latency_buckets_us());
  }
}

Response handle_metrics(SessionManager& manager, const Request& request) {
  Response response;
  response.rid = request.rid;
  const auto snapshot = obs::metrics().snapshot();

  if (request.session != 0) {
    const auto status = manager.status(request.session);
    if (!status) {
      response.ok = false;
      response.error = "no such session";
      return response;
    }
    response.ok = true;
    response.fields["state"] = to_string(status->state);
    response.fields["evals"] = std::to_string(status->evaluations);
    response.fields["best"] = format_double(status->best_value_s);
    response.fields["queue_wait_ms"] = format_us(status->queue_wait_ms);
    response.fields["suggest_p99_us"] =
        format_us(session_suggest_p99_us(snapshot, request.session));
    if (request.format == "prom") {
      response.fields["prom"] =
          obs::render_prometheus(snapshot.session(request.session));
    }
    return response;
  }

  const auto status = manager.service_status();
  response.ok = true;
  response.fields["queued"] = std::to_string(status.queued);
  response.fields["running"] = std::to_string(status.running);
  response.fields["done"] = std::to_string(status.done);
  response.fields["cancelled"] = std::to_string(status.cancelled);
  response.fields["failed"] = std::to_string(status.failed);
  response.fields["accepting"] = status.accepting ? "1" : "0";
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  for (const std::string_view verb : kVerbs) {
    requests += counter_or_zero(snapshot, "service.rpc." + std::string(verb));
    errors += counter_or_zero(snapshot,
                              "service.rpc." + std::string(verb) + ".errors");
  }
  requests += counter_or_zero(snapshot, "service.rpc.unknown");
  errors += counter_or_zero(snapshot, "service.rpc.unknown.errors");
  response.fields["rpc_requests"] = std::to_string(requests);
  response.fields["rpc_errors"] = std::to_string(errors);
  const std::string suggest_hist = "runtime.service.rpc.suggest.latency_us";
  response.fields["suggest_p50_us"] =
      format_us(histogram_p(snapshot, suggest_hist, 0.50));
  response.fields["suggest_p95_us"] =
      format_us(histogram_p(snapshot, suggest_hist, 0.95));
  response.fields["suggest_p99_us"] =
      format_us(histogram_p(snapshot, suggest_hist, 0.99));
  response.fields["events_seq"] =
      std::to_string(manager.events().last_seq());
  if (request.format == "prom") {
    response.fields["prom"] = obs::render_prometheus(snapshot);
  }
  for (const SessionStatus& s : manager.list_sessions()) {
    char record[160];
    std::snprintf(record, sizeof(record),
                  "%" PRIu64 " %s %zu %.17g %.1f %.1f", s.id,
                  to_string(s.state), s.evaluations, s.best_value_s,
                  s.queue_wait_ms,
                  session_suggest_p99_us(snapshot, s.id));
    response.records.push_back(record);
  }
  return response;
}

std::string render_fleet_summary(
    const obs::MetricsSnapshot& snapshot, const ServiceStatus& status,
    const std::vector<SessionStatus>& sessions) {
  std::string out;
  out += "== fleet observability summary "
         "========================================\n";
  out += "-- admission / sessions --\n";
  append_line(out, "admissions accepted",
              std::to_string(
                  counter_or_zero(snapshot, "service.admission.accepted")));
  append_line(out, "admissions rejected",
              std::to_string(
                  counter_or_zero(snapshot, "service.admission.rejected")));
  append_line(out, "queued / running",
              std::to_string(status.queued) + " / " +
                  std::to_string(status.running));
  append_line(out, "done / cancelled / failed",
              std::to_string(status.done) + " / " +
                  std::to_string(status.cancelled) + " / " +
                  std::to_string(status.failed));
  append_line(
      out, "quarantined",
      std::to_string(
          counter_or_zero(snapshot, "service.sessions.quarantined")));

  out += "-- rpc (latency NON-deterministic: timing only, never results) "
         "--\n";
  {
    char header[96];
    std::snprintf(header, sizeof(header), "  %-12s %9s %7s %9s %9s %9s\n",
                  "verb", "requests", "errors", "p50 us", "p95 us",
                  "p99 us");
    out += header;
  }
  for (const std::string_view verb : kVerbs) {
    const std::string name(verb);
    const std::uint64_t requests =
        counter_or_zero(snapshot, "service.rpc." + name);
    if (requests == 0) continue;
    const std::string hist = "runtime.service.rpc." + name + ".latency_us";
    char line[128];
    std::snprintf(line, sizeof(line),
                  "  %-12s %9llu %7llu %9.1f %9.1f %9.1f\n", name.c_str(),
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(counter_or_zero(
                      snapshot, "service.rpc." + name + ".errors")),
                  histogram_p(snapshot, hist, 0.50),
                  histogram_p(snapshot, hist, 0.95),
                  histogram_p(snapshot, hist, 0.99));
    out += line;
  }

  out += "-- transport / journal --\n";
  append_line(out, "clients connected",
              std::to_string(
                  counter_or_zero(snapshot, "service.clients.connected")));
  append_line(out, "corrupt frames",
              std::to_string(counter_or_zero(
                  snapshot, "service.protocol.corrupt_frames")));
  append_line(out, "protocol decode errors",
              std::to_string(counter_or_zero(
                  snapshot, "service.protocol.decode_errors")));
  append_line(out, "fleet events emitted",
              std::to_string(counter_or_zero(
                  snapshot, "runtime.service.events.emitted")));

  if (!sessions.empty()) {
    out += "-- sessions --\n";
    char header[96];
    std::snprintf(header, sizeof(header), "  %6s %-10s %6s %12s %9s %10s\n",
                  "id", "state", "evals", "best s", "wait ms",
                  "sug p99 us");
    out += header;
    for (const SessionStatus& s : sessions) {
      char line[160];
      char best[24];
      if (s.best_value_s ==
          std::numeric_limits<double>::infinity()) {
        std::snprintf(best, sizeof(best), "-");
      } else {
        std::snprintf(best, sizeof(best), "%.2f", s.best_value_s);
      }
      std::snprintf(line, sizeof(line),
                    "  %6" PRIu64 " %-10s %6zu %12s %9.1f %10.1f\n", s.id,
                    to_string(s.state), s.evaluations, best,
                    s.queue_wait_ms,
                    session_suggest_p99_us(snapshot, s.id));
      out += line;
    }
  }
  out += "================================================================="
         "======\n";
  return out;
}

}  // namespace robotune::service
