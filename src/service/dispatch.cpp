// Request dispatcher shared by the in-process LocalClient and the
// Unix-domain-socket server: one code path, so the socketless tests and
// benches exercise exactly what the daemon executes — including the
// per-verb telemetry wrapped around every request (DESIGN.md §14).
#include <chrono>
#include <cstdio>
#include <sstream>

#include "service/session_manager.h"
#include "service/telemetry.h"

namespace robotune::service {

namespace {

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string format_unit(const std::vector<double>& unit) {
  std::ostringstream out;
  for (std::size_t i = 0; i < unit.size(); ++i) {
    if (i != 0) out << ' ';
    out << format_double(unit[i]);
  }
  return out.str();
}

Response error_response(std::uint64_t rid, std::string why) {
  Response r;
  r.rid = rid;
  r.ok = false;
  r.error = std::move(why);
  return r;
}

/// The verb switch, unwrapped: dispatch_request() times and counts
/// around this.
Response dispatch_inner(SessionManager& manager, const Request& request,
                        std::atomic<bool>* shutdown_flag) {
  Response response;
  response.rid = request.rid;

  if (request.verb == "start") {
    core::SessionSpec spec;
    std::string why;
    if (!core::decode_spec_body(request.spec_body, spec, &why)) {
      return error_response(request.rid, "bad spec: " + why);
    }
    const auto result = manager.start(std::move(spec), request.derive_seed);
    if (!result.admitted) return error_response(request.rid, result.error);
    response.ok = true;
    response.fields["id"] = std::to_string(result.id);
    return response;
  }

  if (request.verb == "suggest") {
    // Ask/tell sessions lease pending suggestions; internal sessions
    // report the incumbent.  One verb, mode-dependent meaning — the
    // response's `mode` field tells the client which it got.
    const auto status = manager.status(request.session);
    if (!status) return error_response(request.rid, "no such session");
    if (status->external) {
      const auto result = manager.ask(request.session, request.limit);
      if (!result.ok) return error_response(request.rid, result.error);
      response.ok = true;
      response.fields["mode"] = "external";
      response.fields["pending"] = std::to_string(result.pending);
      response.fields["leased"] = std::to_string(result.leased);
      response.fields["state"] = to_string(status->state);
      for (const auto& grant : result.grants) {
        std::ostringstream rec;
        rec << grant.index << ' ' << grant.lease << ' ' << grant.deadline
            << ' ' << format_unit(grant.unit);
        response.records.push_back(rec.str());
      }
      return response;
    }
    const auto result = manager.suggest(request.session);
    if (!result.ok) return error_response(request.rid, result.error);
    response.ok = true;
    response.fields["evals"] = std::to_string(result.evaluations);
    response.fields["best"] = format_double(result.best_value_s);
    response.fields["unit"] = format_unit(result.best_unit);
    return response;
  }

  if (request.verb == "observe") {
    if (request.has_observation) {
      // Tell: deliver an external observation into the lease ledger.
      const auto status = sparksim::run_status_from_string(request.status);
      if (!status) {
        return error_response(request.rid,
                              "bad status '" + request.status + "'");
      }
      core::ExternalObservation observation;
      observation.value_s = request.value_s;
      observation.cost_s = request.cost_s;
      observation.status = *status;
      const auto result =
          manager.tell(request.session, request.eval, observation);
      response.fields["verdict"] = core::to_string(result.verdict);
      if (result.verdict == core::TellVerdict::kDuplicate ||
          result.verdict == core::TellVerdict::kConflict) {
        // Show the ledger's tuple so a conflicted client can see what
        // the daemon actually recorded.
        response.fields["value"] = format_double(result.recorded.value_s);
        response.fields["cost"] = format_double(result.recorded.cost_s);
        response.fields["status"] =
            sparksim::to_string(result.recorded.status);
      }
      if (!result.ok) {
        response.error = result.error;
        return response;
      }
      response.ok = true;
      return response;
    }
    const auto result =
        manager.observe(request.session, request.from, request.limit);
    if (!result.ok) return error_response(request.rid, result.error);
    response.ok = true;
    response.fields["total"] = std::to_string(result.total);
    for (const auto& e : result.records) {
      std::ostringstream rec;
      rec << e.index << ' ' << static_cast<int>(e.status) << ' '
          << format_double(e.value_s) << ' ' << format_double(e.cost_s)
          << ' ' << (e.stopped_early ? 1 : 0) << ' '
          << (e.transient ? 1 : 0) << ' ' << e.attempts;
      response.records.push_back(rec.str());
    }
    return response;
  }

  if (request.verb == "checkpoint") {
    const auto result = manager.checkpoint(request.session);
    if (!result.ok) return error_response(request.rid, result.error);
    response.ok = true;
    response.fields["journal"] = result.journal_path;
    response.fields["evals"] = std::to_string(result.evaluations);
    return response;
  }

  if (request.verb == "cancel") {
    std::string why;
    if (!manager.cancel(request.session, &why)) {
      return error_response(request.rid, why);
    }
    response.ok = true;
    return response;
  }

  if (request.verb == "status") {
    if (request.session != 0) {
      const auto status = manager.status(request.session);
      if (!status) return error_response(request.rid, "no such session");
      response.ok = true;
      response.fields["state"] = to_string(status->state);
      response.fields["evals"] = std::to_string(status->evaluations);
      response.fields["best"] = format_double(status->best_value_s);
      response.fields["resumed"] = status->resumed ? "1" : "0";
      response.fields["replayed"] = std::to_string(status->replayed);
      response.fields["recovered"] = status->journal_recovered ? "1" : "0";
      response.fields["mode"] = status->external ? "external" : "internal";
      if (status->external) {
        response.fields["pending"] = std::to_string(status->pending);
        response.fields["leased"] = std::to_string(status->leased);
        response.fields["reclaimed"] = std::to_string(status->reclaimed);
      }
      if (!status->error.empty()) {
        response.fields["failure"] = status->error;
      }
      return response;
    }
    const auto s = manager.service_status();
    response.ok = true;
    response.fields["queued"] = std::to_string(s.queued);
    response.fields["running"] = std::to_string(s.running);
    response.fields["done"] = std::to_string(s.done);
    response.fields["cancelled"] = std::to_string(s.cancelled);
    response.fields["failed"] = std::to_string(s.failed);
    response.fields["accepting"] = s.accepting ? "1" : "0";
    response.fields["max_live"] = std::to_string(s.max_live);
    response.fields["max_pending"] = std::to_string(s.max_pending);
    response.fields["slots"] = std::to_string(s.slots);
    response.fields["reclaimed"] = std::to_string(s.reclaimed);
    response.fields["evicted"] = std::to_string(s.evicted);
    return response;
  }

  if (request.verb == "metrics") {
    return handle_metrics(manager, request);
  }

  if (request.verb == "shutdown") {
    if (shutdown_flag == nullptr) {
      return error_response(request.rid,
                            "shutdown is only available over the socket");
    }
    shutdown_flag->store(true, std::memory_order_relaxed);
    response.ok = true;
    return response;
  }

  return error_response(request.rid, "unknown verb '" + request.verb + "'");
}

}  // namespace

Response dispatch_request(SessionManager& manager, const Request& request,
                          std::atomic<bool>* shutdown_flag) {
  const auto begin = std::chrono::steady_clock::now();
  Response response = dispatch_inner(manager, request, shutdown_flag);
  const double latency_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - begin)
                                .count();
  record_rpc(request.verb, request.session, response.ok, latency_us);
  return response;
}

}  // namespace robotune::service
