// Wire protocol of the tuning service (DESIGN.md §13).
//
// Every message — request or response — is one line in the v3 journal's
// CRC32 frame (common/frame.h), so a torn or corrupted socket stream is
// detected instead of half-parsed.  Frames above 1 MiB are rejected.
//
// Payloads are space-separated `key=value` tokens with a leading type
// token; values are percent-escaped (space, '%', '\n', '\t', '='), so
// arbitrary strings — error messages, embedded session specs — survive
// the token format:
//
//   req verb=start rid=1 derive_seed=1 spec=workload%3dPR%20dataset%3d1...
//   res rid=1 ok=1 id=7
//   req verb=suggest rid=2 session=7
//   res rid=2 ok=1 evals=24 best=41.52 unit=0.5%200.25%20...
//
// Verbs: start, suggest, observe, checkpoint, cancel, status, metrics,
// shutdown.
// The same Request/Response structs drive the in-process LocalClient
// (tests and benches skip the socket) and the Unix-domain-socket server,
// so both paths exercise identical dispatch code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/frame.h"

namespace robotune::service {

/// Percent-escapes a value for the token format ('%', space, '=', CR,
/// LF, TAB).  Escaping is stable: unescape(escape(s)) == s for any s.
std::string escape(std::string_view value);
/// Reverses escape().  Returns false on a malformed escape sequence.
bool unescape(std::string_view value, std::string& out);

/// Incremental frame parser for a byte stream (socket reads arrive in
/// arbitrary chunks).  Feed bytes, then drain complete payloads.
class FrameReader {
 public:
  enum class Result {
    kReady,     ///< one payload extracted
    kNeedMore,  ///< no complete frame buffered yet
    kCorrupt,   ///< framing violation — the stream cannot be trusted
  };

  void feed(std::string_view bytes) { buffer_.append(bytes); }
  /// Extracts the next complete payload.  After kCorrupt the reader is
  /// poisoned: the connection should be dropped.
  Result next(std::string& payload, std::string& error);
  /// True when no partial frame is buffered (the stream is between
  /// frames) — the server's idle sweep uses this to tell a quiet client
  /// from one stalled mid-frame.
  bool idle() const { return buffer_.empty(); }

 private:
  std::string buffer_;
  bool corrupt_ = false;
};

struct Request {
  std::string verb;          ///< start|suggest|observe|checkpoint|cancel|
                             ///< status|metrics|shutdown
  std::uint64_t rid = 0;     ///< echoed in the response
  std::uint64_t session = 0; ///< target session id (0 = none/service-wide)
  std::uint64_t from = 0;    ///< observe: first evaluation index
  std::uint64_t limit = 0;   ///< observe: max records (0 = all)
  std::string spec_body;     ///< start: core::encode_spec_body output
  std::string format;        ///< metrics: "prom" adds the Prometheus text
                             ///< exposition in fields["prom"]
  /// start: let the daemon derive the session seed from its service seed
  /// and the assigned session id, ignoring spec_body's seed field.
  bool derive_seed = false;
  // ---- ask/tell (external sessions, DESIGN.md §16) ----------------------
  /// observe: when true this is a *tell* — deliver the observation below
  /// for eval index `eval` instead of reading the journal window.  The
  /// tell keys are only emitted when set, so requests that never use
  /// ask/tell stay byte-identical (and pre-external daemons reject only
  /// the requests that actually need the feature, via the unknown-key
  /// rule).
  bool has_observation = false;
  std::uint64_t eval = 0;    ///< tell: canonical eval index
  double value_s = 0.0;      ///< tell: observed objective seconds
  double cost_s = 0.0;       ///< tell: observed cost seconds
  std::string status = "ok";  ///< tell: sparksim RunStatus label
};

struct Response {
  bool ok = false;
  std::uint64_t rid = 0;
  std::string error;  ///< set when !ok
  /// Verb-specific scalar results (deterministically ordered).
  std::map<std::string, std::string> fields;
  /// Verb-specific repeated results (observe: one per evaluation).
  std::vector<std::string> records;
};

std::string encode_request(const Request& request);
bool decode_request(const std::string& payload, Request& request,
                    std::string& error);

std::string encode_response(const Response& response);
bool decode_response(const std::string& payload, Response& response,
                     std::string& error);

}  // namespace robotune::service
