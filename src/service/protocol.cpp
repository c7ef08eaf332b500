#include "service/protocol.h"

#include <sstream>
#include <utility>

#include "common/numbers.h"

namespace robotune::service {

namespace {

// Frames larger than this are rejected outright: no legitimate message
// (even a start request embedding a full spec) comes close, and the cap
// stops a garbage stream from ballooning the reader buffer.
constexpr std::size_t kMaxFrameBytes = 1 << 20;

constexpr char kHexDigits[] = "0123456789abcdef";

bool needs_escape(char c) {
  return c == '%' || c == ' ' || c == '=' || c == '\n' || c == '\r' ||
         c == '\t';
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Splits a payload into its leading type token and key=value pairs
/// (values unescaped).  Returns false on a malformed token.
bool tokenize(const std::string& payload, std::string& type,
              std::vector<std::pair<std::string, std::string>>& pairs,
              std::string& error) {
  std::istringstream in(payload);
  if (!(in >> type)) {
    error = "empty payload";
    return false;
  }
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      error = "bad token '" + token + "'";
      return false;
    }
    std::string value;
    if (!unescape(std::string_view(token).substr(eq + 1), value)) {
      error = "bad escape in token '" + token + "'";
      return false;
    }
    pairs.emplace_back(token.substr(0, eq), std::move(value));
  }
  return true;
}

}  // namespace

std::string escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (needs_escape(c)) {
      out.push_back('%');
      out.push_back(kHexDigits[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(kHexDigits[static_cast<unsigned char>(c) & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool unescape(std::string_view value, std::string& out) {
  out.clear();
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '%') {
      out.push_back(value[i]);
      continue;
    }
    if (i + 2 >= value.size()) return false;
    const int hi = hex_value(value[i + 1]);
    const int lo = hex_value(value[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

FrameReader::Result FrameReader::next(std::string& payload,
                                      std::string& error) {
  if (corrupt_) {
    error = "frame stream already corrupt";
    return Result::kCorrupt;
  }
  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    if (buffer_.size() > kMaxFrameBytes + 32) {
      corrupt_ = true;
      error = "unterminated frame exceeds the size cap";
      return Result::kCorrupt;
    }
    return Result::kNeedMore;
  }
  std::string_view body;
  const bool ok = unframe_line(std::string_view(buffer_).substr(0, newline),
                               body, error, kMaxFrameBytes);
  if (ok) payload.assign(body);
  buffer_.erase(0, newline + 1);
  if (!ok) {
    corrupt_ = true;
    return Result::kCorrupt;
  }
  return Result::kReady;
}

std::string encode_request(const Request& request) {
  std::ostringstream out;
  out << "req verb=" << escape(request.verb) << " rid=" << request.rid;
  if (request.session != 0) out << " session=" << request.session;
  if (request.from != 0) out << " from=" << request.from;
  if (request.limit != 0) out << " limit=" << request.limit;
  if (!request.spec_body.empty()) {
    out << " spec=" << escape(request.spec_body);
  }
  if (request.derive_seed) out << " derive_seed=1";
  if (!request.format.empty()) out << " format=" << escape(request.format);
  if (request.has_observation) {
    out << " eval=" << request.eval
        << " value=" << escape(format_double(request.value_s))
        << " cost=" << escape(format_double(request.cost_s))
        << " status=" << escape(request.status);
  }
  return out.str();
}

bool decode_request(const std::string& payload, Request& request,
                    std::string& error) {
  std::string type;
  std::vector<std::pair<std::string, std::string>> pairs;
  if (!tokenize(payload, type, pairs, error)) return false;
  if (type != "req") {
    error = "not a request payload";
    return false;
  }
  request = Request{};
  for (const auto& [key, value] : pairs) {
    bool numeric_ok = true;
    if (key == "verb") {
      request.verb = value;
    } else if (key == "rid") {
      numeric_ok = parse_u64(value, request.rid);
    } else if (key == "session") {
      numeric_ok = parse_u64(value, request.session);
    } else if (key == "from") {
      numeric_ok = parse_u64(value, request.from);
    } else if (key == "limit") {
      numeric_ok = parse_u64(value, request.limit);
    } else if (key == "spec") {
      request.spec_body = value;
    } else if (key == "derive_seed") {
      request.derive_seed = value == "1";
    } else if (key == "format") {
      request.format = value;
    } else if (key == "eval") {
      numeric_ok = parse_u64(value, request.eval);
      request.has_observation = true;
    } else if (key == "value") {
      // Times are finite and non-negative: a NaN would never compare
      // equal to its own re-delivery, and garbage must not read as 0 s.
      numeric_ok = parse_double(value, request.value_s) &&
                   request.value_s >= 0.0;
      request.has_observation = true;
    } else if (key == "cost") {
      numeric_ok =
          parse_double(value, request.cost_s) && request.cost_s >= 0.0;
      request.has_observation = true;
    } else if (key == "status") {
      request.status = value;
      request.has_observation = true;
    } else {
      error = "unknown request key '" + key + "'";
      return false;
    }
    if (!numeric_ok) {
      error = "bad number in request key '" + key + "': '" + value + "'";
      return false;
    }
  }
  if (request.verb.empty()) {
    error = "request without a verb";
    return false;
  }
  return true;
}

std::string encode_response(const Response& response) {
  std::ostringstream out;
  out << "res rid=" << response.rid << " ok=" << (response.ok ? 1 : 0);
  if (!response.error.empty()) out << " error=" << escape(response.error);
  for (const auto& [key, value] : response.fields) {
    out << " " << key << "=" << escape(value);
  }
  for (const auto& record : response.records) {
    out << " rec=" << escape(record);
  }
  return out.str();
}

bool decode_response(const std::string& payload, Response& response,
                     std::string& error) {
  std::string type;
  std::vector<std::pair<std::string, std::string>> pairs;
  if (!tokenize(payload, type, pairs, error)) return false;
  if (type != "res") {
    error = "not a response payload";
    return false;
  }
  response = Response{};
  for (auto& [key, value] : pairs) {
    if (key == "rid") {
      if (!parse_u64(value, response.rid)) {
        error = "bad number in response key 'rid': '" + value + "'";
        return false;
      }
    } else if (key == "ok") {
      response.ok = value == "1";
    } else if (key == "error") {
      response.error = std::move(value);
    } else if (key == "rec") {
      response.records.push_back(std::move(value));
    } else {
      response.fields[key] = std::move(value);
    }
  }
  return true;
}

}  // namespace robotune::service
