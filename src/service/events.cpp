#include "service/events.h"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"

namespace robotune::service {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kHeader = "robotune-events v1";

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string encode_event(const FleetEvent& event) {
  std::string out = "{\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"sid\":";
  out += std::to_string(event.session);
  out += ",\"ts_ms\":";
  out += std::to_string(event.ts_ms);
  out += ",\"kind\":\"";
  out += obs::json_escape(event.kind);
  out += "\",\"detail\":\"";
  out += obs::json_escape(event.detail);
  out += "\"}";
  return out;
}

bool parse_literal(std::string_view s, std::size_t& pos,
                   std::string_view literal) {
  if (s.substr(pos, literal.size()) != literal) return false;
  pos += literal.size();
  return true;
}

bool parse_u64(std::string_view s, std::size_t& pos, std::uint64_t& out) {
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr == begin) return false;
  pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

bool parse_i64(std::string_view s, std::size_t& pos, std::int64_t& out) {
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr == begin) return false;
  pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parses a JSON string (including the surrounding quotes) produced by
/// obs::json_escape: the short escapes plus \u00XX for control bytes.
bool parse_json_string(std::string_view s, std::size_t& pos,
                       std::string& out) {
  out.clear();
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  while (pos < s.size()) {
    const char c = s[pos];
    if (c == '"') {
      ++pos;
      return true;
    }
    if (c != '\\') {
      out.push_back(c);
      ++pos;
      continue;
    }
    if (pos + 1 >= s.size()) return false;
    const char esc = s[pos + 1];
    pos += 2;
    switch (esc) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case '/':
        out.push_back('/');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'u': {
        if (pos + 4 > s.size()) return false;
        int value = 0;
        for (int i = 0; i < 4; ++i) {
          const int nibble = hex_nibble(s[pos + static_cast<std::size_t>(i)]);
          if (nibble < 0) return false;
          value = (value << 4) | nibble;
        }
        if (value > 0xff) return false;  // the writer never emits these
        out.push_back(static_cast<char>(value));
        pos += 4;
        break;
      }
      default:
        return false;
    }
  }
  return false;  // unterminated string
}

bool parse_event(std::string_view payload, FleetEvent& event,
                 std::string& why) {
  std::size_t pos = 0;
  why = "malformed event record";
  if (!parse_literal(payload, pos, "{\"seq\":")) return false;
  if (!parse_u64(payload, pos, event.seq)) return false;
  if (!parse_literal(payload, pos, ",\"sid\":")) return false;
  if (!parse_u64(payload, pos, event.session)) return false;
  if (!parse_literal(payload, pos, ",\"ts_ms\":")) return false;
  if (!parse_i64(payload, pos, event.ts_ms)) return false;
  if (!parse_literal(payload, pos, ",\"kind\":")) return false;
  if (!parse_json_string(payload, pos, event.kind)) return false;
  if (!parse_literal(payload, pos, ",\"detail\":")) return false;
  if (!parse_json_string(payload, pos, event.detail)) return false;
  if (!parse_literal(payload, pos, "}")) return false;
  if (pos != payload.size()) return false;
  why.clear();
  return true;
}

std::string rotated_path(const EventJournal::Options& options,
                         std::size_t index) {
  return options.path + "." + std::to_string(index);
}

std::vector<std::string> chain_paths(const EventJournal::Options& options) {
  std::vector<std::string> out;
  if (options.path.empty()) return out;
  std::error_code ec;
  for (std::size_t i = options.keep; i >= 1; --i) {
    const std::string path = rotated_path(options, i);
    if (fs::exists(path, ec)) out.push_back(path);
  }
  if (fs::exists(options.path, ec)) out.push_back(options.path);
  return out;
}

std::size_t count_lines(std::string_view text) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ++n;
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return n;
}

}  // namespace

bool logical_event_kind(std::string_view kind) {
  static constexpr std::string_view kLogical[] = {
      "admission.accept",  "queue.enter",        "queue.leave",
      "session.running",   "session.done",       "session.cancelled",
      "session.failed",    "cancel.requested",   "recovery.resumed",
      "recovery.completed", "recovery.cancelled", "recovery.quarantined",
  };
  for (const std::string_view candidate : kLogical) {
    if (kind == candidate) return true;
  }
  return false;
}

std::string logical_event_projection(
    const std::vector<FleetEvent>& events) {
  std::map<std::uint64_t, std::string> per_session;
  for (const FleetEvent& event : events) {
    if (event.session == 0 || !logical_event_kind(event.kind)) continue;
    std::string& stream = per_session[event.session];
    stream += "session ";
    stream += std::to_string(event.session);
    stream += ' ';
    stream += event.kind;
    stream += '\n';
  }
  std::string out;
  for (const auto& [id, stream] : per_session) out += stream;
  return out;
}

EventJournal::~EventJournal() { close(); }

bool EventJournal::enabled() const {
  std::scoped_lock lock(mutex_);
  return file_ != nullptr;
}

std::string EventJournal::path() const {
  std::scoped_lock lock(mutex_);
  return options_.path;
}

std::uint64_t EventJournal::last_seq() const {
  std::scoped_lock lock(mutex_);
  return seq_;
}

void EventJournal::close() {
  std::scoped_lock lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool EventJournal::load_file(const std::string& path,
                             std::vector<FleetEvent>& out,
                             core::LoadMode mode, LoadReport* report_out) {
  out.clear();
  LoadReport report;
  const auto deliver = [&]() {
    report.events = out.size();
    if (report_out != nullptr) *report_out = report;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    deliver();
    return false;
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  const bool strict = mode == core::LoadMode::kStrict;

  if (content.empty()) {
    if (strict) throw InvalidArgument("load_events: " + path + ": empty stream");
    deliver();
    return true;
  }
  std::size_t eol = content.find('\n');
  if (eol == std::string::npos ||
      std::string_view(content).substr(0, eol) != kHeader) {
    if (strict) {
      throw InvalidArgument("load_events: " + path + ":1: bad header");
    }
    report.header_ok = false;
    report.recovered = true;
    report.dropped = count_lines(content);
    deliver();
    return true;
  }
  std::size_t cursor = eol + 1;
  report.valid_bytes = cursor;
  std::size_t line_no = 1;
  std::uint64_t prev_seq = 0;
  while (cursor < content.size()) {
    ++line_no;
    std::string why;
    eol = content.find('\n', cursor);
    bool ok = eol != std::string::npos;
    if (!ok) why = "torn record (no trailing newline)";
    FleetEvent event;
    if (ok) {
      std::string_view payload;
      const std::string_view line(content.data() + cursor, eol - cursor);
      ok = unframe_line(line, payload, why) &&
           parse_event(payload, event, why);
      if (ok && event.seq <= prev_seq) {
        ok = false;
        why = "non-monotonic sequence number";
      }
    }
    if (!ok) {
      if (strict) {
        throw InvalidArgument("load_events: " + path + ":" +
                              std::to_string(line_no) + ": " + why);
      }
      report.recovered = true;
      report.dropped =
          count_lines(std::string_view(content).substr(cursor));
      break;
    }
    prev_seq = event.seq;
    out.push_back(std::move(event));
    cursor = eol + 1;
    report.valid_bytes = cursor;
  }
  deliver();
  return true;
}

bool EventJournal::load_chain(const Options& options,
                              std::vector<FleetEvent>& out,
                              LoadReport* report_out) {
  out.clear();
  LoadReport total;
  bool any = false;
  for (const std::string& path : chain_paths(options)) {
    std::vector<FleetEvent> events;
    LoadReport report;
    if (!load_file(path, events, core::LoadMode::kRecover, &report)) continue;
    any = true;
    out.insert(out.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.end()));
    total.events += report.events;
    total.dropped += report.dropped;
    total.recovered = total.recovered || report.recovered;
    total.header_ok = total.header_ok && report.header_ok;
    total.valid_bytes += report.valid_bytes;
  }
  if (report_out != nullptr) *report_out = total;
  return any;
}

bool EventJournal::open(const Options& options, std::string* error) {
  close();
  std::scoped_lock lock(mutex_);
  options_ = options;
  seq_ = 0;
  bytes_ = 0;
  if (options_.path.empty()) return true;  // journal disabled

  std::error_code ec;
  if (fs::exists(options_.path, ec)) {
    std::vector<FleetEvent> events;
    LoadReport report;
    load_file(options_.path, events, core::LoadMode::kRecover, &report);
    if (!report.header_ok) {
      // Corrupt beyond recovery: set the history aside (never silently
      // overwrite it) and start a fresh journal.
      fs::rename(options_.path, options_.path + ".corrupt", ec);
      if (ec) {
        if (error != nullptr) {
          *error = "cannot set aside corrupt event journal " + options_.path;
        }
        return false;
      }
    } else {
      // kill -9 case: truncate a torn tail on disk so the stream stays
      // one clean frame sequence, then continue where it left off.
      if (report.valid_bytes < fs::file_size(options_.path, ec)) {
        fs::resize_file(options_.path, report.valid_bytes, ec);
      }
      if (!events.empty()) seq_ = events.back().seq;
    }
  }
  if (seq_ == 0) {
    // Nothing durable in the active file — a crash can land right after
    // rotation; the newest rotated file carries the last sequence.
    for (std::size_t i = 1; i <= options_.keep && seq_ == 0; ++i) {
      std::vector<FleetEvent> events;
      if (load_file(rotated_path(options_, i), events,
                    core::LoadMode::kRecover) &&
          !events.empty()) {
        seq_ = events.back().seq;
      }
    }
  }

  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    if (error != nullptr) {
      *error = "cannot open event journal " + options_.path;
    }
    return false;
  }
  // Sized through the handle itself: an empty file gets its header through
  // the same handle, and nothing reopens (or truncates) a file with data.
  const long size =
      std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
  if (size < 0) {
    std::fclose(file_);
    file_ = nullptr;
    if (error != nullptr) {
      *error = "cannot size event journal " + options_.path;
    }
    return false;
  }
  bytes_ = static_cast<std::size_t>(size);
  return bytes_ > 0 || write_header_locked(error);
}

bool EventJournal::write_header_locked(std::string* error) {
  std::string header(kHeader);
  header.push_back('\n');
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    std::fclose(file_);
    file_ = nullptr;
    if (error != nullptr) {
      *error = "cannot write event journal header to " + options_.path;
    }
    return false;
  }
  std::fflush(file_);
  bytes_ = header.size();
  return true;
}

void EventJournal::emit(std::uint64_t session, std::string_view kind,
                        std::string_view detail) {
  std::scoped_lock lock(mutex_);
  if (file_ == nullptr) return;
  FleetEvent event;
  event.seq = seq_ + 1;
  event.session = session;
  event.ts_ms = wall_clock_ms();
  event.kind.assign(kind);
  event.detail.assign(detail);
  const std::string frame = frame_message(encode_event(event));
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    // Disk failure must never wedge the fleet: drop the journal, keep
    // serving.
    std::fclose(file_);
    file_ = nullptr;
    obs::count("runtime.service.events.write_failed");
    return;
  }
  // Flush every record to the OS: kill -9 then loses at most nothing,
  // power loss at most the unsynced tail (which recover-load truncates).
  std::fflush(file_);
  if (options_.fsync) ::fsync(::fileno(file_));
  seq_ = event.seq;
  bytes_ += frame.size();
  obs::count("runtime.service.events.emitted");
  if (bytes_ > options_.max_bytes) rotate_locked();
}

void EventJournal::flush() {
  std::scoped_lock lock(mutex_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
}

void EventJournal::rotate_locked() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  if (options_.keep == 0) {
    fs::remove(options_.path, ec);
  } else {
    fs::remove(rotated_path(options_, options_.keep), ec);
    for (std::size_t i = options_.keep; i-- > 1;) {
      const std::string from = rotated_path(options_, i);
      if (fs::exists(from, ec)) {
        fs::rename(from, rotated_path(options_, i + 1), ec);
      }
    }
    fs::rename(options_.path, rotated_path(options_, 1), ec);
  }
  // The fresh file continues the same monotonic sequence.  A file that
  // cannot be opened drops the journal, like a failed write.
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ != nullptr) write_header_locked(nullptr);
}

std::vector<std::string> EventJournal::chain() const {
  std::scoped_lock lock(mutex_);
  return chain_paths(options_);
}

}  // namespace robotune::service
