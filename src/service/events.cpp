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

bool parse_event(std::string_view payload, FleetEvent& event) {
  std::size_t pos = 0;
  return parse_literal(payload, pos, "{\"seq\":") &&
         parse_u64(payload, pos, event.seq) &&
         parse_literal(payload, pos, ",\"sid\":") &&
         parse_u64(payload, pos, event.session) &&
         parse_literal(payload, pos, ",\"ts_ms\":") &&
         parse_i64(payload, pos, event.ts_ms) &&
         parse_literal(payload, pos, ",\"kind\":") &&
         parse_json_string(payload, pos, event.kind) &&
         parse_literal(payload, pos, ",\"detail\":") &&
         parse_json_string(payload, pos, event.detail) &&
         parse_literal(payload, pos, "}") && pos == payload.size();
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
                             core::LoadMode mode, LoadReport* report) {
  out.clear();
  if (report != nullptr) *report = LoadReport{};
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const core::FramedReadReport framed = core::read_framed(
      in, kHeader, mode, "load_events", path, [&out](std::string_view payload) {
        FleetEvent event;
        if (!parse_event(payload, event)) {
          throw InvalidArgument("malformed event record");
        }
        if (event.seq <= (out.empty() ? 0 : out.back().seq)) {
          throw InvalidArgument("non-monotonic sequence number");
        }
        out.push_back(std::move(event));
      });
  if (report != nullptr) {
    report->events = out.size();
    report->dropped = framed.dropped;
    report->recovered = framed.dropped > 0;
    // An empty file is a journal whose header was never written: fresh.
    report->header_ok = framed.header_ok || framed.dropped == 0;
    report->valid_bytes = framed.valid_bytes;
  }
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
