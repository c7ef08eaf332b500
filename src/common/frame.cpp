#include "common/frame.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <ostream>

#include "common/crc32.h"

namespace robotune {

namespace {

constexpr std::size_t kCrcDigits = 8;

/// "<crc:8 hex> <len> " into `head`; returns its length.
int format_header(std::string_view payload, char (&head)[32]) {
  return std::snprintf(head, sizeof(head), "%08x %zu ", crc32(payload),
                       payload.size());
}

int lower_hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

void write_frame(std::ostream& out, std::string_view payload) {
  char head[32];
  out.write(head, format_header(payload, head));
  out << payload << '\n';
}

std::string frame_message(std::string_view payload) {
  char head[32];
  const int head_len = format_header(payload, head);
  std::string out;
  out.reserve(static_cast<std::size_t>(head_len) + payload.size() + 1);
  out.append(head, static_cast<std::size_t>(head_len));
  out.append(payload);
  out.push_back('\n');
  return out;
}

bool unframe_line(std::string_view line, std::string_view& payload,
                  std::string& error, std::size_t max_payload) {
  // At minimum: 8 hex digits, a space, one length digit, a space.
  if (line.size() < kCrcDigits + 3 || line[kCrcDigits] != ' ') {
    error = "bad frame";
    return false;
  }
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < kCrcDigits; ++i) {
    const int nibble = lower_hex_value(line[i]);
    if (nibble < 0) {
      error = "bad frame checksum field";
      return false;
    }
    crc = (crc << 4) | static_cast<std::uint32_t>(nibble);
  }
  const char* const len_begin = line.data() + kCrcDigits + 1;
  const char* const line_end = line.data() + line.size();
  std::size_t len = 0;
  const auto [len_end, ec] = std::from_chars(len_begin, line_end, len);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && len > max_payload)) {
    error = "frame too large";
    return false;
  }
  if (ec != std::errc() || len_end == line_end || *len_end != ' ') {
    error = "bad frame length field";
    return false;
  }
  payload = std::string_view(len_end + 1, line_end);
  if (payload.size() != len) {
    error = "frame length mismatch (torn)";
    return false;
  }
  if (crc32(payload) != crc) {
    error = "frame checksum mismatch (corrupt)";
    return false;
  }
  return true;
}

}  // namespace robotune
