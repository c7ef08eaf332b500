// CRC-framed line codec, shared by every line-oriented format that must
// detect a torn write or a bit flip instead of half-parsing it: the v3
// session journal, the session spec file, the fleet event journal, and
// the service wire protocol.  One frame is one line:
//
//   <crc32:8 lowercase hex> <len:decimal payload bytes> <payload>\n
//
// The decoder accepts lowercase hex only — the one form any writer has
// ever emitted — so a frame has exactly one valid spelling.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

namespace robotune {

/// Streams one framed line (header, payload, trailing newline) without
/// copying the payload.
void write_frame(std::ostream& out, std::string_view payload);

/// Returns one framed line, trailing newline included.
std::string frame_message(std::string_view payload);

/// Splits one frame line (no trailing newline) into its payload, a view
/// into `line`.  Returns false with `error` set on any framing
/// violation: short line, bad checksum field (uppercase hex included),
/// bad length field, a length above `max_payload`, a length mismatch
/// (torn write), or a CRC mismatch (bit flip).
bool unframe_line(
    std::string_view line, std::string_view& payload, std::string& error,
    std::size_t max_payload = std::numeric_limits<std::size_t>::max());

}  // namespace robotune
