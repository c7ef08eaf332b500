// The one way this project replaces a whole file on disk: the memo
// state, session journals, spec files, and the trace, metrics and
// Prometheus dumps all go through write_file_atomically, so a reader
// sees either the previous file or the complete new one, never a torn
// mix.  (Appends — the fleet event journal — do not come through here.)
//
// The protocol: `fill` streams into `<path>.tmp`; the stream is closed
// and its state checked *after* the close, because the last buffer
// reaches the disk at close; only a clean close is renamed over `path`.
// Any failure removes the temp file, leaves `path` untouched and
// returns false.  With `fsync`, the temp file is synced before the
// rename and the parent directory after it, so the rename itself is
// durable.  The success path is one open, the streamed writes, one
// close and one rename — no copy of the file is built in memory.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace robotune::obs {

bool write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& fill,
                           bool fsync = false);

/// fsync(2) of a file or directory by path.  False when it cannot be
/// opened or the sync fails.
bool fsync_path(const std::string& path);

}  // namespace robotune::obs
