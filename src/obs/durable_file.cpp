#include "obs/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace robotune::obs {

namespace {

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash == 0 ? 1 : slash);
}

}  // namespace

bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& fill,
                           bool fsync) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return false;
  fill(out);
  out.close();
  if (!out || (fsync && !fsync_path(tmp)) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return !fsync || fsync_path(parent_dir(path));
}

}  // namespace robotune::obs
