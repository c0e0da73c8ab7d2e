// Small-file I/O: whole-file reads, and the durable replacement — the
// tmp + fsync + rename + dir-fsync dance POSIX requires before a file
// update can be called crash-safe.
//
// Plain tmp+rename survives a crash *between* the two steps, but not a
// power cut after the rename: without an fsync of the data the renamed
// file can be an empty or partial shell, and without an fsync of the
// directory the rename itself may never reach disk — losing both the old
// and the new copy.  write_file_durable() closes every window:
//
//   1. write bytes to  <path>.tmp
//   2. fsync(<path>.tmp)           — data hits disk before it is named
//   3. rename(<path>.tmp, <path>)  — atomic swap, old copy intact until now
//   4. fsync(parent directory)     — the swap itself hits disk
//
// Helpers return false instead of throwing, so each caller picks its
// policy (placement.map counts an error and carries on — losing it must
// never take the daemon down), and are cheap enough for metadata-sized
// files; tenant state belongs in the append-only store (src/store),
// which amortizes its fsyncs.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace ocep {

/// Reads the whole file at `path` into `out`; false when it cannot be
/// opened.
inline bool read_whole_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = std::move(buffer).str();
  return true;
}

/// fsync(2) on a path opened read-only; works for directories too (the
/// only portable way to flush a rename).  False on open/fsync failure.
inline bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// fsync the directory containing `path` (flushes a rename of `path`).
inline bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  return fsync_path(dir);
}

/// Replaces `path` with `bytes`, durably (see the file comment for the
/// exact sequence).  False on any failure; the tmp file is removed and
/// the old `path` (if any) is left untouched.
inline bool write_file_durable(const std::string& path,
                               std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return false;
  }
  std::size_t written = 0;
  bool ok = true;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return fsync_parent_dir(path);
}

}  // namespace ocep
