// storage/fs.h — minimal filesystem helpers for files written to
// caller-chosen locations (obs reports, trace exports, profiles). POSIX-only,
// like the rest of the storage layer.
#ifndef TRILLIONG_STORAGE_FS_H_
#define TRILLIONG_STORAGE_FS_H_

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include "util/status.h"

namespace tg::storage {

/// `mkdir -p`: creates `dir` and every missing ancestor. Empty path and
/// already-existing directories are not errors; a path component that exists
/// as a regular file is.
inline Status MakeDirectories(const std::string& dir) {
  if (dir.empty()) return Status::Ok();
  std::string prefix;
  prefix.reserve(dir.size());
  std::size_t i = 0;
  while (i < dir.size()) {
    std::size_t slash = dir.find('/', i);
    if (slash == std::string::npos) slash = dir.size();
    prefix.assign(dir, 0, slash);
    i = slash + 1;
    if (prefix.empty()) continue;  // leading '/': root always exists
    if (::mkdir(prefix.c_str(), 0777) == 0 || errno == EEXIST) {
      // EEXIST may mean "exists as a file"; only a directory lets the next
      // component (or the final open) succeed.
      struct stat st;
      if (::stat(prefix.c_str(), &st) == 0 && !S_ISDIR(st.st_mode)) {
        return Status::IoError("not a directory: " + prefix);
      }
      continue;
    }
    return Status::IoError("cannot create directory: " + prefix);
  }
  return Status::Ok();
}

/// Creates the parent directory of `file_path` (and its ancestors) so a
/// subsequent open-for-write cannot fail on a missing directory.
inline Status EnsureParentDirectory(const std::string& file_path) {
  std::size_t slash = file_path.find_last_of('/');
  if (slash == std::string::npos) return Status::Ok();  // cwd-relative
  return MakeDirectories(file_path.substr(0, slash));
}

/// Writes `bytes` to `path` (truncating), creating missing parent
/// directories first. For host-side files only — run reports, traces,
/// profiles, Prometheus dumps: plain stdio, so nothing here counts toward
/// the `io.*` graph-transport counters or consults IoFailureHookRef(), and
/// an injected disk fault never blocks the files that describe it.
inline Status WriteFile(const std::string& path, const std::string& bytes) {
  Status made = EnsureParentDirectory(path);
  if (!made.ok()) return made;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot open for write: " + path);
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  if (std::fclose(file) != 0 || !written) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace tg::storage

#endif  // TRILLIONG_STORAGE_FS_H_
