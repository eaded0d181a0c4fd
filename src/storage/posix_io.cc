#include "storage/posix_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "common/os.h"

namespace vitri::storage {

const char* FileSyncModeName(FileSyncMode mode) {
  switch (mode) {
    case FileSyncMode::kFsync:
      return "fsync";
    case FileSyncMode::kFdatasync:
      return "fdatasync";
    case FileSyncMode::kNone:
      return "none";
  }
  return "unknown";
}

Status ReadFullyAt(int fd, uint8_t* buf, size_t n, off_t offset) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, buf, n, offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + ErrnoString(errno));
    }
    if (r == 0) {
      return Status::IoError("pread: unexpected end of file");
    }
    buf += r;
    offset += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFullyAt(int fd, const uint8_t* buf, size_t n, off_t offset) {
  while (n > 0) {
    const ssize_t r = ::pwrite(fd, buf, n, offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") + ErrnoString(errno));
    }
    if (r == 0) {
      return Status::IoError("pwrite: wrote no bytes");
    }
    buf += r;
    offset += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status SyncFd(int fd, FileSyncMode mode) {
  if (mode == FileSyncMode::kNone) return Status::OK();
  for (;;) {
    int rc;
    if (mode == FileSyncMode::kFdatasync) {
#if defined(__APPLE__)
      rc = ::fsync(fd);  // macOS has no fdatasync; fsync is the superset.
#else
      rc = ::fdatasync(fd);
#endif
    } else {
      rc = ::fsync(fd);
    }
    if (rc == 0) return Status::OK();
    if (errno == EINTR) continue;
    return Status::IoError(std::string(FileSyncModeName(mode)) + ": " +
                           ErrnoString(errno));
  }
}

Status SyncDir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + ErrnoString(errno));
  }
  const Status s = SyncFd(fd, FileSyncMode::kFsync);
  ::close(fd);
  if (!s.ok()) {
    return Status::IoError("fsync(" + path + "): " + s.message());
  }
  return Status::OK();
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace vitri::storage
