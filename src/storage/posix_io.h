#ifndef VITRI_STORAGE_POSIX_IO_H_
#define VITRI_STORAGE_POSIX_IO_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/status.h"

namespace vitri::storage {

/// How a file-backed store turns "written" into "durable". The choice
/// trades safety for throughput: fdatasync skips flushing file metadata
/// (mtime etc.) that recovery never reads, and kNone leaves durability
/// to the OS writeback daemon — benchmarks only.
enum class FileSyncMode : uint8_t {
  kFsync = 0,
  kFdatasync = 1,
  kNone = 2,
};

const char* FileSyncModeName(FileSyncMode mode);

/// pread/pwrite may transfer fewer bytes than asked (signals, quotas,
/// disk-full for writes) or fail with EINTR without transferring
/// anything. Neither is corruption or a hard fault: these loop until the
/// full span moved, retrying EINTR, advancing past short transfers.
Status ReadFullyAt(int fd, uint8_t* buf, size_t n, off_t offset);
Status WriteFullyAt(int fd, const uint8_t* buf, size_t n, off_t offset);

/// Makes everything written to `fd` durable per `mode`, with the same
/// EINTR-retry discipline as the transfer paths. kNone returns OK
/// without touching the kernel.
Status SyncFd(int fd, FileSyncMode mode);

/// fsyncs the directory containing `path` (or `path` itself if it is a
/// directory). Required after rename()/creat() for the *name* to be
/// durable — syncing the file makes its bytes safe, not its dirent.
Status SyncDir(const std::string& path);

/// Directory component of `path` ("." when there is no slash). Helper
/// for the sync-file-then-sync-parent-dir dance.
std::string ParentDir(const std::string& path);

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_POSIX_IO_H_
