#ifndef VITRI_COMMON_OS_H_
#define VITRI_COMMON_OS_H_

#include <cstddef>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace vitri {

/// Formats `errno_value` like strerror(3) but through strerror_r, so
/// error paths stay thread-safe (strerror shares one static buffer and
/// is flagged by clang-tidy's concurrency-mt-unsafe check).
std::string ErrnoString(int errno_value);

/// getenv(3) behind a single audited funnel. getenv itself is only
/// hazardous concurrently with setenv/putenv, which this codebase never
/// calls after startup; routing every lookup through here keeps that
/// justification in one place instead of a NOLINT per call site.
/// Returns nullptr when the variable is unset, like getenv.
const char* GetEnv(const char* name);

/// GetEnv(name) read as a positive decimal count: digits only, greater
/// than zero, within size_t. Returns nullopt when the variable is unset
/// or malformed — "0", "-1", "+4", " 4", "4x" and "bogus" alike — so a
/// bad value falls back to the caller's default instead of wrapping to
/// a huge count.
std::optional<size_t> GetEnvPositive(const char* name);

/// Full-transfer read(2)/write(2) loops for streaming descriptors
/// (sockets, pipes): retry EINTR, advance past short transfers, and
/// format failures through ErrnoString so error strings stay mt-safe.
/// These are the positionless siblings of storage/posix_io.h's
/// ReadFullyAt/WriteFullyAt (which serve pread/pwrite-backed pagers).
///
/// ReadFull returns the bytes transferred: exactly `n`, or fewer iff
/// the peer closed the stream first (0 = EOF before any byte — a clean
/// connection close, which framed protocols must distinguish from a
/// frame truncated mid-read).
Result<size_t> ReadFull(int fd, void* buf, size_t n);

/// Writes all `n` bytes or fails. A peer that disappeared mid-write
/// surfaces as IoError (EPIPE/ECONNRESET), not a signal — pair with
/// IgnoreSigpipe() in any process that writes to sockets.
Status WriteFull(int fd, const void* buf, size_t n);

/// Ignores SIGPIPE process-wide so a vanished peer turns socket writes
/// into EPIPE errors instead of killing the process. Idempotent; call
/// once at startup (the serving layer calls it from Server::Start).
void IgnoreSigpipe();

}  // namespace vitri

#endif  // VITRI_COMMON_OS_H_
