#include "common/os.h"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vitri {

std::string ErrnoString(int errno_value) {
  char buf[256] = {};
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU strerror_r returns a pointer that may or may not be buf.
  return std::string(strerror_r(errno_value, buf, sizeof(buf)));
#else
  // XSI strerror_r fills buf and returns 0 on success.
  if (strerror_r(errno_value, buf, sizeof(buf)) != 0) {
    std::snprintf(buf, sizeof(buf), "errno %d", errno_value);
  }
  return std::string(buf);
#endif
}

const char* GetEnv(const char* name) {
  // Safe per the contract in the header: no setenv/putenv after startup.
  return std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
}

std::optional<size_t> GetEnvPositive(const char* name) {
  const char* text = GetEnv(name);
  if (text == nullptr) return std::nullopt;
  const char* end = text + std::strlen(text);
  size_t value = 0;
  // from_chars takes no sign, space or prefix for an unsigned type, and
  // reports overflow instead of saturating.
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value == 0) return std::nullopt;
  return value;
}

Result<size_t> ReadFull(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read: ") + ErrnoString(errno));
    }
    if (r == 0) break;  // EOF: the peer closed the stream.
    done += static_cast<size_t>(r);
  }
  return done;
}

Status WriteFull(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::write(fd, p + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("write: ") + ErrnoString(errno));
    }
    if (r == 0) return Status::IoError("write: wrote no bytes");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

void IgnoreSigpipe() {
  // sigaction over signal() for a defined, portable disposition swap.
  struct sigaction sa = {};
  sa.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &sa, nullptr);
}

}  // namespace vitri
