#include "common/simd_policy.h"

#include <atomic>
#include <cstring>

#include "common/check.h"
#include "common/os.h"

namespace vitri {
namespace {

// -1 = not yet read from the environment, 0 = enabled, 1 = disabled.
std::atomic<int> g_simd_disabled{-1};

bool SimdDisabledByEnv() {
  const char* env = GetEnv("VITRI_DISABLE_SIMD");
  if (env == nullptr || env[0] == '\0') return false;
  return std::strcmp(env, "0") != 0;
}

}  // namespace

bool SimdDisabled() {
  int disabled = g_simd_disabled.load(std::memory_order_relaxed);
  if (disabled < 0) {
    // Concurrent first uses read the same environment, so the race is
    // benign; compare_exchange keeps any DisableSimd() pin authoritative.
    g_simd_disabled.compare_exchange_strong(
        disabled, SimdDisabledByEnv() ? 1 : 0, std::memory_order_relaxed);
    disabled = g_simd_disabled.load(std::memory_order_relaxed);
  }
  return disabled == 1;
}

void DisableSimd() {
  // A layer that read "enabled" has fixed a SIMD backend; pinning scalar
  // now would leave the layers disagreeing.
  VITRI_DCHECK(g_simd_disabled.load(std::memory_order_relaxed) != 0);
  g_simd_disabled.store(1, std::memory_order_relaxed);
}

}  // namespace vitri
