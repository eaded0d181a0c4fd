#ifndef VITRI_COMMON_SIMD_POLICY_H_
#define VITRI_COMMON_SIMD_POLICY_H_

namespace vitri {

/// The one process-wide switch for every runtime-dispatched backend:
/// the distance kernels (linalg/kernels.h) and the CRC-32C
/// (common/crc32c.h). Each layer fixes its backend on first use: its
/// widest one for this CPU, or, when SIMD is disabled, its portable
/// scalar one — the reference its SIMD backends are tested against.
///
/// SIMD is disabled when VITRI_DISABLE_SIMD is set to a truthy value
/// ("1", or any non-empty string other than "0"; read once) or after
/// DisableSimd().
bool SimdDisabled();

/// Disables SIMD for the rest of the process. Call at startup (the
/// CLI's `--no-simd`), before any kernel or checksum runs: a layer that
/// already fixed its backend keeps it.
void DisableSimd();

}  // namespace vitri

#endif  // VITRI_COMMON_SIMD_POLICY_H_
