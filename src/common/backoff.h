// Deterministic jittered exponential backoff, shared by the query engine's
// reliable frame retries and the broadcast layer's per-edge retransmits.
// Jitter is derived from stable identifiers (never ambient randomness) so
// seeded simulation replays stay byte-identical.

#ifndef PIER_COMMON_BACKOFF_H_
#define PIER_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/hash.h"
#include "common/time_util.h"

namespace pier {

/// Delay before retransmit attempt `attempt` (the first retry is attempt 1):
/// initial * 2^(attempt-1), capped at max, then scaled by a factor in
/// [1 - jitter, 1 + jitter] derived from `salt` and the attempt number.
inline Duration RetryDelay(Duration initial, Duration max, double jitter,
                           uint64_t salt, int attempt) {
  Duration base = initial;
  for (int i = 1; i < attempt && base < max; ++i) base *= 2;
  base = std::min(base, max);
  if (jitter > 0) {
    uint64_t h = Mix64(salt ^ (static_cast<uint64_t>(attempt) << 56));
    double frac = static_cast<double>(h >> 11) / 9007199254740992.0;  // 2^53
    base = static_cast<Duration>(
        static_cast<double>(base) * (1.0 - jitter + 2.0 * jitter * frac));
  }
  return std::max<Duration>(base, kMillisecond);
}

}  // namespace pier

#endif  // PIER_COMMON_BACKOFF_H_
