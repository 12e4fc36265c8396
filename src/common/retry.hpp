// RetryPolicy: bounded exponential backoff with deterministic jitter.
//
// The recovery half of the fault model (DESIGN.md "Failure model"):
// callers facing a transient error — an unreachable node, an RPC
// deadline expiry — re-issue the operation after an exponentially
// growing delay. Jitter is drawn from the caller's seeded Rng so two
// runs with the same seed back off identically; there is no wall clock
// and no global randomness anywhere in the policy.
#pragma once

#include <algorithm>

#include "common/result.hpp"
#include "common/rng.hpp"

namespace mgfs {

struct RetryPolicy {
  int max_attempts = 4;  // total tries, including the first

  static constexpr double kBase = 0.010;       // first retry's backoff (s)
  static constexpr double kMultiplier = 2.0;   // growth per retry
  static constexpr double kMaxBackoff = 1.0;   // backoff ceiling (s)
  static constexpr double kJitter = 0.5;       // +/- share of the delay

  /// Is a `attempt`-th failure (0-based) final under this policy?
  bool exhausted(int attempt) const { return attempt + 1 >= max_attempts; }

  /// Delay before retry number `attempt` + 1 (attempt is 0-based).
  static double backoff(int attempt, Rng& rng) {
    double d = kBase;
    for (int i = 0; i < attempt; ++i) d *= kMultiplier;
    d = std::min(d, kMaxBackoff);
    return d * rng.uniform(1.0 - kJitter, 1.0 + kJitter);
  }
};

/// Errors worth re-issuing: the peer (or path) may heal. Everything
/// else — permission, namespace, media loss — is final.
inline bool retryable(Errc e) {
  return e == Errc::unavailable || e == Errc::timed_out || e == Errc::gated;
}

}  // namespace mgfs
