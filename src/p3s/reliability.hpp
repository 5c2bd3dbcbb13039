// Reliable request layer configuration (DESIGN.md "Reliability"). Off by
// default: with `enabled == false` every client behaves exactly like the
// fire-and-forget protocol (bit-identical wire traffic, pinned by the
// determinism tests). Enabled, each request the client sends — DS publish,
// RS fetch, PBE-TS token grant, registration, metadata sync — carries a
// deadline; expiry re-sends with capped exponential backoff and jitter
// drawn from the client's own DRBG, so retry schedules are deterministic
// per client seed. All times are in the network's time units: logical ticks
// on AsyncNetwork, the network whose seeded fault plans exercise this layer.
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace p3s::core {

struct ReliabilityConfig {
  bool enabled = false;
  /// Base request timeout; doubles (capped) per attempt.
  double timeout = 64.0;
  double backoff = 2.0;
  double max_timeout = 1024.0;
  /// Deadline is scaled by a uniform factor in [1-jitter, 1+jitter] so
  /// retry storms from many clients decorrelate.
  double jitter = 0.25;
  /// Attempts before the request is abandoned and surfaced as a failure.
  std::size_t max_attempts = 10;
  /// Consecutive sync/registration timeouts before the client assumes the
  /// DS restarted and re-establishes the secure channel.
  std::size_t reconnect_after = 3;
  /// Subscriber heartbeat period for kMetaSyncRequest (gap detection even
  /// when no broadcast arrives at all).
  double sync_interval = 256.0;
};

/// Timeout for attempt `attempt` (0-based): min(timeout·backoff^attempt,
/// max_timeout), jittered from `rng`. Draws from `rng` only when jitter is
/// on — so a run without faults (no retries, attempt 0 drawn once per
/// request) stays cheap and deterministic.
double retry_timeout(const ReliabilityConfig& config, std::size_t attempt,
                     Rng& rng);

}  // namespace p3s::core
