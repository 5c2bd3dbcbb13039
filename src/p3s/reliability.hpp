// Reliable request layer configuration (DESIGN.md "Reliability"). Off by
// default: with `enabled == false` every client behaves exactly like the
// fire-and-forget protocol (bit-identical wire traffic, pinned by the
// determinism tests). Enabled, each request the client sends — DS publish,
// RS fetch, PBE-TS token grant, DS registration, metadata sync — carries a
// deadline; expiry re-sends with capped exponential backoff and jitter
// drawn from the client's own DRBG, so retry schedules are deterministic
// per client seed. All times are in the network's time units: on
// AsyncNetwork, logical ticks, one per send and one per delivery.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace p3s::core {

struct ReliabilityConfig {
  bool enabled = false;
  /// Base request timeout; doubles per attempt, up to max_timeout.
  double timeout = 64.0;
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

/// Timeout for attempt `attempt` (0-based): min(timeout·2^attempt,
/// max_timeout), jittered from `rng`. Draws from `rng` only when jitter is
/// on — so a run without faults (no retries, attempt 0 drawn once per
/// request) stays cheap and deterministic.
double retry_timeout(const ReliabilityConfig& config, std::size_t attempt,
                     Rng& rng);

/// The reliable layer's p3s.client.* counters, shared by every client.
struct ClientMetrics {
  obs::Counter& retry;
  obs::Counter& retry_exhausted;
  obs::Counter& reconnects;
  obs::Counter& timeouts;
};
ClientMetrics& client_metrics();

/// One retry pass over `pending` (a map to entries with `deadline` and
/// `attempts`, the sends so far): each entry past its deadline is re-sent
/// by `resend(entry)`, counted, and given the next backoff. One out of
/// attempts is dropped and counted in `failures` instead, surfacing the
/// failure at the application level (§6.1) rather than retrying forever.
template <class Map, class Resend>
void retry_due(Map& pending, double now, const ReliabilityConfig& config,
               Rng& rng, std::size_t& failures, std::size_t& retries,
               Resend&& resend) {
  ClientMetrics& metrics = client_metrics();
  for (auto it = pending.begin(); it != pending.end();) {
    auto& p = it->second;
    if (now < p.deadline) {
      ++it;
      continue;
    }
    metrics.timeouts.inc();
    if (p.attempts >= config.max_attempts) {
      ++failures;
      metrics.retry_exhausted.inc();
      it = pending.erase(it);
      continue;
    }
    resend(p);
    ++p.attempts;
    ++retries;
    metrics.retry.inc();
    p.deadline = now + retry_timeout(config, p.attempts - 1, rng);
    ++it;
  }
}

}  // namespace p3s::core
