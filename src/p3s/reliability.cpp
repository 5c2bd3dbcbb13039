#include "p3s/reliability.hpp"

#include <algorithm>

#include "obs/catalog.hpp"

namespace p3s::core {

ClientMetrics& client_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static ClientMetrics m{reg.counter(obs::names::kClientRetryTotal),
                         reg.counter(obs::names::kClientRetryExhaustedTotal),
                         reg.counter(obs::names::kClientRetryReconnectsTotal),
                         reg.counter(obs::names::kClientTimeoutTotal)};
  return m;
}

double retry_timeout(const ReliabilityConfig& config, std::size_t attempt,
                     Rng& rng) {
  double t = config.timeout;
  for (std::size_t i = 0; i < attempt; ++i) {
    t = std::min(t * 2.0, config.max_timeout);
    if (t >= config.max_timeout) break;
  }
  t = std::min(t, config.max_timeout);
  if (config.jitter > 0.0) {
    constexpr std::uint64_t kBuckets = 1u << 16;
    const double u = static_cast<double>(rng.uniform(kBuckets)) /
                     static_cast<double>(kBuckets - 1);
    t *= 1.0 - config.jitter + 2.0 * config.jitter * u;
  }
  return t;
}

}  // namespace p3s::core
