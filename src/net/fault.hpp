// Seeded, replayable network-fault schedule, consumed by AsyncNetwork (the
// one network that injects faults). A FaultPlan owns every random decision
// fault injection makes — per-link drop/duplicate/reorder probabilities,
// extra delivery delay, and endpoint blackout windows — and draws them all
// from one deterministic stream keyed by a single seed. Replaying a chaos
// schedule is therefore one number: reconstruct the plan with the same seed
// and the same configuration calls and every drop/dup/delay lands on the
// same frame.
//
// The decision stream is a seeded xoshiro generator rather than a literal
// ReplayRng: ReplayRng replays a finite pre-drawn byte budget, but a fault
// schedule cannot know its draw count up front (it depends on how much
// traffic the protocol generates, including retries the faults themselves
// provoke). The seeded stream gives the same replay-by-seed property with
// unbounded draws.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace p3s::net {

/// Per-(from, to) fault probabilities. Delay is in AsyncNetwork logical
/// ticks (every send and every delivery is one tick).
struct LinkFaults {
  double drop = 0.0;       // P(frame lost on the wire)
  double duplicate = 0.0;  // P(frame delivered twice)
  double reorder = 0.0;    // P(another in-flight frame overtakes this one)
  double delay_max = 0.0;  // extra delivery delay, uniform in [0, delay_max)
};

/// [from_time, until_time): the endpoint is dark — frames it sends are lost
/// at send time, frames addressed to it are lost at delivery time.
struct BlackoutWindow {
  std::string endpoint;
  double from_time = 0.0;
  double until_time = 0.0;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Faults applied to every link without a per-link override.
  void set_default(LinkFaults faults) { default_ = faults; }
  void set_link(const std::string& from, const std::string& to,
                LinkFaults faults);
  void add_blackout(const std::string& endpoint, double from_time,
                    double until_time);

  const LinkFaults& faults_for(const std::string& from,
                               const std::string& to) const;
  bool in_blackout(const std::string& endpoint, double time) const;

  // --- decisions (each consumes from the seeded stream when the relevant
  // probability is strictly between 0 and 1) -------------------------------
  bool should_drop(const std::string& from, const std::string& to);
  bool should_duplicate(const std::string& from, const std::string& to);
  bool should_reorder(const std::string& from, const std::string& to);
  double delay(const std::string& from, const std::string& to);
  /// Uniform index in [0, bound) for reorder victim selection. bound > 0.
  std::size_t pick(std::size_t bound);

 private:
  bool chance(double p);

  std::uint64_t seed_;
  TestRng rng_;
  LinkFaults default_;
  std::map<std::pair<std::string, std::string>, LinkFaults> links_;
  std::vector<BlackoutWindow> blackouts_;
};

}  // namespace p3s::net
