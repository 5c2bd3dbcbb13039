// Workloads, their seeded generator, the deployment of the real P3S
// components over BenchNetwork, and the plaintext delivery oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "harness.hpp"
#include "p3s/system.hpp"
#include "pbe/schema.hpp"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  bool paper_group;            // 160-bit r / 512-bit q instead of the test group
  std::size_t subscribers;     // N_s
  std::size_t matches;         // f·N_s: subscribers every publication matches
  std::size_t payload_bytes;
  std::size_t interests;       // interests per subscriber
  bool shared_values;          // interests on an attribute all use one value
  std::size_t denied;          // subscribers whose attributes fail the policy
  bool swap_per_pub;           // one interest swap before every publication
  double pubs_per_second;      // measured publications per --seconds
  std::size_t warmup;          // publications before the measured phase
  std::size_t setups;          // set-ups per run; setup_s is their median
};

const WorkloadSpec* find_workload(const std::string& name);

/// The paper's P ≈ 40: 13 attributes × 8 values = 39 bits.
p3s::pbe::MetadataSchema bench_schema();

struct Swap {
  std::size_t sub = 0;
  p3s::pbe::Interest drop;
  p3s::pbe::Interest add;
};

struct PubPlan {
  std::optional<Swap> swap;
  p3s::pbe::Metadata metadata;
  std::vector<std::uint8_t> matches;  // per subscriber, after the swap
  std::uint64_t payload_seed = 0;
};

/// Everything a run's inputs are made of, generated from the seed alone.
struct Scenario {
  const WorkloadSpec* spec = nullptr;
  p3s::pbe::MetadataSchema schema = bench_schema();
  p3s::abe::PolicyNode policy = p3s::abe::PolicyNode::leaf("staff");
  std::vector<std::set<std::string>> attributes;           // per subscriber
  std::vector<std::vector<p3s::pbe::Interest>> interests;  // initial
  std::vector<PubPlan> plans;
};

Scenario generate(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t publications);

/// Oracle bookkeeping: outcomes checked and outcomes that were wrong.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  void fail(const std::string& why);
};

/// Raw timings of one round; divide by `slowdown` for reference speed.
struct RoundTimes {
  double wall = 0.0;        // swap + publish + drain + GC
  double cpu = 0.0;         // process CPU over the same interval
  double deliver_ms = 0.0;  // publish call → last expected delivery
  double swap_ms = -1.0;    // interest change → token set complete; < 0: none
  double slowdown = 1.0;    // calibration around the round ÷ the reference
};

/// One deployment of ARA, DS, RS, PBE-TS, anonymizer, one publisher and the
/// workload's subscribers, with reliability and hardening off. Construction
/// is the benchmark's set-up: group load, deploy, registrations and the
/// initial subscribes (each one timed into `subscribe_ms` at reference
/// speed, calibrated on both sides).
class Deployment {
 public:
  Deployment(const Scenario& scenario, std::uint64_t seed, Tally& tally,
             std::vector<double>& subscribe_ms);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs plan `index` in the closed loop and checks it against the oracle.
  RoundTimes round(std::size_t index);

  /// Set-up time at reference speed, calibration runs excluded.
  double setup_seconds() const { return setup_seconds_; }
  BenchNetwork& net() { return net_; }
  const p3s::pairing::Pairing& pairing() const { return *pairing_; }
  p3s::core::P3sSystem& system() { return *system_; }
  const std::vector<p3s::pbe::Interest>& interests(std::size_t sub) const {
    return subs_[sub].interests;
  }
  /// Running digest of every delivery seen (subscriber, GUID, content check).
  std::uint64_t delivery_digest() const { return digest_; }
  std::uint64_t deliveries() const { return delivered_; }

 private:
  struct Client {
    std::unique_ptr<p3s::core::Subscriber> sub;
    std::vector<p3s::pbe::Interest> interests;
    bool satisfies = true;
    std::size_t undecryptable = 0;  // last seen counters
    std::size_t fetch_failures = 0;
  };
  struct Seen {
    std::size_t sub;
    bool guid_ok;
    bool payload_ok;
  };

  double subscribe(std::size_t sub, const p3s::pbe::Interest* drop,
                   const p3s::pbe::Interest& add);
  void check_round(std::size_t index, const PubPlan& plan);

  const Scenario& scenario_;
  Tally& tally_;
  // Declaration order is destruction order in reverse: clients unregister
  // from the network, so the network and the DRBG outlive them.
  std::shared_ptr<const p3s::pairing::Pairing> pairing_;
  BenchNetwork net_;
  p3s::crypto::Drbg rng_;
  std::unique_ptr<p3s::core::P3sSystem> system_;
  std::unique_ptr<p3s::core::Publisher> publisher_;
  std::vector<Client> subs_;

  p3s::Bytes payload_;
  p3s::Guid guid_;
  std::vector<Seen> seen_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  std::uint64_t delivered_ = 0;
  double setup_seconds_ = 0.0;
};

}  // namespace perfbench
