#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

namespace {

// Logical seconds per publication; items live one step plus the RS grace,
// so garbage collection keeps the RS store at a couple of items.
constexpr double kClockStep = 1.0;
constexpr double kTtl = 1.0;
constexpr double kGrace = 1.0;

const WorkloadSpec kWorkloads[] = {
    // At --seconds 40: 100, 100 and 40 measured publications, 30-45, 13-20
    // and 30-45 s on a 4-core VM. fanout_match and bulk_fetch give
    // deliver_p90_ms ten publications beyond it; interest_churn (up to
    // ~0.95 s a round) stops at 40 so that 22 runs of every workload fit
    // in under an hour.
    // name            paper  N_s  f·N_s payload     int shared denied swap  pubs/s warm setups
    {"fanout_match",   false, 100, 5,    1024,       1,  false, 0,     false, 2.5,   2,   5},
    {"bulk_fetch",     false, 16,  8,    256 * 1024, 1,  true,  0,     false, 2.5,   3,   9},
    {"interest_churn", true,  8,   2,    4096,       4,  false, 2,     true,  1.0,   2,   4},
};

void mix(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
}

p3s::Bytes seed_bytes(std::uint64_t seed) {
  p3s::Bytes out(8);
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  return out;
}

std::string subscriber_name(std::size_t i) {
  std::string digits = std::to_string(i);
  while (digits.size() < 3) digits.insert(digits.begin(), '0');
  return "sub-" + digits;
}

}  // namespace

void Tally::fail(const std::string& why) {
  ++failed;
  if (first_failure.empty()) first_failure = why;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

p3s::pbe::MetadataSchema bench_schema() {
  return p3s::pbe::MetadataSchema::uniform(13, 8);
}

Scenario generate(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t publications) {
  using p3s::abe::PolicyNode;
  p3s::TestRng gen(seed);
  Scenario sc;
  sc.spec = &spec;
  const auto& attrs = sc.schema.attributes();
  const std::size_t n_values = attrs.front().values.size();

  std::vector<std::size_t> shared(attrs.size());
  for (std::size_t& v : shared) v = gen.uniform(n_values);
  // Each interest constrains two attributes (6 of the 39 bits), none that
  // another interest of the same subscriber constrains: the shared match
  // prepare then always covers 6 positions per interest, whatever the seed.
  const auto fresh_interest = [&](const std::vector<p3s::pbe::Interest>& held) {
    p3s::pbe::Interest interest;
    while (interest.size() < 2) {
      const auto& at = attrs[gen.uniform(attrs.size())];
      const auto taken = [&](const p3s::pbe::Interest& other) {
        return other.count(at.name) != 0;
      };
      if (taken(interest) || std::any_of(held.begin(), held.end(), taken)) continue;
      const std::size_t a = static_cast<std::size_t>(&at - attrs.data());
      interest[at.name] =
          at.values[spec.shared_values ? shared[a] : gen.uniform(n_values)];
    }
    return interest;
  };

  if (spec.denied == 0) {
    sc.policy = PolicyNode::threshold(
        2, {PolicyNode::leaf("staff"), PolicyNode::leaf("cleared")});
  } else {
    sc.policy = PolicyNode::threshold(
        2, {PolicyNode::leaf("staff"), PolicyNode::leaf("cleared"),
            PolicyNode::leaf("ops")});
  }
  sc.attributes.assign(spec.subscribers, std::set<std::string>{"staff", "cleared"});
  for (std::size_t left = spec.denied; left > 0;) {
    auto& a = sc.attributes[gen.uniform(spec.subscribers)];
    if (a.size() == 2) {
      a = {"staff"};
      --left;
    }
  }
  sc.interests.resize(spec.subscribers);
  for (auto& held : sc.interests) {
    while (held.size() < spec.interests) held.push_back(fresh_interest(held));
  }

  // Metadata is drawn until exactly f·N_s subscribers match, so every
  // publication carries the same amount of work.
  const double hit =
      spec.shared_values
          ? std::sqrt(static_cast<double>(spec.matches) /
                      static_cast<double>(spec.subscribers))
          : 0.0;
  auto current = sc.interests;
  sc.plans.resize(publications);
  for (PubPlan& plan : sc.plans) {
    if (spec.swap_per_pub) {
      Swap swap;
      swap.sub = gen.uniform(spec.subscribers);
      auto& held = current[swap.sub];
      const std::size_t slot = gen.uniform(held.size());
      swap.drop = held[slot];
      swap.add = fresh_interest(held);
      // Mirrors Subscriber::unsubscribe + subscribe: the new interest goes last.
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(slot));
      held.push_back(swap.add);
      plan.swap = std::move(swap);
    }
    std::size_t tries = 0;
    for (;; ++tries) {
      if (tries == 1000000) {
        throw std::runtime_error("generator: no metadata with exact matches");
      }
      plan.metadata.clear();
      for (std::size_t a = 0; a < attrs.size(); ++a) {
        std::size_t v = gen.uniform(n_values);
        if (spec.shared_values) {
          const bool take = static_cast<double>(gen.uniform(1u << 20)) <
                            hit * static_cast<double>(1u << 20);
          v = take ? shared[a] : (shared[a] + 1 + gen.uniform(n_values - 1)) % n_values;
        }
        plan.metadata[attrs[a].name] = attrs[a].values[v];
      }
      plan.matches.assign(spec.subscribers, 0);
      std::size_t matched = 0;
      for (std::size_t s = 0; s < spec.subscribers; ++s) {
        for (const auto& interest : current[s]) {
          if (p3s::pbe::interest_matches(interest, plan.metadata)) {
            plan.matches[s] = 1;
            ++matched;
            break;
          }
        }
      }
      if (matched == spec.matches) break;
    }
    plan.payload_seed = gen.u64();
  }
  return sc;
}

Deployment::Deployment(const Scenario& scenario, std::uint64_t seed,
                       Tally& tally, std::vector<double>& subscribe_ms)
    : scenario_(scenario), tally_(tally), rng_(seed_bytes(seed)) {
  double calibration = calibration_seconds();
  const double start = wall_now();
  // Group load: a fresh Pairing (tables, e(g,g)) from the baked parameters.
  pairing_ = std::make_shared<const p3s::pairing::Pairing>(
      (scenario.spec->paper_group ? p3s::pairing::Pairing::paper_pairing()
                                  : p3s::pairing::Pairing::test_pairing())
          ->params());
  p3s::core::P3sConfig config;
  config.pairing = pairing_;
  config.schema = scenario.schema;
  config.rs_grace_seconds = kGrace;
  config.with_anonymizer = true;
  system_ = std::make_unique<p3s::core::P3sSystem>(net_, config, rng_);
  publisher_ = system_->make_publisher("pub", "publisher", rng_);
  const WorkloadSpec& spec = *scenario.spec;
  subs_.resize(spec.subscribers);
  for (std::size_t i = 0; i < spec.subscribers; ++i) {
    Client& c = subs_[i];
    c.sub = system_->make_subscriber(subscriber_name(i),
                                     "subscriber-" + std::to_string(i),
                                     scenario.attributes[i], rng_);
    c.satisfies = scenario.policy.satisfied_by(scenario.attributes[i]);
    c.sub->set_delivery_handler(
        [this, i](const p3s::core::Subscriber::Delivery& d) {
          seen_.push_back(Seen{i, d.guid == guid_,
                               d.payload.size() == payload_.size() &&
                                   std::equal(d.payload.begin(),
                                              d.payload.end(),
                                              payload_.begin())});
        });
  }
  net_.run_until_idle();  // channel handshakes and registrations
  ++tally_.attempted;
  if (!publisher_->connected()) tally_.fail("publisher did not register");
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    ++tally_.attempted;
    if (!subs_[i].sub->connected()) {
      tally_.fail(subscriber_name(i) + " did not register");
    }
  }
  // Each calibration closes one timed segment and opens the next.
  const double deployed = wall_now() - start;
  double next = calibration_seconds();
  setup_seconds_ = deployed / slowdown(calibration, next);
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    for (const auto& interest : scenario.interests[i]) {
      calibration = next;
      const double ms = subscribe(i, nullptr, interest);
      next = calibration_seconds();
      const double at_reference = ms / slowdown(calibration, next);
      subscribe_ms.push_back(at_reference);
      setup_seconds_ += at_reference / 1e3;
    }
  }
}

Deployment::~Deployment() = default;

double Deployment::subscribe(std::size_t sub, const p3s::pbe::Interest* drop,
                             const p3s::pbe::Interest& add) {
  Client& c = subs_[sub];
  const double start = wall_now();
  bool dropped = true;
  net_.call("sub.subscribe", Role::kSub, [&] {
    if (drop != nullptr) dropped = c.sub->unsubscribe(*drop);
    c.sub->subscribe(add);
  });
  net_.run_until_idle();
  const double ms = (net_.last_subscriber_dispatch() - start) * 1e3;
  if (drop != nullptr) {
    const auto it = std::find(c.interests.begin(), c.interests.end(), *drop);
    if (it != c.interests.end()) c.interests.erase(it);
  }
  c.interests.push_back(add);
  ++tally_.attempted;
  if (!dropped || c.sub->token_count() != c.interests.size()) {
    tally_.fail(subscriber_name(sub) + ": token set incomplete after " +
                (drop != nullptr ? "swap" : "subscribe"));
  }
  return ms;
}

RoundTimes Deployment::round(std::size_t index) {
  const PubPlan& plan = scenario_.plans.at(index);
  // Inputs are made before the clock starts.
  payload_.resize(scenario_.spec->payload_bytes);
  p3s::TestRng(plan.payload_seed).fill(payload_);
  seen_.clear();
  net_.set_publication(static_cast<std::uint32_t>(index + 1));
  net_.advance(kClockStep);

  RoundTimes t;
  const double calibration0 = calibration_seconds();
  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  if (plan.swap.has_value()) {
    t.swap_ms = subscribe(plan.swap->sub, &plan.swap->drop, plan.swap->add);
  }
  const double published = wall_now();
  net_.call("pub.publish", Role::kPub, [&] {
    guid_ = publisher_->publish(plan.metadata, payload_, scenario_.policy, kTtl);
  });
  net_.run_until_idle();
  t.deliver_ms = (net_.last_subscriber_dispatch() - published) * 1e3;
  net_.call("rs.gc", Role::kRs, [&] { system_->rs().garbage_collect(); });
  t.wall = wall_now() - wall0;
  t.cpu = cpu_now() - cpu0;
  t.slowdown = slowdown(calibration0, calibration_seconds());
  check_round(index, plan);
  return t;
}

void Deployment::check_round(std::size_t index, const PubPlan& plan) {
  std::vector<std::size_t> delivered(subs_.size(), 0);
  std::vector<std::uint8_t> corrupted(subs_.size(), 0);
  for (const Seen& s : seen_) {
    ++delivered[s.sub];
    if (!s.guid_ok || !s.payload_ok) corrupted[s.sub] = 1;
    mix(digest_, index);
    mix(digest_, s.sub);
    mix(digest_, (s.guid_ok ? 1u : 0u) | (s.payload_ok ? 2u : 0u));
  }
  for (const std::uint8_t b : guid_.raw()) mix(digest_, b);
  delivered_ += seen_.size();

  const std::string where = "publication " + std::to_string(index) + ", ";
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    Client& c = subs_[i];
    const std::size_t undecryptable =
        c.sub->undecryptable_payloads() - c.undecryptable;
    const std::size_t fetch_failures = c.sub->fetch_failures() - c.fetch_failures;
    c.undecryptable += undecryptable;
    c.fetch_failures += fetch_failures;
    const bool clean = fetch_failures == 0 && corrupted[i] == 0;
    if (plan.matches[i] != 0) {
      ++tally_.attempted;
      const bool ok = c.satisfies
                          ? clean && delivered[i] == 1 && undecryptable == 0
                          : clean && delivered[i] == 0 && undecryptable == 1;
      if (!ok) {
        tally_.fail(where + subscriber_name(i) + ": expected " +
                    (c.satisfies ? "a delivery" : "an undecryptable payload") +
                    ", saw " + std::to_string(delivered[i]) + " deliveries, " +
                    std::to_string(undecryptable) + " undecryptable, " +
                    std::to_string(fetch_failures) + " fetch failures" +
                    (corrupted[i] != 0 ? ", corrupted content" : ""));
      }
    } else if (delivered[i] != 0 || undecryptable != 0 || fetch_failures != 0) {
      ++tally_.attempted;
      tally_.fail(where + subscriber_name(i) + ": unexpected outcome");
    }
  }
}

}  // namespace perfbench
