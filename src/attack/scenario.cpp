#include "attack/scenario.hpp"

#include <utility>

#include "abe/policy.hpp"
#include "pairing/pairing.hpp"
#include "pbe/schema.hpp"

namespace p3s::attack {

namespace {

core::P3sConfig scenario_config(const ScenarioConfig& cfg) {
  core::P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = pbe::MetadataSchema(
      {{"sector", {"finance", "tech"}}, {"grade", {"x", "y"}}});
  config.rs_grace_seconds = 1e9;
  config.with_anonymizer = cfg.with_anonymizer;
  config.reliability.enabled = cfg.reliability;
  if (cfg.reliability) {
    config.reliability.timeout = 300.0;
    config.reliability.max_timeout = 1200.0;
    config.reliability.sync_interval = 700.0;
    config.reliability.max_attempts = 16;
    config.reliability.reconnect_after = 3;
  }
  if (cfg.hardened) {
    config.anon_hardening.batching = true;
    config.anon_hardening.batch_size = 3;
    config.anon_hardening.flush_interval = 200.0;
    config.anon_hardening.flush_jitter = 100.0;
    config.anon_hardening.min_batch = 3;
    config.anon_hardening.pad_bucket = 512;
    config.anon_hardening.seed = 0xa110'5eed ^ cfg.seed;
    config.ds_hardening.batching = true;
    config.ds_hardening.batch_size = 4;
    config.ds_hardening.flush_interval = 300.0;
    config.ds_hardening.flush_jitter = 150.0;
    config.ds_hardening.pad_bucket = 1024;
    config.ds_hardening.seed = 0xd5'5eed ^ cfg.seed;
    config.rs_response_pad_bucket = 1024;
  }
  return config;
}

}  // namespace

AttackScenario::AttackScenario(const ScenarioConfig& cfg)
    : cfg_(cfg), rng_(0xa77ac4u ^ cfg.seed) {
  observer_.watch(net_);
  system_ =
      std::make_unique<core::P3sSystem>(net_, scenario_config(cfg), rng_);
}

std::vector<core::Subscriber*> AttackScenario::subscribers() {
  std::vector<core::Subscriber*> out;
  out.reserve(subs_.size());
  for (const auto& s : subs_) out.push_back(s.get());
  return out;
}

core::Publisher& AttackScenario::attacker() {
  if (!attacker_) {
    attacker_ = system_->make_publisher("mal", "mallory", rng_);
    net_.run_until_idle(500000);
  }
  return *attacker_;
}

bool AttackScenario::settle() {
  std::size_t n = 0;
  for (const std::string& topic : topics()) {
    for (std::size_t i = 0; i < cfg_.subs_per_topic; ++i, ++n) {
      const std::string name = "sub" + std::to_string(n);
      subs_.push_back(system_->make_subscriber(
          name, "user" + std::to_string(n), {"m"}, rng_));
      subs_.back()->subscribe({{"sector", topic}});
      truth_[name] = topic;
    }
  }
  pub_ = system_->make_publisher("pub1", "press", rng_);
  return converge([&] {
    if (!pub_->connected()) return false;
    for (const auto& sub : subs_) {
      if (!sub->connected() || sub->token_count() != 1) return false;
    }
    return true;
  });
}

Guid AttackScenario::publish(const std::string& topic, bool probe) {
  core::Publisher& p = probe ? attacker() : *pub_;
  schedule_.push_back({net_.now(), topic, probe});
  const Guid guid = p.publish(
      {{"sector", topic}, {"grade", "x"}},
      str_to_bytes("ATTACK-PAYLOAD-" + std::to_string(schedule_.size())),
      abe::parse_policy("m"), /*ttl=*/1e9);
  net_.run_until_idle(500000);
  return guid;
}

void AttackScenario::poll_all() {
  if (pub_) pub_->poll();
  if (attacker_) attacker_->poll();
  for (const auto& sub : subs_) sub->poll();
  system_->ds().poll();
  if (auto* anon = system_->anonymizer()) anon->poll();
}

bool AttackScenario::converge(const std::function<bool()>& done,
                              int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    net_.run_until_idle(500000);
    if (done()) return true;
    poll_all();
    if (net_.in_flight() == 0) net_.advance(97);
  }
  net_.run_until_idle(500000);
  return done();
}

bool AttackScenario::drain() {
  return converge([&] {
    if (net_.in_flight() != 0) return false;
    if (system_->ds().queued_broadcast_count() != 0) return false;
    const auto* anon = system_->anonymizer();
    return anon == nullptr || anon->held_count() == 0;
  });
}

std::size_t AttackScenario::metadata_received_total() const {
  std::size_t total = 0;
  for (const auto& sub : subs_) total += sub->metadata_received();
  return total;
}

std::size_t AttackScenario::duplicate_metadata_total() const {
  std::size_t total = 0;
  for (const auto& sub : subs_) total += sub->duplicate_metadata();
  return total;
}

}  // namespace p3s::attack
