// Seeded chaos matrix: the full P3S protocol (publish → store → broadcast →
// match → fetch → decrypt) driven to convergence under deterministic fault
// schedules — drop-heavy, duplicate-heavy, adversarial reorder, and a DS
// blackout + restart. Every (scenario, seed) cell is an individual ctest
// case named after its seed; a failing cell prints a one-line replay
// command. The reliable request layer (DESIGN.md "Reliability") must bring
// every cell to exactly-once delivery, and the fault schedule must leak
// nothing new to the eavesdropper on the wire.
//
// Also pins the RS T_G grace period end-to-end: a fetch racing deletion
// inside T_G succeeds; past T_G it fails with a clean typed miss, never a
// hang or an unbounded retry storm.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"
#include "delivery_log.hpp"
#include "net/async.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

constexpr const char* kPayloadA = "CHAOS-SECRET-ALPHA";
constexpr const char* kPayloadB = "CHAOS-SECRET-BRAVO";

struct ChaosCase {
  const char* scenario;
  std::uint64_t seed;
};

std::string case_name(const ChaosCase& c) {
  return std::string(c.scenario) + "_seed" + std::to_string(c.seed);
}

void PrintTo(const ChaosCase& c, std::ostream* os) { *os << case_name(c); }

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> out;
  for (const char* scenario :
       {"drop_heavy", "dup_heavy", "reorder", "blackout_restart"}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      out.push_back({scenario, seed});
    }
  }
  return out;
}

net::LinkFaults scenario_faults(const std::string& scenario) {
  net::LinkFaults f;
  if (scenario == "drop_heavy") {
    f.drop = 0.12;
    f.delay_max = 2.0;
  } else if (scenario == "dup_heavy") {
    f.duplicate = 0.35;
    f.delay_max = 2.0;
  } else if (scenario == "reorder") {
    f.reorder = 0.6;
    f.delay_max = 4.0;
  } else {  // blackout_restart: light ambient loss around the outage
    f.drop = 0.05;
    f.delay_max = 2.0;
  }
  return f;
}

/// Reliable clients over a faulty AsyncNetwork.
P3sConfig chaos_config() {
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = pbe::MetadataSchema(
      {{"sector", {"finance", "tech"}}, {"grade", {"x", "y"}}});
  config.rs_grace_seconds = 1e9;  // T_G races are pinned separately below
  config.reliability.enabled = true;
  // Times are AsyncNetwork ticks (every send and every pump is a tick).
  config.reliability.timeout = 300.0;
  config.reliability.max_timeout = 1200.0;
  config.reliability.sync_interval = 700.0;
  config.reliability.max_attempts = 16;
  config.reliability.reconnect_after = 3;
  return config;
}

class ChaosMatrix : public ::testing::TestWithParam<ChaosCase> {
 protected:
  void SetUp() override {
    // Client randomness varies with the chaos seed too, so every cell
    // exercises different GUIDs/keys — while staying fully replayable.
    rng_.emplace(0xc4a05u ^ GetParam().seed);
    system_ = std::make_unique<P3sSystem>(net_, chaos_config(), *rng_);
  }

  /// Pump + poll + advance until `done()` holds with an idle wire, or the
  /// round budget runs out.
  [[nodiscard]] bool converge(const std::function<bool()>& done,
                              int max_rounds = 500) {
    for (int round = 0; round < max_rounds; ++round) {
      net_.run_until_idle(500000);
      if (done()) return true;
      pub_->poll();
      sub1_->poll();
      sub2_->poll();
      if (net_.in_flight() == 0) net_.advance(97);
    }
    net_.run_until_idle(500000);
    return done();
  }

  bool all_connected() const {
    return pub_->connected() && sub1_->connected() && sub2_->connected() &&
           sub1_->token_count() == 1 && sub2_->token_count() == 1;
  }

  /// Exactly-once: each subscriber delivered exactly `expected`, no
  /// duplicates, nothing extra, and the publisher has nothing pending.
  void assert_exactly_once(const std::set<Guid>& expected) {
    for (const Subscriber* sub : {sub1_.get(), sub2_.get()}) {
      std::set<Guid> got;
      for (const auto& d : delivered_.at(sub->name()).deliveries()) {
        EXPECT_TRUE(got.insert(d.guid).second)
            << sub->name() << ": duplicate delivery";
      }
      EXPECT_EQ(got, expected) << sub->name();
      EXPECT_EQ(sub->delivery_count(), expected.size()) << sub->name();
      EXPECT_EQ(sub->request_failures(), 0u) << sub->name();
    }
    EXPECT_EQ(pub_->pending_publish_count(), 0u);
    EXPECT_EQ(pub_->publish_failures(), 0u);
  }

  net::AsyncNetwork net_;
  test::WireLog wire_{net_};
  std::optional<TestRng> rng_;
  std::unique_ptr<P3sSystem> system_;
  std::unique_ptr<Publisher> pub_;
  std::unique_ptr<Subscriber> sub1_;
  std::unique_ptr<Subscriber> sub2_;
  std::map<std::string, test::DeliveryLog> delivered_;  // by subscriber
};

TEST_P(ChaosMatrix, ConvergesToExactlyOnceDelivery) {
  const ChaosCase c = GetParam();
  SCOPED_TRACE("replay: tests/test_chaos --gtest_filter='*" + case_name(c) +
               "'");

  net::FaultPlan plan(c.seed);
  plan.set_default(scenario_faults(c.scenario));
  net_.set_fault_plan(std::move(plan));

  sub1_ = system_->make_subscriber("sub1", "alice", {"m"}, *rng_);
  sub2_ = system_->make_subscriber("sub2", "bob", {"m"}, *rng_);
  delivered_.try_emplace("sub1", *sub1_);
  delivered_.try_emplace("sub2", *sub2_);
  pub_ = system_->make_publisher("pub1", "press", *rng_);
  sub1_->subscribe({{"sector", "finance"}});
  sub2_->subscribe({{"sector", "finance"}});
  ASSERT_TRUE(converge([&] { return all_connected(); }))
      << "clients never converged to connected+token state";

  const bool blackout = std::string(c.scenario) == "blackout_restart";
  std::set<Guid> expected;
  const auto publish_matching = [&](const char* payload) {
    expected.insert(pub_->publish({{"sector", "finance"}, {"grade", "x"}},
                                  str_to_bytes(payload),
                                  abe::parse_policy("m"), /*ttl=*/1e9));
  };

  // Phase 1: two matching items plus one nobody matches (broadcast-only).
  publish_matching(kPayloadA);
  publish_matching(kPayloadB);
  pub_->publish({{"sector", "tech"}, {"grade", "y"}},
                str_to_bytes("CHAOS-SECRET-NOMATCH"), abe::parse_policy("m"),
                1e9);
  const auto phase1_done = [&] {
    return sub1_->delivery_count() == expected.size() &&
           sub2_->delivery_count() == expected.size() &&
           pub_->pending_publish_count() == 0;
  };
  ASSERT_TRUE(converge(phase1_done)) << "phase 1 never converged";

  if (blackout) {
    // The DS goes dark and loses all volatile state (sessions,
    // registrations, replay ring), then comes back as a new incarnation.
    // Clients must notice, re-register, and resume exactly-once delivery.
    system_->ds().crash_and_restart();
    ASSERT_NE(net_.fault_plan(), nullptr);
    net_.fault_plan()->add_blackout(system_->directory().ds_name, net_.now(),
                                    net_.now() + 900.0);
    publish_matching("CHAOS-SECRET-AFTER-1");
    publish_matching("CHAOS-SECRET-AFTER-2");
    const auto phase2_done = [&] {
      return sub1_->delivery_count() == expected.size() &&
             sub2_->delivery_count() == expected.size() &&
             pub_->pending_publish_count() == 0;
    };
    ASSERT_TRUE(converge(phase2_done, 800)) << "post-restart never converged";
  }

  assert_exactly_once(expected);

  // The cell must not pass vacuously: the schedule really injected faults.
  const std::string scenario = c.scenario;
  if (scenario == "drop_heavy" || scenario == "blackout_restart") {
    EXPECT_GT(net_.dropped_frames(), 0u);
  }
  if (scenario == "dup_heavy") {
    // Duplicated frames are verbatim copies, so the eavesdropper log holds
    // at least one exact repeat.
    std::set<std::pair<std::string, Bytes>> seen;
    bool repeat = false;
    for (const auto& rec : wire_.frames()) {
      if (!seen.insert({rec.from + "\x1f" + rec.to, rec.bytes}).second) {
        repeat = true;
        break;
      }
    }
    EXPECT_TRUE(repeat);
  }

  // The faults changed timing and multiplicity, never exposure: no payload
  // and no interest/metadata plaintext anywhere on the wire — including
  // frames that were dropped (they were sent, so the eavesdropper saw them).
  EXPECT_FALSE(wire_.contains(str_to_bytes(kPayloadA)));
  EXPECT_FALSE(wire_.contains(str_to_bytes(kPayloadB)));
  EXPECT_FALSE(wire_.contains(str_to_bytes("CHAOS-SECRET")));
  EXPECT_FALSE(wire_.contains(str_to_bytes("sector")));
  EXPECT_FALSE(wire_.contains(str_to_bytes("finance")));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosMatrix, ::testing::ValuesIn(chaos_cases()),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return case_name(info.param);
    });

// --- The eavesdropper's view, pinned -------------------------------------------

// Known answer over everything a wire eavesdropper records during a seeded
// run under faults: per frame, in wire order, the time, both endpoints, the
// size and the bytes. The plan drops, duplicates and delays frames and
// blacks out a sender, so every rule for where a frame is observed is in
// play: a dropped frame was seen, a duplicate is seen twice, and a dark
// sender's frame is never seen.
TEST(EavesdropperPin, FaultyRunWireDigest) {
  net::AsyncNetwork net;
  test::WireLog wire(net);
  TestRng rng(0xe4e5d409u);
  P3sSystem system(net, chaos_config(), rng);

  net::FaultPlan plan(11);
  net::LinkFaults faults;
  faults.drop = 0.1;
  faults.duplicate = 0.2;
  faults.delay_max = 3.0;
  plan.set_default(faults);
  net.set_fault_plan(std::move(plan));
  const auto fault_count = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  const auto dropped0 = fault_count(obs::names::kNetFaultDroppedTotal);
  const auto duplicated0 = fault_count(obs::names::kNetFaultDuplicatedTotal);
  const auto delayed0 = fault_count(obs::names::kNetFaultDelayedTotal);
  const auto dark0 = fault_count(obs::names::kNetFaultBlackoutDroppedTotal);

  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  auto other = system.make_subscriber("sub2", "bob", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  sub->subscribe({{"sector", "finance"}});
  other->subscribe({{"sector", "tech"}});
  const auto converge = [&](const std::function<bool()>& done) {
    for (int round = 0; round < 500; ++round) {
      net.run_until_idle(500000);
      if (done()) return true;
      pub->poll();
      sub->poll();
      other->poll();
      if (net.in_flight() == 0) net.advance(97);
    }
    return false;
  };
  ASSERT_TRUE(converge([&] {
    return pub->connected() && sub->connected() && other->connected() &&
           sub->token_count() == 1 && other->token_count() == 1;
  }));

  const auto publish = [&](const char* payload) {
    pub->publish({{"sector", "finance"}, {"grade", "x"}},
                  str_to_bytes(payload), abe::parse_policy("m"), 1e9);
  };
  publish("PIN-ONE");
  ASSERT_TRUE(converge([&] {
    return sub->delivery_count() == 1 && pub->pending_publish_count() == 0;
  }));
  // The publisher goes dark: its first attempt never reaches the wire, and
  // a retry after the window delivers.
  net.fault_plan()->add_blackout("pub1", net.now(), net.now() + 400.0);
  publish("PIN-TWO");
  ASSERT_TRUE(converge([&] {
    return sub->delivery_count() == 2 && pub->pending_publish_count() == 0;
  }));

  EXPECT_GT(fault_count(obs::names::kNetFaultDroppedTotal), dropped0);
  EXPECT_GT(fault_count(obs::names::kNetFaultDuplicatedTotal), duplicated0);
  EXPECT_GT(fault_count(obs::names::kNetFaultDelayedTotal), delayed0);
  EXPECT_GT(fault_count(obs::names::kNetFaultBlackoutDroppedTotal), dark0);

  crypto::Sha256 digest;
  for (const auto& rec : wire.frames()) {
    Writer w;
    w.u64(std::bit_cast<std::uint64_t>(rec.time));
    w.str(rec.from);
    w.str(rec.to);
    w.u64(rec.size);
    w.bytes(rec.bytes);
    digest.update(w.data());
  }
  EXPECT_EQ(wire.size(), 62u);
  EXPECT_EQ(to_hex(digest.finish()),
            "3e33117f42791df052842c5d8515b8e5e5d6f56b0565957ff5b50eb384fa9554");
}

// --- RS T_G grace period, pinned end-to-end ----------------------------------

class GracePeriodTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = pbe::MetadataSchema(
        {{"sector", {"finance", "tech"}}, {"grade", {"x", "y"}}});
    config.rs_grace_seconds = kGrace;
    config.reliability.enabled = true;
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
    sub_ = system_->make_subscriber("sub1", "alice", {"m"}, rng_);
    pub_ = system_->make_publisher("pub1", "press", rng_);
    net_.run_until_idle();
    sub_->subscribe({{"sector", "finance"}});
    net_.run_until_idle();
    ASSERT_EQ(sub_->token_count(), 1u);
  }

  /// Publish with `ttl`, then deliver frames only until the subscriber has
  /// matched — its content request is then in flight, racing deletion.
  void publish_and_stall_fetch(double ttl) {
    pub_->publish({{"sector", "finance"}, {"grade", "x"}},
                  str_to_bytes("grace-payload"), abe::parse_policy("m"), ttl);
    const std::size_t before = sub_->match_count();
    while (sub_->match_count() == before && net_.pump_one()) {
    }
    ASSERT_GT(sub_->match_count(), before);
  }

  static constexpr double kTtl = 50.0;
  static constexpr double kGrace = 500.0;  // T_G
  net::AsyncNetwork net_;
  TestRng rng_{0x97ace};
  std::unique_ptr<P3sSystem> system_;
  std::unique_ptr<Subscriber> sub_;
  std::unique_ptr<Publisher> pub_;
};

TEST_F(GracePeriodTest, FetchAfterTtlButInsideGraceSucceeds) {
  publish_and_stall_fetch(kTtl);
  // TTL passes while the request is in flight, but we are inside T_G: the
  // RS must still serve the item (the grace period exists exactly for this
  // slow-consumer race, paper §4.3).
  net_.advance(static_cast<std::uint64_t>(kTtl) + 100);
  system_->rs().garbage_collect();
  net_.run_until_idle();
  EXPECT_EQ(sub_->delivery_count(), 1u);
  EXPECT_EQ(sub_->fetch_failures(), 0u);
}

TEST_F(GracePeriodTest, FetchPastGraceIsTypedMissNotAHang) {
  publish_and_stall_fetch(kTtl);
  // Past TTL + T_G the item is gone for good. The fetch must complete with
  // a clean NotFound surfaced as a fetch failure — the request is settled,
  // nothing stays pending, and nothing retries forever.
  net_.advance(static_cast<std::uint64_t>(kTtl + kGrace) + 100);
  system_->rs().garbage_collect();
  net_.run_until_idle();
  EXPECT_EQ(sub_->delivery_count(), 0u);
  EXPECT_EQ(sub_->fetch_failures(), 1u);
  EXPECT_EQ(sub_->pending_request_count(), 0u);
  // Polling afterwards must not resurrect the settled request.
  sub_->poll();
  net_.run_until_idle();
  EXPECT_EQ(sub_->fetch_failures(), 1u);
  EXPECT_EQ(sub_->pending_request_count(), 0u);
}

}  // namespace
}  // namespace p3s::core
