// Tests for the paper's extension features implemented beyond the base
// prototype: token-revocation epochs (§6.1 mitigation), GUID
// super-encryption (footnote 1), embedded PBE-TS (§8 alternative
// configuration), and hierarchical dissemination (§6.2 remedy).
#include <gtest/gtest.h>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "delivery_log.hpp"
#include "model/analytic.hpp"
#include "net/network.hpp"
#include "p3s/system.hpp"
#include "pbe/epoch.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

pbe::MetadataSchema small_schema() {
  return pbe::MetadataSchema({
      {"topic", {"a", "b", "c", "d"}},
      {"region", {"x", "y"}},
  });
}

pbe::Metadata md(const char* topic, const char* region) {
  return {{"topic", topic}, {"region", region}};
}

// --- EpochPolicy unit behaviour -----------------------------------------------------

TEST(EpochPolicy, EpochIndexCycles) {
  const pbe::EpochPolicy ep(4, 10.0);
  EXPECT_EQ(ep.epoch_at(0.0), 0u);
  EXPECT_EQ(ep.epoch_at(9.9), 0u);
  EXPECT_EQ(ep.epoch_at(10.0), 1u);
  EXPECT_EQ(ep.epoch_at(39.0), 3u);
  EXPECT_EQ(ep.epoch_at(40.0), 0u);  // wraps mod 4
}

TEST(EpochPolicy, ValidatesArguments) {
  EXPECT_THROW(pbe::EpochPolicy(1, 10.0), std::invalid_argument);
  EXPECT_THROW(pbe::EpochPolicy(4, 0.0), std::invalid_argument);
  EXPECT_THROW(pbe::EpochPolicy(4, -1.0), std::invalid_argument);
}

TEST(EpochPolicy, ExtendAddsEpochAttribute) {
  const pbe::EpochPolicy ep(8, 60.0);
  const auto base = small_schema();
  const auto extended = ep.extend(base);
  EXPECT_EQ(extended.attributes().size(), base.attributes().size() + 1);
  EXPECT_EQ(extended.width(), base.width() + 3);  // 8 epochs -> 3 bits
}

TEST(EpochPolicy, StampAndRestrictAgree) {
  const pbe::EpochPolicy ep(4, 10.0);
  const auto schema = ep.extend(small_schema());
  const auto stamped = ep.stamp(md("a", "x"), 25.0);   // epoch 2
  const auto same = ep.restrict({{"topic", "a"}}, 27.0);  // epoch 2
  const auto later = ep.restrict({{"topic", "a"}}, 35.0);  // epoch 3
  EXPECT_TRUE(pbe::interest_matches(same, stamped));
  EXPECT_FALSE(pbe::interest_matches(later, stamped));
}

// --- Epoch integration: token revocation --------------------------------------------

class EpochSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = small_schema();
    // DirectNetwork ticks are "seconds": 1000-tick epochs, 4 in the cycle.
    config.epoch = pbe::EpochPolicy(4, 1000.0);
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
  }

  net::DirectNetwork net_;
  TestRng rng_{0xe90c};
  std::unique_ptr<P3sSystem> system_;
};

TEST_F(EpochSystemTest, CurrentEpochTokenMatches) {
  auto sub = system_->make_subscriber("s1", "alice", {"member"}, rng_);
  auto pub = system_->make_publisher("p1", "press", rng_);
  sub->subscribe({{"topic", "a"}});
  pub->publish(md("a", "x"), str_to_bytes("now"), abe::parse_policy("member"));
  EXPECT_EQ(sub->delivery_count(), 1u);
}

TEST_F(EpochSystemTest, StaleTokenStopsMatchingAfterRollover) {
  auto sub = system_->make_subscriber("s1", "alice", {"member"}, rng_);
  test::DeliveryLog got(*sub);
  auto pub = system_->make_publisher("p1", "press", rng_);
  sub->subscribe({{"topic", "a"}});

  // Cross into the next epoch; the old token is now revoked de facto.
  net_.advance(1000);
  pub->publish(md("a", "x"), str_to_bytes("later"), abe::parse_policy("member"));
  EXPECT_EQ(sub->match_count(), 0u);
  EXPECT_EQ(sub->delivery_count(), 0u);

  // Refreshing tokens (re-keying for the new epoch) restores matching.
  sub->refresh_tokens();
  pub->publish(md("a", "x"), str_to_bytes("fresh"), abe::parse_policy("member"));
  EXPECT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "fresh");
}

TEST_F(EpochSystemTest, HoardedTokensFromOldEpochsAreUseless) {
  // The §6.1 token-accumulation attack: a subscriber hoards tokens over
  // time. With epochs, only the current epoch's tokens are live.
  auto hoarder = system_->make_subscriber("s1", "eve", {"member"}, rng_);
  auto pub = system_->make_publisher("p1", "press", rng_);
  // Accumulate tokens across two epochs.
  hoarder->subscribe({{"topic", "a"}});
  net_.advance(1000);
  hoarder->subscribe({{"topic", "b"}});
  EXPECT_EQ(hoarder->token_count(), 2u);

  net_.advance(1000);  // now in epoch 2: both hoarded tokens are stale
  pub->publish(md("a", "x"), str_to_bytes("m1"), abe::parse_policy("member"));
  pub->publish(md("b", "x"), str_to_bytes("m2"), abe::parse_policy("member"));
  EXPECT_EQ(hoarder->match_count(), 0u);
}

// --- GUID super-encryption (footnote 1) -------------------------------------------

class SuperEncryptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = small_schema();
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
  }

  net::DirectNetwork net_;
  test::WireLog wire_{net_};
  TestRng rng_{0x5e};
  std::unique_ptr<P3sSystem> system_;
};

TEST_F(SuperEncryptTest, WrappedGuidStaysOffTheWire) {
  auto sub = system_->make_subscriber("s1", "alice", {"m"}, rng_);
  test::DeliveryLog got(*sub);
  auto pub = system_->make_publisher("p1", "press", rng_);
  pub->set_guid_super_encryption(true);
  sub->subscribe({{"topic", "a"}});
  wire_.clear();

  const Guid guid = pub->publish(md("a", "x"), str_to_bytes("payload"),
                                 abe::parse_policy("m"));
  // Delivery still works end to end...
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(got.deliveries()[0].guid, guid);
  // ...but the GUID bytes never appear in any wire frame.
  EXPECT_FALSE(wire_.contains(guid.to_bytes()));
}

TEST_F(SuperEncryptTest, ClearGuidIsVisibleWithoutTheMitigation) {
  auto sub = system_->make_subscriber("s1", "alice", {"m"}, rng_);
  auto pub = system_->make_publisher("p1", "press", rng_);
  sub->subscribe({{"topic", "a"}});
  wire_.clear();
  const Guid guid = pub->publish(md("a", "x"), str_to_bytes("payload"),
                                 abe::parse_policy("m"));
  ASSERT_EQ(sub->delivery_count(), 1u);
  EXPECT_TRUE(wire_.contains(guid.to_bytes()));  // the documented leak
}

// --- Embedded PBE-TS (§8) -----------------------------------------------------------

class EmbeddedTsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = small_schema();
    config.embedded_token_server = true;
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
  }

  net::DirectNetwork net_;
  test::WireLog wire_{net_};
  TestRng rng_{0xe3b};
  std::unique_ptr<P3sSystem> system_;
};

TEST_F(EmbeddedTsTest, InterestNeverLeavesTheSubscriber) {
  auto sub = system_->make_subscriber("s1", "alice", {"m"}, rng_);
  auto pub = system_->make_publisher("p1", "press", rng_);
  wire_.clear();
  sub->subscribe({{"topic", "a"}});
  EXPECT_EQ(sub->token_count(), 1u);
  // No token request crossed the network at all.
  EXPECT_TRUE(system_->token_server().seen_predicates().empty());
  for (const auto& rec : wire_.frames()) {
    EXPECT_NE(rec.to, "pbe-ts");
  }
  // And the flow still works.
  pub->publish(md("a", "x"), str_to_bytes("m"), abe::parse_policy("m"));
  EXPECT_EQ(sub->delivery_count(), 1u);
}

TEST_F(EmbeddedTsTest, TradeOffSubscriberHoldsMasterKeyAndCanDecodeAllMetadata) {
  // The cost of the §8 embedded configuration, made explicit: a subscriber
  // holding the HVE master key can mint a token for ANY predicate and so
  // recover every publication's GUID — metadata privacy against
  // subscribers is gone. (The paper flags finding better configurations as
  // open work.)
  auto sub = system_->make_subscriber("s1", "alice", {"m"}, rng_);
  auto pub = system_->make_publisher("p1", "press", rng_);
  // alice never subscribed to topic=c, but mints tokens for every topic.
  for (const char* t : {"a", "b", "c", "d"}) {
    sub->subscribe({{"topic", t}});
  }
  pub->publish(md("c", "y"), str_to_bytes("supposedly-hidden"),
               abe::parse_policy("m"));
  EXPECT_EQ(sub->match_count(), 1u);  // she can probe everything
}

// --- Hierarchical dissemination model (§6.2) --------------------------------------

TEST(HierarchicalModel, RemovesTheSmallPayloadFlatline) {
  const model::ModelParams p = model::ModelParams::paper_defaults();
  const double c = 1024.0;
  const auto flat = model::p3s_throughput(p, c);
  const auto tree = model::p3s_throughput_hierarchical(p, c, /*fanout=*/10);
  EXPECT_STREQ(flat.bottleneck(), "ds-nic");
  // Per-relay broadcast cost drops from N_s to fanout copies: x10 here.
  EXPECT_NEAR(tree.total() / flat.total(),
              static_cast<double>(p.n_subscribers) / 10.0, 0.1);
  // At Table-1 parameters the (relieved) relay NIC still caps throughput
  // below the per-subscriber match rate of w/t_PBE ≈ 67/s.
  EXPECT_LT(tree.total(), tree.r_match);
}

TEST(HierarchicalModel, FanOutTradesLatencyForThroughput) {
  const model::ModelParams p = model::ModelParams::paper_defaults();
  const double c = 1024.0;
  const auto flat = model::p3s_latency(p, c);
  const auto tree = model::p3s_latency_hierarchical(p, c, /*fanout=*/10);
  // 2 levels of 10 x 8ms beats 1 level of 100 x 8ms.
  EXPECT_LT(tree.tp2, flat.tp2);
  EXPECT_GT(tree.tp2, 2 * p.latency_s);  // but pays per-level latency
}

TEST(HierarchicalModel, LargePayloadRegimeUnaffected) {
  const model::ModelParams p = model::ModelParams::paper_defaults();
  const double c = 16.0 * 1024 * 1024;
  const auto flat = model::p3s_throughput(p, c);
  const auto tree = model::p3s_throughput_hierarchical(p, c, 10);
  EXPECT_DOUBLE_EQ(flat.total(), tree.total());  // rs-nic bound either way
}

}  // namespace
}  // namespace p3s::core
