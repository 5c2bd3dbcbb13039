// Component-level robustness: every P3S service must survive malformed,
// truncated, misrouted, and adversarial frames without crashing or leaking —
// fail-closed behaviour at the frame-handling layer. Handlers run when the
// network is drained, so each test drains where a throw would surface.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "net/async.hpp"
#include "p3s/messages.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = pbe::MetadataSchema({{"topic", {"a", "b"}},
                                         {"tier", {"x", "y"}}});
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
    sub_ = system_->make_subscriber("sub1", "s", {"m"}, rng_);
    pub_ = system_->make_publisher("pub1", "p", rng_);
    sub_->subscribe({{"topic", "a"}});
    net_.run_until_idle();
  }

  void expect_system_still_works() {
    EXPECT_NO_THROW(net_.run_until_idle());
    const std::size_t before = sub_->delivery_count();
    pub_->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("alive"),
                  abe::parse_policy("m"));
    net_.run_until_idle();
    EXPECT_EQ(sub_->delivery_count(), before + 1);
  }

  net::AsyncNetwork net_;
  test::WireLog wire_{net_};
  TestRng rng_{0x0b0b};
  std::unique_ptr<P3sSystem> system_;
  std::unique_ptr<Subscriber> sub_;
  std::unique_ptr<Publisher> pub_;
};

TEST_F(RobustnessTest, ServicesIgnoreGarbageFrames) {
  TestRng rng(1);
  for (const char* target : {"ds", "rs", "pbe-ts", "anon", "sub1", "pub1"}) {
    EXPECT_NO_THROW(net_.send("attacker", target, Bytes{}));
    EXPECT_NO_THROW(net_.send("attacker", target, Bytes{0xff, 0xff}));
    EXPECT_NO_THROW(net_.send("attacker", target, rng.bytes(200)));
  }
  expect_system_still_works();
}

TEST_F(RobustnessTest, ServicesIgnoreMisroutedValidFrames) {
  // A valid token request sent to the RS, a content request sent to the
  // PBE-TS, a store sent to the DS: all silently ignored.
  const Bytes token_req = tagged_frame(FrameType::kTokenRequest, 1, Bytes(32));
  const Bytes content_req =
      tagged_frame(FrameType::kContentRequest, 1, Bytes(32));
  EXPECT_NO_THROW(net_.send("attacker", "rs", token_req));
  EXPECT_NO_THROW(net_.send("attacker", "pbe-ts", content_req));
  EXPECT_NO_THROW(net_.send("attacker", "ds", content_req));
  expect_system_still_works();
}

TEST_F(RobustnessTest, UnregisteredClientCannotPublishThroughDs) {
  // A channel is established but registration is skipped: the DS must not
  // fan out metadata from a non-publisher.
  auto creds = system_->ara().register_publisher("ghost", rng_);
  Publisher ghost(net_, "ghost", creds, rng_);
  // connect() registers; forge the flow by connecting then crashing the DS
  // registry only for this client via a fresh DS session without register.
  // Simplest equivalent: DS drops registrations on restart.
  ghost.connect();
  net_.run_until_idle();
  system_->ds().crash_and_restart();
  sub_->reconnect();
  net_.run_until_idle();
  // ghost still believes it is connected but the DS lost its registration;
  // its publish is dropped at the DS (no session), not delivered.
  const std::size_t before = sub_->metadata_received();
  try {
    ghost.publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("spoof"),
                  abe::parse_policy("m"));
  } catch (const std::exception&) {
    // acceptable: client-side detection
  }
  net_.run_until_idle();
  EXPECT_EQ(sub_->metadata_received(), before);
}

TEST_F(RobustnessTest, RsIgnoresStoreWithTruncatedBody) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kStoreContent));
  w.u8(0);        // not wrapped
  w.u32(16);      // claims 16 guid bytes...
  w.raw(Bytes(4));  // ...provides 4
  const std::size_t before = system_->rs().stored_items();
  EXPECT_NO_THROW(net_.send("attacker", "rs", w.take()));
  EXPECT_NO_THROW(net_.run_until_idle());
  EXPECT_EQ(system_->rs().stored_items(), before);
}

TEST_F(RobustnessTest, TokenServerRejectsReplayedRequestBlobGracefully) {
  // Capture a legitimate token request from the wire and replay it: the
  // PBE-TS will process it (HBC model has no replay protection at this
  // layer — the response is useless to the attacker without Ks), and the
  // system stays healthy.
  Bytes captured;
  for (const auto& rec : wire_.frames()) {
    if (rec.to == "pbe-ts") captured = rec.bytes;
  }
  ASSERT_FALSE(captured.empty());
  EXPECT_NO_THROW(net_.send("attacker", "pbe-ts", captured));
  expect_system_still_works();
}

TEST_F(RobustnessTest, AnonymizerDropsResponsesWithUnknownTags) {
  const Bytes fake =
      tagged_frame(FrameType::kContentResponse, 424242, Bytes(16));
  EXPECT_NO_THROW(net_.send("rs", "anon", fake));
  expect_system_still_works();
}

TEST_F(RobustnessTest, SubscriberSurvivesCorruptedBroadcast) {
  // An attacker cannot speak on the DS channel (no session), and even a
  // spoofed channel record must be rejected by the AEAD, not crash the
  // subscriber.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kChannelRecord));
  w.bytes(TestRng(7).bytes(64));
  EXPECT_NO_THROW(net_.send("ds", "sub1", w.take()));
  expect_system_still_works();
}

TEST_F(RobustnessTest, ClientsIgnoreUnsolicitedResponses) {
  EXPECT_NO_THROW(net_.send("attacker", "sub1",
                            tagged_frame(FrameType::kTokenResponse, 9, Bytes(8))));
  EXPECT_NO_THROW(net_.send(
      "attacker", "sub1", tagged_frame(FrameType::kContentResponse, 9, Bytes(8))));
  EXPECT_NO_THROW(net_.run_until_idle());
  EXPECT_EQ(sub_->token_count(), 1u);
  expect_system_still_works();
}

// A reliability config no client can run on is refused where the client is
// built: reconnect_after 0 divided by zero on the publisher's first
// publish retry (SIGFPE), and a jitter outside [0, 1] makes a retry timeout
// negative. Nothing is left behind: the endpoint name stays free.
TEST(ClientConfigTest, ClientsRejectUnusableReliabilityConfig) {
  net::AsyncNetwork net;
  TestRng rng(0xc0f);
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  P3sSystem system(net, std::move(config), rng);
  const auto sub_creds = system.ara().register_subscriber("s", {"m"}, rng);
  const auto pub_creds = system.ara().register_publisher("p", rng);
  const auto with = [](auto change) {
    ReliabilityConfig r;
    r.enabled = true;
    change(r);
    return r;
  };
  for (const ReliabilityConfig& bad :
       {with([](ReliabilityConfig& r) { r.reconnect_after = 0; }),
        with([](ReliabilityConfig& r) { r.jitter = -0.01; }),
        with([](ReliabilityConfig& r) { r.jitter = 1.01; }),
        with([](ReliabilityConfig& r) { r.jitter = std::nan(""); })}) {
    EXPECT_THROW(Publisher(net, "pub1", pub_creds, rng, bad),
                 std::invalid_argument);
    EXPECT_THROW(Subscriber(net, "sub1", sub_creds, rng, true, bad),
                 std::invalid_argument);
  }
  for (const ReliabilityConfig& good :
       {ReliabilityConfig{}, with([](ReliabilityConfig&) {})}) {
    EXPECT_NO_THROW(Publisher(net, "pub1", pub_creds, rng, good));
    EXPECT_NO_THROW(Subscriber(net, "sub1", sub_creds, rng, true, good));
  }
}

}  // namespace
}  // namespace p3s::core
