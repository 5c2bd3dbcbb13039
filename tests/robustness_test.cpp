// Component-level robustness: every P3S service must survive malformed,
// truncated, misrouted, and adversarial frames without crashing or leaking —
// fail-closed behaviour at the frame-handling layer.
#include <gtest/gtest.h>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
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
  }

  void expect_system_still_works() {
    const std::size_t before = sub_->delivery_count();
    pub_->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("alive"),
                  abe::parse_policy("m"));
    EXPECT_EQ(sub_->delivery_count(), before + 1);
  }

  net::DirectNetwork net_;
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
  system_->ds().crash_and_restart();
  sub_->reconnect();
  // ghost still believes it is connected but the DS lost its registration;
  // its publish is dropped at the DS (no session), not delivered.
  const std::size_t before = sub_->metadata_received();
  try {
    ghost.publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("spoof"),
                  abe::parse_policy("m"));
  } catch (const std::exception&) {
    // acceptable: client-side detection
  }
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
  EXPECT_EQ(sub_->token_count(), 1u);
  expect_system_still_works();
}

}  // namespace
}  // namespace p3s::core
