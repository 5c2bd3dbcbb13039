// AsyncNetwork semantics plus the full P3S protocol under asynchrony, frame
// loss, and adversarial reordering — the failure modes behind the paper's
// §6.1 robustness discussion and the T_G grace period.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "delivery_log.hpp"
#include "net/async.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

TEST(AsyncNetwork, DeliversOnlyWhenPumped) {
  net::AsyncNetwork net;
  std::vector<std::pair<std::string, Bytes>> got;
  net.register_endpoint("b", [&](const std::string& from, BytesView frame) {
    got.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });
  net.send("a", "b", str_to_bytes("m"));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(net.in_flight(), 1u);
  EXPECT_TRUE(net.pump_one());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, "a");
  EXPECT_EQ(bytes_to_str(got[0].second), "m");
  EXPECT_FALSE(net.pump_one());
}

TEST(AsyncNetwork, FifoOrderByDefault) {
  net::AsyncNetwork net;
  std::vector<int> order;
  net.register_endpoint("b", [&](const std::string&, BytesView f) {
    order.push_back(f[0]);
  });
  net.send("a", "b", Bytes{1});
  net.send("a", "b", Bytes{2});
  net.send("a", "b", Bytes{3});
  net.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// With no delayed frame in flight the queue's front is the earliest
// frame, so a long backlog drains in send order in linear time.
TEST(AsyncNetwork, DrainsALongBacklogInSendOrder) {
  constexpr std::size_t kFrames = 10000;
  net::AsyncNetwork net;
  std::vector<std::size_t> order;
  order.reserve(kFrames);
  net.register_endpoint("b", [&](const std::string&, BytesView f) {
    order.push_back(f[0] | std::size_t{f[1]} << 8);
  });
  for (std::size_t i = 0; i < kFrames; ++i) {
    net.send("a", "b",
             Bytes{static_cast<std::uint8_t>(i),
                   static_cast<std::uint8_t>(i >> 8)});
  }
  EXPECT_EQ(net.run_until_idle(), kFrames);
  ASSERT_EQ(order.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) ASSERT_EQ(order[i], i);
}

TEST(AsyncNetwork, CascadingSendsAreProcessed) {
  net::AsyncNetwork net;
  int sink = 0;
  net.register_endpoint("relay", [&](const std::string&, BytesView f) {
    net.send("relay", "sink", Bytes(f.begin(), f.end()));
  });
  net.register_endpoint("sink", [&](const std::string&, BytesView) { ++sink; });
  net.send("a", "relay", Bytes{1});
  EXPECT_EQ(net.run_until_idle(), 2u);
  EXPECT_EQ(sink, 1);
}

TEST(AsyncNetwork, LiveLockGuardThrows) {
  net::AsyncNetwork net;
  net.register_endpoint("a", [&](const std::string&, BytesView) {
    net.send("a", "a", Bytes{1});  // infinite self-ping
  });
  net.send("x", "a", Bytes{1});
  EXPECT_THROW(net.run_until_idle(100), std::runtime_error);
}

// --- Seeded fault plans ------------------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    net::FaultPlan plan(seed);
    net::LinkFaults f;
    f.drop = 0.3;
    f.duplicate = 0.2;
    f.delay_max = 5.0;
    plan.set_default(f);
    std::vector<int> decisions;
    for (int i = 0; i < 200; ++i) {
      decisions.push_back(plan.should_drop("a", "b") ? 1 : 0);
      decisions.push_back(plan.should_duplicate("a", "b") ? 1 : 0);
      decisions.push_back(static_cast<int>(plan.delay("a", "b") * 1000));
    }
    return decisions;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(FaultPlan, PerLinkOverridesAndCounters) {
  net::AsyncNetwork net;
  net::FaultPlan plan(3);
  net::LinkFaults lossy;
  lossy.drop = 1.0;
  plan.set_link("a", "b", lossy);  // only a→b is lossy; default is clean
  net.set_fault_plan(std::move(plan));
  test::WireLog wire(net);
  int got = 0;
  net.register_endpoint("a", [&](const std::string&, BytesView) { ++got; });
  net.register_endpoint("b", [&](const std::string&, BytesView) { ++got; });
  for (int i = 0; i < 5; ++i) {
    net.send("a", "b", Bytes{1});
    net.send("b", "a", Bytes{2});
  }
  net.run_until_idle();
  EXPECT_EQ(got, 5);  // all b→a frames
  EXPECT_EQ(net.dropped_frames(), 5u);
  EXPECT_EQ(net.dropped_on("a", "b"), 5u);
  EXPECT_EQ(net.dropped_on("b", "a"), 0u);
  EXPECT_EQ(wire.size(), 10u);  // eavesdropper saw every frame
}

TEST(FaultPlan, DuplicateDeliversTwiceAndLogsTwice) {
  net::AsyncNetwork net;
  net::FaultPlan plan(4);
  net::LinkFaults f;
  f.duplicate = 1.0;
  plan.set_default(f);
  net.set_fault_plan(std::move(plan));
  test::WireLog wire(net);
  int got = 0;
  net.register_endpoint("b", [&](const std::string&, BytesView) { ++got; });
  net.send("a", "b", Bytes{1});
  net.run_until_idle();
  EXPECT_EQ(got, 2);
  // The copy crossed the wire too: the tap saw two frames.
  EXPECT_EQ(wire.size(), 2u);
}

TEST(FaultPlan, BlackoutWindowSilencesEndpoint) {
  net::AsyncNetwork net;
  net::FaultPlan plan(5);
  plan.add_blackout("b", 0.0, 1000.0);
  net.set_fault_plan(std::move(plan));
  test::WireLog wire(net);
  int got = 0;
  net.register_endpoint("b", [&](const std::string&, BytesView) { ++got; });
  net.send("a", "b", Bytes{1});  // lands inside the window: lost
  net.run_until_idle();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.dropped_frames(), 1u);
  net.advance(2000);  // window over
  net.send("a", "b", Bytes{2});
  net.run_until_idle();
  EXPECT_EQ(got, 1);
  // Sender-side blackout: frames from a dark endpoint are lost at send
  // time, BEFORE the wire — so unlike drops/receiver blackouts (lost past
  // the observation point) the tap never sees them.
  net.fault_plan().add_blackout("b", net.now(), net.now() + 1000.0);
  const std::size_t wire_before = wire.size();
  net.send("b", "a", Bytes{3});
  net.run_until_idle();
  EXPECT_EQ(net.dropped_frames(), 2u);
  EXPECT_EQ(wire.size(), wire_before);
}

TEST(FaultPlan, DelayHoldsFrameUntilItsTick) {
  net::AsyncNetwork net;
  net::FaultPlan plan(6);
  net::LinkFaults f;
  f.delay_max = 50.0;
  plan.set_default(f);
  net.set_fault_plan(std::move(plan));
  std::vector<int> order;
  net.register_endpoint("b", [&](const std::string&, BytesView fr) {
    order.push_back(fr[0]);
  });
  // With random extra delay, pumping still delivers everything exactly once
  // (earliest deliver_at first).
  for (int i = 0; i < 20; ++i) net.send("a", "b", Bytes{std::uint8_t(i)});
  net.run_until_idle();
  EXPECT_EQ(order.size(), 20u);
  std::sort(order.begin(), order.end());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

// Installing a fault-free plan over a lossy one restores plain FIFO
// delivery with no drops.
TEST(FaultPlan, ClearRestoresLegacyBehavior) {
  net::AsyncNetwork net;
  net::FaultPlan plan(9);
  net::LinkFaults f;
  f.drop = 1.0;
  plan.set_default(f);
  net.set_fault_plan(std::move(plan));
  net.set_fault_plan(net::FaultPlan(9));
  std::vector<int> order;
  net.register_endpoint("b", [&](const std::string&, BytesView fr) {
    order.push_back(fr[0]);
  });
  net.send("a", "b", Bytes{1});
  net.send("a", "b", Bytes{2});
  net.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(net.dropped_frames(), 0u);
}

// --- P3S over an asynchronous wire --------------------------------------------------

class AsyncP3sTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = pbe::MetadataSchema(
        {{"topic", {"a", "b"}}, {"tier", {"x", "y"}}});
    config.rs_grace_seconds = 0.0;  // strict deletion: exposes races
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
  }

  // make_* helpers drive protocol steps that need responses; pump after each.
  std::unique_ptr<Subscriber> subscriber(const std::string& name) {
    auto sub = system_->make_subscriber(name, name + "-pseud", {"m"}, rng_);
    net_.run_until_idle();
    return sub;
  }

  net::AsyncNetwork net_;
  TestRng rng_{0xa57c};
  std::unique_ptr<P3sSystem> system_;
};

TEST_F(AsyncP3sTest, FullFlowUnderAsynchrony) {
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();
  ASSERT_TRUE(sub->connected());
  ASSERT_TRUE(pub->connected());

  sub->subscribe({{"topic", "a"}});
  net_.run_until_idle();
  ASSERT_EQ(sub->token_count(), 1u);

  test::DeliveryLog got(*sub);
  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("async"),
               abe::parse_policy("m"), /*ttl=*/1e6);
  net_.run_until_idle();
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "async");
}

TEST_F(AsyncP3sTest, LostTokenResponseIsRecoverable) {
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();

  sub->subscribe({{"topic", "a"}});
  // Lose the in-flight request on the wire: the anonymizer is dark when it
  // arrives, so the whole exchange dies.
  ASSERT_EQ(net_.in_flight(), 1u);
  const std::string anon = system_->directory().anonymizer_name;
  net::FaultPlan plan(1);
  plan.add_blackout(anon, net_.now(), net_.now() + 2.0);
  net_.set_fault_plan(std::move(plan));
  net_.run_until_idle();
  EXPECT_EQ(sub->token_count(), 0u);
  EXPECT_EQ(net_.dropped_frames(), 1u);
  EXPECT_EQ(net_.dropped_on("sub1", anon), 1u);  // the request, not another

  // Application-level recovery (paper: loss is detectable; clients retry).
  sub->refresh_tokens();
  net_.run_until_idle();
  EXPECT_EQ(sub->token_count(), 1u);

  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("ok"),
               abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);
}

TEST_F(AsyncP3sTest, UnsubscribeBeforeTokenArrivesDropsItsToken) {
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();

  // Both token responses are still in flight when the first interest goes:
  // its late token must not come back, nor the first request's duplicate
  // of the kept one.
  sub->subscribe({{"topic", "a"}});
  sub->subscribe({{"tier", "y"}});
  ASSERT_TRUE(sub->unsubscribe({{"topic", "a"}}));
  net_.run_until_idle();
  EXPECT_EQ(sub->token_count(), 1u);

  test::DeliveryLog got(*sub);
  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("dropped"),
               abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  EXPECT_TRUE(got.deliveries().empty());
  pub->publish({{"topic", "b"}, {"tier", "y"}}, str_to_bytes("kept"),
               abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "kept");
}

// Reliable mode with the anonymizer dark: dropping an interest whose token
// request is unanswered cancels that request alone and sends nothing; the
// kept interest's retries bring back exactly its token.
TEST(ReliableSubscriber, UnsubscribeCancelsOnlyItsOwnRequest) {
  net::AsyncNetwork net;
  TestRng rng(0x5ab5);
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema =
      pbe::MetadataSchema({{"topic", {"a", "b"}}, {"tier", {"x", "y"}}});
  config.reliability.enabled = true;
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "sub1-pseud", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  net.run_until_idle();
  ASSERT_TRUE(sub->connected());
  ASSERT_TRUE(pub->connected());

  const std::string anon = system.directory().anonymizer_name;
  net::FaultPlan plan(1);
  plan.add_blackout(anon, net.now(), net.now() + 500.0);
  net.set_fault_plan(std::move(plan));
  sub->subscribe({{"topic", "a"}});
  sub->subscribe({{"tier", "y"}});
  ASSERT_EQ(sub->pending_request_count(), 2u);

  obs::Counter& requests = obs::Registry::global().counter(
      obs::names::kSubTokenRequestsTotal);
  const std::uint64_t before = requests.value();
  ASSERT_TRUE(sub->unsubscribe({{"topic", "a"}}));
  EXPECT_EQ(requests.value(), before);
  EXPECT_EQ(sub->pending_request_count(), 1u);

  for (int round = 0; round < 200 && sub->token_count() == 0; ++round) {
    net.run_until_idle();
    sub->poll();
    pub->poll();
    if (net.in_flight() == 0) net.advance(50);
  }
  net.run_until_idle();
  EXPECT_EQ(sub->token_count(), 1u);
  EXPECT_EQ(sub->request_failures(), 0u);
  EXPECT_GT(sub->retries(), 0u);

  test::DeliveryLog got(*sub);
  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("dropped"),
               abe::parse_policy("m"), 1e6);
  pub->publish({{"topic", "b"}, {"tier", "y"}}, str_to_bytes("kept"),
               abe::parse_policy("m"), 1e6);
  for (int round = 0; round < 50 && got.deliveries().empty(); ++round) {
    net.run_until_idle();
    sub->poll();
    pub->poll();
    if (net.in_flight() == 0) net.advance(50);
  }
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "kept");
}

TEST_F(AsyncP3sTest, ChannelRejectsReorderedRecordsButFlowRecovers) {
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();
  sub->subscribe({{"topic", "a"}});
  net_.run_until_idle();

  test::DeliveryLog got(*sub);
  // Two publications sent while the wire reorders the publisher's frames:
  // the DS channel's strictly-increasing sequence numbers reject the older
  // record (TLS semantics), so only the newer publication survives.
  const auto reordered = [] {
    return obs::Registry::global()
        .counter(obs::names::kNetFaultReorderedTotal)
        .value();
  };
  const auto reordered_before = reordered();
  net::FaultPlan plan(1);
  net::LinkFaults reorder;
  reorder.reorder = 1.0;
  plan.set_link("pub1", system_->directory().ds_name, reorder);
  net_.set_fault_plan(std::move(plan));
  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("first"),
               abe::parse_policy("m"), 1e6);
  pub->publish({{"topic", "a"}, {"tier", "y"}}, str_to_bytes("second"),
               abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  net_.set_fault_plan(net::FaultPlan(1));
  EXPECT_GT(reordered(), reordered_before);
  EXPECT_LE(got.deliveries().size(), 1u);

  // In-order traffic afterwards fails (the channel lost sync) until the
  // client re-establishes its session — the documented recovery path.
  pub->connect();
  net_.run_until_idle();
  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("recovered"),
               abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  ASSERT_FALSE(got.deliveries().empty());
  EXPECT_EQ(bytes_to_str(got.deliveries().back().payload), "recovered");
}

TEST_F(AsyncP3sTest, SlowConsumerMissesStrictlyDeletedItem) {
  // The T_G = 0 race from §4.3, now with real asynchrony: the item expires
  // while the subscriber's fetch is still in flight.
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();
  sub->subscribe({{"topic", "a"}});
  net_.run_until_idle();

  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("ephemeral"),
               abe::parse_policy("m"), /*ttl=*/1.0);
  // Deliver the store + broadcast, but stall before the content request
  // lands; meanwhile the TTL passes.
  net_.run_until_idle();  // subscriber has matched and requested by now...
  // ...actually the request was delivered too. Re-run with a stalled fetch:
  // publish again and advance time past TTL before pumping the request.
  pub->publish({{"topic", "a"}, {"tier", "y"}}, str_to_bytes("ephemeral2"),
               abe::parse_policy("m"), /*ttl=*/1.0);
  // Pump only the store + fan-out, not the fetch: deliver frames until the
  // subscriber has matched (its request is then in flight).
  const std::size_t before = sub->match_count();
  while (sub->match_count() == before && net_.pump_one()) {
  }
  net_.advance(10);  // TTL passes while the request is in flight
  system_->rs().garbage_collect();
  net_.run_until_idle();
  EXPECT_GE(sub->fetch_failures(), 1u);
}

// Any endpoint can send a response frame with a guessed tag (tags count up
// from 1). One whose body does not open under the request's Ks cancels
// nothing: the token and the item still arrive, each once.
TEST_F(AsyncP3sTest, ForgedResponsesDoNotCancelRequests) {
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();
  const auto forge = [&](FrameType type) {
    for (std::uint64_t tag = 1; tag <= 4; ++tag) {
      net_.send("mallory", "sub1", tagged_frame(type, tag, Bytes(64, 0x5a)));
    }
  };

  sub->subscribe({{"topic", "a"}});
  forge(FrameType::kTokenResponse);  // queued ahead of the PBE-TS's answer
  net_.run_until_idle();
  ASSERT_EQ(sub->token_count(), 1u);

  test::DeliveryLog got(*sub);
  pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("kept"),
               abe::parse_policy("m"), /*ttl=*/1e6);
  while (sub->match_count() == 0 && net_.pump_one()) {
  }
  ASSERT_EQ(sub->match_count(), 1u);
  forge(FrameType::kContentResponse);  // queued ahead of the RS's answer
  net_.run_until_idle();
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "kept");
  EXPECT_EQ(sub->delivery_count(), 1u);
}

TEST_F(AsyncP3sTest, ResponseCarryingAnotherItemIsNotDelivered) {
  // An RS that answers a fetch with some other stored item must not make
  // the subscriber deliver a payload it never matched. The RS's store is
  // rewritten through snapshot/restore while the fetch is in flight, so the
  // matched GUID points at the unmatched item's ciphertext.
  auto sub = subscriber("sub1");
  auto pub = system_->make_publisher("pub1", "press", rng_);
  net_.run_until_idle();
  sub->subscribe({{"topic", "a"}});
  net_.run_until_idle();

  test::DeliveryLog got(*sub);
  const Guid unmatched =
      pub->publish({{"topic", "b"}, {"tier", "x"}}, str_to_bytes("not-yours"),
                   abe::parse_policy("m"), /*ttl=*/1e6);
  const Guid matched =
      pub->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("yours"),
                   abe::parse_policy("m"), /*ttl=*/1e6);
  while (system_->rs().stored_items() < 2 && net_.pump_one()) {
  }
  ASSERT_EQ(system_->rs().stored_items(), 2u);

  // Snapshot layout: u32 count, then per item GUID, u64 expiry, ciphertext.
  const Bytes snapshot = system_->rs().snapshot();
  Reader r(snapshot);
  const std::uint32_t n = r.u32();
  std::map<Guid, std::pair<std::uint64_t, Bytes>> items;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Guid guid = Guid::from_bytes(r.raw(Guid::kSize));
    const std::uint64_t expiry = r.u64();
    items[guid] = {expiry, r.bytes()};
  }
  items.at(matched).second = items.at(unmatched).second;
  Writer w;
  w.u32(n);
  for (const auto& [guid, item] : items) {
    w.raw(guid.to_bytes());
    w.u64(item.first);
    w.bytes(item.second);
  }
  system_->rs().restore(w.data());

  net_.run_until_idle();
  EXPECT_EQ(sub->match_count(), 1u);
  EXPECT_TRUE(got.deliveries().empty());
  EXPECT_EQ(sub->delivery_count(), 0u);
  EXPECT_EQ(sub->fetch_failures(), 1u);
}

}  // namespace
}  // namespace p3s::core
