// End-to-end integration tests for the P3S middleware: protocol flows of
// paper Figs. 1-4, deletion semantics, crash/restart behaviour, and what
// the RS and PBE-TS can read of these flows (§6.1; hbc_view.hpp opens the
// frames they received with their own keys).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "delivery_log.hpp"
#include "exec/pool.hpp"
#include "hbc_view.hpp"
#include "net/async.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

pbe::MetadataSchema test_schema() {
  return pbe::MetadataSchema({
      {"sector", {"tech", "finance", "energy", "health"}},
      {"region", {"us", "eu", "apac"}},
      {"event", {"merger", "earnings", "default", "ipo"}},
  });
}

pbe::Metadata md(const char* sector, const char* region, const char* event) {
  return {{"sector", sector}, {"region", region}, {"event", event}};
}

class P3sEndToEnd : public ::testing::Test {
 protected:
  void build(bool with_anonymizer = true, double grace = 5.0) {
    P3sConfig config;
    config.pairing = pairing_;
    config.schema = test_schema();
    config.with_anonymizer = with_anonymizer;
    config.rs_grace_seconds = grace;
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
  }

  /// Per-GUID content requests, as the RS opened them.
  std::map<Guid, std::size_t> rs_requests() const {
    return test::requested_guids(
        test::envelope_view(wire_, *pairing_, system_->rs()));
  }

  net::AsyncNetwork net_;
  test::WireLog wire_{net_};
  pairing::PairingPtr pairing_ = pairing::Pairing::test_pairing();
  TestRng rng_{0x935};
  std::unique_ptr<P3sSystem> system_;
};

TEST_F(P3sEndToEnd, MatchingSubscriberReceivesPayload) {
  build();
  auto sub = system_->make_subscriber("sub1", "alice", {"analyst", "org:us"},
                                      rng_);
  test::DeliveryLog got(*sub);
  auto pub = system_->make_publisher("pub1", "acme-news", rng_);
  net_.run_until_idle();
  ASSERT_TRUE(sub->connected());
  ASSERT_TRUE(pub->connected());

  sub->subscribe({{"sector", "finance"}});
  net_.run_until_idle();
  ASSERT_EQ(sub->token_count(), 1u);

  const Bytes payload = str_to_bytes("lehman default imminent");
  const Guid guid = pub->publish(md("finance", "us", "default"), payload,
                                 abe::parse_policy("analyst and org:us"));
  net_.run_until_idle();

  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(got.deliveries()[0].guid, guid);
  EXPECT_EQ(got.deliveries()[0].payload, payload);
  EXPECT_EQ(sub->match_count(), 1u);
  EXPECT_EQ(sub->metadata_received(), 1u);
}

TEST_F(P3sEndToEnd, NonMatchingSubscriberLearnsNothing) {
  build();
  auto sub = system_->make_subscriber("sub1", "bob", {"analyst"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();

  pub->publish(md("finance", "us", "default"), str_to_bytes("secret"),
               abe::parse_policy("analyst"));
  net_.run_until_idle();

  // Received the encrypted broadcast but no match, no fetch, no delivery.
  EXPECT_EQ(sub->metadata_received(), 1u);
  EXPECT_EQ(sub->match_count(), 0u);
  EXPECT_EQ(sub->delivery_count(), 0u);
  EXPECT_TRUE(rs_requests().empty());
}

TEST_F(P3sEndToEnd, MatchingButUnauthorizedCannotDecrypt) {
  build();
  // Interest matches, but attributes fail the CP-ABE policy.
  auto sub = system_->make_subscriber("sub1", "eve", {"intern"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "finance"}});
  net_.run_until_idle();

  pub->publish(md("finance", "us", "merger"), str_to_bytes("need-to-know"),
               abe::parse_policy("analyst and org:us"));
  net_.run_until_idle();

  EXPECT_EQ(sub->match_count(), 1u);
  EXPECT_EQ(sub->undecryptable_payloads(), 1u);
  EXPECT_EQ(sub->delivery_count(), 0u);
}

TEST_F(P3sEndToEnd, WildcardInterestSpansValues) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  // Interested in any finance event in any region.
  sub->subscribe({{"sector", "finance"}});
  net_.run_until_idle();

  for (const char* region : {"us", "eu", "apac"}) {
    pub->publish(md("finance", region, "ipo"), str_to_bytes(region),
                 abe::parse_policy("a"));
  }
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("no"),
               abe::parse_policy("a"));
  net_.run_until_idle();

  EXPECT_EQ(sub->delivery_count(), 3u);
  EXPECT_EQ(sub->metadata_received(), 4u);
}

TEST_F(P3sEndToEnd, MultipleInterestsMultipleSubscribers) {
  build();
  auto s1 = system_->make_subscriber("sub1", "s1", {"a"}, rng_);
  auto s2 = system_->make_subscriber("sub2", "s2", {"a"}, rng_);
  auto s3 = system_->make_subscriber("sub3", "s3", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);

  s1->subscribe({{"sector", "tech"}});
  s1->subscribe({{"sector", "energy"}});
  s2->subscribe({{"sector", "tech"}, {"region", "eu"}});
  s3->subscribe({{"event", "merger"}});
  net_.run_until_idle();

  pub->publish(md("tech", "eu", "merger"), str_to_bytes("m1"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(s1->delivery_count(), 1u);
  EXPECT_EQ(s2->delivery_count(), 1u);
  EXPECT_EQ(s3->delivery_count(), 1u);

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m2"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(s1->delivery_count(), 2u);
  EXPECT_EQ(s2->delivery_count(), 1u);  // region mismatch
  EXPECT_EQ(s3->delivery_count(), 1u);  // event mismatch

  pub->publish(md("energy", "apac", "earnings"), str_to_bytes("m3"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(s1->delivery_count(), 3u);  // second interest fired
}

TEST_F(P3sEndToEnd, SubscriberWithTwoMatchingTokensFetchesOnce) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  sub->subscribe({{"region", "us"}});
  net_.run_until_idle();

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);
  // RS served exactly one request for the item.
  const auto requests = rs_requests();
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests.begin()->second, 1u);
}

// --- Deletion semantics (paper §4.3 "Deletion") -----------------------------------

TEST_F(P3sEndToEnd, ExpiredItemsAreGarbageCollected) {
  // Network ticks stand in for seconds; every send and every delivery
  // advances the clock by one, so keep generous margins around the
  // TTL + T_G boundary.
  build(/*with_anonymizer=*/true, /*grace=*/50.0);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  net_.run_until_idle();
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"), /*ttl_seconds=*/100.0);
  net_.run_until_idle();
  EXPECT_EQ(system_->rs().stored_items(), 1u);

  net_.advance(110);  // past TTL but inside TTL + T_G
  EXPECT_EQ(system_->rs().garbage_collect(), 0u);
  EXPECT_EQ(system_->rs().stored_items(), 1u);

  net_.advance(50);  // decisively past TTL + T_G
  EXPECT_EQ(system_->rs().garbage_collect(), 1u);
  EXPECT_EQ(system_->rs().stored_items(), 0u);
}

TEST_F(P3sEndToEnd, StrictGraceZeroFailsSlowConsumers) {
  // Paper: with T_G = 0 a slow matched subscriber may fail to fetch.
  build(/*with_anonymizer=*/true, /*grace=*/0.0);
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  test::DeliveryLog got(*sub);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  net_.run_until_idle();

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"), /*ttl_seconds=*/10.0);
  net_.run_until_idle();
  // The slow subscriber only subscribes (and would match) after expiry.
  net_.advance(50);
  system_->rs().garbage_collect();
  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();

  // Republish the same metadata so the subscriber has something to match
  // against — but fetch the OLD guid is impossible; instead verify the
  // deleted item cannot be fetched: deliveries stay empty and stored == 1
  // for the new item only.
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("fresh"),
               abe::parse_policy("a"), /*ttl_seconds=*/1000.0);
  net_.run_until_idle();
  EXPECT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "fresh");
  EXPECT_EQ(system_->rs().stored_items(), 1u);
}

TEST_F(P3sEndToEnd, MatchedButDeletedItemYieldsFetchFailure) {
  // Paper §4.3: "For a strict interpretation ... T_G can be set to 0, which
  // may result in considerably more failures to fetch the item for some
  // (slower) clients with matched subscription."
  build(/*with_anonymizer=*/true, /*grace=*/0.0);
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();

  // TTL 0 + grace 0: the item expires the instant it is stored; by the time
  // the matched subscriber's request reaches the RS (later network ticks),
  // the item is gone.
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"), /*ttl_seconds=*/0.0);
  net_.run_until_idle();

  EXPECT_EQ(sub->match_count(), 1u);
  EXPECT_EQ(sub->fetch_failures(), 1u);
  EXPECT_EQ(sub->delivery_count(), 0u);
}

// --- Restart / robustness (paper §6.1) ----------------------------------------------

TEST_F(P3sEndToEnd, DsRestartRequiresReregistration) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  test::DeliveryLog got(*sub);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();

  system_->ds().crash_and_restart();

  // Clients re-register (tokens survive client-side; paper §6.1).
  sub->reconnect();
  pub->connect();
  net_.run_until_idle();

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("after-restart"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "after-restart");
}

TEST_F(P3sEndToEnd, RsSnapshotRestorePersistsEncryptedContent) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  net_.run_until_idle();
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("durable"),
               abe::parse_policy("a"), 1000.0);
  net_.run_until_idle();

  // "Crash": persist, wipe, restore — no re-encryption needed.
  const Bytes snap = system_->rs().snapshot();
  system_->rs().restore(Bytes{0, 0, 0, 0});  // empty store
  EXPECT_EQ(system_->rs().stored_items(), 0u);
  system_->rs().restore(snap);
  EXPECT_EQ(system_->rs().stored_items(), 1u);

  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("durable"),
               abe::parse_policy("a"), 1000.0);
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);
}

// A TTL that the content body's u64 milliseconds cannot carry is refused
// before any randomness is drawn. Cast unchecked, -5 s went on the wire as
// 1.84e16 s and NaN as 9.22e15 s.
TEST_F(P3sEndToEnd, PublishRejectsUnrepresentableTtl) {
  build();
  auto pub = system_->make_publisher("pub1", "p", rng_);
  net_.run_until_idle();
  const std::size_t frames = wire_.size();
  for (const double ttl :
       {-5.0, -1e-3, std::nan(""), HUGE_VAL, -HUGE_VAL, 1e17}) {
    const TestRng before = rng_;
    EXPECT_THROW(pub->publish(md("tech", "us", "ipo"), str_to_bytes("x"),
                              abe::parse_policy("a"), ttl),
                 std::invalid_argument)
        << ttl;
    TestRng untouched = before;
    EXPECT_EQ(rng_.bytes(16), untouched.bytes(16)) << "drew for TTL " << ttl;
  }
  net_.run_until_idle();
  EXPECT_EQ(wire_.size(), frames);
  // The largest TTLs that fit still publish.
  EXPECT_NO_THROW(pub->publish(md("tech", "us", "ipo"), str_to_bytes("x"),
                               abe::parse_policy("a"), 1.8e16));
}

// A publisher can put u64-max milliseconds on the wire. The RS keeps that
// item, and its snapshot carries the expiry saturated at the u64 maximum:
// cast past the u64 range it read back from restore() as 0, and the next
// collection deleted the item.
TEST_F(P3sEndToEnd, RsSnapshotKeepsAMaximalExpiry) {
  build();
  Writer store;
  store.u8(static_cast<std::uint8_t>(FrameType::kStoreContent));
  store.u8(0);  // clear GUID
  store.bytes(Guid::random(rng_).to_bytes());
  store.u64(~std::uint64_t{0});  // TTL, ms
  store.bytes(str_to_bytes("abe-ciphertext"));
  net_.send("ds", system_->rs().name(), store.take());
  net_.run_until_idle();
  ASSERT_EQ(system_->rs().stored_items(), 1u);

  const Bytes snap = system_->rs().snapshot();
  Reader r(snap);
  EXPECT_EQ(r.u32(), 1u);
  r.raw(Guid::kSize);
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  system_->rs().restore(snap);
  net_.advance(1e6);
  EXPECT_EQ(system_->rs().garbage_collect(), 0u);
  EXPECT_EQ(system_->rs().stored_items(), 1u);
  EXPECT_EQ(system_->rs().snapshot(), snap);
}

TEST_F(P3sEndToEnd, RsFilePersistenceSurvivesRestart) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  net_.run_until_idle();
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("on-disk"),
               abe::parse_policy("a"), 1e6);
  net_.run_until_idle();

  const std::string path = ::testing::TempDir() + "/p3s_rs_store.bin";
  system_->rs().save_to_file(path);
  system_->rs().restore(Bytes{0, 0, 0, 0});  // crash wipes memory
  EXPECT_EQ(system_->rs().stored_items(), 0u);
  system_->rs().load_from_file(path);  // restart reloads from disk
  EXPECT_EQ(system_->rs().stored_items(), 1u);

  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("on-disk"),
               abe::parse_policy("a"), 1e6);
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);

  EXPECT_THROW(system_->rs().load_from_file("/nonexistent/nope.bin"),
               std::runtime_error);
}

TEST_F(P3sEndToEnd, SubscriberRestartRefreshesTokens) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();
  EXPECT_EQ(sub->token_count(), 1u);

  sub->reconnect();       // new channel
  sub->refresh_tokens();  // re-obtain tokens from the PBE-TS
  net_.run_until_idle();
  EXPECT_EQ(sub->token_count(), 1u);

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);
}

// --- Unsubscribe / clean departure ------------------------------------------------

TEST_F(P3sEndToEnd, UnsubscribeStopsMatchingImmediately) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  sub->subscribe({{"sector", "finance"}});
  net_.run_until_idle();

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m1"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);

  EXPECT_TRUE(sub->unsubscribe({{"sector", "tech"}}));
  EXPECT_EQ(sub->token_count(), 1u);  // finance token remains
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m2"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);  // no new delivery
  pub->publish(md("finance", "us", "ipo"), str_to_bytes("m3"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 2u);  // other interest still live

  EXPECT_FALSE(sub->unsubscribe({{"sector", "health"}}));  // never registered
}

// An interest swap is one token request: the dropped interest goes
// locally, and the kept ones keep their tokens without asking again.
TEST_F(P3sEndToEnd, SwapSendsOneTokenRequest) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  sub->subscribe({{"sector", "finance"}});
  sub->subscribe({{"sector", "energy"}});
  sub->subscribe({{"region", "apac"}});
  net_.run_until_idle();
  ASSERT_EQ(sub->token_count(), 4u);

  const auto count = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  const std::uint64_t requests = count(obs::names::kSubTokenRequestsTotal);
  const std::uint64_t issued = count(obs::names::kTsTokensIssuedTotal);
  ASSERT_TRUE(sub->unsubscribe({{"sector", "tech"}}));
  sub->subscribe({{"event", "ipo"}});
  net_.run_until_idle();
  EXPECT_EQ(count(obs::names::kSubTokenRequestsTotal) - requests, 1u);
  EXPECT_EQ(count(obs::names::kTsTokensIssuedTotal) - issued, 1u);
  EXPECT_EQ(sub->token_count(), 4u);

  test::DeliveryLog got(*sub);
  pub->publish(md("tech", "us", "merger"), str_to_bytes("dropped"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_TRUE(got.deliveries().empty());
  pub->publish(md("energy", "eu", "merger"), str_to_bytes("kept"),
               abe::parse_policy("a"));
  pub->publish(md("health", "us", "ipo"), str_to_bytes("new"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  ASSERT_EQ(got.deliveries().size(), 2u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "kept");
  EXPECT_EQ(bytes_to_str(got.deliveries()[1].payload), "new");
}

TEST_F(P3sEndToEnd, DisconnectedSubscriberStopsReceivingBroadcasts) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "tech"}});
  net_.run_until_idle();
  sub->disconnect();
  net_.run_until_idle();
  EXPECT_FALSE(sub->connected());
  EXPECT_EQ(system_->ds().subscriber_count(), 0u);

  pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->metadata_received(), 0u);

  // Rejoin: reconnect and matching resumes with the kept tokens.
  sub->reconnect();
  net_.run_until_idle();
  pub->publish(md("tech", "us", "ipo"), str_to_bytes("back"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);
}

TEST_F(P3sEndToEnd, DisconnectedPublisherCannotPublish) {
  build();
  auto pub = system_->make_publisher("pub1", "p", rng_);
  net_.run_until_idle();
  pub->disconnect();
  net_.run_until_idle();
  EXPECT_EQ(system_->ds().publisher_count(), 0u);
  EXPECT_THROW(pub->publish(md("tech", "us", "ipo"), str_to_bytes("m"),
                            abe::parse_policy("a")),
               std::logic_error);
}

// --- Certificate enforcement -----------------------------------------------------

TEST_F(P3sEndToEnd, ForgedCertificateRejectedByTokenServer) {
  build();
  auto creds = system_->ara().register_subscriber("mallory", {"a"}, rng_);
  creds.certificate.pseudonym = "admin";  // tamper after signing
  Subscriber sub(net_, "subx", creds, rng_);
  sub.connect();
  sub.subscribe({{"sector", "tech"}});
  net_.run_until_idle();
  EXPECT_EQ(sub.token_count(), 0u);
  EXPECT_EQ(sub.token_rejections(), 1u);
  EXPECT_EQ(system_->token_server().rejected_requests(), 1u);
}

TEST_F(P3sEndToEnd, PublisherCertificateCannotGetTokens) {
  build();
  const auto pub_creds = system_->ara().register_publisher("pressco", rng_);
  // A publisher tries to request a token using its publisher certificate.
  auto sub_creds = system_->ara().register_subscriber("shim", {"a"}, rng_);
  sub_creds.certificate = pub_creds.certificate;
  Subscriber shim(net_, "shim", sub_creds, rng_);
  shim.connect();
  shim.subscribe({{"sector", "tech"}});
  net_.run_until_idle();
  EXPECT_EQ(shim.token_count(), 0u);
  EXPECT_EQ(shim.token_rejections(), 1u);
}

// --- Handler timers ------------------------------------------------------------------

// A handler's timer covers its own work only. The handlers a publication
// sets off run when the queue is drained, after publish() has returned, so
// on the network's tick clock the publish timer counts the ticks of
// publish()'s own sends and none of theirs.
TEST_F(P3sEndToEnd, PublishTimerDoesNotCountTheHandlersItTriggers) {
  build();
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "finance"}});
  net_.run_until_idle();

  obs::Registry& reg = obs::Registry::global();
  const obs::Histogram& publish_seconds =
      reg.histogram(obs::names::kPubPublishSeconds);
  const obs::ClockGuard ticks(reg, [this] { return net_.now(); });
  const double recorded = publish_seconds.sum();
  const double start = net_.now();
  pub->publish(md("finance", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"));
  const double own = net_.now() - start;
  EXPECT_EQ(own, 2.0);  // the content frame, then the metadata frame
  net_.run_until_idle();
  EXPECT_EQ(publish_seconds.sum() - recorded, own);
  EXPECT_EQ(sub->delivery_count(), 1u);
  EXPECT_GT(net_.now() - start, own);
}

// --- Pool size ---------------------------------------------------------------------

// The pooled subscriber match must leave the wire as the sequential run
// does: run the same seeded scenario under a 1-thread and a 4-thread global
// pool and compare every frame an eavesdropper would see on the wire.
TEST(P3sPoolEquivalence, WireTrafficIdenticalForAnyPoolSize) {
  const auto run = [](std::size_t threads) {
    exec::Pool::set_global_threads(threads);
    net::AsyncNetwork net;
    test::WireLog wire(net);
    TestRng rng(0x77aa);
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = test_schema();
    P3sSystem system(net, std::move(config), rng);
    auto sub = system.make_subscriber("sub1", "s", {"a"}, rng);
    test::DeliveryLog got(*sub);
    auto pub = system.make_publisher("pub1", "p", rng);
    sub->subscribe({{"sector", "finance"}});
    sub->subscribe({{"event", "merger"}});
    net.run_until_idle();

    pub->publish(md("finance", "us", "ipo"), str_to_bytes("a"),
                 abe::parse_policy("a"));
    pub->publish(md("tech", "eu", "merger"), str_to_bytes("bb"),
                 abe::parse_policy("a"));
    pub->publish(md("energy", "us", "earnings"), str_to_bytes("ccc"),
                 abe::parse_policy("a"));
    pub->publish(md("finance", "apac", "merger"), str_to_bytes("dddd"),
                 abe::parse_policy("a"));
    net.run_until_idle();

    std::vector<test::WireLog::Frame> traffic = wire.frames();
    std::vector<Bytes> payloads;
    for (const auto& d : got.deliveries()) payloads.push_back(d.payload);
    return std::pair(std::move(traffic), std::move(payloads));
  };

  const auto [seq_traffic, seq_deliveries] = run(1);
  const auto [par_traffic, par_deliveries] = run(4);
  exec::Pool::set_global_threads(1);  // restore determinism for later tests

  EXPECT_EQ(seq_deliveries, par_deliveries);
  ASSERT_EQ(seq_traffic.size(), par_traffic.size());
  for (std::size_t i = 0; i < seq_traffic.size(); ++i) {
    EXPECT_EQ(seq_traffic[i].from, par_traffic[i].from) << "frame " << i;
    EXPECT_EQ(seq_traffic[i].to, par_traffic[i].to) << "frame " << i;
    EXPECT_EQ(seq_traffic[i].bytes, par_traffic[i].bytes) << "frame " << i;
  }
}

// --- Without the anonymization service ---------------------------------------------

TEST_F(P3sEndToEnd, WorksWithoutAnonymizer) {
  build(/*with_anonymizer=*/false);
  auto sub = system_->make_subscriber("sub1", "s", {"a"}, rng_);
  auto pub = system_->make_publisher("pub1", "p", rng_);
  sub->subscribe({{"sector", "finance"}});
  net_.run_until_idle();
  pub->publish(md("finance", "us", "ipo"), str_to_bytes("m"),
               abe::parse_policy("a"));
  net_.run_until_idle();
  EXPECT_EQ(sub->delivery_count(), 1u);
  // Without anonymization the PBE-TS sees the subscriber's network identity.
  const test::HbcView ts =
      test::envelope_view(wire_, *pairing_, system_->token_server());
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].type, FrameType::kTokenRequest);
  EXPECT_EQ(ts[0].from, "sub1");
}

}  // namespace
}  // namespace p3s::core
