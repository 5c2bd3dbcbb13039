// Privacy assertions from paper §6.1, enforced against the REAL running
// system: we record every wire frame (eavesdropper view), open the frames
// each HBC service received with that service's own key (hbc_view.hpp), and
// assert that sensitive information appears exactly where the paper says it
// may — and nowhere else.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "delivery_log.hpp"
#include "hbc_view.hpp"
#include "net/async.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "p3s/messages.hpp"
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

class PrivacyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing_;
    config.schema = test_schema();
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
    sub_ = system_->make_subscriber("sub1", "alice", {"analyst", "org:us"},
                                    rng_);
    other_ = system_->make_subscriber("sub2", "bob", {"analyst"}, rng_);
    pub_ = system_->make_publisher("pub1", "acme", rng_);
    net_.run_until_idle();
    // The services' views need the setup frames (the DS's channel hellos);
    // tests about the steady-state protocol alone count from here.
    setup_frames_ = wire_.size();
  }

  void run_flow() {
    sub_->subscribe({{"sector", "finance"}, {"event", "default"}});
    other_->subscribe({{"sector", "tech"}});
    net_.run_until_idle();
    pub_->publish({{"sector", "finance"}, {"region", "us"}, {"event", "default"}},
                  str_to_bytes(kPayloadMarker),
                  abe::parse_policy("analyst and org:us"));
    net_.run_until_idle();
  }

  static constexpr const char* kPayloadMarker =
      "TOP-SECRET-PAYLOAD-0x5ca1ab1e";

  net::AsyncNetwork net_;
  test::WireLog wire_{net_};
  std::size_t setup_frames_ = 0;
  pairing::PairingPtr pairing_ = pairing::Pairing::test_pairing();
  TestRng rng_{0x99};
  std::unique_ptr<P3sSystem> system_;
  std::unique_ptr<Subscriber> sub_;
  std::unique_ptr<Subscriber> other_;
  std::unique_ptr<Publisher> pub_;
};

TEST_F(PrivacyTest, PayloadNeverAppearsOnTheWire) {
  run_flow();
  ASSERT_EQ(sub_->delivery_count(), 1u);  // flow actually delivered
  EXPECT_FALSE(wire_.contains(str_to_bytes(kPayloadMarker)));
}

TEST_F(PrivacyTest, InterestKeywordsNeverAppearOnTheWire) {
  run_flow();
  // The subscriber's predicate values travel only inside ECIES envelopes.
  EXPECT_FALSE(wire_.contains(str_to_bytes("finance")));
  EXPECT_FALSE(wire_.contains(str_to_bytes("default")));
  EXPECT_FALSE(wire_.contains(str_to_bytes("sector")));
}

TEST_F(PrivacyTest, PolicyAttributesDoAppearInTheClear) {
  // Contrast: the paper is explicit that the CP-ABE policy is NOT hidden
  // ("the access policy in CP-ABE encryption is 'in the clear'"). Policies
  // must therefore only use attributes safe to disclose.
  run_flow();
  EXPECT_TRUE(wire_.contains(str_to_bytes("analyst")));
  EXPECT_TRUE(wire_.contains(str_to_bytes("org:us")));
}

TEST_F(PrivacyTest, PbeTsSeesPredicateButNotIdentity) {
  run_flow();
  const test::HbcView ts =
      test::envelope_view(wire_, *pairing_, system_->token_server());
  ASSERT_EQ(ts.size(), 2u);
  for (const test::SeenFrame& f : ts) {
    ASSERT_EQ(f.type, FrameType::kTokenRequest);
  }
  // Plaintext predicate visible (paper: "the PBE-TS sees the plaintext
  // predicate")...
  Reader request(ts[0].bytes);
  request.bytes();  // Ks
  request.bytes();  // certificate
  EXPECT_EQ(pbe::deserialize_string_map(request.bytes()).at("sector"),
            "finance");
  // ...but every request arrived via the anonymizer.
  for (const test::SeenFrame& f : ts) EXPECT_EQ(f.from, "anon");
  // The anonymizer hides the network endpoint, not the pseudonym: the
  // certificate inside each request names its holder (paper Fig. 3).
  EXPECT_TRUE(test::contains(ts, str_to_bytes("alice")));
  EXPECT_TRUE(test::contains(ts, str_to_bytes("bob")));
}

TEST_F(PrivacyTest, RsSeesOnlyDsAndAnonymizer) {
  run_flow();
  const test::HbcView rs = test::envelope_view(wire_, *pairing_, system_->rs());
  ASSERT_FALSE(rs.empty());
  for (const test::SeenFrame& f : rs) {
    EXPECT_TRUE(f.from == "ds" || f.from == "anon") << f.from;
  }
  // The RS can count requests per GUID (allowed leakage, §6.1).
  const auto requests = test::requested_guids(rs);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests.begin()->second, 1u);
  // Opened with the RS's key, nothing it received holds the payload or
  // the interest.
  EXPECT_FALSE(test::contains(rs, str_to_bytes(kPayloadMarker)));
  for (const char* word : {"finance", "default", "sector"}) {
    EXPECT_FALSE(test::contains(rs, str_to_bytes(word))) << word;
  }
}

TEST_F(PrivacyTest, DsLearnsOnlySizesAndTypes) {
  run_flow();
  // Every record the DS received, opened with its channel keys: the DS
  // never receives a token request/response or plaintext maps — its inner
  // types are registration and publish frames only, and their bytes hold
  // no payload, interest or metadata word.
  const test::HbcView ds = test::ds_view(wire_, *pairing_, system_->ds());
  std::set<FrameType> types;
  for (const test::SeenFrame& f : ds) types.insert(f.type);
  EXPECT_EQ(types, (std::set<FrameType>{FrameType::kRegisterSubscriber,
                                         FrameType::kRegisterPublisher,
                                         FrameType::kPublishMetadata,
                                         FrameType::kPublishContent}));
  EXPECT_FALSE(test::contains(ds, str_to_bytes(kPayloadMarker)));
  for (const char* word : {"finance", "default", "sector", "region"}) {
    EXPECT_FALSE(test::contains(ds, str_to_bytes(word))) << word;
  }
}

TEST_F(PrivacyTest, AnonymizerSeesRoutingButNotContent) {
  run_flow();
  const test::HbcView anon =
      test::anonymizer_view(wire_, *system_->anonymizer());
  const std::vector<test::Route> routes = test::anon_routes(anon);
  ASSERT_FALSE(routes.empty());
  for (const test::Route& route : routes) {
    EXPECT_TRUE(route.destination == "pbe-ts" || route.destination == "rs");
    EXPECT_TRUE(route.requester == "sub1" || route.requester == "sub2");
  }
  EXPECT_FALSE(test::contains(anon, str_to_bytes(kPayloadMarker)));
  EXPECT_FALSE(test::contains(anon, str_to_bytes("finance")));
}

TEST_F(PrivacyTest, NonMatchingSubscriberSeesBroadcastButLearnsNothing) {
  run_flow();
  EXPECT_EQ(other_->metadata_received(), 1u);
  EXPECT_EQ(other_->match_count(), 0u);
  EXPECT_EQ(other_->delivery_count(), 0u);
  // And it never contacted the RS.
  const test::HbcView anon =
      test::anonymizer_view(wire_, *system_->anonymizer());
  for (const test::Route& route : test::anon_routes(anon)) {
    if (route.requester == "sub2") {
      EXPECT_EQ(route.destination, "pbe-ts");
    }
  }
}

TEST_F(PrivacyTest, EavesdropperSeesGuidOnlyAsClearFieldOfStoreFrame) {
  // Footnote 1 of the paper: eavesdroppers may learn the GUID sent in the
  // clear between DS and RS (mitigable by super-encryption under the RS
  // key). Verify the payload itself is still protected even with the GUID.
  test::DeliveryLog got(*sub_);
  run_flow();
  ASSERT_EQ(got.deliveries().size(), 1u);
  const Guid guid = got.deliveries()[0].guid;
  EXPECT_TRUE(wire_.contains(guid.to_bytes()));  // documented leak
  EXPECT_FALSE(wire_.contains(str_to_bytes(kPayloadMarker)));
}

TEST_F(PrivacyTest, PublisherLearnsNothingAboutMatching) {
  run_flow();
  // Frames addressed to the publisher after setup, counted per flow.
  const auto to_pub_since = [&](std::size_t first) {
    return std::count_if(
        wire_.frames().begin() + static_cast<std::ptrdiff_t>(first),
        wire_.frames().end(),
        [](const test::WireLog::Frame& rec) { return rec.to == "pub1"; });
  };
  const auto to_pub = to_pub_since(setup_frames_);
  const std::size_t second_flow = wire_.size();
  // Publish an item nobody matches; the publisher-visible traffic pattern
  // is identical (same count of acks per publish: zero — fire and forget).
  pub_->publish({{"sector", "health"}, {"region", "eu"}, {"event", "ipo"}},
                str_to_bytes("unmatched"), abe::parse_policy("analyst"));
  net_.run_until_idle();
  const auto to_pub2 = to_pub_since(second_flow);
  // In both flows the publisher receives zero feedback frames: it cannot
  // distinguish matched from unmatched publications.
  EXPECT_EQ(to_pub, 0);
  EXPECT_EQ(to_pub2, 0);
}

TEST_F(PrivacyTest, CollusionOfHbcSubscribersIsUnionOfViews) {
  run_flow();
  // Pool the two subscribers' deliveries: bob (non-matching, and lacking
  // org:us) contributes nothing; alice's view is unchanged by pooling.
  EXPECT_EQ(sub_->delivery_count() + other_->delivery_count(), 1u);
}

TEST_F(PrivacyTest, MetricsSnapshotsLeakNoSensitiveStrings) {
  // The observability layer watches the whole data path; §6.1 therefore
  // applies to its exports too. After a full flow, neither the text nor the
  // JSON snapshot may contain interest values, metadata keys/values, the
  // payload, policy attributes, pseudonyms, or endpoint names.
  run_flow();
  const std::string text = obs::render_text(obs::Registry::global(),
                                            /*max_spans=*/64);
  const std::string json = obs::render_json(obs::Registry::global());
  const char* leaks[] = {
      "finance", "default", "merger", "sector",   // interest/metadata words
      kPayloadMarker,                             // payload bytes
      "analyst", "org:us",                        // CP-ABE policy attributes
      "alice",   "bob",     "acme",               // pseudonyms
      "sub1",    "pub1",                          // endpoint names
  };
  for (const char* leak : leaks) {
    EXPECT_EQ(text.find(leak), std::string::npos) << "text leaks: " << leak;
    EXPECT_EQ(json.find(leak), std::string::npos) << "json leaks: " << leak;
  }
}

TEST_F(PrivacyTest, MetricNamesStayInsideClosedVocabulary) {
  // Every name exported after real traffic still passes the vocabulary
  // check — i.e. no instrumentation path smuggled runtime data into a
  // metric identity. (The registry throws on violation; this guards the
  // exported view end-to-end.)
  run_flow();
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  ASSERT_FALSE(snap.metrics.empty());
  for (const auto& m : snap.metrics) {
    const std::string base = m.name.substr(0, m.name.find('{'));
    EXPECT_TRUE(obs::Registry::valid_name(base)) << m.name;
  }
  for (const auto& s : snap.spans) {
    EXPECT_TRUE(obs::Registry::valid_name(s.name)) << s.name;
  }
}

TEST(PrivacyUnderLoss, DroppedFramesStillReachTheEavesdropper) {
  // Loss happens on the receiver side of the wire: an eavesdropper near the
  // sender records every frame whether or not it arrives. The wire tap
  // (our eavesdropper model) must therefore see each frame at send time,
  // and the per-link drop counters must account for every loss.
  net::AsyncNetwork net;
  test::WireLog wire(net);
  net::FaultPlan plan(42);
  net::LinkFaults faults;
  faults.drop = 0.5;
  plan.set_default(faults);
  net.set_fault_plan(std::move(plan));

  std::size_t delivered = 0;
  net.register_endpoint("a", [&](const std::string&, BytesView) {
    ++delivered;
  });
  net.register_endpoint("b", [&](const std::string&, BytesView) {
    ++delivered;
  });
  for (int i = 0; i < 100; ++i) {
    net.send("a", "b", Bytes{std::uint8_t(i)});
    net.send("b", "a", Bytes{std::uint8_t(i)});
  }
  net.run_until_idle();
  ASSERT_GT(net.dropped_frames(), 0u);
  EXPECT_EQ(delivered + net.dropped_frames(), 200u);
  // Every frame — delivered or dropped — was seen at send time.
  EXPECT_EQ(wire.size(), 200u);
  // Per-link counters partition the total.
  EXPECT_EQ(net.dropped_on("a", "b") + net.dropped_on("b", "a"),
            net.dropped_frames());
  EXPECT_EQ(net.dropped_on("b", "c"), 0u);
}

TEST(PrivacyUnderLoss, SenderBlackoutFramesNeverReachTheEavesdropper) {
  // The converse boundary: a blacked-out SENDER is off the network, so its
  // frames are lost before the wire — the eavesdropper must NOT see them.
  // (Receiver-side loss — plan drops, receiver blackouts — happens past
  // the observation point and is seen, as pinned above.) This is the
  // end-to-end form of the observation-order fix in AsyncNetwork::send.
  net::AsyncNetwork net;
  test::WireLog wire(net);
  TestRng rng(0xb0b);
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = test_schema();
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"analyst"}, rng);
  auto pub = system.make_publisher("pub1", "acme", rng);
  net.run_until_idle();
  sub->subscribe({{"sector", "finance"}});
  net.run_until_idle();
  ASSERT_EQ(sub->token_count(), 1u);

  net::FaultPlan plan(7);
  plan.add_blackout("pub1", net.now(), net.now() + 1e6);
  net.set_fault_plan(std::move(plan));
  const std::size_t wire_before = wire.size();
  pub->publish({{"sector", "finance"}, {"region", "us"}, {"event", "ipo"}},
               str_to_bytes("dark-sender-payload"), abe::parse_policy("analyst"));
  net.run_until_idle();
  // The publisher was dark: nothing it sent hit the wire, nobody reacted.
  EXPECT_EQ(wire.size(), wire_before);
  EXPECT_GT(net.dropped_frames(), 0u);
  EXPECT_EQ(sub->delivery_count(), 0u);
  for (std::size_t i = wire_before; i < wire.size(); ++i) {
    ADD_FAILURE() << "unexpected frame " << wire.frames()[i].from << " -> "
                  << wire.frames()[i].to;
  }
}

TEST(PrivacyUnderLoss, LossyFlowLeaksNothingExtra) {
  // The §6.1 wire assertions hold under loss too: a full flow over a lossy
  // AsyncNetwork (with the reliable layer retrying) still never puts the
  // payload or interest plaintext on the wire — retried frames are fresh
  // ciphertext, and dropped frames were still seen by the eavesdropper.
  constexpr const char* kLossyMarker = "TOP-SECRET-PAYLOAD-0x10e55";
  net::AsyncNetwork net;
  test::WireLog wire(net);
  TestRng rng(0x10e55);
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = test_schema();
  config.reliability.enabled = true;
  config.reliability.timeout = 300.0;
  config.reliability.max_timeout = 1200.0;
  P3sSystem system(net, std::move(config), rng);

  net::FaultPlan plan(7);
  net::LinkFaults faults;
  faults.drop = 0.1;
  plan.set_default(faults);
  net.set_fault_plan(std::move(plan));

  auto sub = system.make_subscriber("sub1", "alice", {"analyst", "org:us"},
                                    rng);
  auto pub = system.make_publisher("pub1", "acme", rng);
  sub->subscribe({{"sector", "finance"}, {"event", "default"}});
  for (int round = 0; round < 300 && sub->delivery_count() == 0; ++round) {
    net.run_until_idle();
    sub->poll();
    pub->poll();
    if (net.in_flight() == 0) {
      if (pub->connected() && sub->token_count() == 1 &&
          pub->pending_publish_count() == 0 && sub->delivery_count() == 0 &&
          sub->match_count() == 0) {
        // Everything settled and nothing published yet: publish now.
        pub->publish(
            {{"sector", "finance"}, {"region", "us"}, {"event", "default"}},
            str_to_bytes(kLossyMarker), abe::parse_policy("analyst and org:us"));
      }
      net.advance(97);
    }
  }
  ASSERT_EQ(sub->delivery_count(), 1u);
  EXPECT_GT(net.dropped_frames(), 0u);
  EXPECT_FALSE(wire.contains(str_to_bytes(kLossyMarker)));
  EXPECT_FALSE(wire.contains(str_to_bytes("finance")));
  EXPECT_FALSE(wire.contains(str_to_bytes("sector")));
}

TEST_F(PrivacyTest, MetadataBroadcastIsIdenticalForAllSubscribers) {
  // Every subscriber receives the same-size encrypted metadata whether or
  // not they match: reception patterns do not leak interest.
  run_flow();
  EXPECT_EQ(wire_.count("ds", "sub1"), wire_.count("ds", "sub2"));
}

}  // namespace
}  // namespace p3s::core
