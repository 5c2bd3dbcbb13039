// Network registration (paper Fig. 2): credential serialization round-trips
// and the ARA request/response protocol, including roster enforcement and
// end-to-end operation with remotely-registered clients.
#include <gtest/gtest.h>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "delivery_log.hpp"
#include "net/async.hpp"
#include "p3s/registration.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

pbe::MetadataSchema schema2() {
  return pbe::MetadataSchema({{"topic", {"a", "b"}}, {"tier", {"x", "y"}}});
}

class RegistrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = schema2();
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
    ara_server_ =
        std::make_unique<AraServer>(net_, "ara", system_->ara(), rng_);
  }

  net::AsyncNetwork net_;
  TestRng rng_{0xa5a};
  std::unique_ptr<P3sSystem> system_;
  std::unique_ptr<AraServer> ara_server_;
};

TEST_F(RegistrationTest, SubscriberCredentialsSerializeRoundTrip) {
  const auto pairing = pairing::Pairing::test_pairing();
  const auto creds = system_->ara().register_subscriber("alice", {"m"}, rng_);
  const auto creds2 = SubscriberCredentials::deserialize(
      pairing, creds.serialize(pairing));
  EXPECT_EQ(creds2.schema, creds.schema);
  EXPECT_EQ(creds2.certificate.pseudonym, "alice");
  EXPECT_EQ(creds2.services.ds_name, creds.services.ds_name);
  EXPECT_EQ(creds2.services.rs_pk, creds.services.rs_pk);
  EXPECT_FALSE(creds2.epoch.has_value());
  EXPECT_FALSE(creds2.embedded_hve.has_value());
  // The deserialized key still verifies/decrypts: run a full flow with it.
  Subscriber sub(net_, "sub-x", creds2, rng_);
  sub.connect();
  net_.run_until_idle();
  EXPECT_TRUE(sub.connected());
}

TEST_F(RegistrationTest, PublisherCredentialsSerializeRoundTrip) {
  const auto pairing = pairing::Pairing::test_pairing();
  const auto creds = system_->ara().register_publisher("press", rng_);
  const auto creds2 =
      PublisherCredentials::deserialize(pairing, creds.serialize(pairing));
  EXPECT_EQ(creds2.schema, creds.schema);
  EXPECT_EQ(creds2.hve_pk.t, creds.hve_pk.t);
  EXPECT_EQ(creds2.certificate.pseudonym, "press");
}

TEST_F(RegistrationTest, CredentialsWithEpochAndEmbeddedHveRoundTrip) {
  const auto pairing = pairing::Pairing::test_pairing();
  TestRng rng(5);
  Ara ara(pairing, schema2(), rng, pbe::EpochPolicy(4, 60.0),
          /*embedded_token_server=*/true);
  const auto creds = ara.register_subscriber("bob", {"m"}, rng);
  const auto creds2 =
      SubscriberCredentials::deserialize(pairing, creds.serialize(pairing));
  ASSERT_TRUE(creds2.epoch.has_value());
  EXPECT_EQ(creds2.epoch->n_epochs(), 4u);
  ASSERT_TRUE(creds2.embedded_hve.has_value());
  EXPECT_EQ(creds2.embedded_hve->msk.y, creds.embedded_hve->msk.y);
  EXPECT_EQ(creds2.embedded_hve->pk.width(), creds.schema.width());
}

TEST_F(RegistrationTest, RemoteRegistrationEndToEnd) {
  ara_server_->enroll_subscriber("alice", {"analyst"});
  ara_server_->enroll_publisher("press");
  const auto pairing = pairing::Pairing::test_pairing();

  const SubscriberRegistration sub_reg(
      net_, "sub1", "ara", ara_server_->public_key(), pairing, "alice", rng_);
  const PublisherRegistration pub_reg(
      net_, "pub1", "ara", ara_server_->public_key(), pairing, "press", rng_);
  net_.run_until_idle();
  const auto& sub_creds = sub_reg.credentials();
  ASSERT_TRUE(sub_creds.has_value());
  const auto& pub_creds = pub_reg.credentials();
  ASSERT_TRUE(pub_creds.has_value());

  // Remotely-registered clients interoperate with the running system.
  Subscriber sub(net_, "sub1", *sub_creds, rng_);
  test::DeliveryLog got(sub);
  Publisher pub(net_, "pub1", *pub_creds, rng_);
  sub.connect();
  pub.connect();
  sub.subscribe({{"topic", "a"}});
  net_.run_until_idle();
  pub.publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("hello"),
              abe::parse_policy("analyst"));
  net_.run_until_idle();
  ASSERT_EQ(got.deliveries().size(), 1u);
  EXPECT_EQ(bytes_to_str(got.deliveries()[0].payload), "hello");
}

TEST_F(RegistrationTest, UnenrolledIdentityRejected) {
  const auto pairing = pairing::Pairing::test_pairing();
  const SubscriberRegistration reg(
      net_, "sub1", "ara", ara_server_->public_key(), pairing, "mallory", rng_);
  net_.run_until_idle();
  EXPECT_FALSE(reg.credentials().has_value());
  EXPECT_EQ(ara_server_->rejected_requests(), 1u);
}

TEST_F(RegistrationTest, PublisherIdentityCannotRegisterAsSubscriber) {
  ara_server_->enroll_publisher("press");
  const auto pairing = pairing::Pairing::test_pairing();
  const SubscriberRegistration reg(
      net_, "x", "ara", ara_server_->public_key(), pairing, "press", rng_);
  net_.run_until_idle();
  EXPECT_FALSE(reg.credentials().has_value());
}

TEST_F(RegistrationTest, WrongAraKeyFailsClosed) {
  ara_server_->enroll_subscriber("alice", {"m"});
  const auto pairing = pairing::Pairing::test_pairing();
  const auto wrong = pairing::ecies_keygen(*pairing, rng_);
  const SubscriberRegistration reg(net_, "x", "ara", wrong.public_key, pairing,
                                   "alice", rng_);
  net_.run_until_idle();
  EXPECT_FALSE(reg.credentials().has_value());
}

// An ARA that cannot open the request never answers. The exchange then
// leaves nothing behind once its handle is gone: no credentials, and no
// endpoint, so the same client endpoint can register again.
TEST_F(RegistrationTest, UnansweredRequestLeavesNothingBehind) {
  ara_server_->enroll_subscriber("alice", {"m"});
  const auto pairing = pairing::Pairing::test_pairing();
  const auto wrong = pairing::ecies_keygen(*pairing, rng_);
  {
    const SubscriberRegistration reg(net_, "x", "ara", wrong.public_key,
                                     pairing, "alice", rng_);
    net_.run_until_idle();
    EXPECT_EQ(ara_server_->rejected_requests(), 1u);
    EXPECT_TRUE(reg.pending());
    EXPECT_FALSE(reg.credentials().has_value());
  }
  const SubscriberRegistration again(
      net_, "x", "ara", ara_server_->public_key(), pairing, "alice", rng_);
  net_.run_until_idle();
  EXPECT_FALSE(again.pending());
  EXPECT_TRUE(again.credentials().has_value());
}

TEST_F(RegistrationTest, IdentityIsEncryptedOnTheWire) {
  ara_server_->enroll_subscriber("super-secret-identity", {"m"});
  const auto pairing = pairing::Pairing::test_pairing();
  test::WireLog wire(net_);
  const SubscriberRegistration reg(net_, "x", "ara", ara_server_->public_key(),
                                   pairing, "super-secret-identity", rng_);
  net_.run_until_idle();
  EXPECT_FALSE(wire.contains(str_to_bytes("super-secret-identity")));
}

}  // namespace
}  // namespace p3s::core
