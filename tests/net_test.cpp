#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/secure.hpp"
#include "pairing/pairing.hpp"
#include "pairing/schnorr.hpp"
#include "wire_log.hpp"

namespace p3s::net {
namespace {

TEST(DirectNetwork, DeliversFrames) {
  DirectNetwork net;
  std::vector<std::pair<std::string, Bytes>> got;
  net.register_endpoint("b", [&](const std::string& from, BytesView frame) {
    got.emplace_back(from, Bytes(frame.begin(), frame.end()));
  });
  net.send("a", "b", str_to_bytes("hello"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, "a");
  EXPECT_EQ(bytes_to_str(got[0].second), "hello");
}

TEST(DirectNetwork, DropsFramesToUnknownEndpoints) {
  DirectNetwork net;
  test::WireLog wire(net);
  EXPECT_NO_THROW(net.send("a", "ghost", str_to_bytes("x")));
  // Still seen on the wire.
  EXPECT_EQ(wire.size(), 1u);
}

TEST(DirectNetwork, DuplicateEndpointRejected) {
  DirectNetwork net;
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  EXPECT_THROW(net.register_endpoint("a", [](const std::string&, BytesView) {}),
               std::invalid_argument);
}

TEST(DirectNetwork, UnregisterStopsDelivery) {
  DirectNetwork net;
  int count = 0;
  net.register_endpoint("a", [&](const std::string&, BytesView) { ++count; });
  net.send("x", "a", {});
  net.unregister_endpoint("a");
  net.send("x", "a", {});
  EXPECT_EQ(count, 1);
}

TEST(DirectNetwork, TrafficLogRecordsSizesAndEndpoints) {
  DirectNetwork net;
  std::map<std::string, std::size_t> egress;
  std::size_t frames = 0;
  std::size_t first_size = 0;
  net.set_tap([&](const TrafficRecord& rec) {
    if (frames++ == 0) first_size = rec.size;
    egress[std::string(rec.from)] += rec.size;
  });
  net.register_endpoint("b", [](const std::string&, BytesView) {});
  net.send("a", "b", Bytes(100));
  net.send("a", "b", Bytes(50));
  net.send("b", "a", Bytes(7));
  EXPECT_EQ(egress["a"], 150u);
  EXPECT_EQ(egress["b"], 7u);
  EXPECT_EQ(frames, 3u);
  EXPECT_EQ(first_size, 100u);
}

TEST(DirectNetwork, ReentrantSendDuringDelivery) {
  DirectNetwork net;
  std::vector<std::string> order;
  net.register_endpoint("relay", [&](const std::string&, BytesView frame) {
    order.push_back("relay");
    net.send("relay", "sink", Bytes(frame.begin(), frame.end()));
  });
  net.register_endpoint("sink", [&](const std::string&, BytesView) {
    order.push_back("sink");
  });
  net.send("src", "relay", str_to_bytes("m"));
  EXPECT_EQ(order, (std::vector<std::string>{"relay", "sink"}));
}

class SecureSessionTest : public ::testing::Test {
 protected:
  pairing::PairingPtr pp_ = pairing::Pairing::test_pairing();
  TestRng rng_{0x7e57};
};

TEST_F(SecureSessionTest, RoundTrip) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  ASSERT_TRUE(server.has_value());

  const Bytes rec = client.seal(str_to_bytes("register"), rng_);
  const auto out = server->open(rec);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(bytes_to_str(*out), "register");

  // And the reverse direction.
  const Bytes resp = server->seal(str_to_bytes("ack"), rng_);
  const auto out2 = client.open(resp);
  ASSERT_TRUE(out2.has_value());
  EXPECT_EQ(bytes_to_str(*out2), "ack");
}

TEST_F(SecureSessionTest, WrongServerKeyRejectsHello) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  const auto other = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  (void)SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  EXPECT_FALSE(SecureSession::accept(*pp_, other.secret, hello).has_value());
}

TEST_F(SecureSessionTest, ReplayDetected) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  const Bytes rec = client.seal(str_to_bytes("once"), rng_);
  ASSERT_TRUE(server->open(rec).has_value());
  EXPECT_FALSE(server->open(rec).has_value());  // replay
}

TEST_F(SecureSessionTest, TamperDetected) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  Bytes rec = client.seal(str_to_bytes("payload"), rng_);
  rec[rec.size() / 2] ^= 1;
  EXPECT_FALSE(server->open(rec).has_value());
}

TEST_F(SecureSessionTest, CrossDirectionKeysDiffer) {
  // A record sealed by the client cannot be opened by the client's own
  // receive path (directional keys).
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  Bytes rec = client.seal(str_to_bytes("m"), rng_);
  EXPECT_FALSE(client.open(rec).has_value());
}

TEST_F(SecureSessionTest, SequencePreservedAcrossManyRecords) {
  const auto kp = pairing::ecies_keygen(*pp_, rng_);
  Bytes hello;
  SecureSession client = SecureSession::initiate(*pp_, kp.public_key, rng_, hello);
  auto server = SecureSession::accept(*pp_, kp.secret, hello);
  for (int i = 0; i < 50; ++i) {
    const Bytes rec = client.seal(str_to_bytes("m" + std::to_string(i)), rng_);
    const auto out = server->open(rec);
    ASSERT_TRUE(out.has_value()) << i;
    EXPECT_EQ(bytes_to_str(*out), "m" + std::to_string(i));
  }
}

// --- Schnorr certificates ------------------------------------------------------

TEST_F(SecureSessionTest, SchnorrSignVerify) {
  const auto kp = pairing::schnorr_keygen(*pp_, rng_);
  const Bytes msg = str_to_bytes("subscriber-cert:alice");
  const auto sig = pairing::schnorr_sign(*pp_, kp.secret, msg, rng_);
  EXPECT_TRUE(pairing::schnorr_verify(*pp_, kp.public_key, msg, sig));
  EXPECT_FALSE(pairing::schnorr_verify(*pp_, kp.public_key,
                                       str_to_bytes("subscriber-cert:mallory"),
                                       sig));
  const auto other = pairing::schnorr_keygen(*pp_, rng_);
  EXPECT_FALSE(pairing::schnorr_verify(*pp_, other.public_key, msg, sig));
}

TEST_F(SecureSessionTest, SchnorrSerializationRoundTrip) {
  const auto kp = pairing::schnorr_keygen(*pp_, rng_);
  const Bytes msg = str_to_bytes("m");
  const auto sig = pairing::schnorr_sign(*pp_, kp.secret, msg, rng_);
  const auto sig2 =
      pairing::SchnorrSignature::deserialize(*pp_, sig.serialize(*pp_));
  EXPECT_TRUE(pairing::schnorr_verify(*pp_, kp.public_key, msg, sig2));
}

}  // namespace
}  // namespace p3s::net
