// Cross-module property sweeps: randomized agreement between the crypto
// implementations and their plaintext reference semantics, robustness of
// every deserializer against corrupted input, and an end-to-end scale test
// checked against a plaintext oracle.
#include <gtest/gtest.h>

#include "abe/cpabe.hpp"
#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "p3s/system.hpp"
#include "pbe/hve.hpp"
#include "pbe/schema.hpp"

namespace p3s {
namespace {

using pairing::Pairing;

// --- HVE vs plaintext predicate across widths ---------------------------------------

class HveWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HveWidthSweep, AgreesWithPlaintextPredicate) {
  const std::size_t width = GetParam();
  TestRng rng(0x5eed ^ width);
  const auto keys = pbe::hve_setup(Pairing::test_pairing(), width, rng);
  for (int trial = 0; trial < 6; ++trial) {
    pbe::BitVector x(width);
    pbe::Pattern w(width);
    bool concrete = false;
    for (std::size_t i = 0; i < width; ++i) {
      x[i] = static_cast<std::uint8_t>(rng.uniform(2));
      const auto c = rng.uniform(3);
      w[i] = c == 2 ? pbe::kWildcard : static_cast<std::int8_t>(c);
      concrete |= (w[i] != pbe::kWildcard);
    }
    if (!concrete) w[0] = static_cast<std::int8_t>(x[0]);
    const Bytes payload = rng.bytes(8);
    const Bytes ct = pbe::hve_encrypt_bytes(keys.pk, x, payload, rng);
    const auto tok = pbe::hve_gen_token(keys, w, rng);
    const auto out = pbe::hve_query_bytes(*keys.pk.pairing, tok, ct);
    EXPECT_EQ(out.has_value(), pbe::hve_match_plain(x, w)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HveWidthSweep,
                         ::testing::Values(2, 4, 6, 12, 16));

// --- CP-ABE vs plaintext policy evaluation ------------------------------------------

abe::PolicyNode random_policy(TestRng& rng, int depth,
                              const std::vector<std::string>& universe) {
  if (depth == 0 || rng.uniform(3) == 0) {
    return abe::PolicyNode::leaf(universe[rng.uniform(universe.size())]);
  }
  const std::size_t n = 2 + rng.uniform(3);  // 2..4 children
  std::vector<abe::PolicyNode> children;
  for (std::size_t i = 0; i < n; ++i) {
    children.push_back(random_policy(rng, depth - 1, universe));
  }
  const unsigned k = 1 + static_cast<unsigned>(rng.uniform(n));
  return abe::PolicyNode::threshold(k, std::move(children));
}

class CpabePolicySweep : public ::testing::TestWithParam<int> {};

TEST_P(CpabePolicySweep, DecryptSucceedsIffPolicySatisfied) {
  TestRng rng(0xcafe + static_cast<std::uint64_t>(GetParam()) * 271);
  static const abe::CpabeKeys keys =
      abe::cpabe_setup(Pairing::test_pairing(), rng);
  const std::vector<std::string> universe = {"a", "b", "c", "d", "e"};

  const auto policy = random_policy(rng, 2, universe);
  std::set<std::string> attrs;
  for (const auto& a : universe) {
    if (rng.uniform(2) == 0) attrs.insert(a);
  }
  if (attrs.empty()) attrs.insert(universe[0]);

  const auto m = keys.pk.pairing->random_gt(rng);
  const auto ct = cpabe_encrypt(keys.pk, m, policy, rng);
  const auto sk = cpabe_keygen(keys, attrs, rng);
  const auto out = cpabe_decrypt(keys.pk, sk, ct);

  if (policy.satisfied_by(attrs)) {
    ASSERT_TRUE(out.has_value()) << policy.to_string();
    EXPECT_EQ(*out, m) << policy.to_string();
  } else {
    EXPECT_FALSE(out.has_value()) << policy.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPolicies, CpabePolicySweep,
                         ::testing::Range(0, 20));

// --- Deserializer robustness ----------------------------------------------------------
// Every deserializer must reject corrupted/truncated input by throwing (or
// returning nullopt at the API layer) — never crash or accept silently.

class Corruption : public ::testing::Test {
 protected:
  TestRng rng_{0xbad};
  pairing::PairingPtr pp_ = Pairing::test_pairing();
};

template <typename Fn>
void expect_rejects_corruption(const Bytes& valid, Fn&& parse) {
  // Truncations at a spread of prefix lengths.
  for (std::size_t len : {std::size_t{0}, valid.size() / 4, valid.size() / 2,
                          valid.size() - 1}) {
    Bytes cut(valid.begin(), valid.begin() + len);
    EXPECT_THROW(parse(cut), std::exception) << "truncate to " << len;
  }
  // Trailing garbage.
  Bytes extended = valid;
  extended.push_back(0x42);
  EXPECT_THROW(parse(extended), std::exception) << "trailing byte";
}

TEST_F(Corruption, HveCiphertextDeserializer) {
  const auto keys = pbe::hve_setup(pp_, 4, rng_);
  const auto ct = pbe::hve_encrypt(keys.pk, {1, 0, 1, 0},
                                   pp_->random_gt(rng_), rng_);
  expect_rejects_corruption(ct.serialize(*pp_), [&](const Bytes& b) {
    return pbe::HveCiphertext::deserialize(*pp_, b);
  });
}

TEST_F(Corruption, HveTokenDeserializer) {
  const auto keys = pbe::hve_setup(pp_, 4, rng_);
  const auto tok = pbe::hve_gen_token(keys, {1, pbe::kWildcard, 0, pbe::kWildcard},
                                      rng_);
  expect_rejects_corruption(tok.serialize(*pp_), [&](const Bytes& b) {
    return pbe::HveToken::deserialize(*pp_, b);
  });
}

TEST_F(Corruption, CpabeCiphertextDeserializer) {
  const auto keys = abe::cpabe_setup(pp_, rng_);
  const auto ct = abe::cpabe_encrypt(keys.pk, pp_->random_gt(rng_),
                                     abe::parse_policy("a and b"), rng_);
  expect_rejects_corruption(ct.serialize(*pp_), [&](const Bytes& b) {
    return abe::CpabeCiphertext::deserialize(*pp_, b);
  });
}

TEST_F(Corruption, CpabeSecretKeyDeserializer) {
  const auto keys = abe::cpabe_setup(pp_, rng_);
  const auto sk = abe::cpabe_keygen(keys, {"a", "b"}, rng_);
  expect_rejects_corruption(sk.serialize(*pp_), [&](const Bytes& b) {
    return abe::CpabeSecretKey::deserialize(*pp_, b);
  });
}

TEST_F(Corruption, PolicyDeserializer) {
  const auto policy = abe::parse_policy("2 of (a, b and c, d)");
  expect_rejects_corruption(policy.serialize(), [](const Bytes& b) {
    return abe::PolicyNode::deserialize(b);
  });
}

TEST_F(Corruption, SchemaDeserializer) {
  const auto schema = pbe::MetadataSchema::uniform(3, 4);
  expect_rejects_corruption(schema.serialize(), [](const Bytes& b) {
    return pbe::MetadataSchema::deserialize(b);
  });
}

TEST_F(Corruption, ParamsDeserializer) {
  expect_rejects_corruption(pp_->params().serialize(), [](const Bytes& b) {
    return pairing::Params::deserialize(b);
  });
}

TEST_F(Corruption, PointBitFlipsRejectedOrHarmless) {
  // Flipping coordinate bits must yield either a clean rejection (point not
  // on curve) — never a crash.
  const auto pt = pp_->random_g1(rng_);
  const Bytes valid = pp_->serialize_g1(pt);
  int rejected = 0;
  for (std::size_t i = 1; i < valid.size(); i += 3) {
    Bytes bad = valid;
    bad[i] ^= 0x01;
    try {
      (void)pp_->deserialize_g1(bad);
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);  // the curve check fires for nearly all flips
}

// --- End-to-end scale sweep against a plaintext oracle --------------------------------

TEST(ScaleSweep, TwentySubscribersMatchOracle) {
  TestRng rng(0x5ca1e);
  net::DirectNetwork net;
  core::P3sConfig config;
  config.pairing = Pairing::test_pairing();
  config.schema = pbe::MetadataSchema({
      {"topic", {"t0", "t1", "t2", "t3"}},
      {"tier", {"gold", "silver"}},
  });
  core::P3sSystem system(net, config, rng);

  const std::size_t n_subs = 20;
  std::vector<std::unique_ptr<core::Subscriber>> subs;
  std::vector<pbe::Interest> interests;
  for (std::size_t i = 0; i < n_subs; ++i) {
    subs.push_back(system.make_subscriber("sub" + std::to_string(i),
                                          "u" + std::to_string(i),
                                          {"member"}, rng));
    pbe::Interest interest;
    interest["topic"] = "t" + std::to_string(rng.uniform(4));
    if (rng.uniform(2) == 0) {
      interest["tier"] = rng.uniform(2) == 0 ? "gold" : "silver";
    }
    interests.push_back(interest);
    subs[i]->subscribe(interest);
  }
  auto pub = system.make_publisher("pub", "press", rng);

  std::vector<std::size_t> expected(n_subs, 0);
  for (int k = 0; k < 6; ++k) {
    pbe::Metadata md;
    md["topic"] = "t" + std::to_string(rng.uniform(4));
    md["tier"] = rng.uniform(2) == 0 ? "gold" : "silver";
    pub->publish(md, str_to_bytes("msg" + std::to_string(k)),
                 abe::parse_policy("member"));
    for (std::size_t i = 0; i < n_subs; ++i) {
      if (pbe::interest_matches(interests[i], md)) ++expected[i];
    }
  }
  for (std::size_t i = 0; i < n_subs; ++i) {
    EXPECT_EQ(subs[i]->delivery_count(), expected[i]) << "subscriber " << i;
    EXPECT_EQ(subs[i]->metadata_received(), 6u) << "subscriber " << i;
  }
}

}  // namespace
}  // namespace p3s
