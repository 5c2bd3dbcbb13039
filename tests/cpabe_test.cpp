#include <gtest/gtest.h>

#include <set>
#include <string>

#include "abe/cpabe.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace p3s::abe {
namespace {

class CpabeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new TestRng(0xabe);
    keys_ = new CpabeKeys(cpabe_setup(pairing::Pairing::test_pairing(), *rng_));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  static std::set<std::string> attrs(std::initializer_list<const char*> list) {
    std::set<std::string> out;
    for (const char* a : list) out.insert(a);
    return out;
  }

  static TestRng* rng_;
  static CpabeKeys* keys_;
};

TestRng* CpabeTest::rng_ = nullptr;
CpabeKeys* CpabeTest::keys_ = nullptr;

// Known answers in both shipped groups, at 2 and 10 policy leaves. The
// ciphertext embeds one hash_to_g1 per leaf, G1 multiplications of the
// generator, of h = g^β and of every hashed attribute, and a fixed-base GT
// power; its SHA-256 pins all of them. The 10-leaf key holds 4 of the first
// gate's 5 leaves and decryption takes the first three, so it interpolates
// at the non-contiguous indices 1, 2 and 4.
struct CpabeKat {
  const char* policy;
  const char* ct_sha256;  // SHA-256 of the serialized ciphertext
  const char* plain;      // serialize_gt(cpabe_decrypt(...))
};

void check_cpabe_kat(const pairing::PairingPtr& pp, const CpabeKat& kat,
                     const std::set<std::string>& attributes) {
  const PolicyNode policy = parse_policy(kat.policy);
  TestRng rng(0x61626b00 + policy.leaf_count());
  const CpabeKeys keys = cpabe_setup(pp, rng);
  const CpabeSecretKey sk = cpabe_keygen(keys, attributes, rng);
  const Fq2 msg = pp->random_gt(rng);
  const CpabeCiphertext ct = cpabe_encrypt(keys.pk, msg, policy, rng);
  EXPECT_EQ(to_hex(crypto::Sha256::digest(ct.serialize(*pp))), kat.ct_sha256)
      << kat.policy;
  const auto out = cpabe_decrypt(keys.pk, sk, ct);
  ASSERT_TRUE(out.has_value()) << kat.policy;
  EXPECT_EQ(*out, msg) << kat.policy;
  EXPECT_EQ(to_hex(pp->serialize_gt(*out)), kat.plain) << kat.policy;
}

const char* const kTwoLeaves = "a0 and a1";
const char* const kTenLeaves =
    "2 of (3 of (a0, a1, a2, a3, a4), (a5 or a6 or a7), (a8 and a9))";
const std::set<std::string> kTwoLeafKey{"a0", "a1"};
const std::set<std::string> kTenLeafKey{"a0", "a1", "a3", "a4",
                                        "a6", "a8", "a9"};

TEST(CpabeKnownAnswer, TestGroup) {
  const pairing::PairingPtr pp = pairing::Pairing::test_pairing();
  check_cpabe_kat(pp,
                  {kTwoLeaves,
                   // ct_sha256
                   "6ef469c4aed5478fa44d63d0ce231d35"
                   "f4da84c101262cf6e24ca21e6b0b524a",
                   // plain
                   "5de0b123e9689e6ac212070d6fdff3e1babea2ae1554bf6b36f738a1"
                   "8447beaa010a96a325232714"},
                  kTwoLeafKey);
  check_cpabe_kat(pp,
                  {kTenLeaves,
                   // ct_sha256
                   "1db2a015d05cec6a7f8cadeb243d66ee"
                   "90d56b3a71f09abb464b18b4c91a195d",
                   // plain
                   "2a3f9cb33f84903dd7608b1480ed78a683bc68260cdcf013b23decf6"
                   "5d404c2f7bf2988b60fe1c1d"},
                  kTenLeafKey);
}

TEST(CpabeKnownAnswer, PaperGroup) {
  const pairing::PairingPtr pp = pairing::Pairing::paper_pairing();
  check_cpabe_kat(pp,
                  {kTwoLeaves,
                   // ct_sha256
                   "aafdd0a1bc0d46e946752f169ff03a80"
                   "5905e053ea4f93759cf29900d8215042",
                   // plain
                   "0a249f0549e244f4fba08988873d41123b69f1c5c5d5ae56d6635484"
                   "a96cdfa1bd5f631ce618e279fb405a62eb5d3f06150075404205441f"
                   "5cab145f6a0501002ba2aae47967f9ff53f024d0c5a854e03e7561ae"
                   "b40613867fa86baec39af8f70c29454596fc3ab8325ef0420e1b693d"
                   "de4aef793b3759169244536ef8fd2b0b"},
                  kTwoLeafKey);
  check_cpabe_kat(pp,
                  {kTenLeaves,
                   // ct_sha256
                   "69846e4e4906c981724674553caba7f3"
                   "c21c6da03746ae253fda32c75eb934dc",
                   // plain
                   "1704fe27f382d7de76e9cb35ffb89c5fc1436e5d79ada4e22bbefc7c"
                   "471a2143fb315d354219c5694247c498316917a2f531791226772113"
                   "6cf22b4f20bfdf7c59dd1e9b55ff1b006c9c8243095a3b2fe3a7fe3b"
                   "e3590d682474b58646546240f70a6a3ac19e1ce77917ddf76d3d092c"
                   "a86db3b9ede099728c1d78e5e729f511"},
                  kTenLeafKey);
}

TEST_F(CpabeTest, DecryptsWhenPolicySatisfied) {
  const auto sk = cpabe_keygen(*keys_, attrs({"analyst", "org:us"}), *rng_);
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("analyst and org:us"), *rng_);
  const auto out = cpabe_decrypt(keys_->pk, sk, ct);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST_F(CpabeTest, FailsWhenPolicyUnsatisfied) {
  const auto sk = cpabe_keygen(*keys_, attrs({"analyst"}), *rng_);
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("analyst and org:us"), *rng_);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk, sk, ct).has_value());
}

TEST_F(CpabeTest, OrPolicyEitherBranch) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("org:us or org:uk"), *rng_);
  for (const char* a : {"org:us", "org:uk"}) {
    const auto sk = cpabe_keygen(*keys_, attrs({a}), *rng_);
    const auto out = cpabe_decrypt(keys_->pk, sk, ct);
    ASSERT_TRUE(out.has_value()) << a;
    EXPECT_EQ(*out, m) << a;
  }
  const auto sk_fr = cpabe_keygen(*keys_, attrs({"org:fr"}), *rng_);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk, sk_fr, ct).has_value());
}

TEST_F(CpabeTest, ThresholdPolicy) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("2 of (a, b, c)"), *rng_);
  const auto sk_ab = cpabe_keygen(*keys_, attrs({"a", "b"}), *rng_);
  const auto sk_bc = cpabe_keygen(*keys_, attrs({"b", "c"}), *rng_);
  const auto sk_abc = cpabe_keygen(*keys_, attrs({"a", "b", "c"}), *rng_);
  const auto sk_a = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk_ab, ct), m);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk_bc, ct), m);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk_abc, ct), m);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk, sk_a, ct).has_value());
}

TEST_F(CpabeTest, DeepNestedPolicy) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto policy =
      parse_policy("(lead or 2 of (senior, cleared, local)) and org:us");
  const auto ct = cpabe_encrypt(keys_->pk, m, policy, *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk,
                          cpabe_keygen(*keys_, attrs({"lead", "org:us"}), *rng_),
                          ct),
            m);
  EXPECT_EQ(cpabe_decrypt(
                keys_->pk,
                cpabe_keygen(*keys_, attrs({"senior", "local", "org:us"}), *rng_),
                ct),
            m);
  EXPECT_FALSE(cpabe_decrypt(keys_->pk,
                             cpabe_keygen(*keys_, attrs({"lead"}), *rng_), ct)
                   .has_value());
  EXPECT_FALSE(
      cpabe_decrypt(keys_->pk,
                    cpabe_keygen(*keys_, attrs({"senior", "org:us"}), *rng_), ct)
          .has_value());
}

TEST_F(CpabeTest, DecryptMatchesReferenceAcrossPolicyShapes) {
  // The flattened single-multi-pairing decrypt must agree with the original
  // recursive evaluation — including which leaves get selected when a
  // policy is only partially satisfied (first k satisfied children win).
  const char* policies[] = {
      "analyst",
      "analyst and org:us",
      "analyst or clearance:ts",
      "2 of (analyst, org:us, clearance:ts)",
      "(analyst and org:us) or (auditor and clearance:ts)",
      "2 of (analyst, auditor, (org:us or org:eu))",
  };
  const auto key_sets = {attrs({"analyst", "org:us"}),
                         attrs({"auditor", "clearance:ts"}),
                         attrs({"analyst", "org:eu", "auditor"}),
                         attrs({"org:us"})};
  for (const char* policy : policies) {
    const auto m = keys_->pk.pairing->random_gt(*rng_);
    const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy(policy), *rng_);
    for (const auto& attr_set : key_sets) {
      const auto sk = cpabe_keygen(*keys_, attr_set, *rng_);
      const auto fast = cpabe_decrypt(keys_->pk, sk, ct);
      const auto ref = cpabe_decrypt_reference(keys_->pk, sk, ct);
      ASSERT_EQ(fast.has_value(), ref.has_value()) << policy;
      if (fast.has_value()) {
        EXPECT_EQ(*fast, *ref) << policy;
        EXPECT_EQ(*fast, m) << policy;
      }
    }
  }
}

TEST_F(CpabeTest, RepeatedAttributeInPolicy) {
  // The same attribute may appear under several leaves.
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct =
      cpabe_encrypt(keys_->pk, m, parse_policy("(a and b) or (a and c)"), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, cpabe_keygen(*keys_, attrs({"a", "c"}), *rng_), ct),
            m);
}

TEST_F(CpabeTest, CollusionResistance) {
  // Alice has "a", Bob has "b"; policy needs both. Merging their key
  // components must NOT decrypt (keys are blinded with distinct r).
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("a and b"), *rng_);
  const auto alice = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  const auto bob = cpabe_keygen(*keys_, attrs({"b"}), *rng_);

  CpabeSecretKey frankenstein = alice;  // Alice's D (blinded with r_alice)
  frankenstein.components.insert(bob.components.begin(), bob.components.end());
  const auto out = cpabe_decrypt(keys_->pk, frankenstein, ct);
  // Either decryption aborts or yields a wrong value — never the message.
  if (out.has_value()) {
    EXPECT_NE(*out, m);
  }
}

TEST_F(CpabeTest, KeygenRejectsEmptyAttributeSet) {
  EXPECT_THROW(cpabe_keygen(*keys_, {}, *rng_), std::invalid_argument);
}

TEST_F(CpabeTest, CiphertextSerializationRoundTrip) {
  const auto& p = *keys_->pk.pairing;
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("a and (b or c)"), *rng_);
  const auto ct2 = CpabeCiphertext::deserialize(p, ct.serialize(p));
  const auto sk = cpabe_keygen(*keys_, attrs({"a", "c"}), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk, ct2), m);
}

TEST_F(CpabeTest, KeySerializationRoundTrip) {
  const auto& p = *keys_->pk.pairing;
  const auto sk = cpabe_keygen(*keys_, attrs({"a", "b"}), *rng_);
  const auto sk2 = CpabeSecretKey::deserialize(p, sk.serialize(p));
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = cpabe_encrypt(keys_->pk, m, parse_policy("a and b"), *rng_);
  EXPECT_EQ(cpabe_decrypt(keys_->pk, sk2, ct), m);

  const auto pk2 = CpabePublicKey::deserialize(keys_->pk.pairing,
                                               keys_->pk.serialize());
  EXPECT_EQ(pk2.g, keys_->pk.g);
  EXPECT_EQ(pk2.e_gg_alpha, keys_->pk.e_gg_alpha);
}

TEST_F(CpabeTest, HybridBytesRoundTrip) {
  const Bytes payload = str_to_bytes("quarterly M&A brief: Lehman Brothers");
  const auto ct = cpabe_encrypt_bytes(keys_->pk, payload,
                                      parse_policy("analyst and org:us"), *rng_);
  const auto sk = cpabe_keygen(*keys_, attrs({"analyst", "org:us"}), *rng_);
  const auto out = cpabe_decrypt_bytes(keys_->pk, sk, ct);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST_F(CpabeTest, HybridFailsClosedOnWrongAttributes) {
  const auto ct = cpabe_encrypt_bytes(keys_->pk, str_to_bytes("secret"),
                                      parse_policy("a and b"), *rng_);
  const auto sk = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  EXPECT_FALSE(cpabe_decrypt_bytes(keys_->pk, sk, ct).has_value());
}

TEST_F(CpabeTest, HybridRejectsTamperedCiphertext) {
  const auto ct = cpabe_encrypt_bytes(keys_->pk, str_to_bytes("secret"),
                                      parse_policy("a"), *rng_);
  const auto sk = cpabe_keygen(*keys_, attrs({"a"}), *rng_);
  Bytes bad = ct;
  bad[bad.size() - 3] ^= 1;  // flip a DEM bit
  EXPECT_FALSE(cpabe_decrypt_bytes(keys_->pk, sk, bad).has_value());
  EXPECT_FALSE(cpabe_decrypt_bytes(keys_->pk, sk, Bytes{9, 9}).has_value());
}

TEST_F(CpabeTest, PolicyIsVisibleInTheClear) {
  // Paper §3.2: CP-ABE transmits the policy with the ciphertext; anyone
  // (e.g. the RS) can read it without keys.
  const auto policy = parse_policy("analyst and (org:us or org:uk)");
  const auto ct =
      cpabe_encrypt_bytes(keys_->pk, str_to_bytes("x"), policy, *rng_);
  EXPECT_EQ(cpabe_peek_policy(*keys_->pk.pairing, ct), policy);
}

TEST_F(CpabeTest, CiphertextsAreRandomized) {
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto policy = parse_policy("a");
  const auto ct1 = cpabe_encrypt(keys_->pk, m, policy, *rng_);
  const auto ct2 = cpabe_encrypt(keys_->pk, m, policy, *rng_);
  EXPECT_NE(ct1.c_tilde, ct2.c_tilde);
}

TEST_F(CpabeTest, SizeGrowsLinearlyInPolicyLeaves) {
  // The paper models |CT_A| = 2vk + |payload|: two group elements per leaf.
  const auto& p = *keys_->pk.pairing;
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct2 = cpabe_encrypt(keys_->pk, m, parse_policy("a and b"), *rng_);
  const auto ct3 =
      cpabe_encrypt(keys_->pk, m, parse_policy("a and b and c"), *rng_);
  const auto ct5 = cpabe_encrypt(
      keys_->pk, m, parse_policy("a and b and c and d and e"), *rng_);
  const std::size_t s2 = ct2.serialize(p).size();
  const std::size_t s3 = ct3.serialize(p).size();
  const std::size_t s5 = ct5.serialize(p).size();
  // Each extra leaf costs a fixed amount (two G1 points + framing).
  EXPECT_GE(s3 - s2, 2 * p.g1_bytes());
  EXPECT_EQ(s5 - s3, 2 * (s3 - s2));
}

}  // namespace
}  // namespace p3s::abe
