#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "exec/pool.hpp"
#include "pbe/hve.hpp"

namespace p3s::pbe {
namespace {

class HveTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWidth = 8;

  static void SetUpTestSuite() {
    rng_ = new TestRng(0x487e);
    keys_ = new HveKeys(hve_setup(pairing::Pairing::test_pairing(), kWidth, *rng_));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  static TestRng* rng_;
  static HveKeys* keys_;
};

TestRng* HveTest::rng_ = nullptr;
HveKeys* HveTest::keys_ = nullptr;

// Known answers for one hve_query hit and one miss under a fixed seed, in
// both shipped groups, captured before the field kernels were templated on
// the limb count. The miss value is C0 times a 6-term pairing product that
// does not cancel, so every bit of it depends on the field arithmetic.
void check_query_kat(const pairing::PairingPtr& pp, const char* hit,
                     const char* miss) {
  TestRng rng(0x68766b);
  const HveKeys keys = hve_setup(pp, 4, rng);
  const Fq2 msg = pp->random_gt(rng);
  const HveCiphertext ct = hve_encrypt(keys.pk, {1, 0, 1, 1}, msg, rng);
  const HveToken tok_hit = hve_gen_token(keys, {1, kWildcard, 1, 1}, rng);
  const HveToken tok_miss = hve_gen_token(keys, {1, 1, kWildcard, 0}, rng);
  const Fq2 got_hit = hve_query(*pp, tok_hit, ct);
  EXPECT_EQ(got_hit, msg);
  EXPECT_EQ(to_hex(pp->serialize_gt(got_hit)), hit);
  EXPECT_EQ(to_hex(pp->serialize_gt(hve_query(*pp, tok_miss, ct))), miss);
}

TEST(HveKnownAnswer, TestGroup) {
  check_query_kat(pairing::Pairing::test_pairing(),
                  // hit
                  "0d1f20e0d231239f8d6be2eb73b5a0a5459503373542a632ad018ee3"
                  "bcbe79daf97b375afae36bcf",
                  // miss
                  "452cb1691c8bf84be63750c9a5630c462028827183a5f123b710a47d"
                  "46307c65ad1437c583b7fa07");
}

TEST(HveKnownAnswer, PaperGroup) {
  check_query_kat(pairing::Pairing::paper_pairing(),
                  // hit
                  "98cad631aace04cb6c8bfaaa6d7e21ba9f4e49aea7582552e1305b07"
                  "ab7067676f503e33d7f95f3082654349a96715190c56373e792dd861"
                  "52cc5103927bcd621be436bf22a19179b8148ccedb144a32e09277ef"
                  "5cfdceed26fa34b19191c1cc4868586152ed06c953174a0cbc5c9fcc"
                  "4756ea02d555178582c2a9b0a5c5fa02",
                  // miss
                  "4b9db3613551b2b29dd21ddd5d97c394787453d40a5128567631b03e"
                  "6850ffbe9f422ddae52b2efa7179e9df229313dbf2adfb117fe750d6"
                  "c0075ce7e67cf3132a8f84965a4607108d9bc8378efed8bd668dbf6e"
                  "53c47578775d5a3db41fcc7d48be6515137f2ccc6d15a0ba77bfd100"
                  "8244bed4d54bce8922ba0dc5790332fb");
}

TEST_F(HveTest, ExactMatchDecrypts) {
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const Pattern w = {1, 0, 1, 1, 0, 0, 1, 0};
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  EXPECT_EQ(hve_query(*keys_->pk.pairing, tok, ct), m);
}

TEST_F(HveTest, WildcardMatchDecrypts) {
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const Pattern w = {1, kWildcard, kWildcard, 1, kWildcard, kWildcard, kWildcard,
                     kWildcard};
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  EXPECT_EQ(hve_query(*keys_->pk.pairing, tok, ct), m);
}

TEST_F(HveTest, MismatchYieldsGarbage) {
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  Pattern w(kWidth, kWildcard);
  w[0] = 0;  // contradicts x[0] == 1
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  EXPECT_NE(hve_query(*keys_->pk.pairing, tok, ct), m);
}

TEST_F(HveTest, QueryMatchesReferenceEvaluation) {
  // The multi-pairing fast path must agree with the original 2|S|
  // independent-pairings evaluation bit-for-bit — on matches AND on the
  // garbage GT element a mismatch produces.
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
  const Pattern matching = {1, kWildcard, 1, kWildcard, 0, kWildcard,
                            kWildcard, 0};
  Pattern mismatching = matching;
  mismatching[0] = 0;
  for (const Pattern& w : {matching, mismatching}) {
    const auto tok = hve_gen_token(*keys_, w, *rng_);
    EXPECT_EQ(hve_query(*keys_->pk.pairing, tok, ct),
              hve_query_reference(*keys_->pk.pairing, tok, ct));
  }
}

TEST_F(HveTest, SingleBitOffMismatches) {
  const BitVector x = {1, 1, 1, 1, 1, 1, 1, 1};
  for (std::size_t flip = 0; flip < kWidth; ++flip) {
    Pattern w(kWidth, 1);
    w[flip] = 0;
    const auto m = keys_->pk.pairing->random_gt(*rng_);
    const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
    const auto tok = hve_gen_token(*keys_, w, *rng_);
    EXPECT_NE(hve_query(*keys_->pk.pairing, tok, ct), m) << flip;
  }
}

// Property sweep: random vectors and patterns; HVE agrees with the plaintext
// predicate via the KEM wrapper (which detects mismatch explicitly).
class HvePropertyTest : public HveTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(HvePropertyTest, AgreesWithPlaintextPredicate) {
  TestRng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  BitVector x(kWidth);
  Pattern w(kWidth);
  bool any_concrete = false;
  for (std::size_t i = 0; i < kWidth; ++i) {
    x[i] = static_cast<std::uint8_t>(rng.uniform(2));
    const std::uint64_t c = rng.uniform(3);
    w[i] = (c == 2) ? kWildcard : static_cast<std::int8_t>(c);
    any_concrete |= (w[i] != kWildcard);
  }
  if (!any_concrete) w[0] = static_cast<std::int8_t>(x[0]);

  const Bytes payload = rng.bytes(16);
  const Bytes ct = hve_encrypt_bytes(keys_->pk, x, payload, rng);
  const auto tok = hve_gen_token(*keys_, w, rng);
  const auto out = hve_query_bytes(*keys_->pk.pairing, tok, ct);

  if (hve_match_plain(x, w)) {
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, payload);
  } else {
    EXPECT_FALSE(out.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, HvePropertyTest,
                         ::testing::Range(0, 25));

TEST_F(HveTest, AllWildcardTokenRejected) {
  const Pattern w(kWidth, kWildcard);
  EXPECT_THROW(hve_gen_token(*keys_, w, *rng_), std::invalid_argument);
}

TEST_F(HveTest, WidthMismatchRejected) {
  EXPECT_THROW(hve_encrypt(keys_->pk, BitVector(kWidth - 1, 0),
                           keys_->pk.pairing->gt_one(), *rng_),
               std::invalid_argument);
  EXPECT_THROW(hve_gen_token(*keys_, Pattern(kWidth + 1, 1), *rng_),
               std::invalid_argument);
}

TEST_F(HveTest, NonBinaryInputsRejected) {
  BitVector x(kWidth, 0);
  x[3] = 2;
  EXPECT_THROW(hve_encrypt(keys_->pk, x, keys_->pk.pairing->gt_one(), *rng_),
               std::invalid_argument);
  Pattern w(kWidth, 1);
  w[2] = 5;
  EXPECT_THROW(hve_gen_token(*keys_, w, *rng_), std::invalid_argument);
}

TEST_F(HveTest, TokenRevealsPositionsNotValues) {
  Pattern w1(kWidth, kWildcard), w2(kWidth, kWildcard);
  w1[2] = 1;
  w2[2] = 0;
  const auto t1 = hve_gen_token(*keys_, w1, *rng_);
  const auto t2 = hve_gen_token(*keys_, w2, *rng_);
  EXPECT_EQ(t1.positions, t2.positions);  // same shape...
  EXPECT_NE(t1.y, t2.y);                  // ...different key material
}

TEST_F(HveTest, CollusionTwoTokensDoNotCombine) {
  // Token A matches on bit0=1, token B on bit1=1. Ciphertext has bit0=1 but
  // bit1=0. Neither token alone matches-and-reveals more than its own
  // predicate; pairing components of A and B cannot be merged because the
  // y-shares are independent per token.
  const BitVector x = {1, 0, 0, 0, 0, 0, 0, 0};
  Pattern wa(kWidth, kWildcard), wb(kWidth, kWildcard);
  wa[0] = 1;
  wa[1] = 1;  // requires bit1 == 1 too -> mismatch
  wb[1] = 0;
  wb[2] = 1;  // requires bit2 == 1 -> mismatch
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
  const auto ta = hve_gen_token(*keys_, wa, *rng_);
  const auto tb = hve_gen_token(*keys_, wb, *rng_);
  EXPECT_NE(hve_query(*keys_->pk.pairing, ta, ct), m);
  EXPECT_NE(hve_query(*keys_->pk.pairing, tb, ct), m);
  // Frankenstein token: positions of A with B's components where they
  // overlap — shares no longer sum to y, so it cannot decrypt anything.
  HveToken franken = ta;
  franken.y[1] = tb.y[0];
  franken.l[1] = tb.l[0];
  const BitVector x2 = {1, 0, 1, 0, 0, 0, 0, 0};
  const auto m2 = keys_->pk.pairing->random_gt(*rng_);
  const auto ct2 = hve_encrypt(keys_->pk, x2, m2, *rng_);
  EXPECT_NE(hve_query(*keys_->pk.pairing, franken, ct2), m2);
}

TEST_F(HveTest, CiphertextSerializationRoundTrip) {
  const auto& p = *keys_->pk.pairing;
  const BitVector x = {0, 1, 0, 1, 0, 1, 0, 1};
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(keys_->pk, x, m, *rng_);
  const auto ct2 = HveCiphertext::deserialize(p, ct.serialize(p));
  Pattern w(kWidth, kWildcard);
  w[1] = 1;
  w[2] = 0;
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  EXPECT_EQ(hve_query(p, tok, ct2), m);
}

TEST_F(HveTest, TokenSerializationRoundTrip) {
  const auto& p = *keys_->pk.pairing;
  Pattern w(kWidth, kWildcard);
  w[0] = 1;
  w[5] = 0;
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  const auto tok2 = HveToken::deserialize(p, tok.serialize(p));
  EXPECT_EQ(tok2.positions, tok.positions);
  EXPECT_EQ(tok2.y, tok.y);
  EXPECT_EQ(tok2.l, tok.l);
}

// The master key's inverses are derived on load, not serialized: keys read
// back from their bytes give the same tokens under the same seed, and
// write the same bytes again.
TEST_F(HveTest, KeysSerializationRoundTripKeepsTokens) {
  const Bytes bytes = keys_->serialize();
  const HveKeys loaded = HveKeys::deserialize(keys_->pk.pairing, bytes);
  EXPECT_EQ(loaded.serialize(), bytes);
  const auto& p = *keys_->pk.pairing;
  const Pattern w = {1, kWildcard, 0, 1, kWildcard, kWildcard, 0, 1};
  TestRng a(0x1d7), b(0x1d7);
  EXPECT_EQ(hve_gen_token(loaded, w, a).serialize(p),
            hve_gen_token(*keys_, w, b).serialize(p));
}

TEST_F(HveTest, PublicKeySerializationRoundTrip) {
  const auto pk2 =
      HvePublicKey::deserialize(keys_->pk.pairing, keys_->pk.serialize());
  EXPECT_EQ(pk2.t, keys_->pk.t);
  EXPECT_EQ(pk2.omega, keys_->pk.omega);
  // And it still encrypts compatibly.
  const BitVector x = {1, 1, 0, 0, 1, 1, 0, 0};
  const auto m = keys_->pk.pairing->random_gt(*rng_);
  const auto ct = hve_encrypt(pk2, x, m, *rng_);
  Pattern w(kWidth, kWildcard);
  w[0] = 1;
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  EXPECT_EQ(hve_query(*keys_->pk.pairing, tok, ct), m);
}

TEST_F(HveTest, PreparedQueryBitIdenticalToPlainQuery) {
  // hve_match_prepare only parses, and one multi-output Miller loop over
  // the ciphertext points' chains gives every token its hve_query value bit
  // for bit — on matches AND on the garbage GT element a mismatch produces
  // — while the three tokens share positions 0 and 2.
  const auto& p = *keys_->pk.pairing;
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const Bytes blob = hve_encrypt_bytes(keys_->pk, x, str_to_bytes("g"), *rng_);
  const HveCiphertext kem =
      HveCiphertext::deserialize(p, Reader(blob).bytes());
  const HveMatchCt prepared = hve_match_prepare(p, blob);
  ASSERT_EQ(prepared.width(), kWidth);
  EXPECT_EQ(prepared.kem.c0, kem.c0);
  EXPECT_EQ(prepared.kem.x, kem.x);
  EXPECT_EQ(prepared.kem.w, kem.w);

  const Pattern matching = {1, kWildcard, 1, kWildcard, 0,
                            kWildcard, kWildcard, 0};
  Pattern mismatching = matching;
  mismatching[0] = 0;
  Pattern other(kWidth, kWildcard);
  other[2] = 1;
  other[5] = 1;
  std::vector<HveToken> toks;
  for (const Pattern& w : {matching, mismatching, other}) {
    toks.push_back(hve_gen_token(*keys_, w, *rng_));
  }
  std::vector<pairing::MillerChain> chains(2 * kWidth);
  for (std::size_t i = 0; i < kWidth; ++i) {
    chains[2 * i].p = kem.x[i];
    chains[2 * i + 1].p = kem.w[i];
  }
  for (std::size_t j = 0; j < toks.size(); ++j) {
    for (std::size_t k = 0; k < toks[j].positions.size(); ++k) {
      const std::size_t i = toks[j].positions[k];
      chains[2 * i].evals.push_back({toks[j].y[k], j});
      chains[2 * i + 1].evals.push_back({toks[j].l[k], j});
    }
  }
  const std::vector<Fq2> f = p.miller_multi(chains, toks.size());
  for (std::size_t j = 0; j < toks.size(); ++j) {
    EXPECT_EQ(p.gt_mul(kem.c0, p.final_exponentiation(f[j])),
              hve_query(p, toks[j], kem))
        << j;
  }
}

TEST_F(HveTest, MatchAnyReturnsLowestMatchAndPayload) {
  const auto& p = *keys_->pk.pairing;
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const Bytes payload = rng_->bytes(16);
  const Bytes blob = hve_encrypt_bytes(keys_->pk, x, payload, *rng_);
  const HveMatchCt prepared = hve_match_prepare(p, blob);

  Pattern miss(kWidth, kWildcard);
  miss[0] = 0;
  Pattern hit_a(kWidth, kWildcard);
  hit_a[0] = 1;
  hit_a[1] = 0;
  Pattern hit_b(kWidth, kWildcard);
  hit_b[3] = 1;
  const auto t_miss = hve_gen_token(*keys_, miss, *rng_);
  const auto t_a = hve_gen_token(*keys_, hit_a, *rng_);
  const auto t_b = hve_gen_token(*keys_, hit_b, *rng_);

  // Two matching tokens: the LOWEST span index wins, like the serial scan.
  const std::vector<const HveToken*> tokens = {&t_miss, &t_a, &t_b};
  const HveMatchResult res = hve_match_any(p, tokens, prepared);
  ASSERT_TRUE(res.matched());
  EXPECT_EQ(res.token_index, 1u);
  EXPECT_EQ(res.payload, payload);

  // No matching token at all.
  const std::vector<const HveToken*> misses = {&t_miss};
  EXPECT_FALSE(hve_match_any(p, misses, prepared).matched());
  // Empty batch.
  EXPECT_FALSE(
      hve_match_any(p, std::span<const HveToken* const>{}, prepared)
          .matched());
}

TEST_F(HveTest, MatchAnyParallelEqualsSequential) {
  // The batch evaluation must return the same index and payload whatever
  // the pool size — sequential reference vs a multi-worker pool.
  const auto& p = *keys_->pk.pairing;
  TestRng rng(0x6a21);
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const Bytes payload = rng.bytes(24);
  const Bytes blob = hve_encrypt_bytes(keys_->pk, x, payload, rng);
  const HveMatchCt prepared = hve_match_prepare(p, blob);

  std::vector<HveToken> toks;
  for (int i = 0; i < 9; ++i) {
    Pattern w(kWidth, kWildcard);
    w[static_cast<std::size_t>(i) % kWidth] =
        (i == 6) ? static_cast<std::int8_t>(x[6]) : // the only match
        static_cast<std::int8_t>(1 - x[static_cast<std::size_t>(i) % kWidth]);
    toks.push_back(hve_gen_token(*keys_, w, rng));
  }
  std::vector<const HveToken*> ptrs;
  for (const auto& t : toks) ptrs.push_back(&t);

  exec::Pool seq(1), par(4);
  const HveMatchResult a = hve_match_any(p, ptrs, prepared, &seq);
  const HveMatchResult b = hve_match_any(p, ptrs, prepared, &par);
  ASSERT_TRUE(a.matched());
  EXPECT_EQ(a.token_index, 6u);
  EXPECT_EQ(b.token_index, a.token_index);
  EXPECT_EQ(b.payload, a.payload);
}

// The lowest-index hit wins whether the tokens share positions or not, at
// any pool size. Each subset of the tokens is made to hit in turn, so every
// output of the shared loop is checked bit for bit: the DEM opens only
// under the exact KEM value.
TEST_F(HveTest, MatchAnyLowestHitAmongOverlappingAndDisjointTokens) {
  const auto& p = *keys_->pk.pairing;
  TestRng rng(0x10e57);
  const BitVector x = {1, 0, 1, 1, 0, 0, 1, 0};
  const Bytes payload = rng.bytes(16);
  const HveMatchCt ct =
      hve_match_prepare(p, hve_encrypt_bytes(keys_->pk, x, payload, rng));
  // The positions each of four tokens probes.
  const std::vector<std::vector<std::uint32_t>> overlapping = {
      {0, 1, 2}, {1, 2, 3}, {0, 2}, {2, 3, 4}};
  const std::vector<std::vector<std::uint32_t>> disjoint = {
      {0, 1}, {2, 3}, {4, 5}, {6, 7}};
  exec::Pool seq(1), par(4);
  for (const auto* probes : {&overlapping, &disjoint}) {
    for (unsigned hits = 0; hits < 16; ++hits) {
      std::vector<HveToken> toks;
      for (std::size_t t = 0; t < probes->size(); ++t) {
        const bool hit = ((hits >> t) & 1) != 0;
        Pattern w(kWidth, kWildcard);
        for (const std::uint32_t i : (*probes)[t]) {
          w[i] = static_cast<std::int8_t>(x[i]);
        }
        const std::uint32_t first = (*probes)[t][0];
        if (!hit) w[first] = static_cast<std::int8_t>(1 - x[first]);
        toks.push_back(hve_gen_token(*keys_, w, rng));
      }
      std::vector<const HveToken*> ptrs;
      for (const auto& t : toks) ptrs.push_back(&t);
      const std::size_t expect =
          hits == 0 ? HveMatchResult::kNoMatch
                    : static_cast<std::size_t>(std::countr_zero(hits));
      for (exec::Pool* pool : {&seq, &par}) {
        const HveMatchResult res = hve_match_any(p, ptrs, ct, pool);
        EXPECT_EQ(res.token_index, expect)
            << (probes == &overlapping ? "overlapping" : "disjoint")
            << " hits=" << hits << " pool=" << pool->thread_count();
        if (res.matched()) {
          EXPECT_EQ(res.payload, payload);
        }
      }
    }
  }
}

TEST_F(HveTest, MatchAnyTreatsTokenWiderThanBroadcastAsMiss) {
  // A token probing past the broadcast's width can never match: it is a
  // miss before any pairing work, not an error for the whole batch.
  const auto& p = *keys_->pk.pairing;
  TestRng rng(0x3d7e);
  const HveKeys narrow = hve_setup(keys_->pk.pairing, 4, rng);
  const Bytes payload = rng.bytes(16);
  const HveMatchCt prepared = hve_match_prepare(
      p, hve_encrypt_bytes(narrow.pk, {1, 0, 1, 1}, payload, rng));
  ASSERT_EQ(prepared.width(), 4u);

  Pattern wide(kWidth, kWildcard);
  wide[6] = 1;
  const auto t_wide = hve_gen_token(*keys_, wide, rng);
  const auto t_fits =
      hve_gen_token(narrow, {1, kWildcard, kWildcard, 1}, rng);

  HveMatchResult res;
  const std::vector<const HveToken*> alone = {&t_wide};
  ASSERT_NO_THROW(res = hve_match_any(p, alone, prepared));
  EXPECT_FALSE(res.matched());
  const std::vector<const HveToken*> batch = {&t_wide, &t_fits};
  ASSERT_NO_THROW(res = hve_match_any(p, batch, prepared));
  ASSERT_TRUE(res.matched());
  EXPECT_EQ(res.token_index, 1u);
  EXPECT_EQ(res.payload, payload);
}

// The blob's length depends only on the group, the width and the payload
// length, so the DS can size cover broadcasts before any publication.
TEST(HveBlobSize, MatchesRealBlobsInBothGroups) {
  TestRng rng(0x512e);
  for (const auto& pp : {pairing::Pairing::test_pairing(),
                         pairing::Pairing::paper_pairing()}) {
    for (const std::size_t width : {1u, 5u}) {
      const HveKeys keys = hve_setup(pp, width, rng);
      for (const std::size_t payload : {0u, 16u, 33u}) {
        const BitVector x(width, 1);
        EXPECT_EQ(hve_encrypt_bytes(keys.pk, x, rng.bytes(payload), rng).size(),
                  hve_encrypt_bytes_size(*pp, width, payload))
            << "width " << width << ", payload " << payload;
      }
    }
  }
}

TEST_F(HveTest, KemRejectsMalformedInput) {
  Pattern w(kWidth, kWildcard);
  w[0] = 1;
  const auto tok = hve_gen_token(*keys_, w, *rng_);
  EXPECT_FALSE(hve_query_bytes(*keys_->pk.pairing, tok, Bytes{1, 2}).has_value());
  EXPECT_FALSE(hve_query_bytes(*keys_->pk.pairing, tok, {}).has_value());
}

TEST_F(HveTest, TokenProbingAttackDemonstratesNoTokenPrivacy) {
  // Paper §6.1 (orange edges in the PBE gadget): a party holding a token and
  // the public key can learn the interest vector by probing encryptions of
  // all attribute vectors. We demonstrate on a 3-bit sub-pattern.
  TestRng rng(0xa77ac);
  const auto keys = hve_setup(pairing::Pairing::test_pairing(), 3, rng);
  const Pattern secret_interest = {1, kWildcard, 0};
  const auto tok = hve_gen_token(keys, secret_interest, rng);

  // The attacker cannot see wildcard positions from components alone but
  // CAN see them from `positions`; for the rest it probes.
  Pattern recovered(3, kWildcard);
  for (std::uint32_t pos : tok.positions) recovered[pos] = 0;  // placeholder
  for (int assignment = 0; assignment < 8; ++assignment) {
    BitVector x = {static_cast<std::uint8_t>(assignment & 1),
                   static_cast<std::uint8_t>((assignment >> 1) & 1),
                   static_cast<std::uint8_t>((assignment >> 2) & 1)};
    const Bytes probe = hve_encrypt_bytes(keys.pk, x, str_to_bytes("p"), rng);
    if (hve_query_bytes(*keys.pk.pairing, tok, probe).has_value()) {
      for (std::uint32_t pos : tok.positions) {
        recovered[pos] = static_cast<std::int8_t>(x[pos]);
      }
      break;
    }
  }
  EXPECT_EQ(recovered, secret_interest);
}

}  // namespace
}  // namespace p3s::pbe
