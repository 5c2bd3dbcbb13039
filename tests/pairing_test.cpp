#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "math/modular.hpp"
#include "math/prime.hpp"
#include "pairing/curve.hpp"
#include "pairing/ecies.hpp"
#include "pairing/fq2.hpp"
#include "pairing/pairing.hpp"

namespace p3s::pairing {
namespace {

using math::BigInt;
using math::mod;

class PairingTest : public ::testing::Test {
 protected:
  // a + b·i with a, b uniform in [0, q).
  Fq2 random_fq2(Rng& rng) const {
    const BigInt a = BigInt::random_below(rng, pp_->q());
    return fq2_from(pp_->mont_q(), a, BigInt::random_below(rng, pp_->q()));
  }

  PairingPtr pp_ = Pairing::test_pairing();
  TestRng rng_{0xfeed};
};

// --- Fq2 ---------------------------------------------------------------------

TEST_F(PairingTest, Fq2FieldAxioms) {
  const math::Montgomery& mq = pp_->mont_q();
  const auto add = [&](const Fq2& x, const Fq2& y) {
    Fq2 out;
    fqm::fe_add(mq, x.a, y.a, out.a);
    fqm::fe_add(mq, x.b, y.b, out.b);
    return out;
  };
  const auto mul = [&](const Fq2& x, const Fq2& y) {
    Fq2 out;
    fqm::fe2_mul(mq, x, y, out);
    return out;
  };
  TestRng rng(1);
  for (int i = 0; i < 20; ++i) {
    const Fq2 a = random_fq2(rng);
    const Fq2 b = random_fq2(rng);
    const Fq2 c = random_fq2(rng);
    // Commutativity and associativity of multiplication.
    EXPECT_EQ(mul(a, b), mul(b, a));
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
    // Distributivity.
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    // Square matches mul.
    Fq2 sqr;
    fqm::fe2_sqr(mq, a, sqr);
    EXPECT_EQ(sqr, mul(a, a));
    // Additive inverse.
    EXPECT_EQ(add(a, {fqm::fe_neg(mq, a.a), fqm::fe_neg(mq, a.b)}), Fq2{});
    // Multiplicative inverse.
    if (a != Fq2{}) {
      EXPECT_EQ(mul(a, fqm::fe2_inv(mq, a)), fqm::fe2_one(mq));
    }
  }
  // Elements of GT have norm 1 and invert by conjugation.
  const Fq2 e = pp_->random_gt(rng);
  EXPECT_EQ(pp_->gt_inv(e), fqm::fe2_conj(mq, e));
  EXPECT_EQ(mul(e, pp_->gt_inv(e)), fqm::fe2_one(mq));
}

TEST_F(PairingTest, Fq2IsquaredIsMinusOne) {
  const math::Montgomery& mq = pp_->mont_q();
  const Fq2 i = fq2_from(mq, BigInt{}, BigInt{1});
  const Fq2 i2 = pp_->gt_mul(i, i);
  EXPECT_EQ(fqm::fe_to(mq, i2.a), pp_->q() - BigInt{1});
  EXPECT_TRUE(fqm::fe_is_zero(i2.b, mq.limb_count()));
}

// fq2_pow is the BigInt reference; gt_mul and fe2_pow run on the limbs.
TEST_F(PairingTest, Fq2PowMatchesRepeatedMul) {
  const math::Montgomery& mq = pp_->mont_q();
  const Fq2 x = fq2_from(mq, BigInt{3}, BigInt{5});
  Fq2 acc = pp_->gt_one();
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(fq2_pow(x, BigInt{e}, mq), acc) << e;
    EXPECT_EQ(fqm::fe2_pow(mq, x, BigInt{e}), acc) << e;
    acc = pp_->gt_mul(acc, x);
  }
}

TEST_F(PairingTest, Fq2ConjIsFrobenius) {
  // For q ≡ 3 mod 4, x^q == conj(x).
  const math::Montgomery& mq = pp_->mont_q();
  TestRng rng(2);
  const Fq2 x = random_fq2(rng);
  EXPECT_EQ(fq2_pow(x, pp_->q(), mq), fqm::fe2_conj(mq, x));
}

TEST_F(PairingTest, Fq2InvZeroThrows) {
  EXPECT_THROW(pp_->gt_inv(Fq2{}), std::domain_error);
}

// --- Curve -------------------------------------------------------------------

TEST_F(PairingTest, GeneratorOnCurveWithOrderR) {
  const auto& prm = pp_->params();
  const math::Montgomery& mq = pp_->mont_q();
  const Point& g = pp_->generator();
  EXPECT_EQ(g, point_from(mq, prm.gx, prm.gy));
  EXPECT_TRUE(on_curve(g, mq));
  EXPECT_FALSE(g.infinity);
  EXPECT_TRUE(point_mul(g, prm.r, mq).infinity);
  EXPECT_FALSE(point_mul(g, prm.r - BigInt{1}, mq).infinity);
}

// h = 2²·11·71·… in the test group, so for a curve point R, [h/11]R lies on
// the curve and has order 11·r whenever 11 divides R's order. The
// constructor must refuse it as a generator.
TEST_F(PairingTest, GeneratorOfWrongOrderIsRejected) {
  const Params& prm = pp_->params();
  const math::Montgomery& mq = pp_->mont_q();
  const BigInt ell{11};
  ASSERT_TRUE((prm.h % ell).is_zero());
  for (;;) {
    const BigInt x = BigInt::random_below(rng_, prm.q);
    const BigInt t = math::mod_add(
        math::mod_mul(math::mod_mul(x, x, prm.q), x, prm.q), x, prm.q);
    if (!math::is_quadratic_residue(t, prm.q)) continue;
    const Point r = point_from(mq, x, math::mod_sqrt_3mod4(t, prm.q));
    const Point g = point_mul(r, prm.h / ell, mq);
    if (point_mul(g, prm.r, mq).infinity) continue;  // order divides r
    ASSERT_TRUE(on_curve(g, mq));
    ASSERT_TRUE(point_mul(g, ell * prm.r, mq).infinity);
    Params bad = prm;
    bad.gx = fqm::fe_to(mq, g.x);
    bad.gy = fqm::fe_to(mq, g.y);
    EXPECT_THROW(Pairing{bad}, std::invalid_argument);
    break;
  }
}

TEST_F(PairingTest, GroupLaws) {
  const Point p = pp_->random_g1(rng_);
  const Point q2 = pp_->random_g1(rng_);
  const Point r2 = pp_->random_g1(rng_);
  // Commutativity / associativity.
  EXPECT_EQ(pp_->add(p, q2), pp_->add(q2, p));
  EXPECT_EQ(pp_->add(pp_->add(p, q2), r2), pp_->add(p, pp_->add(q2, r2)));
  // Identity and inverse.
  EXPECT_EQ(pp_->add(p, Point::at_infinity()), p);
  EXPECT_EQ(pp_->add(Point::at_infinity(), p), p);
  EXPECT_TRUE(pp_->add(p, pp_->neg(p)).infinity);
  EXPECT_EQ(pp_->neg(Point::at_infinity()), Point::at_infinity());
  // Double == add self, against the BigInt reference doubling.
  EXPECT_EQ(point_double(p, pp_->mont_q()), pp_->add(p, p));
}

TEST_F(PairingTest, ScalarMulMatchesRepeatedAdd) {
  const math::Montgomery& mq = pp_->mont_q();
  const Point p = pp_->random_g1(rng_);
  Point acc = Point::at_infinity();
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(point_mul(p, BigInt{k}, mq), acc) << k;
    EXPECT_EQ(pp_->mul(p, BigInt{k}), acc) << k;
    acc = pp_->add(acc, p);
  }
}

TEST_F(PairingTest, ScalarMulDistributes) {
  const auto& prm = pp_->params();
  const math::Montgomery& mq = pp_->mont_q();
  const Point p = pp_->random_g1(rng_);
  const BigInt a = pp_->random_scalar(rng_);
  const BigInt b = pp_->random_scalar(rng_);
  const Point lhs = point_mul(p, mod(a + b, prm.r), mq);
  const Point rhs = pp_->add(point_mul(p, a, mq), point_mul(p, b, mq));
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingTest, ResultsStayOnCurve) {
  const math::Montgomery& mq = pp_->mont_q();
  TestRng rng(4);
  for (int i = 0; i < 10; ++i) {
    const Point p = pp_->random_g1(rng);
    const Point s = point_mul(p, pp_->random_scalar(rng), mq);
    EXPECT_TRUE(on_curve(s, mq));
  }
}

// --- Pairing -----------------------------------------------------------------

TEST_F(PairingTest, NonDegenerate) {
  const Fq2 e = pp_->pair(pp_->generator(), pp_->generator());
  EXPECT_NE(e, pp_->gt_one());
  EXPECT_NE(e, Fq2{});
}

TEST_F(PairingTest, GtElementHasOrderR) {
  const Fq2 e = pp_->gt_generator();
  EXPECT_EQ(fq2_pow(e, pp_->r(), pp_->mont_q()), pp_->gt_one());
}

TEST_F(PairingTest, Bilinearity) {
  for (int trial = 0; trial < 3; ++trial) {
    const BigInt a = pp_->random_nonzero_scalar(rng_);
    const BigInt b = pp_->random_nonzero_scalar(rng_);
    const Point ga = pp_->mul(pp_->generator(), a);
    const Point gb = pp_->mul(pp_->generator(), b);
    const Fq2 lhs = pp_->pair(ga, gb);
    const Fq2 rhs = pp_->gt_pow(pp_->gt_generator(), mod(a * b, pp_->r()));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST_F(PairingTest, BilinearInEachArgument) {
  const Point p = pp_->random_g1(rng_);
  const Point q2 = pp_->random_g1(rng_);
  const BigInt k = pp_->random_nonzero_scalar(rng_);
  EXPECT_EQ(pp_->pair(pp_->mul(p, k), q2), pp_->pair(p, pp_->mul(q2, k)));
  EXPECT_EQ(pp_->pair(pp_->mul(p, k), q2), pp_->gt_pow(pp_->pair(p, q2), k));
}

TEST_F(PairingTest, PairingWithIdentityIsOne) {
  EXPECT_EQ(pp_->pair(Point::at_infinity(), pp_->generator()), pp_->gt_one());
  EXPECT_EQ(pp_->pair(pp_->generator(), Point::at_infinity()), pp_->gt_one());
}

TEST_F(PairingTest, PairingSymmetricUpToDistortion) {
  // For the Type-A distortion pairing, e(P,Q) == e(Q,P).
  const Point p = pp_->random_g1(rng_);
  const Point q2 = pp_->random_g1(rng_);
  EXPECT_EQ(pp_->pair(p, q2), pp_->pair(q2, p));
}

TEST_F(PairingTest, MultiplicativeHomomorphism) {
  const Point p = pp_->random_g1(rng_);
  const Point a = pp_->random_g1(rng_);
  const Point b = pp_->random_g1(rng_);
  EXPECT_EQ(pp_->pair(p, pp_->add(a, b)),
            pp_->gt_mul(pp_->pair(p, a), pp_->pair(p, b)));
}

// --- Hash to group / serialization --------------------------------------------

TEST_F(PairingTest, HashToG1Deterministic) {
  const Point a = pp_->hash_to_g1(str_to_bytes("attribute:finance"));
  const Point b = pp_->hash_to_g1(str_to_bytes("attribute:finance"));
  const Point c = pp_->hash_to_g1(str_to_bytes("attribute:legal"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(on_curve(a, pp_->mont_q()));
  // In the order-r subgroup:
  EXPECT_TRUE(pp_->mul(a, pp_->r()).infinity);
}

TEST_F(PairingTest, G1SerializationRoundTrip) {
  for (const PairingPtr& pp :
       {Pairing::test_pairing(), Pairing::paper_pairing()}) {
    const Point p = pp->random_g1(rng_);
    const Bytes ser = pp->serialize_g1(p);
    EXPECT_EQ(ser.size(), pp->g1_bytes());
    EXPECT_EQ(pp->deserialize_g1(ser), p);
    // Infinity round-trips too.
    EXPECT_TRUE(
        pp->deserialize_g1(pp->serialize_g1(Point::at_infinity())).infinity);
  }
}

TEST_F(PairingTest, G1DeserializationValidatesCurve) {
  for (const PairingPtr& pp :
       {Pairing::test_pairing(), Pairing::paper_pairing()}) {
    const std::size_t qb = (pp->q().bit_length() + 7) / 8;
    const Point& g = pp->generator();
    const BigInt& gx = pp->params().gx;
    const BigInt& gy = pp->params().gy;
    const auto encode = [&](std::uint8_t flag, const BigInt& x,
                            const BigInt& y) {
      Bytes out{flag};
      const Bytes xb = x.to_bytes(qb);
      const Bytes yb = y.to_bytes(qb);
      out.insert(out.end(), xb.begin(), xb.end());
      out.insert(out.end(), yb.begin(), yb.end());
      return out;
    };
    const auto rejects = [&](const Bytes& ser) {
      EXPECT_THROW(pp->deserialize_g1(ser), std::invalid_argument)
          << to_hex(ser);
    };
    Bytes ser = pp->serialize_g1(g);
    ser[5] ^= 1;  // corrupt x
    rejects(ser);
    // One encoding per point: only flags 0 and 1, and 0 only with zeros.
    rejects(encode(2, gx, gy));
    rejects(encode(0xff, gx, gy));
    Bytes inf = pp->serialize_g1(Point::at_infinity());
    inf[1 + qb + 3] = 1;
    rejects(inf);
    // Coordinates must be below q, even where x = q would reduce to a
    // curve point.
    rejects(encode(1, pp->q(), gy));
    rejects(encode(1, gx, pp->q()));
    // In range but off the curve.
    rejects(encode(1, gx, mod(gy + BigInt{1}, pp->q())));
    rejects(encode(1, BigInt{1}, BigInt{1}));
    // (0, 0) is the curve's 2-torsion point and stays accepted.
    const Point zero = pp->deserialize_g1(encode(1, BigInt{}, BigInt{}));
    EXPECT_FALSE(zero.infinity);
    EXPECT_TRUE(zero.x == fqm::Fe{} && zero.y == fqm::Fe{});
    EXPECT_EQ(pp->deserialize_g1(encode(1, gx, gy)), g);
    EXPECT_TRUE(pp->deserialize_g1(encode(0, BigInt{}, BigInt{})).infinity);
  }
}

TEST_F(PairingTest, GtSerializationRoundTrip) {
  for (const PairingPtr& pp :
       {Pairing::test_pairing(), Pairing::paper_pairing()}) {
    const Fq2 e = pp->random_gt(rng_);
    const Bytes ser = pp->serialize_gt(e);
    EXPECT_EQ(ser.size(), pp->gt_bytes());
    EXPECT_EQ(pp->deserialize_gt(ser), e);
  }
}

TEST_F(PairingTest, ParamsSerializationRoundTrip) {
  const Bytes ser = pp_->params().serialize();
  const Params p2 = Params::deserialize(ser);
  EXPECT_EQ(p2.q, pp_->params().q);
  EXPECT_EQ(p2.r, pp_->params().r);
  EXPECT_EQ(p2.h, pp_->params().h);
  EXPECT_EQ(p2.gx, pp_->params().gx);
  EXPECT_EQ(p2.gy, pp_->params().gy);
}

TEST_F(PairingTest, ParamsValidation) {
  Params bad = pp_->params();
  bad.gx += BigInt{1};
  EXPECT_THROW(Pairing{bad}, std::invalid_argument);
  Params bad2 = pp_->params();
  bad2.h += BigInt{4};
  EXPECT_THROW(Pairing{bad2}, std::invalid_argument);
  // Generator coordinates not below q, one of them wider than the fixed
  // limbs, are refused before they enter Montgomery form.
  Params wide = pp_->params();
  wide.gx = BigInt{1} << 520;
  EXPECT_THROW(Pairing{wide}, std::invalid_argument);
  Params unreduced = pp_->params();
  unreduced.gy += pp_->q();
  EXPECT_THROW(Pairing{unreduced}, std::invalid_argument);
}

TEST(PairingGen, FreshParamsSatisfyInvariants) {
  TestRng rng(99);
  const Params p = generate_params(rng, 40, 96);
  EXPECT_EQ(p.r.bit_length(), 40u);
  EXPECT_EQ(p.q.bit_length(), 96u);
  EXPECT_EQ(p.q % BigInt{4}, BigInt{3});
  EXPECT_EQ(p.q, p.h * p.r - BigInt{1});
  const Pairing pairing(p);
  // Bilinearity sanity on the fresh group.
  TestRng r2(100);
  const BigInt a = pairing.random_nonzero_scalar(r2);
  const Point& g = pairing.generator();
  EXPECT_EQ(pairing.pair(pairing.mul(g, a), g),
            pairing.gt_pow(pairing.gt_generator(), a));
}

// A q wider than 512 bits takes 9 limbs, more than an fqm::Fe holds:
// generate_params and the Pairing refuse the group, and the fixed-limb free
// functions and the references refuse the Montgomery context instead of
// reading or writing past an Fe.
TEST(PairingGen, WideModulusIsRejected) {
  TestRng rng(101);
  EXPECT_THROW(generate_params(rng, 40, 520), std::invalid_argument);
  // A 520-bit q = h·r − 1 built by hand, with the 2-torsion point (0, 0)
  // as its generator.
  Params p;
  p.r = Pairing::test_pairing()->r();
  p.h = BigInt{1} << 440;
  p.q = p.h * p.r - BigInt{1};
  EXPECT_THROW(Pairing{p}, std::invalid_argument);
  const math::Montgomery mq(p.q);
  ASSERT_EQ(mq.limb_count(), 9u);
  const Point g{fqm::Fe{}, fqm::Fe{}, false};
  EXPECT_THROW(point_mul_mont(g, BigInt{5}, mq), std::logic_error);
  EXPECT_THROW(FixedBaseTable(mq, g, p.r.bit_length()), std::logic_error);
  const Fq2 x{g.x, g.y};
  EXPECT_THROW(GtFixedBase(mq, x, p.r.bit_length()), std::logic_error);
  EXPECT_THROW(fqm::fe2_pow(mq, x, BigInt{5}), std::logic_error);
  EXPECT_THROW(fq2_pow(x, BigInt{5}, mq), std::logic_error);
}

// --- ECIES ---------------------------------------------------------------------

TEST_F(PairingTest, EciesRoundTrip) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  const Bytes msg = str_to_bytes("token request: predicate=(a=1 AND b=*)");
  const Bytes ct = ecies_encrypt(*pp_, kp.public_key, msg, rng_);
  const auto out = ecies_decrypt(*pp_, kp.secret, ct);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
}

TEST_F(PairingTest, EciesWrongKeyFails) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  const EciesKeyPair other = ecies_keygen(*pp_, rng_);
  const Bytes ct = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  EXPECT_FALSE(ecies_decrypt(*pp_, other.secret, ct).has_value());
}

TEST_F(PairingTest, EciesTamperDetected) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  Bytes ct = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  ct[ct.size() / 2] ^= 1;
  EXPECT_FALSE(ecies_decrypt(*pp_, kp.secret, ct).has_value());
}

TEST_F(PairingTest, EciesMalformedInputIsRejectedGracefully) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  EXPECT_FALSE(ecies_decrypt(*pp_, kp.secret, Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(ecies_decrypt(*pp_, kp.secret, {}).has_value());
}

TEST_F(PairingTest, EciesCiphertextsAreRandomized) {
  const EciesKeyPair kp = ecies_keygen(*pp_, rng_);
  const Bytes a = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  const Bytes b = ecies_encrypt(*pp_, kp.public_key, str_to_bytes("m"), rng_);
  EXPECT_NE(a, b);
}

// --- Fast path vs reference pins ---------------------------------------------

TEST_F(PairingTest, FastPairMatchesReference) {
  // The paper group runs the 8-limb kernels; its BigInt reference pairing
  // is slow, so it gets fewer inputs.
  for (const auto& [pp, n] : {std::pair{Pairing::test_pairing(), 6},
                              std::pair{Pairing::paper_pairing(), 2}}) {
    for (int i = 0; i < n; ++i) {
      const Point a = pp->mul(pp->generator(), pp->random_nonzero_scalar(rng_));
      const Point b = pp->mul(pp->generator(), pp->random_nonzero_scalar(rng_));
      EXPECT_EQ(pp->pair(a, b), pp->pair_reference(a, b));
    }
  }
}

TEST_F(PairingTest, PairProductMatchesProductOfPairs) {
  for (const std::size_t n : {1u, 2u, 3u, 7u}) {
    std::vector<PairTerm> terms;
    Fq2 expect = pp_->gt_one();
    for (std::size_t i = 0; i < n; ++i) {
      const Point a =
          pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
      const Point b =
          pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
      terms.push_back({a, b});
      expect = pp_->gt_mul(expect, pp_->pair_reference(a, b));
    }
    EXPECT_EQ(pp_->pair_product(terms), expect) << n;
  }
}

TEST_F(PairingTest, PairProductEmptyAndInfinityTerms) {
  EXPECT_EQ(pp_->pair_product({}), pp_->gt_one());
  const Point a = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const Point b = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  // Identity terms contribute 1 and must not disturb the shared accumulator.
  const std::vector<PairTerm> terms{
      {Point::at_infinity(), b}, {a, b}, {a, Point::at_infinity()}};
  EXPECT_EQ(pp_->pair_product(terms), pp_->pair(a, b));
}

// The Miller loop's V == ±P corner: h = 2²·11·71·…, so the test group also
// has points of order 11 and 71. For such a P the chain V = [m]P meets ±P
// whenever m ≡ ±1 mod ℓ before an addition step, which sends miller_add
// into its tangent branch. Points of 2-power order never get there.
TEST_F(PairingTest, SmallOrderPointsMatchReference) {
  const Params& prm = pp_->params();
  const math::Montgomery& mq = pp_->mont_q();
  for (const int order : {11, 71}) {
    const BigInt ell{order};
    ASSERT_TRUE((prm.h % ell).is_zero()) << order;
    const BigInt cofactor = prm.r * (prm.h / ell);
    for (int n = 0; n < 2;) {
      const BigInt x = BigInt::random_below(rng_, prm.q);
      const BigInt t = math::mod_add(
          math::mod_mul(math::mod_mul(x, x, prm.q), x, prm.q), x, prm.q);
      if (!math::is_quadratic_residue(t, prm.q)) continue;
      const Point r = point_from(mq, x, math::mod_sqrt_3mod4(t, prm.q));
      const Point p = point_mul(r, cofactor, mq);
      if (p.infinity) continue;
      ASSERT_TRUE(point_mul(p, ell, mq).infinity) << order;
      ++n;
      const Point q = pp_->random_g1(rng_);
      const Fq2 e_pq = pp_->pair_reference(p, q);
      const Fq2 product = pp_->gt_mul(e_pq, pp_->pair_reference(q, p));
      EXPECT_EQ(pp_->pair(p, q), e_pq) << order;
      const std::vector<PairTerm> terms{{p, q}, {q, p}};
      EXPECT_EQ(pp_->pair_product(terms), product) << order;
      // One loop call: both terms as output 0, each alone as outputs 1, 2.
      const std::vector<MillerChain> chains{{p, {{q, 0}, {q, 1}}},
                                            {q, {{p, 0}, {p, 2}}}};
      const std::vector<Fq2> f = pp_->miller_multi(chains, 3);
      EXPECT_EQ(pp_->final_exponentiation(f[0]), product) << order;
      EXPECT_EQ(pp_->final_exponentiation(f[1]), e_pq) << order;
      EXPECT_EQ(pp_->final_exponentiation(f[2]), pp_->pair_reference(q, p))
          << order;
    }
  }
}

TEST_F(PairingTest, PairProductNegationCancels) {
  // e(A,B)·e(−A,B) = 1: the identity the HVE/CP-ABE rewrites rely on to
  // turn GT divisions into extra product terms.
  const Point a = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const Point b = pp_->mul(pp_->generator(), pp_->random_nonzero_scalar(rng_));
  const std::vector<PairTerm> terms{{a, b}, {pp_->neg(a), b}};
  EXPECT_EQ(pp_->pair_product(terms), pp_->gt_one());
}

// --- The multi-output Miller loop ------------------------------------------

// A first point shared by several outputs walks one chain; every output
// still equals its own pair_product, and outputs of calls over a split of
// the chains multiply to the output of one call over all of them.
TEST_F(PairingTest, MillerMultiSharedFirstPointAcrossOutputs) {
  const auto g1 = [&] { return pp_->random_g1(rng_); };
  const Point a = g1(), b = g1();
  const Point q0 = g1(), q1 = g1(), q2 = g1(), q3 = g1();
  // Output 0: e(a, q0)·e(b, q1); output 1: e(a, q2); output 2: e(a, q3)·
  // e(b, q3).
  const std::vector<MillerChain> chains{{a, {{q0, 0}, {q2, 1}, {q3, 2}}},
                                        {b, {{q1, 0}, {q3, 2}}}};
  const std::vector<Fq2> f = pp_->miller_multi(chains, 3);
  ASSERT_EQ(f.size(), 3u);
  const std::vector<PairTerm> out0{{a, q0}, {b, q1}};
  const std::vector<PairTerm> out1{{a, q2}};
  const std::vector<PairTerm> out2{{a, q3}, {b, q3}};
  EXPECT_EQ(pp_->final_exponentiation(f[0]), pp_->pair_product(out0));
  EXPECT_EQ(pp_->final_exponentiation(f[1]), pp_->pair_product(out1));
  EXPECT_EQ(pp_->final_exponentiation(f[2]), pp_->pair_product(out2));
  EXPECT_EQ(pp_->final_exponentiation(f[1]), pp_->pair_reference(a, q2));

  const std::span<const MillerChain> all(chains);
  const std::vector<Fq2> first = pp_->miller_multi(all.first(1), 3);
  const std::vector<Fq2> second = pp_->miller_multi(all.subspan(1), 3);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(pp_->gt_mul(first[j], second[j]), f[j]) << j;
  }
}

// pair_product folds terms with one first point into one chain; so does a
// chain that lists one output twice.
TEST_F(PairingTest, MillerMultiSharedFirstPointWithinOneOutput) {
  const Point a = pp_->random_g1(rng_);
  const Point b = pp_->random_g1(rng_);
  const Point c = pp_->random_g1(rng_);
  const Fq2 expect =
      pp_->gt_mul(pp_->pair_reference(a, b), pp_->pair_reference(a, c));
  const std::vector<PairTerm> terms{{a, b}, {a, c}};
  EXPECT_EQ(pp_->pair_product(terms), expect);
  const std::vector<MillerChain> chain{{a, {{b, 0}, {c, 0}}}};
  EXPECT_EQ(pp_->final_exponentiation(pp_->miller_multi(chain, 1)[0]),
            expect);
  // e(a, b)·e(−a, b) = 1 with the two terms on different chains.
  const std::vector<PairTerm> cancel{{a, b}, {pp_->neg(a), b}, {a, b}};
  EXPECT_EQ(pp_->pair_product(cancel), pp_->pair_reference(a, b));
}

// Identity inputs contribute 1, an output with no term is 1 before the
// final exponentiation, and an output index past `outputs` is refused.
TEST_F(PairingTest, MillerMultiIdentityInputsAndEmptyOutputs) {
  const Point a = pp_->random_g1(rng_);
  const Point b = pp_->random_g1(rng_);
  const Point o = Point::at_infinity();
  const std::vector<MillerChain> chains{
      {o, {{b, 0}, {a, 1}}}, {a, {{o, 1}, {b, 1}}}, {b, {{o, 2}}}};
  const std::vector<Fq2> f = pp_->miller_multi(chains, 4);
  EXPECT_EQ(f[0], pp_->gt_one());
  EXPECT_EQ(pp_->final_exponentiation(f[1]), pp_->pair_reference(a, b));
  EXPECT_EQ(f[2], pp_->gt_one());
  EXPECT_EQ(f[3], pp_->gt_one());
  EXPECT_EQ(pp_->final_exponentiation(f[3]), pp_->gt_one());
  EXPECT_TRUE(pp_->miller_multi({}, 2) ==
              std::vector<Fq2>(2, pp_->gt_one()));
  EXPECT_EQ(pp_->pair(o, b), pp_->gt_one());
  EXPECT_EQ(pp_->pair(a, o), pp_->gt_one());
  const std::vector<MillerChain> bad{{a, {{b, 2}}}};
  EXPECT_THROW(pp_->miller_multi(bad, 2), std::out_of_range);
}

// In both groups. k = r ends the wNAF loop adding the negation of the
// accumulator (the full addition's infinity branch); r − 26 in the test
// group and r + 30 in the paper group end it adding the accumulator itself
// (its doubling branch), as a simulation of wNAF-4 over r shows.
TEST_F(PairingTest, MontScalarMulMatchesReferenceOnEdgeScalars) {
  const std::pair<PairingPtr, BigInt> groups[] = {
      {pp_, pp_->r() - BigInt{26}},
      {Pairing::paper_pairing(), Pairing::paper_pairing()->r() + BigInt{30}}};
  for (const auto& [pp, doubling] : groups) {
    const BigInt& r = pp->r();
    const math::Montgomery& mq = pp->mont_q();
    std::vector<BigInt> scalars{BigInt{},      BigInt{1}, BigInt{2},
                                r - BigInt{1}, r,         r + BigInt{1},
                                r * r + BigInt{7},        doubling};
    for (int i = 0; i < 4; ++i) {
      scalars.push_back(BigInt::random_below(rng_, r));
    }
    const Point base =
        pp->mul(pp->generator(), pp->random_nonzero_scalar(rng_));
    const FixedBaseTable table(mq, base, r.bit_length());
    for (const BigInt& k : scalars) {
      const Point ref = point_mul(base, k, mq);
      EXPECT_EQ(point_mul_mont(base, k, mq), ref) << k.to_dec();
      EXPECT_EQ(table.mul(k), ref) << k.to_dec();
    }
    EXPECT_THROW(point_mul_mont(base, BigInt{-1}, mq), std::invalid_argument);
    EXPECT_THROW(table.mul(BigInt{-1}), std::invalid_argument);
    EXPECT_TRUE(point_mul_mont(Point::at_infinity(), BigInt{5}, mq).infinity);

    // The same scalars through one batch call that mixes the variable base
    // with generator entries (the fixed-base table) and an identity base:
    // each output equals its single multiplication.
    std::vector<MulTerm> terms;
    for (const BigInt& k : scalars) {
      terms.push_back({base, k});
      terms.push_back({pp->generator(), k});
      terms.push_back({Point::at_infinity(), k});
    }
    const std::vector<Point> batch = pp->mul_batch(terms);
    ASSERT_EQ(batch.size(), terms.size());
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const BigInt kr = math::mod(terms[i].k, r);
      EXPECT_EQ(batch[i], point_mul(terms[i].p, terms[i].k, mq)) << i;
      EXPECT_EQ(batch[i], point_mul_mont(terms[i].p, kr, mq)) << i;
      EXPECT_EQ(batch[i], pp->mul(terms[i].p, terms[i].k)) << i;
    }
  }
}

TEST_F(PairingTest, Wnaf4DigitsReconstructScalar) {
  for (int i = 0; i < 12; ++i) {
    const BigInt k = BigInt::random_bits(rng_, 8 + 17 * i);
    const auto digits = wnaf4(k);
    BigInt acc{};
    BigInt pow{1};
    for (const std::int8_t d : digits) {
      if (d != 0) {
        EXPECT_NE(d % 2, 0);
        EXPECT_LE(d, 15);
        EXPECT_GE(d, -15);
        acc = acc + pow * BigInt{d};
      }
      pow = pow + pow;
    }
    EXPECT_EQ(acc, k);
  }
}

TEST_F(PairingTest, NafDigitsAreNonAdjacentAndReconstructScalar) {
  std::vector<BigInt> scalars{BigInt{1}, BigInt{3}, pp_->r(),
                              Pairing::paper_pairing()->r()};
  for (int i = 0; i < 8; ++i) {
    scalars.push_back(BigInt::random_bits(rng_, 8 + 21 * i));
  }
  for (const BigInt& k : scalars) {
    const auto digits = naf(k);
    BigInt acc{};
    BigInt pow{1};
    for (std::size_t i = 0; i < digits.size(); ++i) {
      EXPECT_LE(digits[i], 1);
      EXPECT_GE(digits[i], -1);
      EXPECT_FALSE(i > 0 && digits[i] != 0 && digits[i - 1] != 0);
      acc = acc + pow * BigInt{digits[i]};
      pow = pow + pow;
    }
    EXPECT_EQ(acc, k) << k.to_dec();
    EXPECT_EQ(digits.back(), 1) << k.to_dec();
  }
  EXPECT_TRUE(naf(BigInt{}).empty());
  EXPECT_THROW(naf(BigInt{-1}), std::invalid_argument);
}

TEST_F(PairingTest, GtFixedBaseMatchesGenericPow) {
  const Fq2 base = pp_->random_gt(rng_);
  const GtFixedBase table(pp_->mont_q(), base, pp_->r().bit_length());
  std::vector<BigInt> exps{BigInt{}, BigInt{1}, pp_->r() - BigInt{1}};
  for (int i = 0; i < 4; ++i) {
    exps.push_back(BigInt::random_below(rng_, pp_->r()));
  }
  for (const BigInt& e : exps) {
    EXPECT_EQ(table.pow(e), fq2_pow(base, e, pp_->mont_q())) << e.to_dec();
  }
  EXPECT_THROW(table.pow(BigInt{-1}), std::invalid_argument);
  // The Pairing-owned e(g,g) table serves gt_pow on the GT generator.
  const BigInt e = pp_->random_nonzero_scalar(rng_);
  EXPECT_EQ(pp_->gt_pow(pp_->gt_generator(), e),
            fq2_pow(pp_->gt_generator(), e, pp_->mont_q()));
}

TEST_F(PairingTest, MontgomeryFq2PowMatchesPlain) {
  const math::Montgomery& mq = pp_->mont_q();
  for (int i = 0; i < 5; ++i) {
    const Fq2 x = random_fq2(rng_);
    const BigInt e = BigInt::random_bits(rng_, 150);
    EXPECT_EQ(fqm::fe2_pow(mq, x, e), fq2_pow(x, e, mq));
  }
}

// --- F_q inversion -----------------------------------------------------------

// fe_inv (the safegcd kernel, Montgomery::inv_limbs) against the Fermat
// reference x^(q−2) through fe_pow, and x·x⁻¹ = 1. The inputs are raw
// Montgomery-form limbs, the values the kernel itself sees: 1, q−1, 2,
// (q+1)/2, R mod q (the Montgomery one), the largest values below q (all
// top bits set when q is just below a power of two) and `random` uniform
// nonzero values.
void expect_fe_inv_matches_fermat(const math::Montgomery& m, Rng& rng,
                                  int random) {
  const BigInt& q = m.modulus();
  const BigInt fermat = q - BigInt{2};
  std::vector<BigInt> raw{BigInt{1}, q - BigInt{1}, BigInt{2},
                          (q + BigInt{1}) >> 1, m.one_mont()};
  for (std::uint64_t j : {2ull, 3ull, 0x100000001ull, ~0ull}) {
    if (BigInt{j} < q) raw.push_back(q - BigInt{j});
  }
  for (int i = 0; i < random; ++i) {
    raw.push_back(BigInt{1} + BigInt::random_below(rng, q - BigInt{1}));
  }
  for (const BigInt& v : raw) {
    const fqm::Fe x = fqm::fe_pack(v);
    const fqm::Fe inv = fqm::fe_inv(m, x);
    EXPECT_EQ(inv, fqm::fe_pow(m, x, fermat)) << q.to_hex() << " " << v.to_hex();
    fqm::Fe prod;
    fqm::fe_mul(m, x, inv, prod);
    EXPECT_EQ(prod, fqm::fe_one(m)) << q.to_hex() << " " << v.to_hex();
  }
  EXPECT_THROW(fqm::fe_inv(m, fqm::Fe{}), std::domain_error);
}

TEST(FieldInverse, MatchesFermatInBakedGroups) {
  TestRng rng(0x1a7);
  expect_fe_inv_matches_fermat(Pairing::test_pairing()->mont_q(), rng, 500);
  expect_fe_inv_matches_fermat(Pairing::paper_pairing()->mont_q(), rng, 100);
}

// Every limb count the kernels accept (1–8), under primes with spare top
// bits, with the top bit set and just below 2^(64k), and under primes
// below 46 bits, where the divstep bound takes its other form.
TEST(FieldInverse, MatchesFermatForEveryLimbCount) {
  TestRng rng(0x1a8);
  std::vector<BigInt> primes{
      BigInt{3}, BigInt{65537}, (BigInt{1} << 31) - BigInt{1},
      (BigInt{1} << 61) - BigInt{1}, (BigInt{1} << 127) - BigInt{1},
      (BigInt{1} << 255) - BigInt{19}};
  for (std::size_t limbs = 1; limbs <= math::Montgomery::kMaxFixedLimbs;
       ++limbs) {
    primes.push_back(math::random_prime(rng, 64 * limbs - 5));
    primes.push_back(math::random_prime(rng, 64 * limbs));
  }
  primes.push_back((BigInt{1} << 64) - BigInt{59});
  primes.push_back((BigInt{1} << 512) - BigInt{569});
  for (const BigInt& q : primes) {
    const math::Montgomery m(q);
    ASSERT_TRUE(m.fits_fixed());
    expect_fe_inv_matches_fermat(m, rng, 40);
  }
  // Every input under a small prime.
  const math::Montgomery small(BigInt{65537});
  for (std::uint64_t v = 1; v < 65537; ++v) {
    const fqm::Fe x = fqm::fe_pack(BigInt{v});
    fqm::Fe prod;
    fqm::fe_mul(small, x, fqm::fe_inv(small, x), prod);
    ASSERT_EQ(prod, fqm::fe_one(small)) << v;
  }
}

TEST_F(PairingTest, HashToG1PinnedAcrossProcesses) {
  // The exact output for a fixed input on the baked test parameters. A
  // changed value means hash_to_g1 is no longer deterministic across
  // processes/builds, which would break every serialized attribute hash.
  const Point p =
      pp_->hash_to_g1(str_to_bytes("p3s hash_to_g1 determinism pin v1"));
  EXPECT_EQ(to_hex(pp_->serialize_g1(p)),
            "01187676234303dcc246ef3c4b5095faf5558dabe500adb012b1f2aa803f0aa5"
            "cedeca9184630e1972");
}

// --- Known-answer pins over both shipped groups ------------------------------
// Values captured from the fixed-limb stack before its kernels were
// templated on the limb count. The test group runs the 3-limb kernels and
// the paper group the 8-limb ones, so a change that moves one output bit of
// either shows here without a second implementation to compare against.
// The hash values were
// captured while hash_to_g1 still tested residuosity and took the root as
// two BigInt exponentiations; in each group the three inputs between them
// reject a non-residue candidate and take both root signs.

struct GroupKat {
  PairingPtr (*group)();
  const char* egg;      // serialize_gt(e(g, g))
  const char* product;  // 12-term pair_product == one miller_multi output
  const char* mul;      // serialize_g1(point_mul_mont(P, k1))
  const char* fixed;    // serialize_g1(FixedBaseTable(P).mul(k2))
  // serialize_g1(hash_to_g1("p3s hash_to_g1 kat <n>")) for n = 0, 1, 2
  std::array<const char*, 3> hash;
};

void check_group_kat(const GroupKat& kat) {
  const PairingPtr pp = kat.group();
  const Point& g = pp->generator();
  EXPECT_EQ(to_hex(pp->serialize_gt(pp->pair(g, g))), kat.egg);

  // The HVE match shape: 6 positions, two terms each, P from the
  // ciphertext and Q from the token.
  TestRng rng(0x6b6174);
  std::vector<PairTerm> terms;
  for (int i = 0; i < 12; ++i) {
    const Point p = pp->mul(g, pp->random_nonzero_scalar(rng));
    terms.push_back({p, pp->mul(g, pp->random_nonzero_scalar(rng))});
  }
  EXPECT_EQ(to_hex(pp->serialize_gt(pp->pair_product(terms))), kat.product);
  // The same terms straight through the loop: as one output, and as two
  // calls over halves of the chains whose outputs multiply.
  std::vector<MillerChain> chains;
  for (const PairTerm& t : terms) chains.push_back({t.p, {{t.q, 0}}});
  const std::span<const MillerChain> all(chains);
  const auto gt_hex = [&](const Fq2& f) {
    return to_hex(pp->serialize_gt(pp->final_exponentiation(f)));
  };
  EXPECT_EQ(gt_hex(pp->miller_multi(all, 1)[0]), kat.product);
  EXPECT_EQ(gt_hex(pp->gt_mul(pp->miller_multi(all.first(6), 1)[0],
                              pp->miller_multi(all.subspan(6), 1)[0])),
            kat.product);

  const Point& base = terms[0].p;
  const BigInt k1 = pp->random_scalar(rng);
  const BigInt k2 = pp->random_scalar(rng);
  EXPECT_EQ(to_hex(pp->serialize_g1(point_mul_mont(base, k1, pp->mont_q()))),
            kat.mul);
  const FixedBaseTable table(pp->mont_q(), base, pp->r().bit_length());
  EXPECT_EQ(to_hex(pp->serialize_g1(table.mul(k2))), kat.fixed);

  for (std::size_t n = 0; n < kat.hash.size(); ++n) {
    const Point h = pp->hash_to_g1(
        str_to_bytes("p3s hash_to_g1 kat " + std::to_string(n)));
    EXPECT_EQ(to_hex(pp->serialize_g1(h)), kat.hash[n]) << n;
  }
}

TEST(PairingKnownAnswer, TestGroup) {
  check_group_kat({&Pairing::test_pairing,
                   // egg
                   "49c388f45974cbef1b678b8a48bbc579180e759b3bccff362c20ad71"
                   "92fca0ec237ece228668612c",
                   // product
                   "1ccb1436eb3df056e600c8dd59f433dcb8bbdc63127cdfa496c71672"
                   "8771c178a94ca8251f5172b9",
                   // mul
                   "018299095cd8180f8813f64e87051163d2b90c40405ee03243bbd9e2"
                   "997d11d3ca3de75421cf8ff01a",
                   // fixed
                   "01149bc6872615dd460a92a8dd435aa621254cdae706b0eace9f09cb"
                   "ec17589e"
                   "69d05f2bf7ea281e50",
                   // hash: accepted at candidate 0, 2, 0; root negated,
                   // kept, kept
                   {"018d1f3cc9a658ca636adc4633191218383c65c64870a2a1db7ffb44"
                    "07e93a5f7f27e120181f1b849c",
                    "011fcda616775b7b06c57ac11d5b81fd1c46b606d20b80dd502f0eca"
                    "76c468aaaf21f55aab72382594",
                    "01450c86e6226b705e0fdbf4614d52c94e5eddef3f3b578307d1664a"
                    "7d7626400f1d37066f5f0c8071"}});
}

TEST(PairingKnownAnswer, PaperGroup) {
  check_group_kat({&Pairing::paper_pairing,
                   // egg
                   "92f75f2b269f44ad8da3323b90594b69569422fde99a6870bcb40bcd"
                   "37664fd82ec829b600fde96748e5c9b29cf619f948d8aa4325cddfe4"
                   "b434bb820a6fd0384fd6c19e81430f9971a50839ca958833a4998fa8"
                   "4a9b899e393cc4c0fd013ce83ad754748af62bc4e1deda93e810d673"
                   "cc5f3157fa5c878e6fd2f100d8c855fa",
                   // product
                   "382e497e72efe85294f720da2e1125a0856b3de5f2bed84a74c38d8a"
                   "03ca0859e9e7f15628e5466ef0c33c8336213d124cbe7116da64b503"
                   "b4ab8726d9b9d1aa649a17e9a8eec6324f21d072a1a481cf8b1ec6ed"
                   "afc9f2b373a09d6bb02fd59d0894d5d64e10277cba6994fc884f3927"
                   "ddfec0edbef2eb53ae95348c25021678",
                   // mul
                   "0128567759fa2e3ba8d03323adadeae3a0373ed6bdfc1bc210188a7f"
                   "1919129c0747ba5129903bbc17443cad87aa9d1302b11db24628008b"
                   "f919eacc59c894560c1017fd8853d0a66dea15686121d818e793ffde"
                   "03380109b1f83a08cd878237a7c4c9c2415b1630537eb2490d604ead"
                   "690c60e863f90bb1778086e9caba85da4c",
                   // fixed
                   "011acb4df485f261a0867994cc65811d71c2d1e327c8aaf18d3d05b0"
                   "0132c5f7007ed89176306de93ef3a2a01d6a7c75f83aec41ceaae354"
                   "41958367553fd33d26137e97232534886b48a0cd1bb68159eb959c45"
                   "31a8b2d2591323bfb630fe563e47a65bbde50dc121d4f48b943760a6"
                   "2d4da593e6d598fae6eb8290a1d3312d"
                   "a7",
                   // hash: accepted at candidate 1, 1, 1; root kept,
                   // negated, negated
                   {"01637a6529c92d223fc63246d2d33efdc148553a985ccf9a1ae99116"
                    "556ec8d4976f459ae49b221f1ee5b49bf11ed23f8e1505081557a204"
                    "af6c4e2d2fcbdb57c360e7240c59eea79c909daa63653e037026b7bc"
                    "2f73a485885cd2de3c75fa48958d131ca23eabf2ddf57fb6bba6bf1f"
                    "dd38cd7f16f63921569a73395acf1abd13",
                    "0150cc0c505ba63530a1297b0e5af616c4bf9f37b68323cbbbcaccb1"
                    "a00cae79cdf53f1bd3b3fa409744cf4c14c504723fa5889cd21b9bb3"
                    "156bef5972043bcc27706cb0a9759030a6c0c8cbb5b10ee2b47e7169"
                    "c3dba17d1d6abad0b0d6f43c7c72c4d3a8d84f1da3bd3ac200c4c8d3"
                    "2b49b1358a13abc6856eb0ff05fd052a11",
                    "013cef6fbe16053585070195c7c38f197fee466c35bb8318c2e9996b"
                    "abaa11de8c0e1d12471989b0b06f0a9305c6463fb87854cbe203ab9f"
                    "62d966c22d643dc0e1a34c917dcfbdd89f09302ad53ad0d0a8cdeb60"
                    "774ca4ce8b1455fbe6dc77b307ee47dc2555d6562a268cd29f1c3969"
                    "27f409e9b0f4d8f4b1b38587ac154ca3ff"}});
}

TEST(PairingBaked, BakedParamsSatisfyCurveInvariants) {
  // test_pairing() and paper_pairing() now load serialized constants; the
  // structural invariants the old generator guaranteed must still hold.
  for (const PairingPtr& pp :
       {Pairing::test_pairing(), Pairing::paper_pairing()}) {
    const BigInt& q = pp->q();
    const BigInt& r = pp->r();
    EXPECT_EQ(q % BigInt{4}, BigInt{3});
    EXPECT_TRUE((q + BigInt{1}) % r == BigInt{});  // q + 1 = h·r
    EXPECT_TRUE(on_curve(pp->generator(), pp->mont_q()));
    EXPECT_TRUE(pp->mul(pp->generator(), r).infinity);
    EXPECT_NE(pp->gt_generator(), pp->gt_one());
  }
}

}  // namespace
}  // namespace p3s::pairing
