#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "math/modular.hpp"
#include "math/montgomery.hpp"
#include "math/prime.hpp"

namespace p3s::math {
namespace {

TEST(Montgomery, RejectsEvenOrTrivialModulus) {
  EXPECT_THROW(Montgomery(BigInt{10}), std::invalid_argument);
  EXPECT_THROW(Montgomery(BigInt{1}), std::invalid_argument);
  EXPECT_THROW(Montgomery(BigInt{0}), std::invalid_argument);
}

TEST(Montgomery, ToFromMontRoundTrip) {
  TestRng rng(61);
  const BigInt n = random_prime(rng, 192);
  const Montgomery mont(n);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_below(rng, n);
    EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a);
  }
}

TEST(Montgomery, MulMatchesSchoolbookModMul) {
  TestRng rng(62);
  for (std::size_t bits : {128u, 192u, 256u, 512u}) {
    BigInt n = random_prime(rng, bits);
    const Montgomery mont(n);
    for (int i = 0; i < 20; ++i) {
      const BigInt a = BigInt::random_below(rng, n);
      const BigInt b = BigInt::random_below(rng, n);
      const BigInt got =
          mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
      EXPECT_EQ(got, mod_mul(a, b, n)) << bits;
    }
  }
}

TEST(Montgomery, WorksForOddCompositeModuli) {
  TestRng rng(63);
  const BigInt n = random_prime(rng, 96) * random_prime(rng, 96);
  const Montgomery mont(n);
  const BigInt a = BigInt::random_below(rng, n);
  const BigInt b = BigInt::random_below(rng, n);
  EXPECT_EQ(mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b))),
            mod_mul(a, b, n));
}

TEST(Montgomery, PowMatchesModPowReference) {
  TestRng rng(64);
  const BigInt n = random_prime(rng, 256);
  const Montgomery mont(n);
  for (int i = 0; i < 10; ++i) {
    const BigInt base = BigInt::random_below(rng, n);
    const BigInt exp = BigInt::random_bits(rng, 200);
    // Reference: square-and-multiply with division-based reduction.
    BigInt ref{1};
    for (std::size_t bit = exp.bit_length(); bit-- > 0;) {
      ref = mod_mul(ref, ref, n);
      if (exp.bit(bit)) ref = mod_mul(ref, base, n);
    }
    EXPECT_EQ(mont.pow(base, exp), ref);
  }
}

TEST(Montgomery, PowEdgeCases) {
  TestRng rng(65);
  const BigInt n = random_prime(rng, 128);
  const Montgomery mont(n);
  EXPECT_EQ(mont.pow(BigInt{5}, BigInt{}), BigInt{1});
  EXPECT_EQ(mont.pow(BigInt{5}, BigInt{1}), BigInt{5});
  EXPECT_EQ(mont.pow(BigInt{}, BigInt{7}), BigInt{});
  EXPECT_THROW(mont.pow(BigInt{2}, BigInt{-1}), std::invalid_argument);
}

// Moduli with the top bit of the top limb set maximize the transient carry
// limb t[k] of the reduction and make the final conditional subtraction
// load-bearing — the shape where a dropped carry or a shift-width slip in
// the reduction loop shows up. The largest prime below 2^(64k) for each
// limb count ("max") also makes n−1 all-ones limbs but the lowest, so
// (n−1)² fills every product-scanning column to its widest.
constexpr const char* kTopBitSetModuli[] = {
    "ffffffffffffffc5",                                  // 1 limb, max
    "e3779b97f4a7c15f",                                  // 1 limb
    "ffffffffffffffffffffffffffffff61",                  // 2 limbs, max
    "ffffffffffffffffffffffffffffffffffffffffffffff13",  // 3 limbs, max
    // 2^256 − 189, 4 limbs, max
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43",
    // 2^320 − 197, 5 limbs, max
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
    "ffffffffffffff3b",
    // 2^384 − 317, 6 limbs, max
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
    "fffffffffffffffffffffffffffffec3",
    // 2^448 − 203, 7 limbs, max
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
    "ffffffffffffffffffffffffffffffffffffffffffffff35",
    // 2^512 − 569, 8 limbs, max
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdc7",
};

// Checked against the plain mod(a*b, n) reference.
TEST(Montgomery, TopBitSetModuliCarryLimb) {
  TestRng rng(67);
  for (const char* hex : kTopBitSetModuli) {
    const BigInt n = BigInt::from_hex(hex);
    const Montgomery mont(n);
    const BigInt nm1 = n - BigInt{1};
    // (n-1)^2 mod n == 1: the largest representable operands.
    EXPECT_EQ(mont.from_mont(mont.mul(mont.to_mont(nm1), mont.to_mont(nm1))),
              BigInt{1})
        << hex;
    for (int i = 0; i < 50; ++i) {
      const BigInt a = BigInt::random_below(rng, n);
      const BigInt b = BigInt::random_below(rng, n);
      EXPECT_EQ(mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b))),
                mod(a * b, n))
          << hex;
    }
    EXPECT_EQ(mont.pow(BigInt{2}, BigInt{}), BigInt{1}) << hex;
    EXPECT_EQ(mont.pow(nm1, BigInt{2}), BigInt{1}) << hex;
  }
}

TEST(Montgomery, FermatViaMontgomery) {
  TestRng rng(66);
  const BigInt p = random_prime(rng, 320);
  const Montgomery mont(p);
  for (int i = 0; i < 5; ++i) {
    const BigInt a = BigInt{1} + BigInt::random_below(rng, p - BigInt{1});
    EXPECT_EQ(mont.pow(a, p - BigInt{1}), BigInt{1});
  }
}

// Every fixed-limb kernel instance (one per limb count) against the BigInt
// reference ops: for each limb count 1–8 a prime whose top limb has spare
// bits and one with the top bit set (only those make a + b carry out of
// the top limb), the moduli of TopBitSetModuliCarryLimb, the largest
// operands n−1, and calls whose output aliases an input.
TEST(Montgomery, FixedLimbApiMatchesBigIntOps) {
  TestRng rng(70);
  std::vector<BigInt> moduli;
  for (std::size_t limbs = 1; limbs <= Montgomery::kMaxFixedLimbs; ++limbs) {
    moduli.push_back(random_prime(rng, 64 * limbs - 4));
    moduli.push_back(random_prime(rng, 64 * limbs));
  }
  for (const char* hex : kTopBitSetModuli) {
    moduli.push_back(BigInt::from_hex(hex));
  }
  for (const BigInt& n : moduli) {
    const Montgomery mont(n);
    ASSERT_TRUE(mont.fits_fixed());
    const std::size_t k = mont.limb_count();
    const std::string tag = n.to_hex();
    const auto pack = [&](const BigInt& v) {
      std::vector<std::uint64_t> out(k, 0);
      const auto& limbs = v.limbs();
      std::copy(limbs.begin(), limbs.end(), out.begin());
      return out;
    };
    const auto unpack = [](std::vector<std::uint64_t> limbs) {
      return BigInt::from_limbs_le(std::move(limbs));
    };
    const BigInt nm1 = n - BigInt{1};
    std::vector<std::pair<BigInt, BigInt>> operands{
        {nm1, nm1}, {nm1, BigInt{1}}, {BigInt{}, nm1}, {BigInt{1}, nm1}};
    for (int i = 0; i < 20; ++i) {
      operands.emplace_back(BigInt::random_below(rng, n),
                            BigInt::random_below(rng, n));
    }
    for (const auto& [a, b] : operands) {
      std::vector<std::uint64_t> out(k, 0);
      const auto am = pack(mont.to_mont(a));
      const auto bm = pack(mont.to_mont(b));
      mont.mul_limbs(am.data(), bm.data(), out.data());
      EXPECT_EQ(mont.from_mont(unpack(out)), mod_mul(a, b, n)) << tag;
      // add/sub are domain-agnostic: plain-form inputs check them directly.
      const auto ap = pack(a);
      const auto bp = pack(b);
      mont.add_limbs(ap.data(), bp.data(), out.data());
      EXPECT_EQ(unpack(out), mod_add(a, b, n)) << tag;
      mont.sub_limbs(ap.data(), bp.data(), out.data());
      EXPECT_EQ(unpack(out), mod_sub(a, b, n)) << tag;
      // Aliased: out is the first input.
      auto buf = am;
      mont.mul_limbs(buf.data(), bm.data(), buf.data());
      EXPECT_EQ(mont.from_mont(unpack(buf)), mod_mul(a, b, n)) << tag;
      buf = ap;
      mont.add_limbs(buf.data(), bp.data(), buf.data());
      EXPECT_EQ(unpack(buf), mod_add(a, b, n)) << tag;
      buf = ap;
      mont.sub_limbs(buf.data(), bp.data(), buf.data());
      EXPECT_EQ(unpack(buf), mod_sub(a, b, n)) << tag;
      // inv_limbs keeps Montgomery form and maps 0 to 0; aliased too. One
      // modulus above is composite: it inverts the a coprime to it.
      if (!a.is_zero() && gcd(a, n) != BigInt{1}) continue;
      mont.inv_limbs(am.data(), out.data());
      EXPECT_EQ(mont.from_mont(unpack(out)),
                a.is_zero() ? BigInt{} : mod_inv(a, n))
          << tag;
      buf = am;
      mont.inv_limbs(buf.data(), buf.data());
      EXPECT_EQ(buf, out) << tag;
    }
  }
}

TEST(Montgomery, FixedLimbApiAliasingSafe) {
  TestRng rng(71);
  const BigInt n = random_prime(rng, 192);
  const Montgomery mont(n);
  const BigInt a = BigInt::random_below(rng, n);
  const BigInt am = mont.to_mont(a);
  std::vector<std::uint64_t> buf(mont.limb_count(), 0);
  const auto& limbs = am.limbs();
  std::copy(limbs.begin(), limbs.end(), buf.begin());
  mont.mul_limbs(buf.data(), buf.data(), buf.data());  // out aliases both
  EXPECT_EQ(mont.from_mont(BigInt::from_limbs_le(buf)), mod_mul(a, a, n));
}

TEST(Montgomery, WideModulusDoesNotFitFixed) {
  TestRng rng(72);
  const Montgomery mont(random_prime(rng, 576));
  EXPECT_FALSE(mont.fits_fixed());
  std::vector<std::uint64_t> buf(mont.limb_count(), 1);
  EXPECT_THROW(mont.mul_limbs(buf.data(), buf.data(), buf.data()),
               std::logic_error);
  EXPECT_THROW(mont.add_limbs(buf.data(), buf.data(), buf.data()),
               std::logic_error);
  EXPECT_THROW(mont.sub_limbs(buf.data(), buf.data(), buf.data()),
               std::logic_error);
  EXPECT_THROW(mont.inv_limbs(buf.data(), buf.data()), std::logic_error);
}

TEST(Montgomery, ModPowFastPathAgreesWithItself) {
  // mod_pow dispatches to Montgomery for odd moduli >= 128 bits; cross-check
  // against the even-modulus (schoolbook) path via CRT-free consistency:
  // a^e mod 2n recomputed mod n must match the Montgomery result.
  TestRng rng(67);
  const BigInt n = random_prime(rng, 160);
  const BigInt a = BigInt::random_below(rng, n);
  const BigInt e = BigInt::random_bits(rng, 100);
  const BigInt via_even = mod(mod_pow(a, e, n * BigInt{2}), n);
  EXPECT_EQ(mod_pow(a, e, n), via_even);
}

}  // namespace
}  // namespace p3s::math
