#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "common/rng.hpp"
#include "math/bigint.hpp"

namespace p3s::math {
namespace {

TEST(BigInt, ConstructionAndZero) {
  EXPECT_TRUE(BigInt{}.is_zero());
  EXPECT_TRUE(BigInt{0}.is_zero());
  EXPECT_FALSE(BigInt{}.is_negative());
  EXPECT_FALSE(BigInt{1}.is_zero());
  EXPECT_TRUE(BigInt{-5}.is_negative());
  EXPECT_EQ(BigInt{std::int64_t{-1}}.to_dec(), "-1");
}

TEST(BigInt, Int64MinRoundTrip) {
  BigInt v{std::int64_t{INT64_MIN}};
  EXPECT_EQ(v.to_dec(), "-9223372036854775808");
}

// Pins the INT64_MIN arithmetic paths the UBSan job watches: the naive
// `-v` on the raw int64 would overflow, so the constructor and negation
// must take the -(v+1)+1 route. Values are pinned so a regression changes
// output, not just sanitizer status.
TEST(BigInt, Int64MinArithmeticPinned) {
  const BigInt v{std::int64_t{INT64_MIN}};
  EXPECT_EQ((-v).to_dec(), "9223372036854775808");
  EXPECT_EQ(v.abs().to_dec(), "9223372036854775808");
  EXPECT_EQ((v + v).to_dec(), "-18446744073709551616");
  EXPECT_EQ((v - v), BigInt{});
  EXPECT_EQ((v * BigInt{-1}).to_hex(), "8000000000000000");
  auto [q, r] = BigInt::divmod(v, BigInt{-1});
  EXPECT_EQ(q.to_hex(), "8000000000000000");
  EXPECT_TRUE(r.is_zero());
}

TEST(BigInt, DecRoundTrip) {
  const char* cases[] = {
      "0",
      "1",
      "-1",
      "18446744073709551615",
      "18446744073709551616",
      "340282366920938463463374607431768211456",
      "-123456789012345678901234567890123456789012345678901234567890",
  };
  for (const char* s : cases) {
    EXPECT_EQ(BigInt::from_dec(s).to_dec(), s) << s;
  }
}

TEST(BigInt, HexRoundTrip) {
  const char* cases[] = {"0", "1", "ff", "deadbeefcafebabe",
                         "123456789abcdef0123456789abcdef01"};
  for (const char* s : cases) {
    EXPECT_EQ(BigInt::from_hex(s).to_hex(), s) << s;
  }
}

TEST(BigInt, ParseRejectsMalformed) {
  EXPECT_THROW(BigInt::from_dec(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_dec("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_dec("12a"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigInt, AdditionBasics) {
  EXPECT_EQ(BigInt{2} + BigInt{3}, BigInt{5});
  EXPECT_EQ(BigInt{-2} + BigInt{3}, BigInt{1});
  EXPECT_EQ(BigInt{2} + BigInt{-3}, BigInt{-1});
  EXPECT_EQ(BigInt{-2} + BigInt{-3}, BigInt{-5});
  EXPECT_EQ(BigInt{5} + BigInt{-5}, BigInt{});
}

TEST(BigInt, CarryPropagation) {
  BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a + BigInt{1}).to_hex(), "100000000000000000000000000000000");
  EXPECT_EQ((a + BigInt{1} - BigInt{1}).to_hex(), a.to_hex());
}

TEST(BigInt, MultiplicationSigns) {
  EXPECT_EQ(BigInt{6} * BigInt{7}, BigInt{42});
  EXPECT_EQ(BigInt{-6} * BigInt{7}, BigInt{-42});
  EXPECT_EQ(BigInt{-6} * BigInt{-7}, BigInt{42});
  EXPECT_EQ(BigInt{0} * BigInt{-7}, BigInt{});
}

TEST(BigInt, MultiplicationLarge) {
  BigInt a = BigInt::from_dec("123456789012345678901234567890");
  BigInt b = BigInt::from_dec("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_dec(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigInt, DivModTruncatedSemantics) {
  // C++ semantics: quotient toward zero, remainder has dividend's sign.
  EXPECT_EQ(BigInt{7} / BigInt{2}, BigInt{3});
  EXPECT_EQ(BigInt{7} % BigInt{2}, BigInt{1});
  EXPECT_EQ(BigInt{-7} / BigInt{2}, BigInt{-3});
  EXPECT_EQ(BigInt{-7} % BigInt{2}, BigInt{-1});
  EXPECT_EQ(BigInt{7} / BigInt{-2}, BigInt{-3});
  EXPECT_EQ(BigInt{7} % BigInt{-2}, BigInt{1});
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{}, std::domain_error);
  EXPECT_THROW(BigInt{1} % BigInt{}, std::domain_error);
}

TEST(BigInt, DivModIdentityRandom) {
  TestRng rng(11);
  for (int i = 0; i < 200; ++i) {
    BigInt a = BigInt::random_bits(rng, 40 + rng.uniform(400));
    BigInt b = BigInt::random_bits(rng, 1 + rng.uniform(300));
    auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.is_negative());
  }
}

TEST(BigInt, KnuthDAddBackCase) {
  // A case engineered to exercise the rare add-back branch of Algorithm D:
  // u = B^2 * (B - 1), v = B + 1 pattern (classic trigger family).
  BigInt b64 = BigInt{1} << 64;
  BigInt u = (b64 - BigInt{1}) * b64 * b64;
  BigInt v = b64 * b64 - BigInt{1};
  auto [q, r] = BigInt::divmod(u, v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigInt, ShiftRoundTrip) {
  BigInt a = BigInt::from_hex("123456789abcdef0fedcba9876543210");
  for (std::size_t n : {0u, 1u, 7u, 63u, 64u, 65u, 130u}) {
    EXPECT_EQ((a << n) >> n, a) << n;
  }
  EXPECT_EQ(BigInt{1} << 64, BigInt::from_hex("10000000000000000"));
  EXPECT_EQ(BigInt::from_hex("10000000000000000") >> 64, BigInt{1});
  EXPECT_EQ(BigInt{3} >> 10, BigInt{});
}

// Shift counts at exact limb boundaries are where a shift-width bug would
// hide: n % 64 == 0 must bypass the `x << bits` / `x >> (64 - bits)` pair
// entirely (both would be UB at width 64). Pinned values catch an
// off-by-one even if the sanitizer build is skipped.
TEST(BigInt, ShiftAtLimbBoundariesPinned) {
  const BigInt a = BigInt::from_hex("f0debc9a78563412f0debc9a78563412");
  EXPECT_EQ((a << 64).to_hex(),
            "f0debc9a78563412f0debc9a785634120000000000000000");
  EXPECT_EQ((a << 128).to_hex(),
            "f0debc9a78563412f0debc9a78563412"
            "00000000000000000000000000000000");
  EXPECT_EQ((a >> 64).to_hex(), "f0debc9a78563412");
  EXPECT_EQ((a >> 128), BigInt{});
  EXPECT_EQ((a >> 127), BigInt{1});
  EXPECT_EQ((a << 63).to_hex(),
            "786f5e4d3c2b1a09786f5e4d3c2b1a090000000000000000");
  EXPECT_EQ((BigInt{} << 64), BigInt{});
  EXPECT_EQ((BigInt{} >> 64), BigInt{});
  EXPECT_EQ((a >> 100000), BigInt{});
  EXPECT_EQ(((BigInt{1} << 4096) >> 4096), BigInt{1});
}

// Division shapes that drive qhat to its correction loop and the add-back
// branch: dense all-ones dividends against divisors whose second limb is
// near the radix. The quotient/remainder identity plus pinned remainders
// guard the multiply-subtract borrow chain in Algorithm D.
TEST(BigInt, DivmodQhatCorrectionSweep) {
  const BigInt one{1};
  const BigInt u = (one << 256) - one;                   // 2^256 - 1
  const BigInt v = (one << 128) - (one << 64) - one;     // sparse high limbs
  auto [q, r] = BigInt::divmod(u, v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
  EXPECT_EQ(q.to_hex(), "100000000000000010000000000000002");
  EXPECT_EQ(r.to_hex(), "30000000000000001");
  TestRng rng(113);
  for (int i = 0; i < 300; ++i) {
    BigInt a = BigInt::random_bits(rng, 1 + rng.uniform(520));
    BigInt b = BigInt::random_bits(rng, 1 + rng.uniform(260));
    auto [qq, rr] = BigInt::divmod(a, b);
    EXPECT_EQ(qq * b + rr, a);
    auto [qn, rn] = BigInt::divmod(-a, b);
    EXPECT_EQ(qn * b + rn, -a);
  }
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt{-5}, BigInt{3});
  EXPECT_LT(BigInt{-5}, BigInt{-3});
  EXPECT_GT(BigInt{5}, BigInt{3});
  EXPECT_EQ(BigInt{5} <=> BigInt{5}, std::strong_ordering::equal);
  EXPECT_LT(BigInt::from_hex("ffffffffffffffff"),
            BigInt::from_hex("10000000000000000"));
}

TEST(BigInt, BitAccessors) {
  BigInt a = BigInt::from_hex("8000000000000001");
  EXPECT_EQ(a.bit_length(), 64u);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(63));
  EXPECT_FALSE(a.bit(64));
  EXPECT_EQ(BigInt{}.bit_length(), 0u);
  EXPECT_TRUE(BigInt{3}.is_odd());
  EXPECT_TRUE(BigInt{4}.is_even());
}

TEST(BigInt, BytesRoundTrip) {
  TestRng rng(12);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_bits(rng, 8 + rng.uniform(500));
    EXPECT_EQ(BigInt::from_bytes(a.to_bytes()), a);
  }
  // Padding.
  EXPECT_EQ(BigInt{1}.to_bytes(4), (Bytes{0, 0, 0, 1}));
  EXPECT_THROW(BigInt{-1}.to_bytes(), std::domain_error);
  // Empty input and leading zero bytes.
  EXPECT_TRUE(BigInt::from_bytes({}).is_zero());
  EXPECT_TRUE(BigInt::from_bytes(Bytes{0, 0, 0}).is_zero());
  EXPECT_EQ(BigInt::from_bytes(Bytes{0, 0, 0x12, 0x34}), BigInt{0x1234});
  // Lengths around the 8-byte limb boundary, checked against hex parsing;
  // a zero-padded copy decodes to the same value.
  for (const std::size_t len : {1u, 7u, 8u, 9u, 16u, 17u}) {
    Bytes b = rng.bytes(len);
    b[0] |= 0x80;
    const BigInt v = BigInt::from_bytes(b);
    EXPECT_EQ(v, BigInt::from_hex(to_hex(b))) << len;
    EXPECT_EQ(v.bit_length(), 8 * len) << len;
    EXPECT_EQ(v.to_bytes(), b) << len;
    Bytes padded(3, 0);
    padded.insert(padded.end(), b.begin(), b.end());
    EXPECT_EQ(BigInt::from_bytes(padded), v) << len;
    EXPECT_EQ(v.to_bytes(len + 3), padded) << len;
  }
}

TEST(BigInt, ToU64) {
  EXPECT_EQ(BigInt{std::uint64_t{0xffffffffffffffffull}}.to_u64(),
            0xffffffffffffffffull);
  EXPECT_EQ(BigInt{}.to_u64(), 0u);
  EXPECT_THROW((BigInt{1} << 64).to_u64(), std::overflow_error);
  EXPECT_THROW(BigInt{-1}.to_u64(), std::overflow_error);
}

TEST(BigInt, RandomBitsWidthExact) {
  TestRng rng(13);
  for (std::size_t bits : {1u, 2u, 8u, 63u, 64u, 65u, 257u}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(BigInt::random_bits(rng, bits).bit_length(), bits);
    }
  }
}

TEST(BigInt, RandomBelowInRange) {
  TestRng rng(14);
  BigInt bound = BigInt::from_dec("1000000000000000000000000");
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::random_below(rng, bound);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.is_negative());
  }
  EXPECT_THROW(BigInt::random_below(rng, BigInt{}), std::invalid_argument);
}

TEST(BigInt, KaratsubaMatchesSchoolbook) {
  // Products far wider than any the program forms (47×44 limbs); verify
  // the schoolbook product against the multiply-by-parts identity
  // (a*2^k + b)(c*2^k + d).
  TestRng rng(15);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_bits(rng, 3000);
    BigInt b = BigInt::random_bits(rng, 2800);
    BigInt lo_a = a % (BigInt{1} << 1500), hi_a = a >> 1500;
    BigInt lo_b = b % (BigInt{1} << 1400), hi_b = b >> 1400;
    BigInt expected = (hi_a << 1500) * (hi_b << 1400) +
                      (hi_a << 1500) * lo_b + lo_a * (hi_b << 1400) +
                      lo_a * lo_b;
    EXPECT_EQ(a * b, expected);
  }
}

TEST(BigInt, AbsAndNegation) {
  EXPECT_EQ(BigInt{-5}.abs(), BigInt{5});
  EXPECT_EQ(BigInt{5}.abs(), BigInt{5});
  EXPECT_EQ(-BigInt{5}, BigInt{-5});
  EXPECT_EQ(-BigInt{}, BigInt{});
}

}  // namespace
}  // namespace p3s::math
