#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "math/modular.hpp"
#include "math/prime.hpp"

namespace p3s::math {
namespace {

TEST(Modular, ModNormalizesNegative) {
  EXPECT_EQ(mod(BigInt{-1}, BigInt{7}), BigInt{6});
  EXPECT_EQ(mod(BigInt{13}, BigInt{7}), BigInt{6});
  EXPECT_EQ(mod(BigInt{-14}, BigInt{7}), BigInt{});
}

TEST(Modular, AddSubWithinRange) {
  const BigInt m{7};
  EXPECT_EQ(mod_add(BigInt{5}, BigInt{4}, m), BigInt{2});
  EXPECT_EQ(mod_sub(BigInt{2}, BigInt{5}, m), BigInt{4});
  EXPECT_EQ(mod_sub(BigInt{5}, BigInt{2}, m), BigInt{3});
}

TEST(Modular, ModPowSmall) {
  EXPECT_EQ(mod_pow(BigInt{2}, BigInt{10}, BigInt{1000}), BigInt{24});
  EXPECT_EQ(mod_pow(BigInt{3}, BigInt{}, BigInt{7}), BigInt{1});
  EXPECT_EQ(mod_pow(BigInt{3}, BigInt{1}, BigInt{7}), BigInt{3});
  EXPECT_EQ(mod_pow(BigInt{5}, BigInt{100}, BigInt{1}), BigInt{});
}

TEST(Modular, FermatLittleTheorem) {
  TestRng rng(21);
  const BigInt p = random_prime(rng, 128);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt{1} + BigInt::random_below(rng, p - BigInt{1});
    EXPECT_EQ(mod_pow(a, p - BigInt{1}, p), BigInt{1});
  }
}

TEST(Modular, ModPowMatchesNaive) {
  TestRng rng(22);
  const BigInt m{1000003};
  for (int i = 0; i < 30; ++i) {
    std::uint64_t base = rng.uniform(1000003);
    std::uint64_t exp = rng.uniform(50);
    BigInt naive{1};
    for (std::uint64_t j = 0; j < exp; ++j) {
      naive = mod_mul(naive, BigInt{base}, m);
    }
    EXPECT_EQ(mod_pow(BigInt{base}, BigInt{exp}, m), naive);
  }
}

TEST(Modular, InverseRoundTrip) {
  TestRng rng(23);
  const BigInt p = random_prime(rng, 192);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt{1} + BigInt::random_below(rng, p - BigInt{1});
    BigInt inv = mod_inv(a, p);
    EXPECT_EQ(mod_mul(a, inv, p), BigInt{1});
  }
}

TEST(Modular, InverseOfNonInvertibleThrows) {
  EXPECT_THROW(mod_inv(BigInt{6}, BigInt{9}), std::domain_error);
  EXPECT_THROW(mod_inv(BigInt{}, BigInt{7}), std::domain_error);
}

TEST(Modular, InverseCompositeModulus) {
  // 5 is invertible mod 12.
  EXPECT_EQ(mod_inv(BigInt{5}, BigInt{12}), BigInt{5});
}

TEST(Modular, Gcd) {
  EXPECT_EQ(gcd(BigInt{12}, BigInt{18}), BigInt{6});
  EXPECT_EQ(gcd(BigInt{-12}, BigInt{18}), BigInt{6});
  EXPECT_EQ(gcd(BigInt{}, BigInt{5}), BigInt{5});
  EXPECT_EQ(gcd(BigInt{17}, BigInt{13}), BigInt{1});
}

TEST(Modular, QuadraticResidue) {
  const BigInt p{23};  // squares mod 23: 1,2,3,4,6,8,9,12,13,16,18
  EXPECT_TRUE(is_quadratic_residue(BigInt{4}, p));
  EXPECT_TRUE(is_quadratic_residue(BigInt{2}, p));
  EXPECT_FALSE(is_quadratic_residue(BigInt{5}, p));
  EXPECT_TRUE(is_quadratic_residue(BigInt{}, p));
}

TEST(Modular, Sqrt3Mod4) {
  TestRng rng(24);
  // Find a 3-mod-4 prime.
  BigInt p;
  do {
    p = random_prime(rng, 160);
  } while ((p % BigInt{4}) != BigInt{3});
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(rng, p);
    BigInt sq = mod_mul(a, a, p);
    BigInt r = mod_sqrt_3mod4(sq, p);
    EXPECT_EQ(mod_mul(r, r, p), sq);
  }
}

TEST(Modular, SqrtRejectsNonResidue) {
  const BigInt p{23};
  EXPECT_THROW(mod_sqrt_3mod4(BigInt{5}, p), std::domain_error);
  EXPECT_THROW(mod_sqrt_3mod4(BigInt{4}, BigInt{13}), std::domain_error);  // 13%4==1
}

}  // namespace
}  // namespace p3s::math
