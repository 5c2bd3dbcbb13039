// Modular arithmetic on BigInt: the helpers needed by finite fields and the
// pairing layer. All functions expect a positive modulus.
#pragma once

#include "math/bigint.hpp"

namespace p3s::math {

/// a mod m, normalized into [0, m).
BigInt mod(const BigInt& a, const BigInt& m);

/// (a + b) mod m with both inputs already in [0, m).
BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m);

/// (a - b) mod m with both inputs already in [0, m).
BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m);

/// (a * b) mod m.
BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);

/// base^exp mod m (exp >= 0). Fixed 4-bit window exponentiation.
BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

/// Multiplicative inverse of a mod m. Throws std::domain_error if
/// gcd(a, m) != 1.
BigInt mod_inv(const BigInt& a, const BigInt& m);

/// Greatest common divisor (non-negative).
BigInt gcd(BigInt a, BigInt b);

/// Legendre symbol helper: true iff a is a quadratic residue mod odd prime p
/// (a must be in [0, p); 0 counts as a residue).
bool is_quadratic_residue(const BigInt& a, const BigInt& p);

/// Square root mod a prime p with p % 4 == 3 (the only case the Type-A
/// pairing curve needs): returns r with r^2 = a (mod p). Throws
/// std::domain_error if a is not a residue or p % 4 != 3.
BigInt mod_sqrt_3mod4(const BigInt& a, const BigInt& p);

}  // namespace p3s::math
