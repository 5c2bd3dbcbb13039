// Quadratic extension field F_q² = F_q[i]/(i²+1), valid because the Type-A
// pairing prime satisfies q ≡ 3 (mod 4) so -1 is a non-residue.
#pragma once

#include "math/bigint.hpp"
#include "math/modular.hpp"
#include "math/montgomery.hpp"

namespace p3s::pairing {

using math::BigInt;

/// Element a + b·i of F_q². Operations take the modulus explicitly; the
/// Pairing context owns it.
struct Fq2 {
  BigInt a;  // real part
  BigInt b;  // imaginary part

  bool operator==(const Fq2&) const = default;
};

Fq2 fq2_zero();
Fq2 fq2_one();
bool fq2_is_zero(const Fq2& x);
bool fq2_is_one(const Fq2& x);

Fq2 fq2_add(const Fq2& x, const Fq2& y, const BigInt& q);
Fq2 fq2_sub(const Fq2& x, const Fq2& y, const BigInt& q);
Fq2 fq2_neg(const Fq2& x, const BigInt& q);
Fq2 fq2_mul(const Fq2& x, const Fq2& y, const BigInt& q);
Fq2 fq2_sqr(const Fq2& x, const BigInt& q);
/// Conjugate a - b·i; equals the q-power Frobenius for q ≡ 3 (mod 4).
Fq2 fq2_conj(const Fq2& x, const BigInt& q);
/// Multiplicative inverse; throws std::domain_error on zero.
Fq2 fq2_inv(const Fq2& x, const BigInt& q);
/// x^e with e >= 0 by plain square-and-multiply, for any width of q: the
/// reference the Montgomery overload below is tested against.
Fq2 fq2_pow(const Fq2& x, const BigInt& e, const BigInt& q);
/// x^e with e >= 0 by 4-bit window exponentiation on fixed Montgomery-domain
/// limbs over a prebuilt context for q (no per-call context setup, no
/// allocation). Throws std::logic_error when q exceeds
/// math::Montgomery::kMaxFixedLimbs limbs.
Fq2 fq2_pow(const Fq2& x, const BigInt& e, const math::Montgomery& mq);

}  // namespace p3s::pairing
