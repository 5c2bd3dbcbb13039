// Quadratic extension field F_q² = F_q[i]/(i²+1), valid because the Type-A
// pairing prime satisfies q ≡ 3 (mod 4) so -1 is a non-residue.
#pragma once

#include "math/bigint.hpp"
#include "math/montgomery.hpp"
#include "pairing/fq_mont.hpp"

namespace p3s::pairing {

using math::BigInt;

/// Element a + b·i of F_q², both coordinates in Montgomery form; the GT
/// type. Its arithmetic is fqm::fe2_* (or Pairing::gt_*).
using Fq2 = fqm::Fe2;

/// The element a + b·i from plain coordinates a, b in [0, q).
Fq2 fq2_from(const math::Montgomery& mq, const BigInt& a, const BigInt& b);

// The references' F_q² arithmetic, independent of the fixed-limb kernels:
// coordinates are Montgomery-form BigInts and every product is a
// math::Montgomery::mul.

/// a + b·i with Montgomery-form BigInt coordinates in [0, q).
struct BigFq2 {
  BigInt a, b;
};
BigFq2 fq2_mul(const BigFq2& x, const BigFq2& y, const math::Montgomery& mq);
BigFq2 fq2_sqr(const BigFq2& x, const math::Montgomery& mq);

/// x^e with e >= 0 by plain square-and-multiply on BigFq2: the reference
/// fqm::fe2_pow is tested against. Unpacks x's limbs at entry and packs
/// the result at exit; throws std::logic_error when q exceeds
/// math::Montgomery::kMaxFixedLimbs limbs.
Fq2 fq2_pow(const Fq2& x, const BigInt& e, const math::Montgomery& mq);

}  // namespace p3s::pairing
