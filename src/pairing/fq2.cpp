#include "pairing/fq2.hpp"

#include <stdexcept>

#include "math/modular.hpp"

namespace p3s::pairing {

using math::mod_add;
using math::mod_sub;

Fq2 fq2_from(const math::Montgomery& mq, const BigInt& a, const BigInt& b) {
  return {fqm::fe_from(mq, a), fqm::fe_from(mq, b)};
}

BigFq2 fq2_mul(const BigFq2& x, const BigFq2& y, const math::Montgomery& mq) {
  // (a1 + b1 i)(a2 + b2 i) = (a1a2 - b1b2) + (a1b2 + b1a2) i
  // Karatsuba-style: 3 base multiplications.
  const BigInt& q = mq.modulus();
  const BigInt t0 = mq.mul(x.a, y.a);
  const BigInt t1 = mq.mul(x.b, y.b);
  const BigInt t2 = mq.mul(mod_add(x.a, x.b, q), mod_add(y.a, y.b, q));
  return {mod_sub(t0, t1, q), mod_sub(mod_sub(t2, t0, q), t1, q)};
}

BigFq2 fq2_sqr(const BigFq2& x, const math::Montgomery& mq) {
  // (a + bi)^2 = (a+b)(a-b) + 2ab i
  const BigInt& q = mq.modulus();
  const BigInt t0 = mq.mul(mod_add(x.a, x.b, q), mod_sub(x.a, x.b, q));
  const BigInt t1 = mq.mul(x.a, x.b);
  return {t0, mod_add(t1, t1, q)};
}

Fq2 fq2_pow(const Fq2& x, const BigInt& e, const math::Montgomery& mq) {
  if (e.is_negative()) throw std::invalid_argument("fq2_pow: negative exponent");
  const std::size_t k = mq.limb_count();
  const BigFq2 base{fqm::fe_unpack(x.a, k), fqm::fe_unpack(x.b, k)};
  BigFq2 acc{mq.one_mont(), BigInt{}};
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = fq2_sqr(acc, mq);
    if (e.bit(i)) acc = fq2_mul(acc, base, mq);
  }
  return {fqm::fe_pack(acc.a), fqm::fe_pack(acc.b)};
}

}  // namespace p3s::pairing
