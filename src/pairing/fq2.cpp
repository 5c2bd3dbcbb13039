#include "pairing/fq2.hpp"

#include <stdexcept>

#include "pairing/fq_mont.hpp"

namespace p3s::pairing {

using math::mod;
using math::mod_add;
using math::mod_inv;
using math::mod_mul;
using math::mod_sub;

Fq2 fq2_zero() { return {BigInt{}, BigInt{}}; }
Fq2 fq2_one() { return {BigInt{1}, BigInt{}}; }

bool fq2_is_zero(const Fq2& x) { return x.a.is_zero() && x.b.is_zero(); }
bool fq2_is_one(const Fq2& x) { return x.a == BigInt{1} && x.b.is_zero(); }

Fq2 fq2_add(const Fq2& x, const Fq2& y, const BigInt& q) {
  return {mod_add(x.a, y.a, q), mod_add(x.b, y.b, q)};
}

Fq2 fq2_sub(const Fq2& x, const Fq2& y, const BigInt& q) {
  return {mod_sub(x.a, y.a, q), mod_sub(x.b, y.b, q)};
}

Fq2 fq2_neg(const Fq2& x, const BigInt& q) {
  return {mod_sub(BigInt{}, x.a, q), mod_sub(BigInt{}, x.b, q)};
}

Fq2 fq2_mul(const Fq2& x, const Fq2& y, const BigInt& q) {
  // (a1 + b1 i)(a2 + b2 i) = (a1a2 - b1b2) + (a1b2 + b1a2) i
  // Karatsuba-style: 3 base multiplications.
  const BigInt t0 = mod_mul(x.a, y.a, q);
  const BigInt t1 = mod_mul(x.b, y.b, q);
  const BigInt t2 =
      mod_mul(mod_add(x.a, x.b, q), mod_add(y.a, y.b, q), q);
  return {mod_sub(t0, t1, q), mod_sub(mod_sub(t2, t0, q), t1, q)};
}

Fq2 fq2_sqr(const Fq2& x, const BigInt& q) {
  // (a + bi)^2 = (a+b)(a-b) + 2ab i
  const BigInt t0 = mod_mul(mod_add(x.a, x.b, q), mod_sub(x.a, x.b, q), q);
  const BigInt t1 = mod_mul(x.a, x.b, q);
  return {t0, mod_add(t1, t1, q)};
}

Fq2 fq2_conj(const Fq2& x, const BigInt& q) {
  return {x.a, mod_sub(BigInt{}, x.b, q)};
}

Fq2 fq2_inv(const Fq2& x, const BigInt& q) {
  if (fq2_is_zero(x)) throw std::domain_error("fq2_inv: zero");
  // 1/(a+bi) = (a-bi)/(a^2+b^2)
  const BigInt norm =
      mod_add(mod_mul(x.a, x.a, q), mod_mul(x.b, x.b, q), q);
  const BigInt ninv = mod_inv(norm, q);
  return {mod_mul(x.a, ninv, q), mod_mul(mod_sub(BigInt{}, x.b, q), ninv, q)};
}

Fq2 fq2_pow(const Fq2& x, const BigInt& e, const BigInt& q) {
  if (e.is_negative()) throw std::invalid_argument("fq2_pow: negative exponent");
  Fq2 acc = fq2_one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = fq2_sqr(acc, q);
    if (e.bit(i)) acc = fq2_mul(acc, x, q);
  }
  return acc;
}

Fq2 fq2_pow(const Fq2& x, const BigInt& e, const math::Montgomery& mq) {
  if (e.is_negative()) throw std::invalid_argument("fq2_pow: negative exponent");
  const fqm::Fe2 xm{fqm::fe_from(mq, x.a), fqm::fe_from(mq, x.b)};
  const fqm::Fe2 r = fqm::fe2_pow(mq, xm, e);
  return {fqm::fe_to(mq, r.a), fqm::fe_to(mq, r.b)};
}

}  // namespace p3s::pairing
