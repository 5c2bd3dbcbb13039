#include "math/modular.hpp"

#include <array>
#include <stdexcept>

#include "math/montgomery.hpp"

namespace p3s::math {

BigInt mod(const BigInt& a, const BigInt& m) {
  BigInt r = a % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt r = a + b;
  if (r >= m) r -= m;
  return r;
}

BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt r = a - b;
  if (r.is_negative()) r += m;
  return r;
}

BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return mod(a * b, m);
}

BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (exp.is_negative()) throw std::invalid_argument("mod_pow: negative exponent");
  if (m == BigInt{1}) return BigInt{};
  const BigInt b = mod(base, m);
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return BigInt{1};

  // Montgomery fast path: for odd moduli and long exponents the per-call
  // context setup amortizes well below the division-based reduction cost.
  if (m.is_odd() && m.bit_length() >= 128 && bits >= 64) {
    return Montgomery(m).pow(b, exp);
  }

  // Precompute b^0..b^15 for a 4-bit fixed window.
  std::array<BigInt, 16> table;
  table[0] = BigInt{1};
  table[1] = b;
  for (int i = 2; i < 16; ++i) table[i] = mod_mul(table[i - 1], b, m);

  const std::size_t windows = (bits + 3) / 4;
  BigInt acc{1};
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) acc = mod_mul(acc, acc, m);
    unsigned nib = 0;
    for (int i = 3; i >= 0; --i) {
      nib = (nib << 1) | (exp.bit(w * 4 + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    if (nib != 0) acc = mod_mul(acc, table[nib], m);
  }
  return acc;
}

BigInt gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt mod_inv(const BigInt& a, const BigInt& m) {
  // Extended Euclid keeping only the coefficient of a.
  BigInt r0 = m, r1 = mod(a, m);
  BigInt t0{}, t1{1};
  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::divmod(r0, r1);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt{1}) throw std::domain_error("mod_inv: not invertible");
  return mod(t0, m);
}

bool is_quadratic_residue(const BigInt& a, const BigInt& p) {
  if (a.is_zero()) return true;
  const BigInt e = (p - BigInt{1}) >> 1;
  return mod_pow(a, e, p) == BigInt{1};
}

BigInt mod_sqrt_3mod4(const BigInt& a, const BigInt& p) {
  if ((p % BigInt{4}) != BigInt{3}) {
    throw std::domain_error("mod_sqrt_3mod4: p % 4 != 3");
  }
  const BigInt r = mod_pow(a, (p + BigInt{1}) >> 2, p);
  if (mod_mul(r, r, p) != mod(a, p)) {
    throw std::domain_error("mod_sqrt_3mod4: not a quadratic residue");
  }
  return r;
}

}  // namespace p3s::math
