// Fixed-width Montgomery-domain elements of F_q and F_q² — the one
// representation of field elements, curve points (pairing::Point) and GT
// elements (pairing::Fq2 is Fe2). A value is a flat array of
// math::Montgomery::kMaxFixedLimbs 64-bit limbs; only the context's
// limb_count() low limbs are significant (3 in the test group, 8 in the
// paper group) and the rest stay zero, so == compares values. Every
// operation below ends in Montgomery::mul_limbs/add_limbs/sub_limbs (and
// fe_inv in inv_limbs), which pick a kernel compiled for the context's
// limb count, so the Miller loop, scalar multiplication and GT arithmetic
// run unrolled limb loops with zero heap allocations; BigInt appears only
// at the boundaries (fe_from/fe_to).
// There is no fallback for wider moduli: Pairing refuses a q wider than
// 512 bits, the kernels throw std::logic_error for such a context, and so
// do fe_pack and fe_unpack, where BigInts enter and leave an Fe.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "math/montgomery.hpp"

namespace p3s::pairing::fqm {

using math::BigInt;
using math::Montgomery;

inline constexpr std::size_t kMaxLimbs = Montgomery::kMaxFixedLimbs;

/// Residue mod q in Montgomery form (or plain form where noted).
struct Fe {
  std::array<std::uint64_t, kMaxLimbs> w{};

  bool operator==(const Fe&) const = default;
};

/// Element a + b·i of F_q², both coordinates in Montgomery form.
struct Fe2 {
  Fe a, b;

  bool operator==(const Fe2&) const = default;
};

inline bool fe_is_zero(const Fe& x, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    if (x.w[i] != 0) return false;
  }
  return true;
}

/// Pack a BigInt already reduced into [0, q) without domain conversion.
/// Throws std::logic_error if it has more than kMaxLimbs limbs.
inline Fe fe_pack(const BigInt& v) {
  Fe out;
  const auto& limbs = v.limbs();
  if (limbs.size() > kMaxLimbs) {
    throw std::logic_error("fe_pack: value wider than the fixed limbs");
  }
  for (std::size_t i = 0; i < limbs.size(); ++i) out.w[i] = limbs[i];
  return out;
}

/// The k low limbs of x as a BigInt, without domain conversion. Throws
/// std::logic_error if k exceeds kMaxLimbs.
inline BigInt fe_unpack(const Fe& x, std::size_t k) {
  if (k > kMaxLimbs) {
    throw std::logic_error("fe_unpack: context wider than the fixed limbs");
  }
  return BigInt::from_limbs_le(
      std::vector<std::uint64_t>(x.w.begin(), x.w.begin() + k));
}

/// plain BigInt in [0, q) -> Montgomery-form Fe: one product by R² mod q.
inline Fe fe_from(const Montgomery& m, const BigInt& plain) {
  Fe out;
  m.mul_limbs(fe_pack(plain).w.data(), fe_pack(m.r2()).w.data(), out.w.data());
  return out;
}

/// Montgomery-form Fe -> plain BigInt: one product by 1.
inline BigInt fe_to(const Montgomery& m, const Fe& x) {
  Fe one, plain;
  one.w[0] = 1;
  m.mul_limbs(x.w.data(), one.w.data(), plain.w.data());
  return fe_unpack(plain, m.limb_count());
}

/// 1 in Montgomery form (R mod q), read from the context.
inline Fe fe_one(const Montgomery& m) { return fe_pack(m.one_mont()); }

inline void fe_add(const Montgomery& m, const Fe& x, const Fe& y, Fe& out) {
  m.add_limbs(x.w.data(), y.w.data(), out.w.data());
}

inline void fe_sub(const Montgomery& m, const Fe& x, const Fe& y, Fe& out) {
  m.sub_limbs(x.w.data(), y.w.data(), out.w.data());
}

inline void fe_mul(const Montgomery& m, const Fe& x, const Fe& y, Fe& out) {
  m.mul_limbs(x.w.data(), y.w.data(), out.w.data());
}

inline void fe_sqr(const Montgomery& m, const Fe& x, Fe& out) {
  m.mul_limbs(x.w.data(), x.w.data(), out.w.data());
}

inline void fe_dbl(const Montgomery& m, const Fe& x, Fe& out) {
  m.add_limbs(x.w.data(), x.w.data(), out.w.data());
}

inline Fe fe_neg(const Montgomery& m, const Fe& x) {
  Fe zero, out;
  m.sub_limbs(zero.w.data(), x.w.data(), out.w.data());
  return out;
}

/// x^e (e >= 0) by square-and-multiply: ~1.5·log₂e F_q multiplications
/// with no heap traffic.
inline Fe fe_pow(const Montgomery& m, const Fe& x, const BigInt& e) {
  Fe acc = fe_one(m);
  for (std::size_t bit = e.bit_length(); bit-- > 0;) {
    fe_sqr(m, acc, acc);
    if (e.bit(bit)) fe_mul(m, acc, x, acc);
  }
  return acc;
}

/// x⁻¹ by Montgomery::inv_limbs, the constant-time safegcd kept out of
/// line in montgomery.cpp (Montgomery form in and out). Throws
/// std::domain_error on zero.
inline Fe fe_inv(const Montgomery& m, const Fe& x) {
  if (fe_is_zero(x, m.limb_count())) throw std::domain_error("fe_inv: zero");
  Fe out;
  m.inv_limbs(x.w.data(), out.w.data());
  return out;
}

/// Karatsuba-style product: 3 F_q multiplications. out must not alias x/y.
inline void fe2_mul(const Montgomery& m, const Fe2& x, const Fe2& y, Fe2& out) {
  Fe t0, t1, sx, sy, t2;
  fe_mul(m, x.a, y.a, t0);
  fe_mul(m, x.b, y.b, t1);
  fe_add(m, x.a, x.b, sx);
  fe_add(m, y.a, y.b, sy);
  fe_mul(m, sx, sy, t2);
  fe_sub(m, t0, t1, out.a);
  fe_sub(m, t2, t0, t2);
  fe_sub(m, t2, t1, out.b);
}

/// (a + bi)² = (a+b)(a−b) + 2ab·i: 2 F_q multiplications. out may alias x.
inline void fe2_sqr(const Montgomery& m, const Fe2& x, Fe2& out) {
  Fe s, d, t0, t1;
  fe_add(m, x.a, x.b, s);
  fe_sub(m, x.a, x.b, d);
  fe_mul(m, s, d, t0);
  fe_mul(m, x.a, x.b, t1);
  out.a = t0;
  fe_dbl(m, t1, out.b);
}

inline Fe2 fe2_conj(const Montgomery& m, const Fe2& x) {
  return {x.a, fe_neg(m, x.b)};
}

inline Fe2 fe2_one(const Montgomery& m) { return {fe_one(m), Fe{}}; }

/// 1/(a + bi) = (a − bi)/(a² + b²): the norm is nonzero for x ≠ 0 because
/// −1 is a non-residue (q ≡ 3 mod 4). A norm of 1 — every element of GT —
/// skips the F_q inversion: the inverse is then the conjugate. Throws
/// std::domain_error on zero.
inline Fe2 fe2_inv(const Montgomery& m, const Fe2& x) {
  Fe na, nb, norm;
  fe_sqr(m, x.a, na);
  fe_sqr(m, x.b, nb);
  fe_add(m, na, nb, norm);
  if (norm == fe_one(m)) return fe2_conj(m, x);
  const Fe norm_inv = fe_inv(m, norm);
  Fe2 out;
  fe_mul(m, x.a, norm_inv, out.a);
  fe_mul(m, fe_neg(m, x.b), norm_inv, out.b);
  return out;
}

/// x^e (e >= 0) by 4-bit fixed-window exponentiation.
inline Fe2 fe2_pow(const Montgomery& m, const Fe2& x, const BigInt& e) {
  const Fe2 one = fe2_one(m);
  const std::size_t bits = e.bit_length();
  if (bits == 0) return one;
  std::array<Fe2, 16> table;
  table[0] = one;
  table[1] = x;
  for (int i = 2; i < 16; ++i) fe2_mul(m, table[i - 1], x, table[i]);
  Fe2 acc = one;
  const std::size_t windows = (bits + 3) / 4;
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) fe2_sqr(m, acc, acc);
    unsigned nib = 0;
    for (int i = 3; i >= 0; --i) {
      nib = (nib << 1) |
            (e.bit(w * 4 + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    if (nib != 0) {
      Fe2 next;
      fe2_mul(m, acc, table[nib], next);
      acc = next;
    }
  }
  return acc;
}

}  // namespace p3s::pairing::fqm
