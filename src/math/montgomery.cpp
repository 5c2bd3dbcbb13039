#include "math/montgomery.hpp"

#include <array>
#include <stdexcept>
#include <type_traits>

#include "math/modular.hpp"

namespace p3s::math {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// -x⁻¹ mod 2^64 for odd x (Newton–Hensel lifting: 6 iterations double the
// precision each time: 2, 4, 8, 16, 32, 64 bits).
u64 neg_inv64(u64 x) {
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
  return ~inv + 1;  // -inv
}
}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (n_ <= BigInt{1} || n_.is_even()) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  n_limbs_ = n_.limbs();
  n0_inv_ = neg_inv64(n_limbs_[0]);
  // R² mod n by repeated modular doubling of R mod n.
  const std::size_t k = n_limbs_.size();
  BigInt r = mod(BigInt{1} << (64 * k), n_);
  one_mont_ = r;
  BigInt r2 = r;
  for (std::size_t i = 0; i < 64 * k; ++i) {
    r2 = mod_add(r2, r2, n_);
  }
  r2_ = r2;
}

std::vector<u64> Montgomery::mont_mul_limbs(const std::vector<u64>& a,
                                            const std::vector<u64>& b) const {
  // CIOS (coarsely integrated operand scanning), Koç et al.
  const std::size_t k = n_limbs_.size();
  std::vector<u64> t(k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const u128 ai = i < a.size() ? a[i] : 0;
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 bj = j < b.size() ? b[j] : 0;
      const u128 cur = static_cast<u128>(t[j]) + ai * bj + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);

    // Reduce: add m·n and shift one word.
    const u64 m = t[0] * n0_inv_;
    u128 acc = static_cast<u128>(t[0]) + static_cast<u128>(m) * n_limbs_[0];
    carry = static_cast<u64>(acc >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      acc = static_cast<u128>(t[j]) + static_cast<u128>(m) * n_limbs_[j] + carry;
      t[j - 1] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    acc = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(acc);
    t[k] = t[k + 1] + static_cast<u64>(acc >> 64);
    t[k + 1] = 0;
  }
  t.resize(k + 1);
  return t;
}

namespace {
// The fixed-limb kernels, one instance per limb count K. Every loop has a
// compile-time trip count; `#pragma GCC unroll` unrolls them fully at -O2
// too, so the accumulator and the carry chains live in registers. Every
// kernel returns the unique representative in [0, n), so the results equal
// mont_mul_limbs and the BigInt mod_add/mod_sub bit for bit.

// True iff a >= b (little-endian).
template <std::size_t K>
bool ge_k(const u64* a, const u64* b) {
  for (std::size_t i = K; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// out = a + b; returns the final carry.
template <std::size_t K>
u64 add_carry_k(const u64* a, const u64* b, u64* out) {
  u64 carry = 0;
  #pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return carry;
}

// out = a - b; returns the final borrow.
template <std::size_t K>
u64 sub_borrow_k(const u64* a, const u64* b, u64* out) {
  u64 borrow = 0;
  #pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

// (top:acc) += x·y on the three-word column accumulator.
inline void mac(u128& acc, u64& top, u64 x, u64 y) {
  const u128 p = static_cast<u128>(x) * y;
  acc += p;
  top += acc < p ? 1 : 0;
}

// Drops the accumulator's low word (it is zero or an output word).
inline void shift_word(u128& acc, u64& top) {
  acc = (acc >> 64) | (static_cast<u128>(top) << 64);
  top = 0;
}

// Montgomery product by finely integrated product scanning (FIPS, Koç et
// al.): column i of a·b + m·n is summed in one pass, m_i chosen so that
// column i < K ends in a zero word, and the upper K columns are the result.
// A column holds at most 2K + 1 products' worth (< 2^133 at K = 8), so
// 192 accumulator bits never overflow.
template <std::size_t K>
void mul_k(const u64* a, const u64* b, const u64* n, u64 n0_inv, u64* out) {
  u64 m[K];
  u64 t[K + 1];
  u128 acc = 0;
  u64 top = 0;
  #pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) {
    #pragma GCC unroll 8
    for (std::size_t j = 0; j < i; ++j) {
      mac(acc, top, a[j], b[i - j]);
      mac(acc, top, m[j], n[i - j]);
    }
    mac(acc, top, a[i], b[0]);
    m[i] = static_cast<u64>(acc) * n0_inv;
    mac(acc, top, m[i], n[0]);
    shift_word(acc, top);
  }
  #pragma GCC unroll 8
  for (std::size_t i = K; i + 1 < 2 * K; ++i) {
    #pragma GCC unroll 8
    for (std::size_t j = i + 1 - K; j < K; ++j) {
      mac(acc, top, a[j], b[i - j]);
      mac(acc, top, m[j], n[i - j]);
    }
    t[i - K] = static_cast<u64>(acc);
    shift_word(acc, top);
  }
  t[K - 1] = static_cast<u64>(acc);
  t[K] = static_cast<u64>(acc >> 64);
  // (a·b + m·n)/R < 2n, so t[K] is the only possible carry bit and one
  // conditional subtraction normalizes into [0, n).
  if (t[K] != 0 || ge_k<K>(t, n)) sub_borrow_k<K>(t, n, t);
  #pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) out[i] = t[i];
}

template <std::size_t K>
void add_k(const u64* a, const u64* b, const u64* n, u64* out) {
  u64 t[K];
  if (add_carry_k<K>(a, b, t) != 0 || ge_k<K>(t, n)) sub_borrow_k<K>(t, n, t);
  #pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) out[i] = t[i];
}

template <std::size_t K>
void sub_k(const u64* a, const u64* b, const u64* n, u64* out) {
  u64 t[K];
  if (sub_borrow_k<K>(a, b, t) != 0) add_carry_k<K>(t, n, t);
  #pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) out[i] = t[i];
}

// Calls f(std::integral_constant<std::size_t, K>) for the runtime limb
// count k: the one switch that picks a kernel instance.
template <class F>
void with_limb_count(std::size_t k, F&& f) {
  switch (k) {
    case 1: return f(std::integral_constant<std::size_t, 1>{});
    case 2: return f(std::integral_constant<std::size_t, 2>{});
    case 3: return f(std::integral_constant<std::size_t, 3>{});
    case 4: return f(std::integral_constant<std::size_t, 4>{});
    case 5: return f(std::integral_constant<std::size_t, 5>{});
    case 6: return f(std::integral_constant<std::size_t, 6>{});
    case 7: return f(std::integral_constant<std::size_t, 7>{});
    case 8: return f(std::integral_constant<std::size_t, 8>{});
    default:
      throw std::logic_error("Montgomery: modulus too wide for fixed limbs");
  }
}
static_assert(Montgomery::kMaxFixedLimbs == 8, "with_limb_count covers 1..8");
}  // namespace

void Montgomery::mul_limbs(const u64* a, const u64* b, u64* out) const {
  with_limb_count(n_limbs_.size(), [&](auto k) {
    mul_k<k>(a, b, n_limbs_.data(), n0_inv_, out);
  });
}

void Montgomery::add_limbs(const u64* a, const u64* b, u64* out) const {
  with_limb_count(n_limbs_.size(),
                  [&](auto k) { add_k<k>(a, b, n_limbs_.data(), out); });
}

void Montgomery::sub_limbs(const u64* a, const u64* b, u64* out) const {
  with_limb_count(n_limbs_.size(),
                  [&](auto k) { sub_k<k>(a, b, n_limbs_.data(), out); });
}

BigInt Montgomery::mul(const BigInt& a_mont, const BigInt& b_mont) const {
  BigInt result =
      BigInt::from_limbs_le(mont_mul_limbs(a_mont.limbs(), b_mont.limbs()));
  // CIOS leaves the result < 2n; one conditional subtraction normalizes.
  if (result >= n_) result -= n_;
  return result;
}

BigInt Montgomery::to_mont(const BigInt& a) const { return mul(a, r2_); }

BigInt Montgomery::from_mont(const BigInt& a_mont) const {
  return mul(a_mont, BigInt{1});
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("Montgomery::pow: negative exponent");
  }
  const BigInt b = to_mont(mod(base, n_));
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return mod(BigInt{1}, n_);

  std::array<BigInt, 16> table;
  table[0] = one_mont_;
  table[1] = b;
  for (int i = 2; i < 16; ++i) table[i] = mul(table[i - 1], b);

  const std::size_t windows = (bits + 3) / 4;
  BigInt acc = one_mont_;
  for (std::size_t w = windows; w-- > 0;) {
    for (int i = 0; i < 4; ++i) acc = mul(acc, acc);
    unsigned nib = 0;
    for (int i = 3; i >= 0; --i) {
      nib = (nib << 1) |
            (exp.bit(w * 4 + static_cast<std::size_t>(i)) ? 1u : 0u);
    }
    if (nib != 0) acc = mul(acc, table[nib]);
  }
  return from_mont(acc);
}

}  // namespace p3s::math
