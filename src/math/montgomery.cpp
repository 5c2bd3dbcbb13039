#include "math/montgomery.hpp"

#include <algorithm>
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

// --- Safegcd inversion (Bernstein–Yang) --------------------------------------
// Values are signed integers in K + 1 limbs of 62 bits, v = Σ v[i]·2^(62i):
// every limb below the top in [0, 2^62), the top limb signed, so the top
// limb carries the sign. K + 1 limbs hold any (2n)-sized value since
// 62·(K + 1) > 64·K + 1 for K < 31. The divstep is the original one with
// δ = 1 (the paper's §11, whose bound sets the batch count):
//   δ > 0 and g odd:  (δ, f, g) → (1 − δ, g, (g − f)/2)
//   otherwise:        (δ, f, g) → (1 + δ, f, (g + (g mod 2)·f)/2)
// Started from (1, n, a) with d = 0 and e = 1, the kernel keeps
// d·a ≡ f and e·a ≡ g (mod n), so once g = 0 and f = ±1, a⁻¹ = ±d.
// Every step and update below is branch-free; the loop counts depend on K
// and n's bit length only.

using i64 = std::int64_t;
using i128 = __int128;
constexpr u64 kLimb62 = ~u64{0} >> 2;
static_assert(Montgomery::kMaxFixedLimbs < 31,
              "K + 1 signed 62-bit limbs hold a K-word value");

// The matrix of one batch of divsteps, scaled by 2^62: the batch takes
// (f, g) to ((u·f + v·g)/2^62, (q·f + r·g)/2^62). |u| + |v| and |q| + |r|
// are at most 2^62.
struct Trans62 {
  i64 u, v, q, r;
};

// A value barrier: the compiler can no longer tell a mask from any other
// word, so it cannot turn the mask arithmetic back into branches.
inline u64 opaque(u64 x) {
  __asm__ __volatile__("" : "+r"(x));
  return x;
}

// s <= 62 divsteps on the low words of f and g, which fix every step's
// parity, from the identity scaled by 2^(62−s). Returns the new δ.
i64 divsteps(i64 delta, u64 f, u64 g, std::size_t s, Trans62& t) {
  u64 u = u64{1} << (62 - s), v = 0, q = 0, r = u;
  for (std::size_t i = 0; i < s; ++i) {
    // Masks: all ones for δ > 0, and for g odd.
    const u64 pos = opaque(static_cast<u64>(-delta >> 63));
    const u64 odd = opaque(~(g & 1) + 1);
    // g odd: g += f, or g −= f when δ > 0 (likewise the matrix rows).
    g += ((f ^ pos) - pos) & odd;
    q += ((u ^ pos) - pos) & odd;
    r += ((v ^ pos) - pos) & odd;
    // Both: f takes the old g (f + (g − f)) and δ turns into −δ, then + 1.
    const u64 swap = pos & odd;
    f += g & swap;
    u += q & swap;
    v += r & swap;
    delta = (delta ^ static_cast<i64>(swap)) - static_cast<i64>(swap) + 1;
    // g halves; f keeps its value at one more power of two.
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
       static_cast<i64>(r)};
  return delta;
}

// (x, y) ← (u·x + v·y + mx·n, q·x + r·y + my·n) / 2^62, where mx and my
// make the low 62 bits of both sums zero.
template <std::size_t L>
void apply62(i64* x, i64* y, const Trans62& t, const i64* n62, i64 mx,
             i64 my) {
  i128 cx = 0, cy = 0;
  #pragma GCC unroll 9
  for (std::size_t i = 0; i < L; ++i) {
    cx += static_cast<i128>(t.u) * x[i] + static_cast<i128>(t.v) * y[i] +
          static_cast<i128>(n62[i]) * mx;
    cy += static_cast<i128>(t.q) * x[i] + static_cast<i128>(t.r) * y[i] +
          static_cast<i128>(n62[i]) * my;
    if (i > 0) {
      x[i - 1] = static_cast<i64>(static_cast<u64>(cx) & kLimb62);
      y[i - 1] = static_cast<i64>(static_cast<u64>(cy) & kLimb62);
    }
    cx >>= 62;
    cy >>= 62;
  }
  x[L - 1] = static_cast<i64>(cx);
  y[L - 1] = static_cast<i64>(cy);
}

// (d, e) ← (u·d + v·e, q·d + r·e) / 2^62 mod n, made exact by multiples md
// and me of n. With d, e in (−2n, n) the results stay there (md and me
// start at the rows' sums over the negative inputs).
template <std::size_t L>
void update_de(i64* d, i64* e, const Trans62& t, const i64* n62,
               u64 n_inv62) {
  const i64 sd = d[L - 1] >> 63;
  const i64 se = e[L - 1] >> 63;
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  // The low words of u·d + v·e and q·d + r·e fix the low 62 bits.
  const u64 cd = static_cast<u64>(t.u) * static_cast<u64>(d[0]) +
                 static_cast<u64>(t.v) * static_cast<u64>(e[0]);
  const u64 ce = static_cast<u64>(t.q) * static_cast<u64>(d[0]) +
                 static_cast<u64>(t.r) * static_cast<u64>(e[0]);
  md -= static_cast<i64>((n_inv62 * cd + static_cast<u64>(md)) & kLimb62);
  me -= static_cast<i64>((n_inv62 * ce + static_cast<u64>(me)) & kLimb62);
  apply62<L>(d, e, t, n62, md, me);
}

// Carries every limb below the top into [0, 2^62).
template <std::size_t L>
void propagate62(i64* x) {
  #pragma GCC unroll 9
  for (std::size_t i = 0; i + 1 < L; ++i) {
    x[i + 1] += x[i] >> 62;
    x[i] &= static_cast<i64>(kLimb62);
  }
}

// x in (−2n, n) → (sign < 0 ? −x : x) mod n in [0, n), branch-free: add n
// if negative, negate on request, add n if negative again.
template <std::size_t L>
void normalize62(i64* x, i64 sign, const i64* n62) {
  const i64 add1 = x[L - 1] >> 63;
  const i64 neg = sign >> 63;
  #pragma GCC unroll 9
  for (std::size_t i = 0; i < L; ++i) {
    x[i] = ((x[i] + (n62[i] & add1)) ^ neg) - neg;
  }
  propagate62<L>(x);
  const i64 add2 = x[L - 1] >> 63;
  #pragma GCC unroll 9
  for (std::size_t i = 0; i < L; ++i) x[i] += n62[i] & add2;
  propagate62<L>(x);
}

// k 64-bit words → k + 1 signed 62-bit limbs (a nonnegative value).
inline void to_s62(const u64* a, std::size_t k, i64* out) {
  #pragma GCC unroll 9
  for (std::size_t i = 0; i <= k; ++i) {
    const std::size_t bit = 62 * i, w = bit / 64, s = bit % 64;
    u64 limb = a[w] >> s;
    if (s > 2 && w + 1 < k) limb |= a[w + 1] << (64 - s);
    out[i] = static_cast<i64>(limb & kLimb62);
  }
}

// K + 1 normalized signed 62-bit limbs (a value below 2^(64K)) → K words.
// Word j starts 2j bits into limb j, so it spans limbs j and j + 1.
template <std::size_t K>
void from_s62(const i64* x, u64* out) {
  #pragma GCC unroll 8
  for (std::size_t j = 0; j < K; ++j) {
    out[j] = (static_cast<u64>(x[j]) >> (2 * j)) |
             (static_cast<u64>(x[j + 1]) << (62 - 2 * j));
  }
}

template <std::size_t K>
void inv_k(const u64* a, const i64* n62, u64 n_inv62, std::size_t batches,
           std::size_t steps, const u64* r3, const u64* n, u64 n0_inv,
           u64* out) {
  constexpr std::size_t L = K + 1;
  i64 f[L], g[L], d[L] = {}, e[L] = {};
  std::copy(n62, n62 + L, f);
  to_s62(a, K, g);
  e[0] = 1;
  i64 delta = 1;
  for (std::size_t b = 0; b < batches; ++b) {
    Trans62 t{};
    delta = divsteps(delta, static_cast<u64>(f[0]), static_cast<u64>(g[0]),
                     steps, t);
    update_de<L>(d, e, t, n62, n_inv62);
    apply62<L>(f, g, t, n62, 0, 0);  // exact: the divsteps cleared 62 bits
  }
  // g = 0 and f = ±gcd(n, a): d·a ≡ f, so f·d is the inverse.
  normalize62<L>(d, f[L - 1], n62);
  u64 inv[K];
  from_s62<K>(d, inv);
  mul_k<K>(inv, r3, n, n0_inv, out);
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
  if (!fits_fixed()) return;
  // inv_limbs' constants.
  to_s62(n_limbs_.data(), k, n62_.data());
  n_inv62_ = (~n0_inv_ + 1) & kLimb62;
  // Divsteps that take (1, n, g) to g = 0 for every 0 <= g < n: Bernstein
  // and Yang, "Fast constant-time gcd computation and modular inversion"
  // (TCHES 2019), Theorem 11.2, with d = n's bit length, since
  // n² + 4g² < 5·2^(2d). The kernel runs them in equal batches of at most
  // 62; more steps than the bound are harmless (g stays 0).
  const std::size_t d = n_.bit_length();
  const std::size_t divsteps = (49 * d + (d >= 46 ? 57 : 80)) / 17;
  inv_batches_ = (divsteps + 61) / 62;
  inv_steps_ = (divsteps + inv_batches_ - 1) / inv_batches_;
  // R³ mod n: a Montgomery product by it turns (a·R)⁻¹ = a⁻¹·R⁻¹ into
  // a⁻¹·R.
  const BigInt r3 = mul(r2_, r2_);
  std::copy(r3.limbs().begin(), r3.limbs().end(), r3_.begin());
}

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

void Montgomery::inv_limbs(const u64* a, u64* out) const {
  with_limb_count(n_limbs_.size(), [&](auto k) {
    inv_k<k>(a, n62_.data(), n_inv62_, inv_batches_, inv_steps_,
             r3_.data(), n_limbs_.data(), n0_inv_, out);
  });
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
