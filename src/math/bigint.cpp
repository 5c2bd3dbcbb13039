#include "math/bigint.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace p3s::math {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Limbs = std::vector<u64>;

BigInt::BigInt(std::int64_t v) {
  if (v < 0) {
    negative_ = true;
    // Careful with INT64_MIN.
    limbs_.push_back(static_cast<u64>(-(v + 1)) + 1);
  } else if (v > 0) {
    limbs_.push_back(static_cast<u64>(v));
  }
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

BigInt BigInt::from_limbs_le(std::vector<std::uint64_t> limbs) {
  return from_limbs(std::move(limbs), /*negative=*/false);
}

BigInt BigInt::from_limbs(Limbs limbs, bool negative) {
  BigInt r;
  r.limbs_ = std::move(limbs);
  r.negative_ = negative;
  r.normalize();
  return r;
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering BigInt::operator<=>(const BigInt& b) const {
  if (negative_ != b.negative_) {
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  int c = cmp_mag(*this, b);
  if (negative_) c = -c;
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

Limbs BigInt::add_mag(const Limbs& a, const Limbs& b) {
  const Limbs& big = a.size() >= b.size() ? a : b;
  const Limbs& small = a.size() >= b.size() ? b : a;
  Limbs out(big.size() + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    u128 sum = static_cast<u128>(big[i]) + (i < small.size() ? small[i] : 0) + carry;
    out[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out[big.size()] = carry;
  return out;
}

Limbs BigInt::sub_mag(const Limbs& a, const Limbs& b) {
  Limbs out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    u128 bi = (i < b.size() ? b[i] : 0);
    u128 ai = a[i];
    u128 rhs = bi + static_cast<u64>(borrow);
    if (ai >= rhs) {
      out[i] = static_cast<u64>(ai - rhs);
      borrow = 0;
    } else {
      out[i] = static_cast<u64>((u128{1} << 64) + ai - rhs);
      borrow = 1;
    }
  }
  return out;
}

// Schoolbook product; every product the program forms is at most 8×8
// limbs.
Limbs BigInt::mul_mag(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    const u128 ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + b.size()] = carry;
  }
  return out;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.negative_ == b.negative_) {
    return BigInt::from_limbs(BigInt::add_mag(a.limbs_, b.limbs_), a.negative_);
  }
  int c = BigInt::cmp_mag(a, b);
  if (c == 0) return BigInt{};
  if (c > 0) {
    return BigInt::from_limbs(BigInt::sub_mag(a.limbs_, b.limbs_), a.negative_);
  }
  return BigInt::from_limbs(BigInt::sub_mag(b.limbs_, a.limbs_), b.negative_);
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  return BigInt::from_limbs(BigInt::mul_mag(a.limbs_, b.limbs_),
                            a.negative_ != b.negative_);
}

BigInt operator<<(const BigInt& a, std::size_t n) {
  if (a.is_zero() || n == 0) return a;
  const std::size_t limb_shift = n / 64;
  const unsigned bit_shift = n % 64;
  Limbs out(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? a.limbs_[i] : (a.limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
    }
  }
  return BigInt::from_limbs(std::move(out), a.negative_);
}

BigInt operator>>(const BigInt& a, std::size_t n) {
  const std::size_t limb_shift = n / 64;
  if (limb_shift >= a.limbs_.size()) return BigInt{};
  const unsigned bit_shift = n % 64;
  Limbs out(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      out[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  return BigInt::from_limbs(std::move(out), a.negative_);
}

DivMod BigInt::divmod(const BigInt& a, const BigInt& b) {
  if (b.is_zero()) throw std::domain_error("BigInt: division by zero");
  if (cmp_mag(a, b) < 0) return {BigInt{}, a};

  // Magnitude division first; signs fixed up at the end.
  Limbs q_mag;
  Limbs r_mag;

  if (b.limbs_.size() == 1) {
    const u64 d = b.limbs_[0];
    q_mag.assign(a.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      q_mag[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    if (rem != 0) r_mag.push_back(static_cast<u64>(rem));
  } else {
    // Knuth Algorithm D (TAOCP vol 2, 4.3.1) with 64-bit limbs.
    const int s = std::countl_zero(b.limbs_.back());
    BigInt vb = b.abs() << static_cast<std::size_t>(s);
    BigInt ub = a.abs() << static_cast<std::size_t>(s);
    Limbs v = vb.limbs_;
    Limbs u = ub.limbs_;
    const std::size_t n = v.size();
    const std::size_t m = u.size() - n;
    u.push_back(0);  // u has m+n+1 limbs
    q_mag.assign(m + 1, 0);

    const u64 vtop = v[n - 1];
    const u64 vsec = v[n - 2];
    for (std::size_t j = m + 1; j-- > 0;) {
      // Estimate qhat = (u[j+n]*B + u[j+n-1]) / vtop.
      u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
      u128 qhat = num / vtop;
      u128 rhat = num % vtop;
      while (qhat >= (u128{1} << 64) ||
             qhat * vsec > ((rhat << 64) | u[j + n - 2])) {
        --qhat;
        rhat += vtop;
        if (rhat >= (u128{1} << 64)) break;
      }
      // Multiply-subtract: u[j..j+n] -= qhat * v.
      u128 borrow = 0;
      u128 carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 p = qhat * v[i] + carry;
        carry = p >> 64;
        u64 plo = static_cast<u64>(p);
        u128 sub = static_cast<u128>(u[i + j]) - plo - borrow;
        u[i + j] = static_cast<u64>(sub);
        borrow = (sub >> 64) & 1;  // 1 if underflow
      }
      u128 sub = static_cast<u128>(u[j + n]) - carry - borrow;
      u[j + n] = static_cast<u64>(sub);
      bool negative = ((sub >> 64) & 1) != 0;

      q_mag[j] = static_cast<u64>(qhat);
      if (negative) {
        // qhat was one too large: add v back.
        --q_mag[j];
        u128 c2 = 0;
        for (std::size_t i = 0; i < n; ++i) {
          u128 sum = static_cast<u128>(u[i + j]) + v[i] + c2;
          u[i + j] = static_cast<u64>(sum);
          c2 = sum >> 64;
        }
        u[j + n] = static_cast<u64>(u[j + n] + c2);
      }
    }
    // Remainder = u[0..n) >> s.
    Limbs rl(u.begin(), u.begin() + n);
    BigInt r = BigInt::from_limbs(std::move(rl), false) >> static_cast<std::size_t>(s);
    r_mag = r.limbs_;
  }

  BigInt q = from_limbs(std::move(q_mag), a.negative_ != b.negative_);
  BigInt r = from_limbs(std::move(r_mag), a.negative_);
  return {std::move(q), std::move(r)};
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).quot;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).rem;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigInt::to_u64() const {
  if (negative_) throw std::overflow_error("BigInt::to_u64: negative value");
  if (limbs_.size() > 1) throw std::overflow_error("BigInt::to_u64: too large");
  return limbs_.empty() ? 0 : limbs_[0];
}

BigInt BigInt::from_dec(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigInt::from_dec: empty");
  bool neg = false;
  std::size_t i = 0;
  if (s[0] == '-') {
    neg = true;
    i = 1;
    if (s.size() == 1) throw std::invalid_argument("BigInt::from_dec: lone '-'");
  }
  BigInt r;
  const BigInt ten{std::uint64_t{10}};
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      throw std::invalid_argument("BigInt::from_dec: non-digit");
    }
    r = r * ten + BigInt{static_cast<std::uint64_t>(s[i] - '0')};
  }
  if (neg && !r.is_zero()) r.negative_ = true;
  return r;
}

BigInt BigInt::from_hex(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigInt::from_hex: empty");
  bool neg = false;
  std::size_t i = 0;
  if (s[0] == '-') {
    neg = true;
    i = 1;
    if (s.size() == 1) throw std::invalid_argument("BigInt::from_hex: lone '-'");
  }
  BigInt r;
  for (; i < s.size(); ++i) {
    char c = s[i];
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else throw std::invalid_argument("BigInt::from_hex: non-hex digit");
    r = (r << 4) + BigInt{static_cast<std::uint64_t>(v)};
  }
  if (neg && !r.is_zero()) r.negative_ = true;
  return r;
}

BigInt BigInt::from_bytes(BytesView data) {
  // Byte i from the end lands in limb i/8 at bit 8·(i%8).
  const std::size_t n = data.size();
  Limbs limbs((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    limbs[i / 8] |= static_cast<u64>(data[n - 1 - i]) << (8 * (i % 8));
  }
  return from_limbs(std::move(limbs), /*negative=*/false);
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  BigInt v = abs();
  const BigInt chunk{std::uint64_t{10'000'000'000'000'000'000ull}};  // 10^19
  std::vector<u64> groups;
  while (!v.is_zero()) {
    auto [q, r] = divmod(v, chunk);
    groups.push_back(r.is_zero() ? 0 : r.limbs_[0]);
    v = std::move(q);
  }
  std::string out = negative_ ? "-" : "";
  out += std::to_string(groups.back());
  for (std::size_t i = groups.size() - 1; i-- > 0;) {
    std::string part = std::to_string(groups[i]);
    out += std::string(19 - part.size(), '0') + part;
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  out = out.substr(first);
  if (negative_) out.insert(out.begin(), '-');
  return out;
}

Bytes BigInt::to_bytes(std::size_t min_len) const {
  if (negative_) throw std::domain_error("BigInt::to_bytes: negative value");
  Bytes out;
  const std::size_t nbytes = (bit_length() + 7) / 8;
  out.resize(std::max(nbytes, min_len), 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    const std::size_t limb = i / 8;
    out[out.size() - 1 - i] =
        static_cast<std::uint8_t>(limbs_[limb] >> (8 * (i % 8)));
  }
  return out;
}

BigInt BigInt::random_bits(Rng& rng, std::size_t bits) {
  if (bits == 0) return BigInt{};
  const std::size_t nbytes = (bits + 7) / 8;
  Bytes buf = rng.bytes(nbytes);
  // Clear excess high bits, then force the top bit so the width is exact.
  const unsigned excess = static_cast<unsigned>(nbytes * 8 - bits);
  buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
  buf[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return from_bytes(buf);
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
  if (bound <= BigInt{}) {
    throw std::invalid_argument("BigInt::random_below: bound must be positive");
  }
  const std::size_t bits = bound.bit_length();
  const std::size_t nbytes = (bits + 7) / 8;
  const unsigned excess = static_cast<unsigned>(nbytes * 8 - bits);
  for (;;) {
    Bytes buf = rng.bytes(nbytes);
    buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt v = from_bytes(buf);
    if (v < bound) return v;
  }
}

}  // namespace p3s::math
