#include "crypto/poly1305.hpp"

#include <algorithm>
#include <stdexcept>

namespace p3s::crypto {

namespace {
using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;  // 2^128 in limb 2

// Written out, and `inline` so GCC inlines it, so that it folds into one
// load on little-endian hosts.
inline std::uint64_t le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) | (static_cast<std::uint64_t>(p[1]) << 8) |
         (static_cast<std::uint64_t>(p[2]) << 16) |
         (static_cast<std::uint64_t>(p[3]) << 24) |
         (static_cast<std::uint64_t>(p[4]) << 32) |
         (static_cast<std::uint64_t>(p[5]) << 40) |
         (static_cast<std::uint64_t>(p[6]) << 48) |
         (static_cast<std::uint64_t>(p[7]) << 56);
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
}  // namespace

Poly1305::Poly1305(BytesView key) {
  if (key.size() != kKeySize) throw std::invalid_argument("poly1305: bad key size");
  const std::uint64_t t0 = le64(key.data());
  const std::uint64_t t1 = le64(key.data() + 8);
  // r clamped with 0x0ffffffc0ffffffc0ffffffc0fffffff, split into limbs.
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  s_[0] = le64(key.data() + 16);
  s_[1] = le64(key.data() + 24);
}

// h = (h + block + hibit * 2^128) * r mod 2^130 - 5, per 16-byte block, with
// h kept only partly reduced. A product limb past 2^130 folds back times 5,
// and the limbs' 44/44/42 split makes that times 20 for r1 and r2.
void Poly1305::blocks(const std::uint8_t* m, std::size_t count, std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; count > 0; --count, m += 16) {
    const std::uint64_t t0 = le64(m);
    const std::uint64_t t1 = le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += (t1 >> 24) | hibit;

    const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
    u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
    u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;

    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(BytesView data) {
  if (data.empty()) return;
  const std::uint8_t* m = data.data();
  std::size_t n = data.size();
  if (buf_len_ > 0) {
    const std::size_t take = std::min(n, buf_.size() - buf_len_);
    std::copy_n(m, take, buf_.begin() + buf_len_);
    buf_len_ += take;
    m += take;
    n -= take;
    if (buf_len_ < buf_.size()) return;
    blocks(buf_.data(), 1, kHibit);
    buf_len_ = 0;
  }
  blocks(m, n / 16, kHibit);
  buf_len_ = n % 16;
  std::copy_n(m + (n - buf_len_), buf_len_, buf_.begin());
}

void Poly1305::pad16() {
  if (buf_len_ == 0) return;
  std::fill(buf_.begin() + buf_len_, buf_.end(), 0);
  blocks(buf_.data(), 1, kHibit);
  buf_len_ = 0;
}

std::array<std::uint8_t, Poly1305::kTagSize> Poly1305::finish() {
  if (buf_len_ > 0) {  // a partial last block ends in a 1 byte, not 2^128
    buf_[buf_len_] = 1;
    std::fill(buf_.begin() + buf_len_ + 1, buf_.end(), 0);
    blocks(buf_.data(), 1, 0);
    buf_len_ = 0;
  }

  // Propagate the carries twice: folding the top limb's carry can carry again.
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  std::uint64_t c = 0;
  for (int pass = 0; pass < 2; ++pass) {
    c = h1 >> 44;
    h1 &= kMask44;
    h2 += c;
    c = h2 >> 42;
    h2 &= kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }

  // g = h + 5 - 2^130 = h - p; take g when it does not borrow, by mask.
  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);
  const std::uint64_t take_g = (g2 >> 63) - 1;  // all ones iff h >= p
  h0 = (h0 & ~take_g) | (g0 & take_g);
  h1 = (h1 & ~take_g) | (g1 & take_g);
  h2 = (h2 & ~take_g) | (g2 & take_g);

  // tag = (h + s) mod 2^128.
  h0 += s_[0] & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((s_[0] >> 44) | (s_[1] << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += (s_[1] >> 24) + c;

  std::array<std::uint8_t, kTagSize> tag{};
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Bytes poly1305_tag(BytesView key, BytesView msg) {
  Poly1305 mac(key);
  mac.update(msg);
  const auto tag = mac.finish();
  return Bytes(tag.begin(), tag.end());
}

}  // namespace p3s::crypto
