#include "pairing/curve.hpp"

#include <array>
#include <stdexcept>

#include "math/modular.hpp"

namespace p3s::pairing {

using math::mod_add;
using math::mod_inv;
using math::mod_mul;
using math::mod_sub;
using math::Montgomery;

Point point_from(const Montgomery& mq, const BigInt& x, const BigInt& y) {
  return {fqm::fe_from(mq, x), fqm::fe_from(mq, y), false};
}

bool on_curve(const BigInt& x, const BigInt& y, const BigInt& q) {
  // y^2 == x^3 + x
  const BigInt x2 = mod_mul(x, x, q);
  return mod_mul(y, y, q) == mod_add(mod_mul(x2, x, q), x, q);
}

bool on_curve(const Point& p, const Montgomery& mq) {
  return p.infinity || on_curve(fqm::fe_to(mq, p.x), fqm::fe_to(mq, p.y),
                                mq.modulus());
}

Point point_double(const Point& p, const Montgomery& mq) {
  if (p.infinity) return p;
  const BigInt& q = mq.modulus();
  const BigInt x = fqm::fe_to(mq, p.x);
  const BigInt y = fqm::fe_to(mq, p.y);
  if (y.is_zero()) return Point::at_infinity();
  // lambda = (3x^2 + 1) / (2y)   [curve coefficient a = 1]
  const BigInt x2 = mod_mul(x, x, q);
  const BigInt num = mod_add(mod_add(mod_add(x2, x2, q), x2, q), BigInt{1}, q);
  const BigInt lambda = mod_mul(num, mod_inv(mod_add(y, y, q), q), q);
  const BigInt x3 = mod_sub(mod_sub(mod_mul(lambda, lambda, q), x, q), x, q);
  const BigInt y3 = mod_sub(mod_mul(lambda, mod_sub(x, x3, q), q), y, q);
  return point_from(mq, x3, y3);
}

namespace {
// Jacobian coordinates (X, Y, Z): x = X/Z^2, y = Y/Z^3. Avoids the modular
// inversion per step that affine arithmetic needs, which makes scalar
// multiplication ~20x faster at pairing sizes.
struct Jac {
  BigInt x, y, z;  // z == 0 means infinity
};

Point jac_to_point(const Jac& j, const Montgomery& mq) {
  if (j.z.is_zero()) return Point::at_infinity();
  const BigInt& q = mq.modulus();
  const BigInt zinv = mod_inv(j.z, q);
  const BigInt zinv2 = mod_mul(zinv, zinv, q);
  return point_from(mq, mod_mul(j.x, zinv2, q),
                    mod_mul(j.y, mod_mul(zinv2, zinv, q), q));
}

Jac jac_double(const Jac& p, const BigInt& q) {
  if (p.z.is_zero() || p.y.is_zero()) return {BigInt{1}, BigInt{1}, BigInt{}};
  // General doubling for y^2 = x^3 + a x with a = 1:
  //   M = 3X^2 + a Z^4, S = 4XY^2,
  //   X' = M^2 - 2S, Y' = M(S - X') - 8Y^4, Z' = 2YZ.
  const BigInt y2 = mod_mul(p.y, p.y, q);
  const BigInt z2 = mod_mul(p.z, p.z, q);
  const BigInt x2 = mod_mul(p.x, p.x, q);
  const BigInt z4 = mod_mul(z2, z2, q);
  const BigInt m = mod_add(mod_add(mod_add(x2, x2, q), x2, q), z4, q);
  BigInt s = mod_mul(p.x, y2, q);
  s = mod_add(s, s, q);
  s = mod_add(s, s, q);
  const BigInt xp = mod_sub(mod_mul(m, m, q), mod_add(s, s, q), q);
  BigInt y4 = mod_mul(y2, y2, q);  // Y^4
  // 8 Y^4
  y4 = mod_add(y4, y4, q);
  y4 = mod_add(y4, y4, q);
  y4 = mod_add(y4, y4, q);
  const BigInt yp = mod_sub(mod_mul(m, mod_sub(s, xp, q), q), y4, q);
  BigInt zp = mod_mul(p.y, p.z, q);
  zp = mod_add(zp, zp, q);
  return {xp, yp, zp};
}

// Mixed addition: p (Jacobian) + the affine point (ax, ay).
Jac jac_add_affine(const Jac& p, const BigInt& ax, const BigInt& ay,
                   const BigInt& q) {
  if (p.z.is_zero()) return {ax, ay, BigInt{1}};
  const BigInt z2 = mod_mul(p.z, p.z, q);
  const BigInt u2 = mod_mul(ax, z2, q);
  const BigInt s2 = mod_mul(ay, mod_mul(z2, p.z, q), q);
  const BigInt h = mod_sub(u2, p.x, q);
  const BigInt rr = mod_sub(s2, p.y, q);
  if (h.is_zero()) {
    if (rr.is_zero()) return jac_double(p, q);
    return {BigInt{1}, BigInt{1}, BigInt{}};  // infinity
  }
  const BigInt h2 = mod_mul(h, h, q);
  const BigInt h3 = mod_mul(h2, h, q);
  const BigInt uh2 = mod_mul(p.x, h2, q);
  const BigInt xp =
      mod_sub(mod_sub(mod_mul(rr, rr, q), h3, q), mod_add(uh2, uh2, q), q);
  const BigInt yp = mod_sub(mod_mul(rr, mod_sub(uh2, xp, q), q),
                            mod_mul(p.y, h3, q), q);
  const BigInt zp = mod_mul(p.z, h, q);
  return {xp, yp, zp};
}
}  // namespace

Point point_mul(const Point& p, const BigInt& k, const Montgomery& mq) {
  if (k.is_negative()) throw std::invalid_argument("point_mul: negative scalar");
  if (p.infinity || k.is_zero()) return Point::at_infinity();
  const BigInt& q = mq.modulus();
  const BigInt x = fqm::fe_to(mq, p.x);
  const BigInt y = fqm::fe_to(mq, p.y);
  Jac acc{BigInt{1}, BigInt{1}, BigInt{}};  // infinity
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = jac_double(acc, q);
    if (k.bit(i)) acc = jac_add_affine(acc, x, y, q);
  }
  return jac_to_point(acc, mq);
}

namespace {
// Width-(w+1) signed-digit recoding of k >= 0, least-significant first:
// every nonzero digit is odd, lies in (−2^w, 2^w) and is followed by at
// least w zeros.
std::vector<std::int8_t> signed_digits(const BigInt& k, unsigned w) {
  if (k.is_negative()) throw std::invalid_argument("wnaf: negative scalar");
  const std::uint64_t mod = 2ull << w;  // digits are k mod 2^(w+1)
  std::vector<std::uint64_t> v = k.limbs();
  std::vector<std::int8_t> digits;
  digits.reserve(k.bit_length() + 1);
  const auto is_zero = [&v] {
    for (const std::uint64_t x : v) {
      if (x != 0) return false;
    }
    return true;
  };
  while (!is_zero()) {
    std::int8_t d = 0;
    if (v[0] & 1) {
      const std::uint64_t u = v[0] & (mod - 1);
      if (u > mod / 2) {
        d = static_cast<std::int8_t>(static_cast<int>(u) -
                                     static_cast<int>(mod));
        // v += (mod - u)
        std::uint64_t carry = mod - u;
        for (std::size_t i = 0; carry != 0 && i < v.size(); ++i) {
          const std::uint64_t s = v[i] + carry;
          carry = s < v[i] ? 1 : 0;
          v[i] = s;
        }
        if (carry != 0) v.push_back(carry);
      } else {
        d = static_cast<std::int8_t>(u);
        // v -= u (no underflow: v ≡ u mod 2^(w+1) and v > 0)
        std::uint64_t borrow = u;
        for (std::size_t i = 0; borrow != 0 && i < v.size(); ++i) {
          const std::uint64_t r = v[i] - borrow;
          borrow = r > v[i] ? 1 : 0;
          v[i] = r;
        }
      }
    }
    digits.push_back(d);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      v[i] = (v[i] >> 1) | (v[i + 1] << 63);
    }
    if (!v.empty()) v.back() >>= 1;
  }
  return digits;
}
}  // namespace

std::vector<std::int8_t> wnaf4(const BigInt& k) { return signed_digits(k, 4); }

std::vector<std::int8_t> naf(const BigInt& k) { return signed_digits(k, 1); }

namespace {
using fqm::Fe;

bool jacm_is_inf(const Montgomery& m, const JacPoint& p) {
  return fqm::fe_is_zero(p.z, m.limb_count());
}

JacPoint jacm_infinity() { return JacPoint{}; }

// Same doubling formula as jac_double above (a = 1), on Fe limbs.
JacPoint jacm_double(const Montgomery& m, const JacPoint& p) {
  if (jacm_is_inf(m, p) || fqm::fe_is_zero(p.y, m.limb_count())) {
    return jacm_infinity();
  }
  Fe y2, z2, x2, z4, mm, s, xp, y4, yp, zp, t;
  fqm::fe_sqr(m, p.y, y2);
  fqm::fe_sqr(m, p.z, z2);
  fqm::fe_sqr(m, p.x, x2);
  fqm::fe_sqr(m, z2, z4);
  fqm::fe_add(m, x2, x2, mm);
  fqm::fe_add(m, mm, x2, mm);
  fqm::fe_add(m, mm, z4, mm);  // M = 3X² + Z⁴
  fqm::fe_mul(m, p.x, y2, s);
  fqm::fe_dbl(m, s, s);
  fqm::fe_dbl(m, s, s);  // S = 4XY²
  fqm::fe_sqr(m, mm, xp);
  fqm::fe_add(m, s, s, t);
  fqm::fe_sub(m, xp, t, xp);  // X' = M² − 2S
  fqm::fe_sqr(m, y2, y4);
  fqm::fe_dbl(m, y4, y4);
  fqm::fe_dbl(m, y4, y4);
  fqm::fe_dbl(m, y4, y4);  // 8Y⁴
  fqm::fe_sub(m, s, xp, t);
  fqm::fe_mul(m, mm, t, yp);
  fqm::fe_sub(m, yp, y4, yp);  // Y' = M(S − X') − 8Y⁴
  fqm::fe_mul(m, p.y, p.z, zp);
  fqm::fe_dbl(m, zp, zp);  // Z' = 2YZ
  return {xp, yp, zp};
}

// Mixed addition p + a with a affine (adding the identity is a no-op on
// either side).
JacPoint jacm_add_affine(const Montgomery& m, const JacPoint& p,
                         const Point& a) {
  if (a.infinity) return p;
  if (jacm_is_inf(m, p)) return {a.x, a.y, fqm::fe_one(m)};
  Fe z2, u2, s2, h, rr, t;
  fqm::fe_sqr(m, p.z, z2);
  fqm::fe_mul(m, a.x, z2, u2);
  fqm::fe_mul(m, z2, p.z, t);
  fqm::fe_mul(m, a.y, t, s2);
  fqm::fe_sub(m, u2, p.x, h);
  fqm::fe_sub(m, s2, p.y, rr);
  const std::size_t k = m.limb_count();
  if (fqm::fe_is_zero(h, k)) {
    if (fqm::fe_is_zero(rr, k)) return jacm_double(m, p);
    return jacm_infinity();  // a == -p
  }
  Fe h2, h3, uh2, xp, yp, zp;
  fqm::fe_sqr(m, h, h2);
  fqm::fe_mul(m, h2, h, h3);
  fqm::fe_mul(m, p.x, h2, uh2);
  fqm::fe_sqr(m, rr, xp);
  fqm::fe_sub(m, xp, h3, xp);
  fqm::fe_add(m, uh2, uh2, t);
  fqm::fe_sub(m, xp, t, xp);  // X' = r² − H³ − 2·U1·H²
  fqm::fe_sub(m, uh2, xp, t);
  fqm::fe_mul(m, rr, t, yp);
  fqm::fe_mul(m, p.y, h3, t);
  fqm::fe_sub(m, yp, t, yp);  // Y' = r(U1·H² − X') − Y1·H³
  fqm::fe_mul(m, p.z, h, zp);
  return {xp, yp, zp};
}

// Full Jacobian addition p + a, both with arbitrary Z (either may be the
// identity): U1 = X1·Z2², U2 = X2·Z1², S1 = Y1·Z2³, S2 = Y2·Z1³,
// H = U2 − U1, r = S2 − S1.
JacPoint jacm_add(const Montgomery& m, const JacPoint& p, const JacPoint& a) {
  if (jacm_is_inf(m, a)) return p;
  if (jacm_is_inf(m, p)) return a;
  Fe z1z1, z2z2, u1, u2, s1, s2, h, rr, t;
  fqm::fe_sqr(m, p.z, z1z1);
  fqm::fe_sqr(m, a.z, z2z2);
  fqm::fe_mul(m, p.x, z2z2, u1);
  fqm::fe_mul(m, a.x, z1z1, u2);
  fqm::fe_mul(m, a.z, z2z2, t);
  fqm::fe_mul(m, p.y, t, s1);
  fqm::fe_mul(m, p.z, z1z1, t);
  fqm::fe_mul(m, a.y, t, s2);
  fqm::fe_sub(m, u2, u1, h);
  fqm::fe_sub(m, s2, s1, rr);
  const std::size_t k = m.limb_count();
  if (fqm::fe_is_zero(h, k)) {
    if (fqm::fe_is_zero(rr, k)) return jacm_double(m, p);
    return jacm_infinity();  // a == -p
  }
  Fe h2, h3, uh2, xp, yp, zp;
  fqm::fe_sqr(m, h, h2);
  fqm::fe_mul(m, h2, h, h3);
  fqm::fe_mul(m, u1, h2, uh2);
  fqm::fe_sqr(m, rr, xp);
  fqm::fe_sub(m, xp, h3, xp);
  fqm::fe_add(m, uh2, uh2, t);
  fqm::fe_sub(m, xp, t, xp);  // X' = r² − H³ − 2·U1·H²
  fqm::fe_sub(m, uh2, xp, t);
  fqm::fe_mul(m, rr, t, yp);
  fqm::fe_mul(m, s1, h3, t);
  fqm::fe_sub(m, yp, t, yp);  // Y' = r(U1·H² − X') − S1·H³
  fqm::fe_mul(m, p.z, a.z, zp);
  fqm::fe_mul(m, zp, h, zp);  // Z' = Z1·Z2·H
  return {xp, yp, zp};
}

}  // namespace

std::vector<Point> jacm_batch_normalize(const Montgomery& m,
                                        std::span<const JacPoint> pts) {
  const std::size_t n = pts.size();
  std::vector<Point> out(n);
  // prefix[i] = product of all non-identity z's among pts[0..i-1].
  std::vector<Fe> prefix(n + 1);
  prefix[0] = fqm::fe_one(m);
  for (std::size_t i = 0; i < n; ++i) {
    if (jacm_is_inf(m, pts[i])) {
      prefix[i + 1] = prefix[i];
    } else {
      fqm::fe_mul(m, prefix[i], pts[i].z, prefix[i + 1]);
    }
  }
  Fe inv = fqm::fe_inv(m, prefix[n]);
  for (std::size_t i = n; i-- > 0;) {
    if (jacm_is_inf(m, pts[i])) continue;
    Fe zinv, zinv2, zinv3, t;
    fqm::fe_mul(m, inv, prefix[i], zinv);  // 1/z_i
    fqm::fe_mul(m, inv, pts[i].z, t);      // drop z_i from the running inverse
    inv = t;
    fqm::fe_sqr(m, zinv, zinv2);
    fqm::fe_mul(m, zinv2, zinv, zinv3);
    fqm::fe_mul(m, pts[i].x, zinv2, out[i].x);
    fqm::fe_mul(m, pts[i].y, zinv3, out[i].y);
    out[i].infinity = false;
  }
  return out;
}

namespace {
// A batch of one: one (safegcd, in-domain) inversion per multiplication or
// sum.
Point jacm_to_point(const Montgomery& m, const JacPoint& p) {
  return jacm_batch_normalize(m, std::span<const JacPoint>(&p, 1))[0];
}
}  // namespace

Point point_mul_mont(const Point& p, const BigInt& k,
                     const math::Montgomery& mq) {
  return jacm_to_point(mq, point_mul_jac(p, k, mq));
}

JacPoint point_mul_jac(const Point& p, const BigInt& k,
                       const math::Montgomery& mq) {
  if (k.is_negative()) throw std::invalid_argument("point_mul: negative scalar");
  if (p.infinity || k.is_zero()) return jacm_infinity();

  // Odd-multiple table {1, 3, ..., 15}·P, kept Jacobian: entries are
  // only ever added, so they never need the inversions of a normalization,
  // and the caller's final normalization is the multiplication's only
  // inversion.
  const JacPoint p1{p.x, p.y, fqm::fe_one(mq)};
  const JacPoint p2 = jacm_double(mq, p1);
  if (jacm_is_inf(mq, p2)) {
    // 2P = identity (P has order <= 2): k·P depends only on k mod 2.
    return k.bit(0) ? p1 : jacm_infinity();
  }
  std::array<JacPoint, 8> table;
  table[0] = p1;
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i] = jacm_add(mq, table[i - 1], p2);
  }

  const std::vector<std::int8_t> digits = wnaf4(k);
  JacPoint acc = jacm_infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = jacm_double(mq, acc);
    const std::int8_t d = digits[i];
    if (d == 0) continue;
    JacPoint entry = table[static_cast<std::size_t>(d > 0 ? d : -d) / 2];
    if (d < 0) entry.y = fqm::fe_neg(mq, entry.y);
    acc = jacm_add(mq, acc, entry);
  }
  return acc;
}

Point point_add_mont(const Point& a, const Point& b,
                     const math::Montgomery& mq) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  const JacPoint ja{a.x, a.y, fqm::fe_one(mq)};
  return jacm_to_point(mq, jacm_add_affine(mq, ja, b));
}

bool on_curve_mont(const Point& p, const math::Montgomery& mq) {
  if (p.infinity) return true;
  Fe lhs, rhs;
  fqm::fe_sqr(mq, p.x, rhs);
  fqm::fe_add(mq, rhs, fqm::fe_one(mq), rhs);
  fqm::fe_mul(mq, rhs, p.x, rhs);  // x³ + x
  fqm::fe_sqr(mq, p.y, lhs);
  return lhs == rhs;
}

FixedBaseTable::FixedBaseTable(const math::Montgomery& mq, const Point& base,
                               std::size_t scalar_bits)
    : mq_(mq), base_(base), scalar_bits_(scalar_bits) {
  if (base.infinity || scalar_bits == 0) return;
  windows_ = (scalar_bits + kWindow - 1) / kWindow;
  constexpr std::size_t kPerWindow = (1u << kWindow) - 1;  // 15

  table_.reserve(windows_ * kPerWindow);
  Point cur = base;
  for (std::size_t w = 0; w < windows_; ++w) {
    // d·cur for d = 1..15, chained mixed additions; then 16·cur = 2·(8·cur)
    // becomes the next window's base.
    std::vector<JacPoint> window(kPerWindow);
    window[0] = {cur.x, cur.y, fqm::fe_one(mq)};
    for (std::size_t d = 1; d < kPerWindow; ++d) {
      window[d] = jacm_add_affine(mq, window[d - 1], cur);
    }
    const JacPoint next = jacm_double(mq, window[7]);
    window.push_back(next);
    const std::vector<Point> norm = jacm_batch_normalize(mq, window);
    // An identity entry means the base has tiny order — not a case the
    // system's order-r bases hit; fall back to the generic path.
    const bool next_needed = w + 1 < windows_;
    bool degenerate = next_needed && norm[kPerWindow].infinity;
    for (std::size_t d = 0; d < kPerWindow; ++d) {
      degenerate |= norm[d].infinity;
    }
    if (degenerate) {
      table_.clear();
      windows_ = 0;
      return;
    }
    table_.insert(table_.end(), norm.begin(), norm.begin() + kPerWindow);
    if (next_needed) cur = norm[kPerWindow];
  }
}

Point FixedBaseTable::mul(const BigInt& k) const {
  return jacm_to_point(mq_, mul_jac(k));
}

JacPoint FixedBaseTable::mul_jac(const BigInt& k) const {
  if (k.is_negative()) throw std::invalid_argument("point_mul: negative scalar");
  if (k.is_zero() || base_.infinity) return jacm_infinity();
  if (table_.empty() || k.bit_length() > windows_ * kWindow) {
    return point_mul_jac(base_, k, mq_);
  }
  constexpr std::size_t kPerWindow = (1u << kWindow) - 1;
  JacPoint acc = jacm_infinity();
  for (std::size_t w = 0; w < windows_; ++w) {
    unsigned nib = 0;
    for (unsigned i = 0; i < kWindow; ++i) {
      nib |= (k.bit(w * kWindow + i) ? 1u : 0u) << i;
    }
    if (nib == 0) continue;
    acc = jacm_add_affine(mq_, acc, table_[w * kPerWindow + (nib - 1)]);
  }
  return acc;
}

}  // namespace p3s::pairing
