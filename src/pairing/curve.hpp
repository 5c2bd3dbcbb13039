// The supersingular curve E: y² = x³ + x over F_q (q ≡ 3 mod 4), the group
// behind PBC's "Type A" pairing that the paper's jPBC/cpabe stacks use.
// #E(F_q) = q + 1; the pairing group is the order-r subgroup with q + 1 = h·r.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "math/bigint.hpp"
#include "math/montgomery.hpp"
#include "pairing/fq_mont.hpp"

namespace p3s::pairing {

using math::BigInt;

/// Affine point with Montgomery-form coordinates; (infinity=true) is the
/// identity, whose coordinates are zero.
struct Point {
  fqm::Fe x;
  fqm::Fe y;
  bool infinity = true;

  static Point at_infinity() { return Point{}; }
  bool operator==(const Point&) const = default;
};

/// The affine point (x, y) from plain coordinates in [0, q).
Point point_from(const math::Montgomery& mq, const BigInt& x,
                 const BigInt& y);

/// True iff p is the identity or satisfies y² = x³ + x, on the fixed limbs.
bool on_curve_mont(const Point& p, const math::Montgomery& mq);

/// Jacobian point (x = X/Z², y = Y/Z³) with Montgomery-form coordinates;
/// Z = 0 is the identity. A multiplication's result before its inversion.
struct JacPoint {
  fqm::Fe x, y, z;
};

/// The affine form of every point with one shared field inversion
/// (Montgomery's trick); identity entries stay the identity and skip their
/// products. Element i equals what normalizing pts[i] alone gives.
std::vector<Point> jacm_batch_normalize(const math::Montgomery& m,
                                        std::span<const JacPoint> pts);

/// a + b by one mixed Jacobian addition and one inversion.
Point point_add_mont(const Point& a, const Point& b,
                     const math::Montgomery& mq);

/// k·p with k >= 0 on fixed Montgomery-domain limbs: 4-bit wNAF over
/// Jacobian coordinates with a Jacobian odd-multiple table, so the final
/// conversion to affine is its only field inversion. Throws
/// std::logic_error when the modulus exceeds
/// math::Montgomery::kMaxFixedLimbs limbs.
Point point_mul_mont(const Point& p, const BigInt& k,
                     const math::Montgomery& mq);
/// point_mul_mont left in Jacobian form, for a caller that normalizes
/// several products with one inversion.
JacPoint point_mul_jac(const Point& p, const BigInt& k,
                       const math::Montgomery& mq);

// References on division-based BigInt arithmetic, the correctness pins
// for the fixed-limb operations above. Those taking a Point convert out of
// Montgomery form at entry and back at exit.

/// True iff y² ≡ x³ + x (mod q) for plain coordinates x, y.
bool on_curve(const BigInt& x, const BigInt& y, const BigInt& q);
/// True iff p is the identity or satisfies the curve equation mod q.
bool on_curve(const Point& p, const math::Montgomery& mq);
/// 2·p by the affine tangent formula.
Point point_double(const Point& p, const math::Montgomery& mq);
/// k·p with k >= 0 by double-and-add over Jacobian coordinates.
Point point_mul(const Point& p, const BigInt& k, const math::Montgomery& mq);

/// Signed 4-bit NAF digits of k >= 0, least-significant first. Nonzero
/// digits are odd and in [-15, 15]; at most one in any 4 consecutive
/// positions.
std::vector<std::int8_t> wnaf4(const BigInt& k);

/// Non-adjacent form of k >= 0, least-significant first: digits −1/0/1,
/// no two adjacent digits nonzero (the Miller-loop schedule).
std::vector<std::int8_t> naf(const BigInt& k);

/// Precomputed fixed-base table: all w-bit window multiples
/// d·2^{jw}·B (d in [1, 2^w), j over the scalar windows), stored as affine
/// Points. A multiplication then costs one mixed Jacobian addition per
/// nonzero window — no doublings — which is ~5–8x fewer field operations
/// than generic double-and-add for the bases the system reuses on every
/// operation (the group generator, HVE/CP-ABE public-key components).
/// Memory: windows·(2^w − 1) Points of 136 bytes (two 64-byte fqm::Fe and
/// the flag), i.e. 40,800 B per 80-bit-scalar base (test group) and
/// 81,600 B per 160-bit-scalar base (paper group) at w = 4 (see DESIGN.md
/// §7).
///
/// The table borrows `mq`; it must outlive the table (the owning Pairing
/// guarantees this for its own tables). Throws std::logic_error when the
/// modulus exceeds math::Montgomery::kMaxFixedLimbs limbs.
class FixedBaseTable {
 public:
  static constexpr unsigned kWindow = 4;

  /// Build the table for scalars of at most `scalar_bits` bits. Larger
  /// scalars, and bases of tiny order, go through point_mul_mont instead.
  FixedBaseTable(const math::Montgomery& mq, const Point& base,
                 std::size_t scalar_bits);

  const Point& base() const { return base_; }
  /// k·base for k >= 0.
  Point mul(const BigInt& k) const;
  /// mul left in Jacobian form.
  JacPoint mul_jac(const BigInt& k) const;
  /// Table footprint in bytes (0 for a base of tiny order).
  std::size_t memory_bytes() const { return table_.size() * sizeof(Point); }

 private:
  const math::Montgomery& mq_;
  Point base_;
  std::size_t scalar_bits_ = 0;
  std::size_t windows_ = 0;
  // Entry j·(2^w − 1) + (d − 1) holds d·2^{jw}·B; empty for a tiny-order
  // base.
  std::vector<Point> table_;
};

}  // namespace p3s::pairing
