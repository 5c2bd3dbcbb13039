// Montgomery-form modular arithmetic for a fixed odd modulus, in two forms:
// a BigInt API for any width (modular exponentiation, Miller–Rabin, domain
// conversion; CIOS multiplication) and the fixed-limb API the whole pairing
// stack runs on (field elements, Miller loop, final exponentiation, scalar
// multiplication, inversion; product-scanning multiplication and safegcd),
// with one kernel per limb count.
//
// R = 2^(64·k) where k is the modulus limb count. Values in "Montgomery
// form" are a·R mod n; mul() computes a·b·R⁻¹ mod n.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/bigint.hpp"

namespace p3s::math {

class Montgomery {
 public:
  /// Widest modulus (in 64-bit limbs) the allocation-free fixed-width limb
  /// API below supports: 512 bits covers the paper-scale pairing field.
  static constexpr std::size_t kMaxFixedLimbs = 8;

  /// Throws std::invalid_argument unless modulus is odd and > 1.
  explicit Montgomery(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }
  /// R mod n: 1 in Montgomery form.
  const BigInt& one_mont() const { return one_mont_; }
  /// R² mod n: a Montgomery product by it enters Montgomery form.
  const BigInt& r2() const { return r2_; }

  /// a·R mod n (a in [0, n)); from_mont inverts it.
  BigInt to_mont(const BigInt& a) const;
  BigInt from_mont(const BigInt& a_mont) const;

  /// Montgomery product a·b·R⁻¹ mod n (both inputs in Montgomery form,
  /// output in Montgomery form).
  BigInt mul(const BigInt& a_mont, const BigInt& b_mont) const;

  /// base^exp mod n with plain-form input and output (4-bit window,
  /// Montgomery internally). exp >= 0.
  BigInt pow(const BigInt& base, const BigInt& exp) const;

  // --- Fixed-width limb API (pairing hot path) -----------------------------
  // Operates on raw little-endian limb buffers of exactly limb_count()
  // words, all values in [0, n) and (for mul and inv) in Montgomery form.
  // No heap allocation; outputs may alias inputs. Only valid when
  // fits_fixed(); std::logic_error otherwise. Each call switches once on
  // limb_count() to a kernel instance compiled for that many limbs
  // (1..kMaxFixedLimbs), so the product-scanning and carry loops run fully
  // unrolled; results equal the BigInt mul()/mod_add/mod_sub/mod_inv bit
  // for bit.

  std::size_t limb_count() const { return n_limbs_.size(); }
  bool fits_fixed() const { return n_limbs_.size() <= kMaxFixedLimbs; }

  /// Montgomery product a·b·R⁻¹ mod n into out (all limb_count() words),
  /// by finely integrated product scanning.
  void mul_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;
  /// (a + b) mod n into out.
  void add_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;
  /// (a - b) mod n into out.
  void sub_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;
  /// a⁻¹ mod n into out, Montgomery form in and out: a·R gives a⁻¹·R, and
  /// 0 gives 0. Bernstein–Yang safegcd in constant time: a fixed number of
  /// branch-free divstep batches set by n's bit length, then one product
  /// by R³ mod n. The result is the inverse whenever gcd(a, n) = 1, so for
  /// every nonzero a when n is prime.
  void inv_limbs(const std::uint64_t* a, std::uint64_t* out) const;

 private:
  std::vector<std::uint64_t> mont_mul_limbs(
      const std::vector<std::uint64_t>& a,
      const std::vector<std::uint64_t>& b) const;

  BigInt n_;
  std::vector<std::uint64_t> n_limbs_;
  std::uint64_t n0_inv_;  // -n⁻¹ mod 2^64
  BigInt r2_;             // R² mod n
  BigInt one_mont_;       // R mod n
  // inv_limbs' constants, set only when fits_fixed(): n in signed 62-bit
  // limbs, n⁻¹ mod 2^62, the number of divstep batches and of divsteps in
  // each, and R³ mod n.
  std::array<std::int64_t, kMaxFixedLimbs + 1> n62_{};
  std::uint64_t n_inv62_ = 0;
  std::size_t inv_batches_ = 0;
  std::size_t inv_steps_ = 0;
  std::array<std::uint64_t, kMaxFixedLimbs> r3_{};
};

}  // namespace p3s::math
