// Symmetric (Type-A) bilinear pairing e: G1 × G1 → GT, the same algebraic
// setting PBC's "a.param" gives the paper's jPBC/cpabe stacks:
//   E: y² = x³ + x over F_q, q ≡ 3 (mod 4), #E(F_q) = q + 1 = h·r,
//   G1 = order-r subgroup, GT ⊂ F_q²* (order-r roots of unity),
//   e(P,Q) = TatePairing(P, φ(Q))^((q²−1)/r) with distortion map
//   φ(x,y) = (−x, i·y).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/probe.hpp"
#include "common/rng.hpp"
#include "math/montgomery.hpp"
#include "pairing/curve.hpp"
#include "pairing/fq2.hpp"

namespace p3s::pairing {

/// Public group parameters. Generated once and shared by every participant
/// (the ARA distributes them during registration).
struct Params {
  BigInt q;  ///< base field prime, q = h·r − 1, q ≡ 3 (mod 4)
  BigInt r;  ///< prime group order
  BigInt h;  ///< cofactor (multiple of 4)
  BigInt gx, gy;  ///< generator of the order-r subgroup (plain affine)

  Bytes serialize() const;
  static Params deserialize(BytesView data);
};

/// Generate fresh parameters: r with `r_bits` bits, q with `q_bits` bits.
/// q_bits must exceed r_bits by at least 8 and be at most 512 (the fixed
/// limbs); std::invalid_argument otherwise.
Params generate_params(Rng& rng, std::size_t r_bits, std::size_t q_bits);

/// One k·P of a batch multiplication.
struct MulTerm {
  Point p;
  BigInt k;
};

/// One (P, Q) input to a multi-pairing product.
struct PairTerm {
  Point p;
  Point q;
};

/// One doubling/addition chain of Pairing::miller_multi: the first point P,
/// walked once over NAF(r), and the second points its lines are evaluated
/// at, each folded into the accumulator of its own output.
struct MillerChain {
  struct Eval {
    Point q;
    std::size_t output;
  };
  Point p;
  std::vector<Eval> evals;
};

/// Adapters kept only because perfbench's probes call them (ROADMAP,
/// benchmark backlog, "Drop the stored-precompute probes"): nothing is
/// stored, the "precompute" of P is P, and pair_product_precomp forwards
/// to pair_product.
using MillerPrecomp = Point;
struct PrecompPairTerm {
  const MillerPrecomp* p;
  Point q;
};

/// Windowed fixed-base exponentiation table for one GT element: entries
/// base^(d·16^j) for 4-bit windows j and digits d, so pow() costs one F_q²
/// multiplication per nonzero nibble of the exponent and no squarings.
/// Borrows `mq`; the owner must keep it alive (the Pairing guarantees this
/// for its own table). Throws std::logic_error when the modulus exceeds
/// math::Montgomery::kMaxFixedLimbs limbs.
class GtFixedBase {
 public:
  GtFixedBase(const math::Montgomery& mq, const Fq2& base,
              std::size_t exp_bits);

  const Fq2& base() const { return base_; }
  /// base^e for e >= 0. Exponents wider than the table fall back to the
  /// generic windowed exponentiation.
  Fq2 pow(const BigInt& e) const;
  std::size_t memory_bytes() const {
    return table_.size() * sizeof(fqm::Fe2);
  }

 private:
  const math::Montgomery& mq_;
  Fq2 base_;
  std::size_t windows_ = 0;
  std::vector<fqm::Fe2> table_;  // entry j·15 + (d−1) holds base^(d·16^j)
};

/// Immutable pairing context; shared via shared_ptr between all crypto
/// objects bound to the same group.
class Pairing {
 public:
  /// Validates the group; throws std::invalid_argument on bad parameters,
  /// including a generator whose order is not r and a q wider than 512
  /// bits (math::Montgomery::kMaxFixedLimbs limbs), which the fixed-limb
  /// field arithmetic cannot hold.
  explicit Pairing(Params params);

  /// Small deterministic parameters (80-bit r, 160-bit q) for fast tests.
  /// Baked-in serialized constants, validated on load. Cached singleton.
  static std::shared_ptr<const Pairing> test_pairing();
  /// PBC a.param-sized parameters (160-bit r, 512-bit q) matching the
  /// security level the paper benchmarked. Baked-in constants, validated on
  /// load. Cached singleton.
  static std::shared_ptr<const Pairing> paper_pairing();

  const Params& params() const { return params_; }
  const BigInt& q() const { return params_.q; }
  const BigInt& r() const { return params_.r; }
  /// Montgomery context for F_q — the engine of every group operation.
  const math::Montgomery& mont_q() const { return montq_; }

  // --- Zr -----------------------------------------------------------------
  BigInt random_scalar(Rng& rng) const;           // uniform in [0, r)
  BigInt random_nonzero_scalar(Rng& rng) const;   // uniform in [1, r)

  // --- G1 -----------------------------------------------------------------
  const Point& generator() const { return g_; }
  /// k·p; a batch of one.
  Point mul(const Point& p, const BigInt& k) const;
  /// k·P for every term: each product stays Jacobian and the batch pays
  /// one field inversion. Element i equals mul(terms[i].p, terms[i].k) bit
  /// for bit; a term on the generator reads its fixed-base table.
  std::vector<Point> mul_batch(std::span<const MulTerm> terms) const;
  Point add(const Point& a, const Point& b) const;
  Point neg(const Point& p) const;
  Point random_g1(Rng& rng) const;                // nonidentity
  /// Deterministic hash onto the order-r subgroup (try-and-increment; one
  /// F_q exponentiation per candidate both tests it and gives the root).
  Point hash_to_g1(BytesView data) const;
  Bytes serialize_g1(const Point& p) const;
  /// Validates curve membership; throws std::invalid_argument on bad input.
  Point deserialize_g1(BytesView data) const;
  std::size_t g1_bytes() const { return 1 + 2 * q_bytes_; }

  // --- GT -----------------------------------------------------------------
  /// The pairing itself: the fixed-limb Miller loop over NAF(r) and one
  /// final exponentiation.
  Fq2 pair(const Point& p, const Point& q) const;
  /// ∏ e(P_i, Q_i): one output of miller_multi, whose terms with equal P
  /// share a chain, and a SINGLE final exponentiation. Divisions fold in as
  /// e(A,B)·e(C,D)⁻¹ = e(A,B)·e(−C,D). Terms with an identity input
  /// contribute 1. Equals ∏ pair(P_i, Q_i) exactly.
  Fq2 pair_product(std::span<const PairTerm> terms) const;
  /// The Miller loop with several outputs: each chain's V runs once over
  /// NAF(r), its line at every step is evaluated at each of the chain's Q
  /// and folded into that Q's output, and every output's F_q² accumulator
  /// is squared once per step. Returns the `outputs` accumulators before
  /// the final exponentiation. F_q² products are exact, so the chains'
  /// order, and the product of the outputs of calls over a split of the
  /// chains, give the same values; final_exponentiation of output j equals
  /// pair_product over the (P, Q) pairs folded into j, bit for bit.
  /// Identity inputs contribute 1. Throws std::out_of_range for an eval
  /// whose output is not below `outputs`.
  std::vector<Fq2> miller_multi(std::span<const MillerChain> chains,
                                std::size_t outputs) const;
  /// f^((q²−1)/r), which turns a miller_multi output into an element of GT.
  Fq2 final_exponentiation(const Fq2& f) const;
  /// Adapters for perfbench's probes only (see MillerPrecomp).
  MillerPrecomp miller_precompute(const Point& p) const { return p; }
  Fq2 pair_product_precomp(std::span<const PrecompPairTerm> terms) const;
  /// The original BigInt Miller loop over r's binary expansion with a
  /// per-call final exponentiation, reading the coordinates as
  /// Montgomery-form BigInts. Kept as the correctness pin for
  /// pair()/pair_product() equivalence tests; not instrumented.
  Fq2 pair_reference(const Point& p, const Point& q) const;
  /// Precomputed e(g, g).
  const Fq2& gt_generator() const { return e_gg_; }
  Fq2 gt_mul(const Fq2& a, const Fq2& b) const;
  Fq2 gt_pow(const Fq2& a, const BigInt& e) const;
  Fq2 gt_inv(const Fq2& a) const;
  Fq2 gt_one() const { return fqm::fe2_one(montq_); }
  /// Uniform random element of GT (used as KEM payloads).
  Fq2 random_gt(Rng& rng) const;
  Bytes serialize_gt(const Fq2& v) const;
  Fq2 deserialize_gt(BytesView data) const;
  std::size_t gt_bytes() const { return 2 * q_bytes_; }

 private:
  Params params_;
  // NAF(r), least-significant digit first: the schedule of every Miller
  // loop (a −1 digit adds −P = (x_P, −y_P)).
  std::vector<std::int8_t> naf_r_;
  std::size_t q_bytes_;
  math::Montgomery montq_;  // Montgomery context for F_q (pairing hot path)
  BigInt sqrt_exp_;         // (q + 1) / 4: t^sqrt_exp_ is √t for a residue t
  Point g_;                 // the generator (params_.gx, params_.gy)
  Fq2 e_gg_;
  // Fixed-base tables for the bases every operation reuses: the group
  // generator (mul/random_g1/hash-derived keys) and e(g,g) (gt_pow/
  // random_gt). Built after parameter validation, hence by pointer.
  std::unique_ptr<FixedBaseTable> g_table_;
  std::unique_ptr<GtFixedBase> egg_table_;
  // Interned probe ids (common/probe.hpp). The pairing layer is hermetic —
  // no obs dependency — so instrumentation goes through the probe seam;
  // src/obs routes these into its Registry when linked. Name literals are
  // lint-checked against src/obs/catalog.hpp (metric-vocab rule).
  std::size_t pair_probe_ = 0;
  std::size_t pair_product_probe_ = 0;
  std::size_t pair_product_pairs_probe_ = 0;
  std::size_t g1_mul_probe_ = 0;
  std::size_t g1_fixed_base_probe_ = 0;
  std::size_t gt_pow_probe_ = 0;
  std::size_t gt_fixed_base_probe_ = 0;
  std::size_t hash_to_g1_probe_ = 0;
};

using PairingPtr = std::shared_ptr<const Pairing>;

}  // namespace p3s::pairing
