// Hidden-Vector Encryption over prime-order groups — the Iovino–Persiano
// (Pairing 2008) construction the paper cites as [7,10] and integrates via
// jPBC. Binary alphabet with wildcards in the key pattern:
//
//   Setup(ℓ): per position i: t_i,v_i,r_i,m_i ← Zr*; y ← Zr.
//       PK = (T_i=g^{t_i}, V_i=g^{v_i}, R_i=g^{r_i}, M_i=g^{m_i}, Ω=e(g,g)^y)
//   Encrypt(x ∈ {0,1}^ℓ, msg): s, s_i ← Zr;  C0 = msg·Ω^{−s};
//       x_i=1: X_i = T_i^{s−s_i}, W_i = V_i^{s_i}
//       x_i=0: X_i = R_i^{s−s_i}, W_i = M_i^{s_i}
//   GenToken(w ∈ {0,1,*}^ℓ): over non-wildcard positions S, split y into
//       random a_i with Σa_i = y;
//       w_i=1: Y_i = g^{a_i/t_i}, L_i = g^{a_i/v_i}
//       w_i=0: Y_i = g^{a_i/r_i}, L_i = g^{a_i/m_i}
//   Query: Π_{i∈S} e(X_i,Y_i)·e(W_i,L_i) = e(g,g)^{ys} iff match; then
//       msg = C0 · e(g,g)^{ys}.
//
// Matching costs 2|S| pairings — the paper's ~30-38 ms t_PBE figure.
// Security notes carried from the paper: the scheme is attribute hiding
// (semantic security for x) and collusion resistant, but NOT token private:
// a party holding a token plus the public key can probe it (see §6.1 and
// the gadget tests).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "pairing/pairing.hpp"

namespace p3s::exec {
class Pool;
}  // namespace p3s::exec

namespace p3s::pbe {

using math::BigInt;
using pairing::Fq2;
using pairing::PairingPtr;
using pairing::Point;

/// Attribute vector: each entry 0 or 1.
using BitVector = std::vector<std::uint8_t>;
/// Interest pattern: 0, 1, or kWildcard per position.
constexpr std::int8_t kWildcard = -1;
using Pattern = std::vector<std::int8_t>;

/// Plaintext match predicate (reference semantics for tests/baseline):
/// match(x, w) == 1 iff x_i == w_i at every non-wildcard position.
bool hve_match_plain(const BitVector& x, const Pattern& w);

struct HvePublicKey {
  PairingPtr pairing;
  std::vector<Point> t, v, r, m;  // per-position bases
  Fq2 omega;                      // e(g,g)^y

  std::size_t width() const { return t.size(); }
  Bytes serialize() const;
  static HvePublicKey deserialize(PairingPtr pairing, BytesView data);
};

struct HveMasterKey {
  std::vector<BigInt> t, v, r, m;
  BigInt y;
  /// t_i⁻¹, v_i⁻¹, r_i⁻¹, m_i⁻¹ mod the group order: derived where the key
  /// is made or loaded, so token generation runs no extended Euclid on
  /// secret scalars. Not serialized.
  std::vector<BigInt> t_inv, v_inv, r_inv, m_inv;

  Bytes serialize() const;
  /// `order` is the group order r the inverses are taken modulo.
  static HveMasterKey deserialize(const BigInt& order, BytesView data);
};

struct HveKeys {
  HvePublicKey pk;
  HveMasterKey msk;

  Bytes serialize() const;
  static HveKeys deserialize(PairingPtr pairing, BytesView data);
};

struct HveCiphertext {
  Fq2 c0;
  std::vector<Point> x;  // X_i
  std::vector<Point> w;  // W_i

  std::size_t width() const { return x.size(); }
  Bytes serialize(const pairing::Pairing& pairing) const;
  static HveCiphertext deserialize(const pairing::Pairing& pairing,
                                   BytesView data);
};

/// The token reveals which positions are non-wildcard but not their values,
/// and (per the paper) is not token-private against probing attacks.
struct HveToken {
  std::vector<std::uint32_t> positions;  // non-wildcard positions, ascending
  std::vector<Point> y;                  // Y_i
  std::vector<Point> l;                  // L_i

  Bytes serialize(const pairing::Pairing& pairing) const;
  static HveToken deserialize(const pairing::Pairing& pairing, BytesView data);
};

/// Run by the PBE-TS operator (in P3S, keying material is provisioned by the
/// ARA and the PBE-TS holds the master key).
HveKeys hve_setup(PairingPtr pairing, std::size_t width, Rng& rng);

/// Encrypt a GT element under attribute vector x. x.size() must equal width.
HveCiphertext hve_encrypt(const HvePublicKey& pk, const BitVector& x,
                          const Fq2& message, Rng& rng);

/// Generate the token for pattern w (performed by the PBE-TS on the
/// subscriber's plaintext predicate). Throws std::invalid_argument if the
/// pattern is all wildcards (paper: honest clients never subscribe to
/// everything) or the width mismatches.
HveToken hve_gen_token(const HveKeys& keys, const Pattern& w, Rng& rng);

/// Candidate decryption: equals the encrypted message iff match(x,w) == 1;
/// a uniformly random-looking GT element otherwise. The 2|S| pairings run
/// as ONE interleaved multi-pairing product (single final exponentiation).
Fq2 hve_query(const pairing::Pairing& pairing, const HveToken& token,
              const HveCiphertext& ct);

/// The original 2|S|-independent-pairings evaluation. Correctness pin for
/// hve_query equivalence tests; not used on the hot path.
Fq2 hve_query_reference(const pairing::Pairing& pairing,
                        const HveToken& token, const HveCiphertext& ct);

// --- KEM-DEM wrapper: how P3S ships the GUID -----------------------------------

/// Encrypt an arbitrary short payload (in P3S: the GUID) under attribute
/// vector x. A random GT element is HVE-encrypted; HKDF of it keys an AEAD.
/// Failed matches surface as AEAD failures, giving an explicit match/no-match
/// signal.
Bytes hve_encrypt_bytes(const HvePublicKey& pk, const BitVector& x,
                        BytesView payload, Rng& rng);

/// Size of every hve_encrypt_bytes blob at `width` positions over a
/// `payload_size`-byte payload: the group and these two fix it.
std::size_t hve_encrypt_bytes_size(const pairing::Pairing& pairing,
                                   std::size_t width, std::size_t payload_size);

/// nullopt iff the token's predicate does not match the ciphertext's
/// attribute vector (or the input is malformed).
std::optional<Bytes> hve_query_bytes(const pairing::Pairing& pairing,
                                     const HveToken& token, BytesView data);

// --- Batch matching: one broadcast against all of a subscriber's tokens -------

/// One parsed hve_encrypt_bytes blob: its KEM and DEM halves.
struct HveMatchCt {
  HveCiphertext kem;
  crypto::AeadCiphertext dem;

  std::size_t width() const { return kem.width(); }
};

/// Parse an hve_encrypt_bytes blob. Throws std::invalid_argument on
/// malformed input. `positions` is ignored: it is kept only because
/// perfbench's probes pass it (ROADMAP, benchmark backlog, "Drop the
/// stored-precompute probes").
HveMatchCt hve_match_prepare(
    const pairing::Pairing& pairing, BytesView data,
    const std::vector<std::uint32_t>* positions = nullptr);

/// Outcome of hve_match_any.
struct HveMatchResult {
  /// Index into `tokens` of the LOWEST-index matching token (identical to
  /// what the sequential per-token loop would return), or kNoMatch.
  static constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);
  std::size_t token_index = kNoMatch;
  Bytes payload;  // decrypted DEM payload (in P3S: the GUID) when matched

  bool matched() const { return token_index != kNoMatch; }
};

/// Evaluate every token against one parsed broadcast: one multi-output
/// Miller loop (Pairing::miller_multi) with one output per token over the
/// chains of the ciphertext points the tokens probe, so tokens that probe a
/// position share its chains. The chains are split across `pool`'s threads
/// (nullptr → exec::Pool::global()), each with its own partial
/// accumulators; the outputs are then finalized and tried in token order
/// up to the first hit. Output j is bit-identical to hve_query of token j,
/// so the result is the lowest-index hit for any pool size. A token
/// probing past the broadcast's width is a miss and adds no pairing work.
HveMatchResult hve_match_any(const pairing::Pairing& pairing,
                             std::span<const HveToken* const> tokens,
                             const HveMatchCt& ct,
                             exec::Pool* pool = nullptr);

}  // namespace p3s::pbe
