// Traffic-shape hardening knobs (DESIGN.md §11 "Threat model & adversarial
// suite"). The attack literature the adversarial suite executes (Vivek's
// frequency/inference probes; the survey's intersection and timing attacks)
// wins through traffic SHAPE — sizes, counts, timing — which the base
// protocol's cryptography does not hide. These configs enable the three
// standard mixes of countermeasures, all OFF by default so the base wire
// protocol stays bit-identical:
//
//   * batched mixing with a DRBG-jittered flush (anonymizer and DS): held
//     frames leave in a shuffled burst at an unpredictable time, so an
//     observer cannot link a request to its trigger by FIFO order or timing;
//   * padding to bucketed frame sizes: wire size stops fingerprinting which
//     metadata/payload a frame carries;
//   * cover traffic: decoy fetches (anonymizer) and garbage broadcasts (DS)
//     that give a lone real frame a crowd to hide in.
//
// Every knob draws its randomness from a dedicated crypto::Drbg, NEVER from
// the component's shared RNG. The DRBG's seed is the configured one, or one
// 64-bit draw from the deployment's RNG when the component is built with
// its hardening on, so deployments that leave it unset do not share pad
// bytes, shuffles, jitter or decoys, and an unhardened run draws nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/drbg.hpp"

namespace p3s::core {

/// Anonymizer mixing (src/p3s/anonymizer): batch, shuffle, jitter, decoys.
struct AnonHardening {
  /// Hold forwarded requests and flush them as a shuffled batch instead of
  /// relaying immediately (immediate relay preserves FIFO order and timing —
  /// the linkage an eavesdropper exploits).
  bool batching = false;
  /// Flush as soon as this many requests are held.
  std::size_t batch_size = 4;
  /// ... or when the oldest held request has waited this long (network time
  /// units), plus jitter so the flush time itself leaks nothing.
  double flush_interval = 200.0;
  double flush_jitter = 100.0;  // uniform [0, jitter) extra, DRBG-drawn
  /// Top a short batch up to this size with decoy RS fetches before
  /// flushing (0 = never). A single-subscriber batch has no crowd to hide
  /// in: it is padded with decoys, or held until the deadline forces it out.
  std::size_t min_batch = 0;
  /// Pad relayed requests and responses to this bucket (0 = off).
  std::size_t pad_bucket = 0;
  /// Seed for the dedicated mixing/decoy DRBG (unset: drawn, see above).
  std::optional<std::uint64_t> seed;

  bool any_enabled() const {
    return batching || min_batch > 0 || pad_bucket > 0;
  }
};

/// Dissemination-server broadcast shaping: batch publishes, pad broadcast
/// frames, inject garbage cover broadcasts.
struct DsHardening {
  /// Queue fanouts and flush them as one shuffled burst: a reacting
  /// subscriber is then attributable only to the batch, not to a single
  /// publication (defeats per-round frequency fingerprinting and blunts the
  /// chosen-publication probe oracle).
  bool batching = false;
  std::size_t batch_size = 4;
  double flush_interval = 200.0;
  double flush_jitter = 100.0;  // uniform [0, jitter) extra, DRBG-drawn
  /// Pad broadcast inner frames to this bucket (0 = off); sealed record
  /// sizes then stop fingerprinting the metadata ciphertext.
  std::size_t pad_bucket = 0;
  /// Inject a garbage broadcast roughly every this many network time units
  /// (0 = off). Subscribers treat garbage as a universal non-match, so cover
  /// costs them no pairing work beyond the parse attempt.
  double cover_interval = 0.0;
  /// Seed for the dedicated shaping DRBG (unset: drawn, see above).
  std::optional<std::uint64_t> seed;

  bool any_enabled() const {
    return batching || pad_bucket > 0 || cover_interval > 0.0;
  }
};

/// The dedicated hardening DRBG: seeded with `seed`, or with a draw from the
/// deployment's `rng` when no seed is configured.
inline crypto::Drbg hardening_drbg(std::optional<std::uint64_t> seed,
                                   Rng& rng) {
  Writer w;
  w.u64(seed.has_value() ? *seed : rng.u64());
  return crypto::Drbg(w.data());
}

/// `base` plus a uniform [0, jitter) extra drawn from `drbg`: a flush time
/// that leaks nothing. Draws nothing when jitter is off.
inline double jittered(double base, double jitter, Rng& drbg) {
  if (jitter <= 0.0) return base;
  return base + jitter * (static_cast<double>(drbg.u64() >> 11) * 0x1.0p-53);
}

/// DRBG Fisher–Yates: a batch's flush order is independent of its arrival
/// order, so position in the burst links nothing back to its trigger.
template <class T>
void drbg_shuffle(std::vector<T>& batch, Rng& drbg) {
  for (std::size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[static_cast<std::size_t>(drbg.u64() % i)]);
  }
}

}  // namespace p3s::core
