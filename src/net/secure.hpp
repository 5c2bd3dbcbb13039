// Secure channel ("TLS tunnel" substitute, paper §4.1: "The DS sets up TLS
// tunnels to subscribers and publishers"). One ECIES-wrapped session-key
// establishment message, then AEAD records with per-direction sequence
// numbers (replay/reorder detection — the property §6.1 relies on:
// "participants can detect if network failures cause message loss").
#pragma once

#include <cstdint>
#include <optional>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "pairing/ecies.hpp"

namespace p3s::net {

/// Client side: creates the session and the hello blob; server side:
/// accepts the hello. Both then seal/open records.
class SecureSession {
 public:
  /// Client constructor: generates a session key and the hello message to
  /// send (ECIES under the server's public key).
  static SecureSession initiate(const pairing::Pairing& pairing,
                                const pairing::Point& server_pk, Rng& rng,
                                Bytes& hello_out);

  /// Server constructor: accept a hello blob. nullopt when the blob fails
  /// to decrypt (wrong server key / tampering).
  static std::optional<SecureSession> accept(const pairing::Pairing& pairing,
                                             const math::BigInt& server_sk,
                                             BytesView hello);

  /// Encrypt a record for the peer. The sequence number is authenticated.
  /// P3S_NO_BLOCK: a record is pure CPU work, so the lint's no-block pass
  /// holds it to no waits and no network.
  Bytes seal(BytesView plaintext, Rng& rng) P3S_NO_BLOCK;

  /// Decrypt a record from the peer; enforces strictly increasing sequence
  /// numbers (detects replay, reorder, and silent drop of later reads).
  /// P3S_NO_BLOCK, as seal().
  std::optional<Bytes> open(BytesView record) P3S_NO_BLOCK;

 private:
  SecureSession(Bytes key, bool is_client);

  Bytes send_key_;
  Bytes recv_key_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace p3s::net
