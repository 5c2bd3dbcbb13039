// ChaCha20-Poly1305 AEAD (RFC 8439). Every symmetric encryption in P3S —
// payload super-encryption under Ks, secure-channel records, the hybrid
// layers of CP-ABE and HVE — goes through this interface.
//
// Neither direction copies its input more than once. Seal copies the
// plaintext into a body reserved with room for the tag, encrypts it in
// place and appends the tag. Open checks the tag (ct_equal) before it
// decrypts anything. Both stream Poly1305 over aad ‖ pad ‖ ciphertext ‖ pad
// ‖ lengths instead of assembling that message.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace p3s::crypto {

struct AeadCiphertext {
  Bytes nonce;  // 12 bytes
  Bytes body;   // ciphertext || 16-byte tag

  Bytes serialize() const;
  static AeadCiphertext deserialize(BytesView data);
};

/// Encrypt `plaintext` with additional authenticated data `aad` under the
/// 32-byte `key`, using a fresh random nonce from `rng`.
AeadCiphertext aead_encrypt(BytesView key, BytesView plaintext, BytesView aad,
                            Rng& rng);

/// Decrypt; returns nullopt when the tag check fails (wrong key, wrong aad,
/// or tampering).
std::optional<Bytes> aead_decrypt(BytesView key, const AeadCiphertext& ct,
                                  BytesView aad);

}  // namespace p3s::crypto
