// Poly1305 one-time authenticator (RFC 8439), in radix 2^44: r and the
// accumulator are three 64-bit limbs (44 + 44 + 42 bits) multiplied with
// unsigned __int128 products, one 16-byte block per step. Streaming, so the
// AEAD MACs its aad and ciphertext where they lie. The final reduction
// selects h or h - (2^130 - 5) with a mask, not a branch.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace p3s::crypto {

class Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kTagSize = 16;

  /// Throws std::invalid_argument on wrong key size.
  explicit Poly1305(BytesView key);

  /// Absorb `data`; any split of a message gives the same tag.
  void update(BytesView data);

  /// Zero-pad what has been absorbed so far to a multiple of 16 bytes (the
  /// AEAD's pad16); nothing happens at a block boundary.
  void pad16();

  /// The tag of everything absorbed. Call once, last.
  std::array<std::uint8_t, kTagSize> finish();

 private:
  void blocks(const std::uint8_t* m, std::size_t count, std::uint64_t hibit);

  std::uint64_t r_[3];
  std::uint64_t h_[3] = {0, 0, 0};
  std::uint64_t s_[2];  // the key's second half, added at the end
  std::array<std::uint8_t, 16> buf_{};
  std::size_t buf_len_ = 0;
};

/// Compute the 16-byte Poly1305 tag of `msg` under the 32-byte one-time key.
/// Throws std::invalid_argument on wrong key size.
Bytes poly1305_tag(BytesView key, BytesView msg);

}  // namespace p3s::crypto
