// ChaCha20 stream cipher (RFC 8439). Backbone of the AEAD and the DRBG.
//
// One kernel does all the work: it computes four consecutive blocks at once
// as 16 four-lane vectors of 32-bit words (lane b holds block b), using the
// GCC/Clang vector extensions, which compile to SSE2 on baseline x86-64.
// It XORs its 256 bytes of keystream into the data one little-endian word at
// a time. `apply` calls it once per 256-byte step and once more for a
// shorter tail; the AEAD's one-time key and the DRBG's refill are `apply`
// over zeros.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace p3s::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;

  /// Throws std::invalid_argument on wrong key/nonce sizes.
  ChaCha20(BytesView key, BytesView nonce, std::uint32_t initial_counter = 0);

  /// XOR the keystream into `data` in place (encrypt == decrypt). Uses
  /// ceil(size / 64) blocks and drops the rest of a partial last block, so
  /// the next call starts at the next block. The 32-bit block counter wraps
  /// without carrying into the nonce.
  void apply(Bytes& data);

  /// One-shot: returns data XOR keystream.
  static Bytes crypt(BytesView key, BytesView nonce, BytesView data,
                     std::uint32_t initial_counter = 0);

 private:
  std::array<std::uint32_t, 16> state_;
};

}  // namespace p3s::crypto
