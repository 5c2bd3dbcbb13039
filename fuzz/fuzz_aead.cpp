// Fuzz harness for the ChaCha20-Poly1305 AEAD (crypto/aead.hpp) and the
// streaming Poly1305 under it. The input is split as
//   key (32) ‖ nonce (12) ‖ aad length (1) ‖ aad ‖ rest
// (the aad length is cut to what the input holds), and then:
//   - `rest` is opened as an AEAD body: the result is a rejection or a
//     plaintext 16 bytes shorter than the body, never a crash;
//   - `rest` is sealed under a fixed TestRng and opened back: anything but
//     the same plaintext, or a body with one flipped bit opening at all,
//     aborts;
//   - a Poly1305 over `rest` fed in two updates, split where the nonce's
//     first two bytes say, must equal the one-shot tag.
#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/poly1305.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace p3s;  // NOLINT
  if (size < 45) return 0;
  const BytesView in(data, size);
  const BytesView key = in.first(32);
  const BytesView nonce = in.subspan(32, 12);
  const std::size_t aad_len = std::min<std::size_t>(in[44], size - 45);
  const BytesView aad = in.subspan(45, aad_len);
  const BytesView rest = in.subspan(45 + aad_len);
  const std::size_t pick = nonce[0] | (static_cast<std::size_t>(nonce[1]) << 8);

  const crypto::AeadCiphertext forged{Bytes(nonce.begin(), nonce.end()),
                                      Bytes(rest.begin(), rest.end())};
  if (const auto pt = crypto::aead_decrypt(key, forged, aad)) {
    if (pt->size() + 16 != rest.size()) std::abort();
  }

  TestRng rng(0xaead);
  crypto::AeadCiphertext ct = crypto::aead_encrypt(key, rest, aad, rng);
  const auto back = crypto::aead_decrypt(key, ct, aad);
  if (!back || !std::equal(back->begin(), back->end(), rest.begin(), rest.end())) {
    std::abort();
  }
  const std::size_t bit = pick % (8 * ct.body.size());
  ct.body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  if (crypto::aead_decrypt(key, ct, aad)) std::abort();

  const std::size_t split = pick % (rest.size() + 1);
  crypto::Poly1305 mac(key);
  mac.update(rest.first(split));
  mac.update(rest.subspan(split));
  const auto tag = mac.finish();
  const Bytes one_shot = crypto::poly1305_tag(key, rest);
  if (!std::equal(tag.begin(), tag.end(), one_shot.begin(), one_shot.end())) std::abort();
  return 0;
}
