#include "crypto/aead.hpp"

#include <array>
#include <stdexcept>

#include "common/serial.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/poly1305.hpp"

namespace p3s::crypto {

namespace {
constexpr std::size_t kTagSize = Poly1305::kTagSize;

// RFC 8439 §2.8: Poly1305 under the first 32 bytes of block 0, over
// aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ le64(|aad|) ‖ le64(|ciphertext|).
std::array<std::uint8_t, kTagSize> aead_tag(BytesView key, BytesView nonce,
                                            BytesView aad, BytesView ciphertext) {
  Bytes otk(Poly1305::kKeySize, 0);
  ChaCha20(key, nonce, 0).apply(otk);
  Poly1305 mac(otk);
  mac.update(aad);
  mac.pad16();
  mac.update(ciphertext);
  mac.pad16();
  std::array<std::uint8_t, 16> lengths{};
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(aad.size()) >> (8 * i));
    lengths[8 + i] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(ciphertext.size()) >> (8 * i));
  }
  mac.update(lengths);
  return mac.finish();
}
}  // namespace

Bytes AeadCiphertext::serialize() const {
  Writer w;
  w.bytes(nonce);
  w.bytes(body);
  return w.take();
}

AeadCiphertext AeadCiphertext::deserialize(BytesView data) {
  Reader r(data);
  AeadCiphertext ct;
  ct.nonce = r.bytes();
  ct.body = r.bytes();
  r.expect_done();
  if (ct.nonce.size() != ChaCha20::kNonceSize) {
    throw std::invalid_argument("AeadCiphertext: bad nonce size");
  }
  if (ct.body.size() < kTagSize) {
    throw std::invalid_argument("AeadCiphertext: body shorter than tag");
  }
  return ct;
}

AeadCiphertext aead_encrypt(BytesView key, BytesView plaintext, BytesView aad,
                            Rng& rng) {
  AeadCiphertext out;
  out.nonce = rng.bytes(ChaCha20::kNonceSize);
  out.body.reserve(plaintext.size() + kTagSize);
  out.body.assign(plaintext.begin(), plaintext.end());
  ChaCha20(key, out.nonce, 1).apply(out.body);
  const auto tag = aead_tag(key, out.nonce, aad, out.body);
  out.body.insert(out.body.end(), tag.begin(), tag.end());
  return out;
}

std::optional<Bytes> aead_decrypt(BytesView key, const AeadCiphertext& ct,
                                  BytesView aad) {
  if (ct.body.size() < kTagSize || ct.nonce.size() != ChaCha20::kNonceSize) {
    return std::nullopt;
  }
  const BytesView cipher(ct.body.data(), ct.body.size() - kTagSize);
  const BytesView tag(ct.body.data() + cipher.size(), kTagSize);
  if (!ct_equal(aead_tag(key, ct.nonce, aad, cipher), tag)) return std::nullopt;
  return ChaCha20::crypt(key, ct.nonce, cipher, 1);
}

}  // namespace p3s::crypto
