#include "crypto/drbg.hpp"

#include <random>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"

namespace p3s::crypto {

Drbg::Drbg() {
  std::random_device rd;
  Bytes seed(48);
  for (auto& b : seed) b = static_cast<std::uint8_t>(rd());
  const Bytes k = Sha256::digest(seed);
  std::copy(k.begin(), k.end(), key_.begin());
  pos_ = pool_.size();  // force refill on first use
}

Drbg::Drbg(BytesView seed) {
  const Bytes k = Sha256::digest(seed);
  std::copy(k.begin(), k.end(), key_.begin());
  pos_ = pool_.size();
}

void Drbg::refill() {
  // Fast key erasure: generate 16 blocks (four ChaCha20 kernel calls); the
  // first 32 bytes of block 0 become the next key, blocks 1..15 are the
  // output pool. Nonce carries a monotonic counter so state never repeats
  // even if key_ were to collide.
  Bytes nonce(ChaCha20::kNonceSize, 0);
  for (int i = 0; i < 8; ++i) {
    nonce[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
  }
  ++counter_;
  Bytes stream(64 + pool_.size(), 0);
  ChaCha20(BytesView(key_.data(), key_.size()), nonce, 0).apply(stream);
  std::copy(stream.begin(), stream.begin() + 32, key_.begin());
  std::copy(stream.begin() + 64, stream.end(), pool_.begin());
  pos_ = 0;
}

void Drbg::fill(std::span<std::uint8_t> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (pos_ == pool_.size()) refill();
    const std::size_t n = std::min(pool_.size() - pos_, out.size() - off);
    std::copy(pool_.begin() + pos_, pool_.begin() + pos_ + n, out.begin() + off);
    pos_ += n;
    off += n;
  }
}

}  // namespace p3s::crypto
