// Random-number source abstraction. Crypto components take an Rng& so tests
// can be made deterministic; the production CSPRNG (ChaCha20-based DRBG)
// lives in src/crypto and implements this interface.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace p3s {

/// Interface for random byte sources.
class Rng {
 public:
  virtual ~Rng() = default;

  /// Fill `out` with random bytes.
  virtual void fill(std::span<std::uint8_t> out) = 0;

  /// Convenience: n random bytes.
  Bytes bytes(std::size_t n);

  /// Uniform value in [0, bound) via rejection sampling. bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Raw 64 random bits.
  std::uint64_t u64();
};

/// Serves a fixed byte stream, e.g. a known-answer test's nonce, to code
/// that takes an Rng&. Throws std::out_of_range when asked for more bytes
/// than it holds — a consumption-accounting bug, never silent.
class ReplayRng final : public Rng {
 public:
  explicit ReplayRng(Bytes stream) : stream_(std::move(stream)) {}

  void fill(std::span<std::uint8_t> out) override;

  /// Bytes not yet served (0 when the task consumed its full budget).
  std::size_t remaining() const { return stream_.size() - pos_; }

 private:
  Bytes stream_;
  std::size_t pos_ = 0;
};

/// Fast deterministic non-cryptographic generator (xoshiro256**): for unit
/// tests, simulations, and workload generation. NOT for key material in
/// production settings; the DRBG in src/crypto is the secure source.
class TestRng final : public Rng {
 public:
  explicit TestRng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  void fill(std::span<std::uint8_t> out) override;

 private:
  std::uint64_t next();

  std::uint64_t s_[4];
};

}  // namespace p3s
