#include "crypto/chacha20.hpp"

#include <algorithm>
#include <stdexcept>

namespace p3s::crypto {

namespace {
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// `inline` matters here: without it GCC at -O2 keeps quarter_round out of
// line and passes the vectors through memory.
template <int N>
inline u32x4 rotl(u32x4 v) {
  return (v << N) | (v >> (32 - N));
}

inline void quarter_round(u32x4& a, u32x4& b, u32x4& c, u32x4& d) {
  a += b;
  d = rotl<16>(d ^ a);
  c += d;
  b = rotl<12>(b ^ c);
  a += b;
  d = rotl<8>(d ^ a);
  c += d;
  b = rotl<7>(b ^ c);
}

// XORs the keystream of the four blocks at counters state[12] .. state[12]+3
// (mod 2^32) into the first `len` <= 256 bytes of `data`.
void xor_four_blocks(const std::array<std::uint32_t, 16>& state, std::uint8_t* data,
                     std::size_t len) {
  const u32x4 lane = {0, 1, 2, 3};
  u32x4 x[16];
  for (int i = 0; i < 16; ++i) x[i] = u32x4{} + state[i];
  x[12] += lane;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += u32x4{} + state[i];
  x[12] += lane;

  // Word w of the 256-byte keystream is word w % 16 of block w / 16.
  const std::size_t words = len / 4;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint8_t* p = data + 4 * w;
    store_le32(p, le32(p) ^ x[w % 16][w / 16]);
  }
  for (std::size_t j = 4 * words; j < len; ++j) {
    data[j] ^= static_cast<std::uint8_t>(x[words % 16][words / 16] >> (8 * (j % 4)));
  }
}
}  // namespace

ChaCha20::ChaCha20(BytesView key, BytesView nonce, std::uint32_t initial_counter) {
  if (key.size() != kKeySize) throw std::invalid_argument("ChaCha20: bad key size");
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("ChaCha20: bad nonce size");
  }
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = le32(key.data() + 4 * i);
  state_[12] = initial_counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = le32(nonce.data() + 4 * i);
}

void ChaCha20::apply(Bytes& data) {
  for (std::size_t off = 0; off < data.size(); off += 256) {
    const std::size_t n = std::min<std::size_t>(256, data.size() - off);
    xor_four_blocks(state_, data.data() + off, n);
    state_[12] += static_cast<std::uint32_t>((n + 63) / 64);
  }
}

Bytes ChaCha20::crypt(BytesView key, BytesView nonce, BytesView data,
                      std::uint32_t initial_counter) {
  Bytes out(data.begin(), data.end());
  ChaCha20 c(key, nonce, initial_counter);
  c.apply(out);
  return out;
}

}  // namespace p3s::crypto
