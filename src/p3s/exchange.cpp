#include "p3s/exchange.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"
#include "pairing/ecies.hpp"

namespace p3s::core {

namespace {
Bytes label(FrameType type) {
  switch (type) {
    case FrameType::kTokenResponse: return str_to_bytes("token-resp");
    case FrameType::kContentResponse: return str_to_bytes("content-resp");
    case FrameType::kAraResponse: return str_to_bytes("ara-resp");
    default: throw std::invalid_argument("not a service response type");
  }
}
}  // namespace

Bytes seal_request(const pairing::Pairing& pairing,
                   const pairing::Point& service_pk, BytesView ks,
                   BytesView fields, Rng& rng) {
  Writer plain;
  plain.bytes(ks);
  plain.raw(fields);
  return pairing::ecies_encrypt(pairing, service_pk, plain.data(), rng);
}

std::optional<OpenedRequest> open_request(const pairing::Pairing& pairing,
                                          const math::BigInt& secret,
                                          BytesView envelope) {
  const auto plain = pairing::ecies_decrypt(pairing, secret, envelope);
  if (!plain.has_value()) return std::nullopt;
  Reader r(*plain);
  Bytes ks = r.bytes();
  return OpenedRequest{std::move(ks), r.raw(r.remaining())};
}

Bytes response_frame(FrameType type, std::uint64_t tag, BytesView ks,
                     std::uint8_t status, BytesView body, Rng& rng,
                     std::size_t pad_bucket) {
  Writer inner;
  inner.u8(status);
  inner.bytes(body);
  const Bytes plain = pad_to_bucket(inner.take(), pad_bucket, rng);
  return tagged_frame(
      type, tag, crypto::aead_encrypt(ks, plain, label(type), rng).serialize());
}

std::optional<Response> open_response(FrameType type, BytesView ks,
                                      BytesView sealed) {
  const auto plain = crypto::aead_decrypt(
      ks, crypto::AeadCiphertext::deserialize(sealed), label(type));
  if (!plain.has_value()) return std::nullopt;
  Reader r(*plain);
  Response response{r.u8(), r.bytes()};
  if (type == FrameType::kContentResponse) {
    skip_pad(r);  // a hardened RS pads responses inside the AEAD
  } else {
    r.expect_done();
  }
  return response;
}

}  // namespace p3s::core
