// The service exchange of paper Figs. 2–4, written once. The client seals a
// fresh key Ks and its request fields to the service's public key; the
// service answers `u8 status ‖ bytes(body)` under Ks with the AEAD label of
// the response type, so it can reply without learning who asked. The ARA,
// PBE-TS and RS differ only in their fields. Nothing here sends.
#pragma once

#include <optional>

#include "p3s/messages.hpp"
#include "pairing/pairing.hpp"

namespace p3s::core {

/// ECIES(service_pk, bytes(ks) ‖ fields); the caller draws Ks first.
Bytes seal_request(const pairing::Pairing& pairing,
                   const pairing::Point& service_pk, BytesView ks,
                   BytesView fields, Rng& rng);

struct OpenedRequest {
  Bytes ks;
  Bytes fields;
};
/// nullopt when `envelope` does not open under `secret`.
std::optional<OpenedRequest> open_request(const pairing::Pairing& pairing,
                                          const math::BigInt& secret,
                                          BytesView envelope);

/// The tagged response frame of `type`: AEAD_ks(u8 status ‖ bytes(body)),
/// first padded to `pad_bucket` (content responses; pad drawn before the
/// AEAD nonce).
Bytes response_frame(FrameType type, std::uint64_t tag, BytesView ks,
                     std::uint8_t status, BytesView body, Rng& rng,
                     std::size_t pad_bucket = 0);

struct Response {
  std::uint8_t status = 0;
  Bytes body;
};
/// nullopt when `sealed` was not sealed under `ks` for `type`. Throws on a
/// malformed plaintext; only a content response may end in a pad field.
std::optional<Response> open_response(FrameType type, BytesView ks,
                                      BytesView sealed);

}  // namespace p3s::core
