// Fuzz harness for the wire-frame decoders: frame-type dispatch, tagged
// request/response bodies, content and reliable-layer bodies, the
// secure-channel record layer, AEAD ciphertext envelopes, and the
// metadata-schema string map. These are the parsers that face
// attacker-controlled bytes off the wire (paper §4: everything a client
// sends crosses the DS boundary). The decoders' contract is throw-or-parse:
// std::exception rejections are fine, crashes and sanitizer findings are
// not.
//
// The openers run with fixed keys drawn from a seeded TestRng (fixture()),
// so an input sealed under them reaches the code behind the AEAD: a channel
// record opens through a fresh copy of one accepted SecureSession, a
// service request opens with the fixed service key, and a service response
// opens under the fixed Ks. The corpus holds one such sealed seed per case.
#include <cstdint>
#include <exception>
#include <optional>

#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "net/secure.hpp"
#include "p3s/exchange.hpp"
#include "p3s/messages.hpp"
#include "pairing/ecies.hpp"
#include "pbe/epoch.hpp"
#include "pbe/schema.hpp"

namespace {

using p3s::BytesView;
using p3s::core::FrameType;

struct Fixture {
  p3s::pairing::PairingPtr pairing = p3s::pairing::Pairing::test_pairing();
  p3s::pairing::EciesKeyPair service;
  p3s::Bytes ks;
  std::optional<p3s::net::SecureSession> ds_session;  // the DS's side
};

// Seed 0xf022: the service key pair, then Ks, then a client hello whose
// session the DS side accepts.
const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture out;
    p3s::TestRng rng(0xf022);
    out.service = p3s::pairing::ecies_keygen(*out.pairing, rng);
    out.ks = rng.bytes(32);
    p3s::Bytes hello;
    (void)p3s::net::SecureSession::initiate(
        *out.pairing, out.service.public_key, rng, hello);
    out.ds_session = p3s::net::SecureSession::accept(
        *out.pairing, out.service.secret, hello);
    return out;
  }();
  return f;
}

// The outer frame path: type byte, then the body decoder that type
// selects. The frame inside an opened channel record or an anonymizer
// forward takes the same path once, one level deep.
void drive_frame(BytesView input, bool inner = false) {
  const Fixture& fx = fixture();
  p3s::Reader r(input);
  const FrameType type = p3s::core::read_frame_type(r);
  switch (type) {
    case FrameType::kChannelRecord: {
      if (inner) break;
      p3s::net::SecureSession session = *fx.ds_session;  // fresh per input
      const p3s::Bytes record = r.bytes();
      r.expect_done();
      if (const auto opened = session.open(record)) drive_frame(*opened, true);
      break;
    }
    case FrameType::kPublishContent:
    case FrameType::kStoreContent:
      (void)p3s::core::read_content(r);
      break;
    case FrameType::kPublishRequest:
      (void)p3s::core::read_publish_request(r);
      break;
    case FrameType::kStoreRequest:
      (void)p3s::core::read_store_request(r);
      break;
    case FrameType::kContentRequest:
    case FrameType::kTokenRequest:
    case FrameType::kAraRegisterSubscriber:
    case FrameType::kAraRegisterPublisher:
      (void)p3s::core::open_request(*fx.pairing, fx.service.secret,
                                    p3s::core::read_tagged(r).payload);
      break;
    case FrameType::kContentResponse:
    case FrameType::kTokenResponse:
    case FrameType::kAraResponse:
      (void)p3s::core::open_response(type, fx.ks,
                                     p3s::core::read_tagged(r).payload);
      break;
    case FrameType::kAnonForward: {
      (void)r.str();
      const p3s::Bytes request = r.bytes();
      p3s::core::skip_pad(r);
      if (!inner) drive_frame(request, true);
      break;
    }
    default:
      // Remaining types carry module-specific bodies; consume as a
      // length-prefixed blob the way the channel demux does.
      if (!r.done()) (void)r.bytes();
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const BytesView input(data, size);
  try {
    drive_frame(input);
  } catch (const std::exception&) {
  }
  try {
    (void)p3s::crypto::AeadCiphertext::deserialize(input);
  } catch (const std::exception&) {
  }
  try {
    (void)p3s::pbe::deserialize_string_map(input);
  } catch (const std::exception&) {
  }
  try {
    (void)p3s::pbe::EpochPolicy::deserialize(input);
  } catch (const std::exception&) {
  }
  return 0;
}
