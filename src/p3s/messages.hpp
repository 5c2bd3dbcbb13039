// P3S wire protocol frames. Outer frames cross the Network; "inner" frames
// travel sealed inside the DS secure channel. Anonymizable request frames
// (to RS / PBE-TS) carry a reply tag the anonymizer rewrites so services can
// answer without learning the requester (paper §4.3).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/guid.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"

namespace p3s::core {

enum class FrameType : std::uint8_t {
  // --- DS channel layer ---
  kChannelHello = 1,    // client → DS: ECIES session establishment blob
  kChannelRecord = 2,   // both directions: sealed inner frame
  // --- inner frames (inside the DS channel) ---
  kRegisterSubscriber = 3,  // client → DS
  kRegisterPublisher = 4,   // client → DS
  kPublishMetadata = 5,     // publisher → DS: HVE-encrypted GUID
  kPublishContent = 6,      // publisher → DS: (GUID, TTL, CP-ABE payload)
  kMetadataDelivery = 7,    // DS → subscriber: HVE-encrypted GUID
  kAck = 8,
  // --- DS → RS (LAN) ---
  kStoreContent = 9,        // (GUID, TTL, CP-ABE payload)
  // --- anonymization service ---
  kAnonForward = 10,        // client → anon: {destination, request frame}
  // --- RS request/response ---
  kContentRequest = 11,     // {tag, ECIES(Ks, GUID)}
  kContentResponse = 12,    // {tag, AEAD_Ks(status ++ payload)}
  // --- PBE-TS request/response ---
  kTokenRequest = 13,       // {tag, ECIES(Ks, certificate, interest)}
  kTokenResponse = 14,      // {tag, AEAD_Ks(status ++ token)}
  // --- ARA registration (Fig. 2 over the network) ---
  kAraRegisterSubscriber = 15,  // {tag, ECIES(Ks, identity)}
  kAraRegisterPublisher = 16,   // {tag, ECIES(Ks, identity)}
  kAraResponse = 17,            // {tag, AEAD_Ks(status ++ credentials)}
  // --- clean departure (inner frame on the DS channel) ---
  kUnregister = 18,             // client → DS: remove my registration
  // --- reliable request layer (DESIGN.md "Reliability") ---
  // Inner frames on the DS channel unless noted. The reliable publish path
  // replaces the fire-and-forget kPublishContent/kPublishMetadata pair with
  // one request the publisher may retry: the DS stores first (kStoreRequest
  // to the RS, plain LAN frame like kStoreContent), fans the metadata out
  // only after the RS acknowledged, then acks the publisher — so a metadata
  // match can never race an unstored payload.
  kPublishRequest = 19,   // pub → DS: {request_id}{content body}{hve ct}
  kPublishAck = 20,       // DS → pub: {request_id}
  kMetadataDeliverySeq = 21,  // DS → sub: {u64 index}{hve ct}
  kMetaSyncRequest = 22,  // sub → DS: {u64 from_index} (gap repair/heartbeat)
  kMetaSyncInfo = 23,     // DS → sub: {u64 incarnation}{u64 next_index}
  kStoreRequest = 24,     // DS → RS (LAN): {request_id}{content body}
  kStoreAck = 25,         // RS → DS (LAN): {request_id}
};

/// Idempotency key for reliable publish/store: fixed-size random id drawn by
/// the publisher, echoed through DS → RS → DS → publisher acks.
inline constexpr std::size_t kRequestIdSize = 16;

/// The DS keeps its last kMetaRingCap broadcasts for kMetaSyncRequest
/// replay. A reliable subscriber therefore drops a gap more than
/// kMetaRingCap indices below the newest index it knows of as lost: no
/// sync can repair it.
inline constexpr std::size_t kMetaRingCap = 1024;

/// Frame header parse: returns the type and leaves `r` positioned at the
/// body. Throws on truncated input or unknown type.
FrameType read_frame_type(Reader& r);

/// {type}{body...} helpers.
Bytes frame(FrameType type, BytesView body);
Bytes frame(FrameType type);

// Tagged request/response bodies (anonymizer-compatible).
struct TaggedBody {
  std::uint64_t tag = 0;
  Bytes payload;
};
Bytes tagged_frame(FrameType type, std::uint64_t tag, BytesView payload);
TaggedBody read_tagged(Reader& r);

// --- traffic-shape hardening (DESIGN.md §11) -------------------------------
// Frames that cross an eavesdropper-visible link may carry one OPTIONAL
// trailing bytes field of rng-drawn pad so their wire size rounds up to a
// configured bucket; size then stops fingerprinting the content. Readers
// accept-and-discard the field whether or not padding is configured, so
// padded and unpadded deployments interoperate.
/// Consume the optional trailing pad field, then require the end of `r`.
void skip_pad(Reader& r);
/// Append a pad field so `frame` sizes to the next multiple of `bucket`
/// (bucket 0 = passthrough). Use on frames whose readers end in skip_pad().
Bytes pad_to_bucket(Bytes frame, std::size_t bucket, Rng& rng);

// kPublishContent / kStoreContent body. The GUID field is either the raw
// 16-byte GUID (paper Fig. 4, in the clear) or — when the publisher enables
// the footnote-1 mitigation — an ECIES envelope under the RS public key, so
// eavesdroppers on the publisher→DS→RS path cannot learn the GUID.
struct ContentBody {
  bool guid_wrapped = false;
  Bytes guid_field;        // raw GUID or ECIES(RS_pk, GUID)
  double ttl_seconds = 0;  // T_pub: publisher's deletion intent
  Bytes abe_ciphertext;
};
Bytes content_body(const ContentBody& c);
ContentBody read_content(Reader& r);
/// Throws std::invalid_argument unless `ttl_seconds` is finite,
/// non-negative and small enough for its milliseconds to fit the u64 the
/// content body carries.
void check_ttl(double ttl_seconds);
/// Seconds as the wire's u64 milliseconds, rounded to the nearest and
/// saturating: negative and NaN read 0, and anything that rounds past the
/// u64 range reads its maximum. A TTL read back as ms / 1000 re-encodes to
/// the same ms.
std::uint64_t to_wire_ms(double seconds);

// kPublishRequest body: the idempotency key, the content submission, and the
// HVE metadata ciphertext in one frame (retried atomically).
struct PublishRequestBody {
  Bytes request_id;  // kRequestIdSize bytes
  ContentBody content;
  Bytes hve_ciphertext;
};
Bytes publish_request_body(const PublishRequestBody& b);
PublishRequestBody read_publish_request(Reader& r);

// kStoreRequest body: acknowledged variant of kStoreContent.
struct StoreRequestBody {
  Bytes request_id;  // kRequestIdSize bytes
  ContentBody content;
};
Bytes store_request_body(const StoreRequestBody& b);
StoreRequestBody read_store_request(Reader& r);

// Status bytes inside AEAD-protected responses.
inline constexpr std::uint8_t kStatusOk = 0;
inline constexpr std::uint8_t kStatusNotFound = 1;
inline constexpr std::uint8_t kStatusRejected = 2;

}  // namespace p3s::core
