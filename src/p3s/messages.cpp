#include "p3s/messages.hpp"

#include <cmath>
#include <stdexcept>

namespace p3s::core {

FrameType read_frame_type(Reader& r) {
  const std::uint8_t t = r.u8();
  if (t < 1 || t > 25) throw std::invalid_argument("unknown frame type");
  return static_cast<FrameType>(t);
}

Bytes frame(FrameType type, BytesView body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.raw(body);
  return w.take();
}

Bytes frame(FrameType type) { return frame(type, {}); }

Bytes tagged_frame(FrameType type, std::uint64_t tag, BytesView payload) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(tag);
  w.bytes(payload);
  return w.take();
}

TaggedBody read_tagged(Reader& r) {
  TaggedBody body;
  body.tag = r.u64();
  body.payload = r.bytes();
  skip_pad(r);
  return body;
}

void skip_pad(Reader& r) {
  if (!r.done()) (void)r.bytes();  // optional trailing pad field
  r.expect_done();
}

Bytes pad_to_bucket(Bytes frame, std::size_t bucket, Rng& rng) {
  if (bucket == 0) return frame;
  // The pad travels as one extra u32-length-prefixed bytes field appended to
  // the frame, so the padded size is exactly the next multiple of `bucket`
  // that fits the 4-byte prefix. Pad content is rng-drawn so padding is
  // indistinguishable from ciphertext on the wire.
  const std::size_t with_prefix = frame.size() + 4;
  const std::size_t target =
      ((with_prefix + bucket - 1) / bucket) * bucket;
  const std::size_t pad_len = target - with_prefix;
  Writer w;
  w.raw(frame);
  w.bytes(rng.bytes(pad_len));
  return w.take();
}

Bytes content_body(const ContentBody& c) {
  Writer w;
  w.u8(c.guid_wrapped ? 1 : 0);
  w.bytes(c.guid_field);
  w.u64(to_wire_ms(c.ttl_seconds));  // ms precision
  w.bytes(c.abe_ciphertext);
  return w.take();
}

constexpr double kWireMsLimit = 0x1p64;  // the first ms past the u64 range

void check_ttl(double ttl_seconds) {
  if (!(ttl_seconds >= 0.0 && ttl_seconds * 1000.0 < kWireMsLimit)) {
    throw std::invalid_argument("TTL must be finite, non-negative and fit "
                                "the wire's u64 milliseconds");
  }
}

std::uint64_t to_wire_ms(double seconds) {
  const double ms = std::round(seconds * 1000.0);
  if (!(ms > 0.0)) return 0;
  if (ms >= kWireMsLimit) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(ms);
}

// The content body is nested length-prefixed inside the reliable-layer
// bodies so read_content()'s whole-buffer check keeps holding on its slice.
Bytes publish_request_body(const PublishRequestBody& b) {
  if (b.request_id.size() != kRequestIdSize) {
    throw std::invalid_argument("PublishRequestBody: bad request id size");
  }
  Writer w;
  w.raw(b.request_id);
  w.bytes(content_body(b.content));
  w.bytes(b.hve_ciphertext);
  return w.take();
}

PublishRequestBody read_publish_request(Reader& r) {
  PublishRequestBody b;
  b.request_id = r.raw(kRequestIdSize);
  const Bytes content = r.bytes();
  b.hve_ciphertext = r.bytes();
  r.expect_done();
  Reader cr(content);
  b.content = read_content(cr);
  return b;
}

Bytes store_request_body(const StoreRequestBody& b) {
  if (b.request_id.size() != kRequestIdSize) {
    throw std::invalid_argument("StoreRequestBody: bad request id size");
  }
  Writer w;
  w.raw(b.request_id);
  w.bytes(content_body(b.content));
  return w.take();
}

StoreRequestBody read_store_request(Reader& r) {
  StoreRequestBody b;
  b.request_id = r.raw(kRequestIdSize);
  const Bytes content = r.bytes();
  r.expect_done();
  Reader cr(content);
  b.content = read_content(cr);
  return b;
}

ContentBody read_content(Reader& r) {
  ContentBody c;
  c.guid_wrapped = r.u8() != 0;
  c.guid_field = r.bytes();
  c.ttl_seconds = static_cast<double>(r.u64()) / 1000.0;
  c.abe_ciphertext = r.bytes();
  r.expect_done();
  if (!c.guid_wrapped && c.guid_field.size() != Guid::kSize) {
    throw std::invalid_argument("ContentBody: bad clear GUID size");
  }
  return c;
}

}  // namespace p3s::core
