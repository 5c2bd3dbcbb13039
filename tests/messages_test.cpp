#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "net/async.hpp"
#include "p3s/credentials.hpp"
#include "p3s/messages.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

TEST(Messages, FrameTypeRoundTrip) {
  for (std::uint8_t t = 1; t <= 25; ++t) {
    const Bytes f = frame(static_cast<FrameType>(t), str_to_bytes("body"));
    Reader r(f);
    EXPECT_EQ(static_cast<std::uint8_t>(read_frame_type(r)), t);
    EXPECT_EQ(bytes_to_str(r.raw(4)), "body");
  }
}

TEST(Messages, UnknownFrameTypeRejected) {
  for (std::uint8_t t : {std::uint8_t{0}, std::uint8_t{26}, std::uint8_t{255}}) {
    Bytes f{t};
    Reader r(f);
    EXPECT_THROW(read_frame_type(r), std::invalid_argument) << int(t);
  }
  Reader empty(Bytes{});
  EXPECT_THROW(read_frame_type(empty), std::out_of_range);
}

TEST(Messages, PublishRequestBodyRoundTrip) {
  TestRng rng(11);
  PublishRequestBody body;
  body.request_id = rng.bytes(kRequestIdSize);
  body.content.guid_wrapped = false;
  body.content.guid_field = Guid::random(rng).to_bytes();
  body.content.ttl_seconds = 42.5;
  body.content.abe_ciphertext = rng.bytes(48);
  body.hve_ciphertext = rng.bytes(96);
  const Bytes wire = publish_request_body(body);
  Reader r(wire);
  const PublishRequestBody out = read_publish_request(r);
  EXPECT_EQ(out.request_id, body.request_id);
  EXPECT_EQ(out.content.guid_field, body.content.guid_field);
  EXPECT_NEAR(out.content.ttl_seconds, body.content.ttl_seconds, 0.001);
  EXPECT_EQ(out.content.abe_ciphertext, body.content.abe_ciphertext);
  EXPECT_EQ(out.hve_ciphertext, body.hve_ciphertext);
}

TEST(Messages, StoreRequestBodyRoundTrip) {
  TestRng rng(12);
  StoreRequestBody body;
  body.request_id = rng.bytes(kRequestIdSize);
  body.content.guid_wrapped = false;
  body.content.guid_field = Guid::random(rng).to_bytes();
  body.content.ttl_seconds = 7.0;
  body.content.abe_ciphertext = rng.bytes(16);
  const Bytes wire = store_request_body(body);
  Reader r(wire);
  const StoreRequestBody out = read_store_request(r);
  EXPECT_EQ(out.request_id, body.request_id);
  EXPECT_EQ(out.content.guid_field, body.content.guid_field);
  EXPECT_EQ(out.content.abe_ciphertext, body.content.abe_ciphertext);
}

TEST(Messages, RequestIdMustBeExactly16Bytes) {
  TestRng rng(13);
  PublishRequestBody body;
  body.request_id = rng.bytes(kRequestIdSize - 1);
  body.content.guid_wrapped = false;
  body.content.guid_field = Guid::random(rng).to_bytes();
  body.content.ttl_seconds = 1.0;
  EXPECT_THROW(publish_request_body(body), std::invalid_argument);
  StoreRequestBody store;
  store.request_id = rng.bytes(kRequestIdSize + 1);
  store.content = body.content;
  EXPECT_THROW(store_request_body(store), std::invalid_argument);
}

TEST(Messages, TaggedFrameRoundTrip) {
  const Bytes f =
      tagged_frame(FrameType::kTokenRequest, 0xdeadbeefull, str_to_bytes("p"));
  Reader r(f);
  EXPECT_EQ(read_frame_type(r), FrameType::kTokenRequest);
  const TaggedBody body = read_tagged(r);
  EXPECT_EQ(body.tag, 0xdeadbeefull);
  EXPECT_EQ(bytes_to_str(body.payload), "p");
}

TEST(Messages, ContentBodyRoundTripClearGuid) {
  TestRng rng(1);
  ContentBody body;
  body.guid_wrapped = false;
  body.guid_field = Guid::random(rng).to_bytes();
  body.ttl_seconds = 123.456;
  body.abe_ciphertext = rng.bytes(64);
  const Bytes wire = content_body(body);
  Reader r2(wire);
  const ContentBody out = read_content(r2);
  EXPECT_FALSE(out.guid_wrapped);
  EXPECT_EQ(out.guid_field, body.guid_field);
  EXPECT_NEAR(out.ttl_seconds, body.ttl_seconds, 0.001);  // ms precision
  EXPECT_EQ(out.abe_ciphertext, body.abe_ciphertext);
}

// TTLs travel as milliseconds rounded to the nearest: every ms survives
// the publisher's seconds → wire conversion and the DS's re-encoding of a
// content body on its way to the RS (read_content, then content_body).
TEST(Messages, TtlMillisecondsSurviveEncodingAndReencoding) {
  ContentBody body;
  body.guid_field = Bytes(Guid::kSize, 7);
  for (std::uint64_t ms = 0; ms < 2'000'000; ++ms) {
    body.ttl_seconds = static_cast<double>(ms) / 1000.0;
    ASSERT_EQ(to_wire_ms(body.ttl_seconds), ms);
    const Bytes wire = content_body(body);
    Reader r(wire);
    ASSERT_EQ(content_body(read_content(r)), wire) << ms;
  }
  EXPECT_EQ(to_wire_ms(1.001), 1001u);
  EXPECT_EQ(to_wire_ms(0.0004), 0u);
  EXPECT_EQ(to_wire_ms(0.0006), 1u);
  EXPECT_EQ(to_wire_ms(-1.0), 0u);
  EXPECT_EQ(to_wire_ms(std::nan("")), 0u);
  EXPECT_EQ(to_wire_ms(0x1p64 / 1000.0), ~std::uint64_t{0});
  EXPECT_EQ(to_wire_ms(1e300), ~std::uint64_t{0});
}

TEST(Messages, ContentBodyRoundTripWrappedGuid) {
  TestRng rng(2);
  ContentBody body;
  body.guid_wrapped = true;
  body.guid_field = rng.bytes(100);  // opaque envelope, arbitrary size
  body.ttl_seconds = 1.0;
  body.abe_ciphertext = rng.bytes(8);
  const Bytes wire = content_body(body);
  Reader r(wire);
  const ContentBody out = read_content(r);
  EXPECT_TRUE(out.guid_wrapped);
  EXPECT_EQ(out.guid_field, body.guid_field);
}

TEST(Messages, ClearGuidMustBeExactly16Bytes) {
  ContentBody body;
  body.guid_wrapped = false;
  body.guid_field = Bytes(15);
  body.ttl_seconds = 1.0;
  const Bytes wire = content_body(body);
  Reader r(wire);
  EXPECT_THROW(read_content(r), std::invalid_argument);
}

// Malformed-frame regressions distilled from the fuzz corpus
// (fuzz/corpus/frames/): every shape an attacker can put on the wire must
// be rejected with an exception the channel loop catches — never a crash,
// hang, or unbounded allocation.

TEST(Messages, TruncatedTaggedBodyRejected) {
  // fuzz seed truncated_tagged.bin: length prefix promises 100 bytes,
  // only 5 follow.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kTokenRequest));
  w.u64(1);
  w.u32(100);
  w.raw(str_to_bytes("short"));
  Reader r(w.data());
  EXPECT_EQ(read_frame_type(r), FrameType::kTokenRequest);
  EXPECT_THROW(read_tagged(r), std::out_of_range);
  // Tag alone, no payload length at all.
  Writer w2;
  w2.u64(7);
  Reader r2(w2.data());
  EXPECT_THROW(read_tagged(r2), std::out_of_range);
}

TEST(Messages, OversizedLengthPrefixRejectedWithoutAllocating) {
  // fuzz seed oversized_len.bin: a 4 GiB length claim on a tiny frame. The
  // bounds check must fire on `remaining()`, before any allocation of the
  // claimed size is attempted.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kPublishContent));
  w.u8(0);
  w.u32(0xffffffffu);
  Reader r(w.data());
  EXPECT_EQ(read_frame_type(r), FrameType::kPublishContent);
  EXPECT_THROW(read_content(r), std::out_of_range);
}

TEST(Messages, TypeConfusedBodyRejected) {
  // fuzz seed type_confused.bin: a valid *tagged* body sent under a
  // *content* frame type, and vice versa. The wrong decoder must throw
  // rather than misinterpret.
  // (The precise exception depends on where the misparse trips; the channel
  // loop catches std::exception, so that is the contract asserted.)
  const Bytes tagged =
      tagged_frame(FrameType::kContentRequest, 7, str_to_bytes("blob"));
  Reader r(BytesView(tagged).subspan(1));  // skip type byte, keep body
  EXPECT_THROW(read_content(r), std::exception);

  ContentBody body;
  body.guid_wrapped = false;
  body.guid_field = Bytes(Guid::kSize, 0xaa);
  body.ttl_seconds = 1.0;
  const Bytes content = content_body(body);
  Reader r2(content);
  EXPECT_THROW(read_tagged(r2), std::exception);
}

TEST(Messages, TruncatedContentBodyRejected) {
  TestRng rng(5);
  ContentBody body;
  body.guid_wrapped = false;
  body.guid_field = Guid::random(rng).to_bytes();
  body.ttl_seconds = 2.5;
  body.abe_ciphertext = rng.bytes(32);
  const Bytes wire = content_body(body);
  // Every proper prefix must throw; none may crash or succeed.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Reader r(BytesView(wire).first(cut));
    EXPECT_THROW(read_content(r), std::exception) << cut;
  }
}

TEST(Messages, TrailingGarbageAfterBodyRejected) {
  // A trailer is only legal when it parses as one complete pad field
  // (u32-length-prefixed bytes, DESIGN.md §11); anything else still throws.
  Bytes wire = tagged_frame(FrameType::kAraResponse, 3, str_to_bytes("ok"));
  wire.push_back(0x00);  // not a complete length-prefixed field
  Reader r(wire);
  EXPECT_EQ(read_frame_type(r), FrameType::kAraResponse);
  EXPECT_THROW(read_tagged(r), std::exception);
}

TEST(Messages, BucketPaddingSkippedAndBoundedTrailerEnforced) {
  TestRng rng(7);
  const Bytes base = tagged_frame(FrameType::kAraResponse, 3, str_to_bytes("ok"));

  // Padded frames land exactly on the bucket boundary and parse cleanly.
  const Bytes padded = pad_to_bucket(base, 96, rng);
  EXPECT_EQ(padded.size() % 96, 0u);
  EXPECT_GE(padded.size(), base.size());
  Reader pr(padded);
  EXPECT_EQ(read_frame_type(pr), FrameType::kAraResponse);
  const TaggedBody body = read_tagged(pr);
  EXPECT_EQ(body.tag, 3u);
  EXPECT_EQ(body.payload, str_to_bytes("ok"));

  // Garbage AFTER the pad field is still trailing garbage.
  Bytes padded_plus = padded;
  padded_plus.push_back(0xff);
  Reader gr(padded_plus);
  EXPECT_EQ(read_frame_type(gr), FrameType::kAraResponse);
  EXPECT_THROW(read_tagged(gr), std::invalid_argument);

  // bucket = 0 disables padding entirely.
  EXPECT_EQ(pad_to_bucket(base, 0, rng), base);
}

TEST(Messages, CertificateRoundTripAndTamperDetection) {
  const auto pp = pairing::Pairing::test_pairing();
  TestRng rng(3);
  const auto ca = pairing::schnorr_keygen(*pp, rng);
  Certificate cert;
  cert.pseudonym = "alice";
  cert.role = Certificate::Role::kSubscriber;
  cert.signature =
      pairing::schnorr_sign(*pp, ca.secret, cert.signed_body(), rng);

  const auto cert2 = Certificate::deserialize(*pp, cert.serialize(*pp));
  EXPECT_TRUE(cert2.verify(*pp, ca.public_key));

  Certificate forged = cert2;
  forged.role = Certificate::Role::kPublisher;
  EXPECT_FALSE(forged.verify(*pp, ca.public_key));
  Certificate renamed = cert2;
  renamed.pseudonym = "mallory";
  EXPECT_FALSE(renamed.verify(*pp, ca.public_key));
}

// --- Duplicate-frame (replay) cases ------------------------------------------
// An attacker (or a retrying peer) can put any previously observed frame on
// the wire again. Every handler must be idempotent: no crash, no second
// delivery, no duplicated server state. Channel-sealed records are already
// rejected by the session sequence numbers, so these tests target the frames
// that travel outside a channel (RS store, token response) plus the reliable
// broadcast stream, which dedupes by index.

class ReplayP3sTest : public ::testing::Test {
 protected:
  void SetUp() override {
    P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema =
        pbe::MetadataSchema({{"topic", {"a", "b"}}, {"tier", {"x", "y"}}});
    config.reliability.enabled = true;
    system_ = std::make_unique<P3sSystem>(net_, std::move(config), rng_);
    sub_ = system_->make_subscriber("sub1", "sub1-pseud", {"m"}, rng_);
    pub_ = system_->make_publisher("pub1", "press", rng_);
    net_.run_until_idle();
    sub_->subscribe({{"topic", "a"}});
    net_.run_until_idle();
  }

  /// Latest frame delivered to `to` whose first byte is `type`.
  Bytes last_frame_to(const std::string& to, FrameType type) {
    const auto& frames = wire_.frames();
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (it->to == to && !it->bytes.empty() &&
          it->bytes[0] == static_cast<std::uint8_t>(type)) {
        return it->bytes;
      }
    }
    ADD_FAILURE() << "no frame of type " << int(static_cast<std::uint8_t>(type))
                  << " to " << to << " on the wire";
    return {};
  }

  net::AsyncNetwork net_;
  test::WireLog wire_{net_};
  TestRng rng_{0x4e91};
  std::unique_ptr<P3sSystem> system_;
  std::unique_ptr<Subscriber> sub_;
  std::unique_ptr<Publisher> pub_;
};

TEST_F(ReplayP3sTest, RsStoreReplayIsIdempotent) {
  pub_->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("once"),
                abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  ASSERT_EQ(system_->rs().stored_items(), 1u);
  ASSERT_EQ(sub_->delivery_count(), 1u);

  // Replay the DS→RS store verbatim: one slot (GUID overwrite), and the
  // re-acked request id finds no pending publish at the DS — no second
  // fan-out, no second delivery.
  const Bytes store = last_frame_to(system_->directory().rs_name,
                                    FrameType::kStoreRequest);
  net_.send(system_->directory().ds_name, system_->directory().rs_name, store);
  net_.run_until_idle();
  EXPECT_EQ(system_->rs().stored_items(), 1u);
  EXPECT_EQ(sub_->delivery_count(), 1u);
}

TEST_F(ReplayP3sTest, TokenResponseReplayIsIgnored) {
  ASSERT_EQ(sub_->token_count(), 1u);
  // The response's tag was consumed with its Ks on first receipt; replaying
  // the exact ciphertext finds no pending request and changes nothing.
  const Bytes resp = last_frame_to("sub1", FrameType::kTokenResponse);
  net_.send(system_->directory().pbe_ts_name, "sub1", resp);
  net_.run_until_idle();
  EXPECT_EQ(sub_->token_count(), 1u);
}

TEST_F(ReplayP3sTest, DsNotifyReplayNeverRedelivers) {
  pub_->publish({{"topic", "a"}, {"tier", "x"}}, str_to_bytes("once"),
                abe::parse_policy("m"), 1e6);
  net_.run_until_idle();
  ASSERT_EQ(sub_->delivery_count(), 1u);

  // Ask the DS to replay its whole broadcast ring (what a retried sync does).
  // Every replayed index is recognized as already processed.
  const std::size_t dupes_before = sub_->duplicate_metadata();
  sub_->request_metadata_replay(0);
  net_.run_until_idle();
  EXPECT_EQ(sub_->delivery_count(), 1u);
  EXPECT_GT(sub_->duplicate_metadata(), dupes_before);
  EXPECT_EQ(sub_->missing_metadata_count(), 0u);
}

TEST(Messages, CertificateRejectsBadRole) {
  const auto pp = pairing::Pairing::test_pairing();
  TestRng rng(4);
  const auto ca = pairing::schnorr_keygen(*pp, rng);
  Certificate cert;
  cert.pseudonym = "x";
  cert.signature = pairing::schnorr_sign(*pp, ca.secret, cert.signed_body(), rng);
  Bytes wire = cert.serialize(*pp);
  // Role byte is right after the 4-byte length + pseudonym.
  wire[4 + 1] = 99;
  EXPECT_THROW(Certificate::deserialize(*pp, wire), std::invalid_argument);
}

}  // namespace
}  // namespace p3s::core
