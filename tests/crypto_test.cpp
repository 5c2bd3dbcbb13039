#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"

namespace p3s::crypto {
namespace {

// --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest(str_to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest(str_to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  TestRng rng(1);
  const Bytes data = rng.bytes(1000);
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 999u, 1000u}) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Sha256::digest(data)) << split;
  }
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.update(str_to_bytes("x"));
  h.finish();
  EXPECT_THROW(h.update(str_to_bytes("y")), std::logic_error);
  EXPECT_THROW(h.finish(), std::logic_error);
}

// --- HMAC-SHA256 (RFC 4231 vectors) ------------------------------------------

// --- constant-time primitives (crypto/ct.hpp) -------------------------------

TEST(Ct, Equal) {
  EXPECT_TRUE(ct_equal(str_to_bytes("abc"), str_to_bytes("abc")));
  EXPECT_FALSE(ct_equal(str_to_bytes("abc"), str_to_bytes("abd")));
  EXPECT_FALSE(ct_equal(str_to_bytes("abc"), str_to_bytes("ab")));
  EXPECT_TRUE(ct_equal({}, {}));
  // Single-bit differences at every position are caught.
  Bytes a(64, 0x5a), b(64, 0x5a);
  EXPECT_TRUE(ct_equal(a, b));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] ^= 0x01;
    EXPECT_FALSE(ct_equal(a, b)) << i;
    b[i] ^= 0x01;
  }
}

TEST(Ct, IsZeroAndSelect) {
  EXPECT_TRUE(ct_is_zero({}));
  EXPECT_TRUE(ct_is_zero(Bytes(32, 0x00)));
  Bytes nz(32, 0x00);
  nz[31] = 0x80;
  EXPECT_FALSE(ct_is_zero(nz));
  EXPECT_EQ(ct_select_u8(1, 0xaa, 0x55), 0xaa);
  EXPECT_EQ(ct_select_u8(0, 0xaa, 0x55), 0x55);
  EXPECT_EQ(ct_select_u8(0xff, 0xaa, 0x55), 0xaa);
}

TEST(Hmac, VerifyRoutesThroughCtEqual) {
  const Bytes key = str_to_bytes("Jefe");
  const Bytes data = str_to_bytes("what do ya want for nothing?");
  Bytes mac = hmac_sha256(key, data);
  EXPECT_TRUE(hmac_verify(key, data, mac));
  mac[0] ^= 0x01;
  EXPECT_FALSE(hmac_verify(key, data, mac));
  mac[0] ^= 0x01;
  mac.pop_back();
  EXPECT_FALSE(hmac_verify(key, data, mac));  // truncated MACs never pass
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, str_to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(str_to_bytes("Jefe"),
                               str_to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, str_to_bytes("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- HKDF (RFC 5869 vectors) --------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsOversizedOutput) {
  EXPECT_THROW(hkdf_expand(Bytes(32), {}, 255 * 32 + 1), std::invalid_argument);
}

// --- ChaCha20 (RFC 8439 §2.4.2) ------------------------------------------------

TEST(ChaCha20Cipher, Rfc8439Vector) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const Bytes ct = ChaCha20::crypt(key, nonce, str_to_bytes(plaintext), 1);
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption is the same operation.
  EXPECT_EQ(bytes_to_str(ChaCha20::crypt(key, nonce, ct, 1)), plaintext);
}

TEST(ChaCha20Cipher, RejectsBadSizes) {
  EXPECT_THROW(ChaCha20(Bytes(31), Bytes(12)), std::invalid_argument);
  EXPECT_THROW(ChaCha20(Bytes(32), Bytes(11)), std::invalid_argument);
}

TEST(ChaCha20Cipher, CounterWrapsAt32Bits) {
  // Five blocks from counter 0xfffffffe: the counter wraps to 0 and the
  // nonce words stay as they are (no carry into them). Expected values from
  // OpenSSL, one block per explicit counter.
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000000000004a00000000");
  Bytes data(320);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3);
  }
  const Bytes ct = ChaCha20::crypt(key, nonce, data, 0xfffffffe);
  EXPECT_EQ(to_hex(BytesView(ct).subspan(128, 16)),
            "2f8698c9372fa7dc19a90421ceb3a402");
  EXPECT_EQ(to_hex(Sha256::digest(ct)),
            "529cc3847bf779a40a52c0651bab2f755c7a76ac0348af9a0c664eb55476eaa1");
}

// --- Poly1305 (RFC 8439 §2.5.2) -------------------------------------------------

TEST(Poly1305, Rfc8439Vector) {
  const Bytes key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const Bytes tag = poly1305_tag(key, str_to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, EmptyMessage) {
  // With r = 0 the polynomial is 0 and the tag equals s.
  Bytes key(32, 0);
  for (int i = 16; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const Bytes tag = poly1305_tag(key, {});
  EXPECT_EQ(tag, Bytes(key.begin() + 16, key.end()));
}

TEST(Poly1305, RejectsBadKeySize) {
  EXPECT_THROW(poly1305_tag(Bytes(16), {}), std::invalid_argument);
}

// Expected tags below come from OpenSSL's Poly1305 (Python `cryptography`).
TEST(Poly1305, Rfc8439AppendixA3Vectors) {
  // Vectors #5-#11: inputs whose accumulator reaches 2^130 - 5 or just
  // above it, and the carries of the final "+ s".
  struct Case {
    const char* key;
    const char* msg;
    const char* tag;
  };
  const Case cases[] = {
      {"02000000000000000000000000000000" "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff", "03000000000000000000000000000000"},
      {"02000000000000000000000000000000" "ffffffffffffffffffffffffffffffff",
       "02000000000000000000000000000000", "03000000000000000000000000000000"},
      {"01000000000000000000000000000000" "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff" "f0ffffffffffffffffffffffffffffff"
       "11000000000000000000000000000000",
       "05000000000000000000000000000000"},
      {"01000000000000000000000000000000" "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff" "fbfefefefefefefefefefefefefefefe"
       "01010101010101010101010101010101",
       "00000000000000000000000000000000"},
      {"02000000000000000000000000000000" "00000000000000000000000000000000",
       "fdffffffffffffffffffffffffffffff", "faffffffffffffffffffffffffffffff"},
      {"01000000000000000400000000000000" "00000000000000000000000000000000",
       "e33594d7505e43b90000000000000000" "3394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000" "01000000000000000000000000000000",
       "14000000000000005500000000000000"},
      {"01000000000000000400000000000000" "00000000000000000000000000000000",
       "e33594d7505e43b90000000000000000" "3394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000",
       "13000000000000000000000000000000"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(to_hex(poly1305_tag(from_hex(c.key), from_hex(c.msg))), c.tag) << c.msg;
  }
}

TEST(Poly1305, AccumulatorAtOrJustAboveModulus) {
  // r = 1 or 2 over 1-4 all-0xff blocks. Two blocks at r = 1, or one at
  // r = 2, leave the accumulator at 2^130 - 2, just above 2^130 - 5, before
  // the final reduction; s = all-0xff makes the final "+ s" carry through
  // every word.
  struct Case {
    std::uint8_t r, s;
    std::size_t blocks;
    const char* tag;
  };
  const Case cases[] = {
      {1, 0x00, 1, "ffffffffffffffffffffffffffffffff"},
      {1, 0x00, 2, "03000000000000000000000000000000"},
      {1, 0x00, 3, "02000000000000000000000000000000"},
      {1, 0x00, 4, "06000000000000000000000000000000"},
      {1, 0xff, 1, "feffffffffffffffffffffffffffffff"},
      {1, 0xff, 2, "02000000000000000000000000000000"},
      {1, 0xff, 3, "01000000000000000000000000000000"},
      {1, 0xff, 4, "05000000000000000000000000000000"},
      {2, 0x00, 1, "03000000000000000000000000000000"},
      {2, 0x00, 2, "09000000000000000000000000000000"},
      {2, 0x00, 3, "15000000000000000000000000000000"},
      {2, 0x00, 4, "2d000000000000000000000000000000"},
      {2, 0xff, 1, "02000000000000000000000000000000"},
      {2, 0xff, 2, "08000000000000000000000000000000"},
      {2, 0xff, 3, "14000000000000000000000000000000"},
      {2, 0xff, 4, "2c000000000000000000000000000000"},
  };
  for (const Case& c : cases) {
    Bytes key(32, 0);
    key[0] = c.r;
    std::fill(key.begin() + 16, key.end(), c.s);
    EXPECT_EQ(to_hex(poly1305_tag(key, Bytes(16 * c.blocks, 0xff))), c.tag)
        << int{c.r} << " " << int{c.s} << " " << c.blocks;
  }
}

TEST(Poly1305, LargestClampedROverFfMessages) {
  // The largest r the clamp allows, over 0xff messages of 1..64 bytes (full
  // and partial final blocks); the 64 tags are pinned as one digest.
  const Bytes r_max = from_hex("ffffff0ffcffff0ffcffff0ffcffff0f");
  for (const auto& [s, digest] :
       {std::pair<std::uint8_t, const char*>{
            0x00, "197a057ae39de082651d645290a78b9686a74ade8e44f35645275fd2c3846866"},
        std::pair<std::uint8_t, const char*>{
            0xff, "cb46b7e926611b9481a373a4d461158c19810293056f367fba82b24f8e53db89"}}) {
    Bytes key = r_max;
    key.resize(32, s);
    Sha256 tags;
    for (std::size_t n = 1; n <= 64; ++n) tags.update(poly1305_tag(key, Bytes(n, 0xff)));
    EXPECT_EQ(to_hex(tags.finish()), digest) << int{s};
  }
}

TEST(Poly1305, StreamingSplitAtEveryOffsetMatchesOneShot) {
  Bytes key(32), msg(300);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(0x20 + 5 * i);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(7 * i + 3);
  const std::string expected = "716d65c3335cfe31db67a10d13e67aeb";
  ASSERT_EQ(to_hex(poly1305_tag(key, msg)), expected);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Poly1305 mac(key);
    mac.update(BytesView(msg).first(split));
    mac.update(BytesView(msg).subspan(split));
    EXPECT_EQ(to_hex(mac.finish()), expected) << split;
  }
}

// --- AEAD ----------------------------------------------------------------------

TEST(Aead, RoundTrip) {
  TestRng rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes pt = str_to_bytes("publication payload");
  const Bytes aad = str_to_bytes("guid-0001");
  const AeadCiphertext ct = aead_encrypt(key, pt, aad, rng);
  const auto out = aead_decrypt(key, ct, aad);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, pt);
}

TEST(Aead, WrongKeyFails) {
  TestRng rng(3);
  const Bytes key = rng.bytes(32);
  Bytes key2 = key;
  key2[0] ^= 1;
  const AeadCiphertext ct = aead_encrypt(key, str_to_bytes("secret"), {}, rng);
  EXPECT_FALSE(aead_decrypt(key2, ct, {}).has_value());
}

TEST(Aead, WrongAadFails) {
  TestRng rng(4);
  const Bytes key = rng.bytes(32);
  const AeadCiphertext ct =
      aead_encrypt(key, str_to_bytes("secret"), str_to_bytes("a"), rng);
  EXPECT_FALSE(aead_decrypt(key, ct, str_to_bytes("b")).has_value());
}

TEST(Aead, TamperedCiphertextFails) {
  TestRng rng(5);
  const Bytes key = rng.bytes(32);
  AeadCiphertext ct = aead_encrypt(key, str_to_bytes("secret"), {}, rng);
  ct.body[0] ^= 0x80;
  EXPECT_FALSE(aead_decrypt(key, ct, {}).has_value());
}

TEST(Aead, TamperedTagFails) {
  TestRng rng(6);
  const Bytes key = rng.bytes(32);
  AeadCiphertext ct = aead_encrypt(key, str_to_bytes("secret"), {}, rng);
  ct.body.back() ^= 1;
  EXPECT_FALSE(aead_decrypt(key, ct, {}).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrip) {
  TestRng rng(7);
  const Bytes key = rng.bytes(32);
  const AeadCiphertext ct = aead_encrypt(key, {}, {}, rng);
  const auto out = aead_decrypt(key, ct, {});
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Aead, SerializationRoundTrip) {
  TestRng rng(8);
  const Bytes key = rng.bytes(32);
  const AeadCiphertext ct = aead_encrypt(key, str_to_bytes("x"), {}, rng);
  const AeadCiphertext ct2 = AeadCiphertext::deserialize(ct.serialize());
  EXPECT_EQ(ct2.nonce, ct.nonce);
  EXPECT_EQ(ct2.body, ct.body);
  const auto out = aead_decrypt(key, ct2, {});
  ASSERT_TRUE(out.has_value());
}

TEST(Aead, DeserializeRejectsGarbage) {
  EXPECT_THROW(AeadCiphertext::deserialize(Bytes{1, 2, 3}), std::exception);
}

// Expected outputs below come from OpenSSL's ChaCha20Poly1305 (Python
// `cryptography`). The seal side gets its nonce from a ReplayRng.
TEST(Aead, Rfc8439Section282Vector) {
  const Bytes key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = from_hex("070000004041424344454647");
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes pt = str_to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  const std::string body =
      "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
      "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
      "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
      "3ff4def08e4b7a9de576d26586cec64b6116"
      "1ae10b594f09e26a7e902ecbd0600691";

  ReplayRng rng(nonce);
  const AeadCiphertext ct = aead_encrypt(key, pt, aad, rng);
  EXPECT_EQ(ct.nonce, nonce);
  EXPECT_EQ(to_hex(ct.body), body);

  const auto out = aead_decrypt(key, AeadCiphertext{nonce, from_hex(body)}, aad);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, pt);
}

TEST(Aead, KnownAnswerLengthSweep) {
  // Plaintext lengths around the 16-, 64- and 256-byte edges and up to the
  // bulk payload size, each under three aad lengths. Bodies of up to 17
  // plaintext bytes are pinned in hex, longer ones as SHA-256 of the body.
  struct Case {
    std::size_t pt_len, aad_len;
    const char* body;
  };
  const Case cases[] = {
      {0, 0, "a0784d7a4716f3feb4f64e7f4b39bf04"},
      {0, 12, "ac3591a2bcac44b8b67c0f876bcbbfd9"},
      {0, 17, "c71b8959a650528ffde1e32b45000c8d"},
      {1, 0, "9fbb758e737cb56e18df4748421b085bb0"},
      {1, 12, "9f4e6f55fd8e1b3ef2a66f8a2f8677828f"},
      {1, 17, "9f3893c04c6068181999a7e56090fe6376"},
      {15, 0, "9ff8efd40d72522f0d79915a12262048d75a80100473534381bd1100b8e127"},
      {15, 12, "9ff8efd40d72522f0d79915a122620dbd0210a236a422d0ba9fffe6a270907"},
      {15, 17, "9ff8efd40d72522f0d79915a122620c5f48c59f4b61c54fde05a3075aeeaed"},
      {16, 0, "9ff8efd40d72522f0d79915a1226200331e8b6976b989258e5581c2fffc96761"},
      {16, 12, "9ff8efd40d72522f0d79915a12262003bfe17d217efe6132ad805e1c6a398f40"},
      {16, 17, "9ff8efd40d72522f0d79915a12262003ae05e9704f4b3c599fb8b94d74c07027"},
      {17, 0, "9ff8efd40d72522f0d79915a12262003f16f0ce66b28c2c3e5be4386859a466fd5"},
      {17, 12, "9ff8efd40d72522f0d79915a12262003f1de9297cc2b0a95094fd4e122fb39b0f3"},
      {17, 17, "9ff8efd40d72522f0d79915a12262003f14cd9b0821796fa3ae7bed6b86b71e884"},
      {63, 0, "9c89926442f9efcd4d1914c20aeb2fe9e51666198d55b89314fda6aa0433c204"},
      {63, 12, "c54de63427747730c03164280469ba96553412121766506c39cce9114c4f95e1"},
      {63, 17, "4f26e43615e27036baa329ee96c7224d911fc536859d5b4ef4ffb0f5f29f9d7d"},
      {64, 0, "0ebc76138b6efa793cd6400b07e15372ea22a3f0011f4a519c180247453e3c06"},
      {64, 12, "12e9751129258c5a027db0946110c59dcc1d445ccc2e8789403519dc6fe1702e"},
      {64, 17, "c4da6f99a60f133fcd223ca33c8d56d4b7df8da9e84160cfc05a52393bc9927e"},
      {65, 0, "3180db7d187114f4a04a2bb82652b5ff336a272a5e59dcd5c3109e9eaa966552"},
      {65, 12, "7d5c60c89791e7310be9815e8d4ebe3a6ca1346b3a315fd6c60066f1615caef2"},
      {65, 17, "d05cddbb2eed84904800e99adcdf16b799118d448c326a7f677118861466ebbc"},
      {255, 0, "990773308ae669353761443b13542a6b30de033969bb07398775b493ba269135"},
      {255, 12, "02a43dd8eb451438119cbf809df2f1a4e7859f5e37cdfd3ab333157e5fd62f5a"},
      {255, 17, "cca44fe356f327953e7bc9e3edce44b76dde15317e03abe096f36ebea30f8708"},
      {256, 0, "465cc50186898d5890992ea4d366787979d500b60ccff1981ea97e7b3e3fe57d"},
      {256, 12, "18357f10dccad3d8e0a1ddbc8d8fcc8b5a91fa0b6cf415a939c4403dd98469ad"},
      {256, 17, "01cd9812fd19e953b08f3a74a78c7d5362043eb0cb5cc9e0cc9430d5c69ee055"},
      {257, 0, "79bca55ab4bc4eb596e7828c312c0d0db9c53f4798a2799593e2f764084dae92"},
      {257, 12, "5942d73d273ab52f1f8aa2c4784d9372600dfe5e6f61c4ec73558d3266ba4386"},
      {257, 17, "52616087d1766ea9b43a827091b48bda77df1e3eca034e0be33361180760e956"},
      {1023, 0, "d050c484ce9d22daf5abad6c14f4eb0dbf992f3659b944c5777df92558526127"},
      {1023, 12, "4376db5a26b51344cc08e24a6c56c394fc600b8d669d9c71cc113be3e102f84e"},
      {1023, 17, "5ab255e8aaff3b61a3c40573034dce1672dbff328d5553d7a84e3805be68e535"},
      {4097, 0, "45bf5fb95ba2c5d36d6c07b9ac5171dcc07513160819ddf7fc7c0c4348e8776a"},
      {4097, 12, "df948b64521c5fbb471c9533cf40f9f7b07994dc8542c05c13baf15c5f98ff70"},
      {4097, 17, "e77566566a1911d4c905582ab604540a38d3c16f9fffac71f7ab6a7f4623e6f6"},
      {262145, 0, "add635113610d0170ae647a1f1d06b34050e1f530474a9bb4c3c1f3df1e925e4"},
      {262145, 12, "83994527479b565beeb2bfae7c329e744b52fd08ac68ff07ba56087b2669afaa"},
      {262145, 17, "2fb5c437b9ce2088334cdd649c7e4396966acd5ea0395bc6b8ae0fa70cfc5483"},
  };
  const Bytes key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = from_hex("070000004041424344454647");
  for (const Case& c : cases) {
    Bytes pt(c.pt_len), aad(c.aad_len);
    for (std::size_t i = 0; i < pt.size(); ++i) {
      pt[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
    }
    for (std::size_t i = 0; i < aad.size(); ++i) aad[i] = static_cast<std::uint8_t>(0x50 + i);

    ReplayRng rng(nonce);
    const AeadCiphertext ct = aead_encrypt(key, pt, aad, rng);
    ASSERT_EQ(ct.body.size(), c.pt_len + 16);
    EXPECT_EQ(c.pt_len <= 17 ? to_hex(ct.body) : to_hex(Sha256::digest(ct.body)), c.body)
        << c.pt_len << "/" << c.aad_len;

    const auto out = aead_decrypt(key, ct, aad);
    ASSERT_TRUE(out.has_value()) << c.pt_len << "/" << c.aad_len;
    EXPECT_EQ(*out, pt);
  }
}

// --- DRBG ------------------------------------------------------------------------

TEST(Drbg, DeterministicWithSeed) {
  Drbg a(str_to_bytes("seed"));
  Drbg b(str_to_bytes("seed"));
  EXPECT_EQ(a.bytes(100), b.bytes(100));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(str_to_bytes("seed-1"));
  Drbg b(str_to_bytes("seed-2"));
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

TEST(Drbg, StreamsDoNotRepeatAcrossRefills) {
  Drbg a(str_to_bytes("seed"));
  const Bytes first = a.bytes(960);
  const Bytes second = a.bytes(960);
  EXPECT_NE(first, second);
}

TEST(Drbg, KnownAnswerAcrossRefills) {
  // 2048 bytes cross two refills of the 960-byte pool. Expected value from
  // OpenSSL's ChaCha20 following the refill construction in drbg.cpp.
  Drbg d(str_to_bytes("seed"));
  EXPECT_EQ(to_hex(Sha256::digest(d.bytes(2048))),
            "65daffa73a4ac64154f8b4b364a212e9d15a7085cda59bf9493656467a6d851d");
}

TEST(Drbg, SystemSeededProducesDistinctStreams) {
  Drbg a, b;
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

}  // namespace
}  // namespace p3s::crypto
