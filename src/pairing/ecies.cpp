#include "pairing/ecies.hpp"

#include <stdexcept>

#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"

namespace p3s::pairing {

namespace {
Bytes derive_key(const Pairing& pairing, const Point& ephemeral,
                 const Point& shared) {
  const Bytes ikm =
      concat(pairing.serialize_g1(ephemeral), pairing.serialize_g1(shared));
  return crypto::hkdf(str_to_bytes("p3s-ecies-v1"), ikm, {}, 32);
}
}  // namespace

EciesKeyPair ecies_keygen(const Pairing& pairing, Rng& rng) {
  EciesKeyPair kp;
  kp.secret = pairing.random_nonzero_scalar(rng);
  kp.public_key = pairing.mul(pairing.generator(), kp.secret);
  return kp;
}

Bytes ecies_encrypt(const Pairing& pairing, const Point& recipient_pk,
                    BytesView plaintext, Rng& rng) {
  const BigInt k = pairing.random_nonzero_scalar(rng);
  const MulTerm terms[] = {{pairing.generator(), k}, {recipient_pk, k}};
  const std::vector<Point> c1_shared = pairing.mul_batch(terms);
  const Point& c1 = c1_shared[0];
  const Bytes key = derive_key(pairing, c1, c1_shared[1]);
  const Bytes c1_ser = pairing.serialize_g1(c1);
  const crypto::AeadCiphertext body =
      crypto::aead_encrypt(key, plaintext, c1_ser, rng);
  Writer w;
  w.bytes(c1_ser);
  w.bytes(body.serialize());
  return w.take();
}

std::optional<Bytes> ecies_decrypt(const Pairing& pairing, const BigInt& secret,
                                   BytesView ciphertext) {
  try {
    Reader r(ciphertext);
    const Bytes c1_ser = r.bytes();
    const Bytes body_ser = r.bytes();
    r.expect_done();
    const Point c1 = pairing.deserialize_g1(c1_ser);
    if (c1.infinity) return std::nullopt;
    const Point shared = pairing.mul(c1, secret);
    const Bytes key = derive_key(pairing, c1, shared);
    return crypto::aead_decrypt(key, crypto::AeadCiphertext::deserialize(body_ser),
                                c1_ser);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace p3s::pairing
