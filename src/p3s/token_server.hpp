// PBE Token Server (paper §4.1, §4.3 Fig. 3): receives the 3-tuple
// (Ks, subscriber certificate, plaintext predicate) ECIES-encrypted under
// its public key, validates the certificate, computes the HVE token for the
// predicate, and returns it AEAD-encrypted under Ks. When the request
// arrives via the anonymization service, the PBE-TS sees the plaintext
// predicate but cannot bind it to a subscriber identity — the exact
// visibility trade-off the paper analyzes (and lists as an open
// shortcoming in §8).
#pragma once

#include <string>

#include "net/network.hpp"
#include "p3s/credentials.hpp"
#include "pairing/ecies.hpp"

namespace p3s::core {

class PbeTokenServer {
 public:
  PbeTokenServer(net::Network& network, std::string name,
                 pairing::PairingPtr pairing, pbe::HveKeys hve_keys,
                 pbe::MetadataSchema schema, pairing::Point ara_cert_pk,
                 Rng& rng);
  ~PbeTokenServer();

  const std::string& name() const { return name_; }
  const pairing::Point& public_key() const { return keys_.public_key; }
  const pairing::EciesKeyPair& identity() const { return keys_; }
  std::size_t rejected_requests() const { return rejected_; }

 private:
  void on_frame(const std::string& from, BytesView frame);

  net::Network& network_;
  std::string name_;
  pairing::PairingPtr pairing_;
  pbe::HveKeys hve_keys_;
  pbe::MetadataSchema schema_;
  pairing::Point ara_cert_pk_;
  pairing::EciesKeyPair keys_;
  Rng& rng_;
  std::size_t rejected_ = 0;
};

}  // namespace p3s::core
