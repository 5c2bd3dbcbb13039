// Repository Server (paper §4.1, §4.3): stores CP-ABE-encrypted payloads
// indexed by GUID, serves them to anonymous requesters, and garbage-collects
// per the publisher's TTL plus a configurable grace period T_G (paper's
// "Deletion" paragraph: items are deleted after TTL_pub + T_G; with T_G = 0
// slow consumers may miss matched items).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/guid.hpp"
#include "net/network.hpp"
#include "pairing/ecies.hpp"

namespace p3s::core {

class RepositoryServer {
 public:
  /// `grace_seconds` is T_G. Time comes from the network clock.
  RepositoryServer(net::Network& network, std::string name,
                   pairing::PairingPtr pairing, Rng& rng,
                   double grace_seconds = 5.0);
  ~RepositoryServer();

  const std::string& name() const { return name_; }
  const pairing::Point& public_key() const { return keys_.public_key; }
  const pairing::EciesKeyPair& identity() const { return keys_; }

  /// Delete all items past TTL_pub + T_G (the paper's garbage collector).
  /// Returns how many items were collected.
  std::size_t garbage_collect();

  /// Hardening (DESIGN.md §11): pad the plaintext of every content response
  /// up to a multiple of `bucket` BEFORE sealing under Ks, so hit and miss
  /// (and small vs. large payloads within a bucket) produce identically
  /// sized frames on both the rs→anon and anon→sub legs. 0 disables.
  void set_response_pad_bucket(std::size_t bucket) {
    response_pad_bucket_ = bucket;
  }

  std::size_t stored_items() const { return store_.size(); }

  /// --- Persistence (the paper's RS stores encrypted content on disk and
  /// resumes after crash without re-encryption) --------------------------
  Bytes snapshot() const;
  void restore(BytesView snapshot);
  /// Disk-backed variants (the paper's prototype used an embedded Derby
  /// database; a flat snapshot file preserves the same property). Throws
  /// std::runtime_error on I/O failure.
  void save_to_file(const std::string& path) const;
  void load_from_file(const std::string& path);

 private:
  struct Item {
    Bytes abe_ciphertext;
    double expires_at;  // absolute network time incl. grace
  };

  void on_frame(const std::string& from, BytesView frame);

  net::Network& network_;
  std::string name_;
  pairing::PairingPtr pairing_;
  pairing::EciesKeyPair keys_;
  Rng& rng_;
  double grace_seconds_;
  std::size_t response_pad_bucket_ = 0;
  std::map<Guid, Item> store_;
};

}  // namespace p3s::core
