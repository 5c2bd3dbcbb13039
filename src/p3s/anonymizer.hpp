// Anonymization service (paper §4.1): subscribers reach the PBE-TS and RS
// through this relay so those services cannot bind requests to subscriber
// identities. The relay rewrites the request's reply tag, remembers
// tag → requester, and routes the response back. It never inspects request
// payloads (they are ECIES-encrypted to the destination service).
//
// Identity rewriting alone does not hide traffic SHAPE: an eavesdropper can
// link a subscriber's request to the relay's forward by FIFO order and
// timing, and frame sizes fingerprint what was fetched (DESIGN.md §11;
// tests/attack_test.cpp executes the attacks). AnonHardening therefore adds
// batched mixing with a DRBG-jittered flush, padding to bucketed sizes, and
// decoy cover fetches — all off by default so the base wire protocol is
// unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "p3s/hardening.hpp"
#include "p3s/messages.hpp"
#include "pairing/pairing.hpp"

namespace p3s::core {

class Anonymizer {
 public:
  /// Cap on each tag table (anonymizer.cpp says why).
  static constexpr std::size_t kTagCap = 4096;

  /// `rng` seeds the hardening DRBG when hardening is on and
  /// `hardening.seed` is unset; nothing else draws from it.
  Anonymizer(net::Network& network, std::string name, Rng& rng,
             AnonHardening hardening = {});
  ~Anonymizer();

  const std::string& name() const { return name_; }
  const AnonHardening& hardening() const { return hard_; }

  /// Give the relay what it needs to synthesize decoy RS fetches (a fresh
  /// Ks and a random GUID under the RS public key — byte-compatible with a
  /// real subscriber fetch, so the wire cannot tell them apart). Required
  /// before a flush can top a short batch up to `min_batch`.
  void enable_cover(pairing::PairingPtr pairing, std::string rs_name,
                    pairing::Point rs_pk);

  /// Mixing driver: flush the held batch once its jittered deadline passes.
  /// Call whenever network time may have advanced; no-op when batching is
  /// off or nothing is held.
  void poll();

  /// Requests currently held for the next batch flush.
  std::size_t held_count() const { return held_.size(); }

 private:
  struct Held {
    std::string destination;
    FrameType type = FrameType::kContentRequest;
    std::uint64_t tag = 0;  // rewritten tag, already in pending_/decoys_
    Bytes payload;
  };
  struct Cover {
    pairing::PairingPtr pairing;
    std::string rs_name;
    pairing::Point rs_pk;
  };

  void on_frame(const std::string& from, BytesView frame);
  /// Send one (possibly padded) request frame to its service.
  void relay(const Held& h);
  /// Shuffle, top up with decoys, and send the held batch.
  void flush();
  Held make_decoy();
  Bytes maybe_pad(Bytes frame);

  net::Network& network_;
  std::string name_;
  AnonHardening hard_;
  /// Dedicated randomness for mixing, padding, and decoys — never the
  /// shared test RNG (hardening must not shift other components' streams).
  std::optional<crypto::Drbg> drbg_;  // iff hard_.any_enabled()
  struct Pending {
    std::string requester;
    std::uint64_t original_tag;
  };
  std::uint64_t next_tag_ = 1;
  // Both tag tables hold at most kTagCap entries.
  std::map<std::uint64_t, Pending> pending_;  // rewritten tag -> origin
  std::set<std::uint64_t> decoy_tags_;        // replies to absorb, not relay
  std::vector<Held> held_;                    // batch awaiting flush
  std::optional<double> flush_deadline_;
  std::optional<Cover> cover_;
};

}  // namespace p3s::core
