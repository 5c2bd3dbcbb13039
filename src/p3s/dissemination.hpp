// Dissemination Server (paper §4.1): terminates the secure channels
// ("TLS tunnels") to publishers and subscribers, fans PBE-encrypted metadata
// out to every registered subscriber, and forwards CP-ABE-encrypted payloads
// to the RS. Sees only ciphertext and sizes: the privacy tests open every
// record it receives with its own keys and find nothing else.
//
// Reliable path (DESIGN.md "Reliability"): a kPublishRequest is stored on
// the RS first (kStoreRequest/kStoreAck) and only then fanned out and acked
// back to the publisher, keyed by the publisher's request id so retries are
// idempotent. Broadcasts get a per-incarnation sequence index and are kept
// in a bounded replay ring so reliable subscribers can repair gaps with
// kMetaSyncRequest.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "net/secure.hpp"
#include "p3s/hardening.hpp"
#include "pairing/ecies.hpp"

namespace p3s::core {

class DisseminationServer {
 public:
  /// `identity` lets a restarted DS keep its long-term channel key (from
  /// "disk"); omit it for a fresh deployment.
  DisseminationServer(net::Network& network, std::string name,
                      pairing::PairingPtr pairing, std::string rs_name,
                      Rng& rng,
                      std::optional<pairing::EciesKeyPair> identity = {});
  ~DisseminationServer();

  const std::string& name() const { return name_; }
  const pairing::Point& public_key() const { return keys_.public_key; }
  const pairing::EciesKeyPair& identity() const { return keys_; }

  std::size_t subscriber_count() const { return subscribers_.size(); }
  std::size_t publisher_count() const { return publishers_.size(); }

  /// Broadcast shaping (DESIGN.md §11): batched fanout with a DRBG-jittered
  /// flush, bucketed broadcast padding, and garbage cover broadcasts. All
  /// off by default; enabling creates the dedicated hardening DRBG, whose
  /// seed is drawn from the DS's RNG when `hardening.seed` is unset. Cover
  /// broadcasts carry `broadcast_size` bytes of garbage: the size of every
  /// real broadcast's HVE blob (pbe::hve_encrypt_bytes_size).
  void set_hardening(DsHardening hardening, std::size_t broadcast_size);
  const DsHardening& hardening() const { return hard_; }
  /// Hardening driver: flush a due broadcast batch and inject due cover.
  /// Call whenever network time may have advanced; no-op unhardened.
  void poll();
  /// Broadcasts queued for the next batched flush.
  std::size_t queued_broadcast_count() const { return pending_fanout_.size(); }

  /// Simulate a crash: drop all sessions, registrations, the metadata replay
  /// ring, and in-flight publish state (long-term key survives, as it would
  /// on disk). Clients must re-register (paper §6.1: "A restarted DS needs
  /// to wait for subscribers and publishers to (re)register"); the bumped
  /// incarnation tells reliable subscribers their sequence space reset.
  void crash_and_restart();

  /// Malicious-DS model (DESIGN.md §11, the attack suite's replay-griefing
  /// scenario): re-seal and re-send every retained broadcast to every
  /// connected subscriber. The DS owns the channel keys, so each replay
  /// carries a fresh channel sequence number and the transport-level replay
  /// protection cannot reject it — only the broadcast-index layer of the
  /// reliable protocol can. Fire-and-forget subscribers reprocess the
  /// metadata (match + fetch amplification); reliable ones suppress it.
  /// Returns the number of frames sent.
  std::size_t replay_broadcasts();

 private:
  struct PendingStore {
    std::string publisher;
    Bytes hve_ciphertext;
    Bytes store_frame;  // re-forwarded verbatim on publisher retry
  };

  void on_frame(const std::string& from, BytesView frame);
  void handle_inner(const std::string& from, BytesView inner);
  void send_sealed(const std::string& to, BytesView inner);
  /// Assign the next broadcast index, append to the replay ring, then seal
  /// and send to every registered subscriber in order (legacy frame for
  /// fire-and-forget subscribers, indexed frame for reliable ones).
  void fan_out_metadata(const Bytes& hve_ciphertext);
  /// Batching indirection: queue the broadcast for a jittered flush when
  /// hardening batches, otherwise fan out immediately (base behavior).
  void schedule_fanout(const Bytes& hve_ciphertext);
  void flush_broadcasts();
  void handle_store_ack(const std::string& from, Reader& r);
  void mark_done(const Bytes& request_id);

  net::Network& network_;
  std::string name_;
  pairing::PairingPtr pairing_;
  std::string rs_name_;
  pairing::EciesKeyPair keys_;
  Rng& rng_;
  std::map<std::string, net::SecureSession> sessions_;
  std::set<std::string> subscribers_;
  std::set<std::string> publishers_;

  // --- reliable-layer state ------------------------------------------------
  // Incarnation is a restart counter, not a secret: it only has to differ
  // across crash_and_restart() calls on this instance so reliable
  // subscribers can detect the sequence-space reset. (A production DS would
  // persist or randomize it; drawing from rng_ here would shift the shared
  // test RNG stream and break wire-level determinism pins.)
  std::uint64_t incarnation_ = 1;
  std::uint64_t next_meta_index_ = 0;
  std::uint64_t meta_base_ = 0;
  std::deque<Bytes> meta_ring_;  // hve ciphertexts [meta_base_, next index)
  std::map<std::string, std::uint64_t> reliable_subs_;  // name → joined index
  std::map<Bytes, PendingStore> pending_stores_;
  std::set<Bytes> done_requests_;
  std::deque<Bytes> done_order_;  // FIFO eviction for done_requests_

  // --- broadcast shaping (DESIGN.md §11) -----------------------------------
  // Hardening randomness comes from a dedicated DRBG, not rng_: shaping
  // must not shift the shared RNG stream (the fanout seals'
  // wire-determinism pin depends on it); rng_ gives at most the DRBG's
  // seed. Cover broadcasts DO consume rng_ seal nonces like any real
  // fanout — that is inherent to being real broadcasts.
  DsHardening hard_;
  std::optional<crypto::Drbg> hard_drbg_;
  std::vector<Bytes> pending_fanout_;  // queued hve cts awaiting flush
  std::optional<double> fanout_deadline_;
  std::optional<double> next_cover_;
  std::size_t cover_size_ = 0;  // a real broadcast's HVE blob size
};

}  // namespace p3s::core
