// Subscriber client library (paper §4.3, Figs. 3 & 4). The subscriber:
//  1. obtains PBE tokens for its interests from the PBE-TS via the
//     anonymization service (the PBE-TS sees the plaintext predicate but not
//     who asked);
//  2. matches every PBE-encrypted metadata broadcast LOCALLY against its
//     tokens — interest never leaves the subscriber;
//  3. on a match, fetches the CP-ABE payload from the RS anonymously under a
//     fresh symmetric key Ks;
//  4. decrypts the payload iff its ARA-issued attributes satisfy the
//     publisher's policy.
//
// With ReliabilityConfig.enabled the client becomes loss-tolerant
// (DESIGN.md "Reliability"): token and content requests carry deadlines and
// are retried with backoff (same tag + same Ks, so duplicate responses are
// naturally deduplicated); metadata arrives as an indexed stream whose gaps
// are detected and repaired through kMetaSyncRequest, with a heartbeat sync
// that also detects a restarted DS (incarnation change) and re-registers.
// Exactly-once delivery is enforced at the GUID level regardless of how
// often a broadcast or response is replayed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/guid.hpp"
#include "common/serial.hpp"
#include "net/network.hpp"
#include "net/secure.hpp"
#include "p3s/credentials.hpp"
#include "p3s/reliability.hpp"

namespace p3s::core {

class Subscriber {
 public:
  struct Delivery {
    Guid guid;
    Bytes payload;
  };
  using DeliveryHandler = std::function<void(const Delivery&)>;

  /// `use_anonymizer` false = direct RS/PBE-TS contact (paper: privacy still
  /// holds except the services learn request-to-identity binding).
  Subscriber(net::Network& network, std::string name,
             SubscriberCredentials credentials, Rng& rng,
             bool use_anonymizer = true, ReliabilityConfig reliability = {});
  ~Subscriber();

  /// Establish the DS channel and register as a subscriber.
  void connect();
  bool connected() const { return connected_; }

  /// Register an interest: requests a PBE token for it. The predicate must
  /// constrain at least one attribute (all-wildcard rejected by schema).
  void subscribe(const pbe::Interest& interest);

  /// Drop an interest: its token is discarded locally so matching stops
  /// immediately. Interest privacy means the infrastructure is never told —
  /// the DS keeps broadcasting (it broadcasts to everyone regardless).
  /// Returns false when no such interest was registered.
  bool unsubscribe(const pbe::Interest& interest);

  /// Clean departure: tell the DS to drop the registration and channel.
  /// Tokens are kept so a later connect() + subscribe history can resume.
  void disconnect();

  /// After a DS restart: re-establish the channel and registration; after a
  /// subscriber restart: also re-request tokens for all interests
  /// (paper §6.1 restart discussion).
  void reconnect();
  void refresh_tokens();

  /// Reliable-mode driver: re-send past-deadline token/content requests and
  /// the registration, and run the metadata sync heartbeat. Call it whenever
  /// network time may have advanced. No-op when reliability is off.
  void poll();

  /// Diagnostic/test hook: ask the DS to replay its broadcast ring from
  /// `from_index` (reliable mode only). Replayed frames the subscriber
  /// already processed are counted as duplicates, never re-delivered.
  void request_metadata_replay(std::uint64_t from_index);

  /// The only output of delivered payloads: each one is handed to the
  /// handler once and not kept.
  void set_delivery_handler(DeliveryHandler handler) {
    handler_ = std::move(handler);
  }

  // --- observable state ----------------------------------------------------
  std::size_t token_count() const { return tokens_.size(); }
  std::size_t metadata_received() const { return metadata_received_; }
  std::size_t match_count() const { return matches_; }
  /// Payloads decrypted and delivered (each GUID at most once).
  std::size_t delivery_count() const { return delivered_; }
  /// Matched but the RS no longer had the item (TTL deletion / slow client).
  std::size_t fetch_failures() const { return fetch_failures_; }
  /// Fetched but CP-ABE attributes did not satisfy the policy.
  std::size_t undecryptable_payloads() const { return undecryptable_; }
  std::size_t token_rejections() const { return token_rejections_; }
  // --- reliable-layer observable state ------------------------------------
  /// Replayed/duplicated broadcasts that were suppressed, not re-processed.
  std::size_t duplicate_metadata() const { return duplicate_metadata_; }
  /// Token/content requests abandoned after max_attempts (surfaced error).
  std::size_t request_failures() const { return request_failures_; }
  std::size_t retries() const { return retries_; }
  std::size_t pending_request_count() const {
    return pending_token_requests_.size() + pending_content_requests_.size();
  }
  /// Broadcast indices known missing and awaiting sync repair.
  std::size_t missing_metadata_count() const { return missing_meta_.size(); }
  const std::string& name() const { return name_; }
  const SubscriberCredentials& credentials() const { return creds_; }

 private:
  struct PendingRequest {
    Bytes request;  // full outer request frame, re-sent verbatim
    std::string service;
    double deadline = 0.0;
    std::size_t attempts = 1;  // sends so far
  };

  void on_frame(const std::string& from, BytesView frame);
  void handle_inner(BytesView inner);
  void handle_reliable_ack(Reader& r);
  void handle_sequenced_metadata(Reader& r);
  void handle_sync_info(Reader& r);
  void handle_metadata(BytesView hve_ct);
  void handle_token_response(BytesView body);
  void handle_content_response(BytesView body);
  void request_token(const pbe::Interest& interest);
  void request_content(const Guid& guid);
  void send_sealed(BytesView inner);
  void send_service_request(const std::string& service, Bytes request);
  void send_sync(double now);
  void retry_requests(std::map<std::uint64_t, PendingRequest>& pending,
                      double now);
  /// Rebuild the width index + position union after any tokens_ mutation.
  void reindex_tokens();

  net::Network& network_;
  std::string name_;
  SubscriberCredentials creds_;
  Rng& rng_;
  bool use_anonymizer_;
  ReliabilityConfig reliability_;

  std::optional<net::SecureSession> session_;
  bool connected_ = false;
  std::vector<pbe::Interest> interests_;
  std::vector<pbe::HveToken> tokens_;
  // Width index over tokens_: token_min_widths_[i] is the smallest broadcast
  // width tokens_[i] can possibly match (max probed position + 1), so
  // narrower broadcasts skip that token with zero pairing work.
  // token_positions_union_ is the ascending union of all probed positions,
  // limiting the per-broadcast Miller precompute to positions some token
  // actually probes.
  std::vector<std::uint32_t> token_min_widths_;
  std::vector<std::uint32_t> token_positions_union_;
  std::uint64_t next_tag_ = 1;
  std::map<std::uint64_t, Bytes> pending_token_ks_;
  std::map<std::uint64_t, Bytes> pending_content_ks_;
  std::set<Guid> requested_guids_;

  // --- reliable-layer state ------------------------------------------------
  std::map<std::uint64_t, PendingRequest> pending_token_requests_;
  std::map<std::uint64_t, PendingRequest> pending_content_requests_;
  std::optional<double> register_deadline_;
  std::size_t register_attempts_ = 0;
  // Sequenced metadata stream. Invariant once the baseline is set: every
  // index < next_meta_index_ was either processed or sits in missing_meta_.
  // Frames arriving before the first (incarnation, joined-index) ack are
  // ignored — the post-ack sync replays them from the DS ring, so the
  // baseline never has to guess which history it was entitled to.
  bool meta_baseline_ = false;
  std::optional<std::uint64_t> ds_incarnation_;
  std::uint64_t next_meta_index_ = 0;
  std::set<std::uint64_t> missing_meta_;
  bool force_sync_ = false;
  std::optional<double> sync_deadline_;
  std::size_t sync_failures_ = 0;
  double next_heartbeat_ = 0.0;
  std::set<Guid> delivered_guids_;

  DeliveryHandler handler_;
  std::size_t metadata_received_ = 0;
  std::size_t matches_ = 0;
  std::size_t delivered_ = 0;
  std::size_t fetch_failures_ = 0;
  std::size_t undecryptable_ = 0;
  std::size_t token_rejections_ = 0;
  std::size_t duplicate_metadata_ = 0;
  std::size_t request_failures_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace p3s::core
