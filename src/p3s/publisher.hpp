// Publisher client library (paper §4.3, Fig. 4). The publisher never learns
// who subscribes or whether anything matched: it PBE-encrypts the GUID under
// the item's metadata, CP-ABE-encrypts (GUID, payload) under its access
// policy, and hands both to the DS over the secure channel.
//
// With ReliabilityConfig.enabled the fire-and-forget submission becomes a
// retried request: content + metadata travel in one kPublishRequest keyed by
// a random request id, the DS acks only after the RS stored the payload, and
// poll() re-sends past-deadline requests with capped exponential backoff
// (re-establishing the channel after repeated timeouts — DS restart
// re-registration). Retries are idempotent end to end: the DS dedupes by
// request id, the RS overwrites by GUID.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/guid.hpp"
#include "net/network.hpp"
#include "p3s/channel_client.hpp"
#include "p3s/credentials.hpp"
#include "p3s/reliability.hpp"

namespace p3s::core {

class Publisher {
 public:
  Publisher(net::Network& network, std::string name,
            PublisherCredentials credentials, Rng& rng,
            ReliabilityConfig reliability = {});
  ~Publisher();

  /// Establish the DS channel and register as a publisher.
  void connect();
  bool connected() const { return channel_.connected(); }
  /// Clean departure: deregister from the DS and drop the channel. poll()
  /// then holds unacknowledged publishes until the next connect().
  void disconnect();

  /// Publish one item. `ttl_seconds` is the publisher's deletion intent
  /// (T_pub). Returns the fresh GUID. Throws std::logic_error when not
  /// connected, std::invalid_argument on metadata/policy errors and on a
  /// negative, non-finite or out-of-range TTL (checked before any
  /// randomness is drawn). When the credentials carry an epoch policy, the
  /// metadata is stamped with the current epoch automatically.
  Guid publish(const pbe::Metadata& metadata, BytesView payload,
               const abe::PolicyNode& policy, double ttl_seconds = 3600.0);

  /// Reliable-mode driver: re-send past-deadline publish requests and the
  /// registration, with backoff + jitter from the client DRBG. Call it
  /// whenever network time may have advanced. No-op when reliability is off.
  void poll();

  /// Footnote-1 mitigation: super-encrypt the GUID in the content
  /// submission under the RS public key so eavesdroppers (and the DS)
  /// cannot learn it. Off by default to match the base paper protocol.
  void set_guid_super_encryption(bool on) { super_encrypt_guid_ = on; }

  const std::string& name() const { return name_; }

  // --- reliable-layer observable state ------------------------------------
  /// Publishes not yet acknowledged by the DS.
  std::size_t pending_publish_count() const { return pending_.size(); }
  /// Publishes abandoned after max_attempts (the surfaced error the paper's
  /// §6.1 "detect at the application level" asks for).
  std::size_t publish_failures() const { return publish_failures_; }
  std::size_t retries() const { return retries_; }

 private:
  struct PendingPublish {
    Bytes request_frame;  // full kPublishRequest inner frame, re-sealed as is
    double deadline = 0.0;
    std::size_t attempts = 1;  // sends so far
  };

  void on_frame(const std::string& from, BytesView frame);

  net::Network& network_;
  std::string name_;
  PublisherCredentials creds_;
  Rng& rng_;
  ReliabilityConfig reliability_;
  ChannelClient channel_;
  bool super_encrypt_guid_ = false;

  std::map<Bytes, PendingPublish> pending_;
  std::size_t publish_failures_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace p3s::core
