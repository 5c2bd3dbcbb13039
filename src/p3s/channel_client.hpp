// The client end of the DS secure channel, which Publisher and Subscriber
// both hold: the hello, sealed sends, opening the DS's records, and the
// registration with its ack and, in reliable mode, its retry.
#pragma once

#include <optional>
#include <string>

#include "common/serial.hpp"
#include "net/network.hpp"
#include "net/secure.hpp"
#include "p3s/credentials.hpp"
#include "p3s/reliability.hpp"

namespace p3s::core {

class ChannelClient {
 public:
  /// Each connect() registers with `register_frame`. Throws
  /// std::invalid_argument for reconnect_after 0 or a jitter outside [0, 1].
  ChannelClient(net::Network& network, std::string endpoint,
                const ServiceDirectory& services, pairing::PairingPtr pairing,
                Rng& rng, const ReliabilityConfig& reliability,
                Bytes register_frame);

  /// A fresh hello, then the registration, whose deadline this arms in
  /// reliable mode. With `await_ack`, connected() is false until the ack.
  void connect(bool await_ack = false);
  /// Unregister and drop the session; the registration retry stops.
  void disconnect();
  bool has_session() const { return session_.has_value(); }
  bool connected() const { return connected_; }

  /// Seal `inner` to the DS. Throws std::logic_error without a session.
  void send(BytesView inner);
  /// Open a kChannelRecord's record field (`r` is past the type byte);
  /// nullopt without a session or when it does not open. An opened
  /// registration ack marks the channel connected.
  std::optional<Bytes> open(Reader& r);
  /// Re-connect once the registration deadline passes without an ack, up
  /// to max_attempts. True when it re-sent.
  bool poll(double now);

 private:
  net::Network& network_;
  std::string endpoint_;
  std::string ds_name_;
  pairing::Point ds_pk_;
  pairing::PairingPtr pairing_;
  Rng& rng_;
  ReliabilityConfig reliability_;
  Bytes register_frame_;
  std::optional<net::SecureSession> session_;
  bool connected_ = false;
  std::optional<double> register_deadline_;
  std::size_t register_attempts_ = 0;
};

}  // namespace p3s::core
