// Network registration protocol (paper Fig. 2): clients contact the ARA
// over the wire, authenticate by identity (the ARA holds a provisioned
// roster of who gets which CP-ABE attributes — attribute assignment is an
// out-of-band administrative decision, never client-chosen), and receive
// their credentials encrypted under a request-scoped symmetric key Ks.
//
// The ARA public key is the deployment's trust anchor, assumed to be known
// a priori (like a CA certificate).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

#include "net/network.hpp"
#include "p3s/ara.hpp"
#include "pairing/ecies.hpp"

namespace p3s::core {

/// The ARA's network front end.
class AraServer {
 public:
  AraServer(net::Network& network, std::string name, const Ara& ara, Rng& rng);
  ~AraServer();

  const std::string& name() const { return name_; }
  const pairing::Point& public_key() const { return keys_.public_key; }

  /// Provision the roster: which identities may register, and with which
  /// CP-ABE attributes (subscribers only).
  void enroll_subscriber(const std::string& identity,
                         std::set<std::string> attributes);
  void enroll_publisher(const std::string& identity);

  std::size_t rejected_requests() const { return rejected_; }

 private:
  void on_frame(const std::string& from, BytesView frame);

  net::Network& network_;
  std::string name_;
  const Ara& ara_;
  pairing::EciesKeyPair keys_;
  Rng& rng_;
  std::map<std::string, std::set<std::string>> subscriber_roster_;
  std::set<std::string> publisher_roster_;
  std::size_t rejected_ = 0;
};

/// The client half of one Fig. 2 exchange: constructing it puts the request
/// on the wire. It completes only when the caller drains the network; then
/// credentials() can be read. Its temporary endpoint, `<client_endpoint>.reg`,
/// goes when the ARA's answer lands or when the handle is destroyed,
/// whichever comes first, so an ARA that never answers leaves nothing behind
/// once the handle is gone.
template <class Credentials>
class RemoteRegistration {
 public:
  RemoteRegistration(net::Network& network, const std::string& client_endpoint,
                     const std::string& ara_name, const pairing::Point& ara_pk,
                     pairing::PairingPtr pairing, const std::string& identity,
                     Rng& rng);
  ~RemoteRegistration() { close(); }
  RemoteRegistration(const RemoteRegistration&) = delete;
  RemoteRegistration& operator=(const RemoteRegistration&) = delete;

  /// True until the ARA's answer has landed.
  bool pending() const { return pending_; }
  /// The credentials once an acceptance has landed; nullopt before that,
  /// and for good when the ARA rejected the identity.
  const std::optional<Credentials>& credentials() const {
    return credentials_;
  }

 private:
  void on_frame(BytesView frame);
  void close();

  net::Network& network_;
  std::string endpoint_;
  pairing::PairingPtr pairing_;
  Bytes ks_;
  bool pending_ = true;
  std::optional<Credentials> credentials_;
};

/// The credentials type picks the request: a subscriber gets the CP-ABE
/// attributes the ARA's roster assigns it, a publisher gets none.
using SubscriberRegistration = RemoteRegistration<SubscriberCredentials>;
using PublisherRegistration = RemoteRegistration<PublisherCredentials>;

}  // namespace p3s::core
