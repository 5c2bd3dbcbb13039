#include "p3s/registration.hpp"

#include <type_traits>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "p3s/exchange.hpp"

namespace p3s::core {

AraServer::AraServer(net::Network& network, std::string name, const Ara& ara,
                     Rng& rng)
    : network_(network),
      name_(std::move(name)),
      ara_(ara),
      keys_(pairing::ecies_keygen(*ara.abe_pk().pairing, rng)),
      rng_(rng) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

AraServer::~AraServer() { network_.unregister_endpoint(name_); }

void AraServer::enroll_subscriber(const std::string& identity,
                                  std::set<std::string> attributes) {
  subscriber_roster_[identity] = std::move(attributes);
}

void AraServer::enroll_publisher(const std::string& identity) {
  publisher_roster_.insert(identity);
}

void AraServer::on_frame(const std::string& from, BytesView data) {
  try {
    const pairing::PairingPtr pairing = ara_.abe_pk().pairing;
    Reader r(data);
    const FrameType type = read_frame_type(r);
    if (type != FrameType::kAraRegisterSubscriber &&
        type != FrameType::kAraRegisterPublisher) {
      log_warn("ara") << "unexpected frame from " << from;
      return;
    }
    const TaggedBody body = read_tagged(r);
    const auto request = open_request(*pairing, keys_.secret, body.payload);
    if (!request.has_value()) {
      ++rejected_;
      return;
    }
    Reader pr(request->fields);
    const std::string identity = pr.str();
    pr.expect_done();

    // Only the roster's identities get credentials; anyone else is told
    // no under the same Ks.
    std::optional<Bytes> creds;
    if (type == FrameType::kAraRegisterSubscriber) {
      const auto it = subscriber_roster_.find(identity);
      if (it != subscriber_roster_.end()) {
        creds = ara_.register_subscriber(identity, it->second, rng_)
                    .serialize(pairing);
      }
    } else if (publisher_roster_.contains(identity)) {
      creds = ara_.register_publisher(identity, rng_).serialize(pairing);
    }
    if (!creds.has_value()) ++rejected_;
    network_.send(name_, from,
                  response_frame(FrameType::kAraResponse, body.tag,
                                 request->ks,
                                 creds ? kStatusOk : kStatusRejected,
                                 creds.value_or(Bytes{}), rng_));
  } catch (const std::exception& e) {
    ++rejected_;
    log_warn("ara") << "bad registration from " << from << ": " << e.what();
  }
}

template <class Credentials>
RemoteRegistration<Credentials>::RemoteRegistration(
    net::Network& network, const std::string& client_endpoint,
    const std::string& ara_name, const pairing::Point& ara_pk,
    pairing::PairingPtr pairing, const std::string& identity, Rng& rng)
    : network_(network),
      endpoint_(client_endpoint + ".reg"),
      pairing_(std::move(pairing)),
      ks_(rng.bytes(32)) {
  Writer fields;
  fields.str(identity);
  const Bytes envelope =
      seal_request(*pairing_, ara_pk, ks_, fields.data(), rng);
  constexpr FrameType type =
      std::is_same_v<Credentials, SubscriberCredentials>
          ? FrameType::kAraRegisterSubscriber
          : FrameType::kAraRegisterPublisher;
  network_.register_endpoint(
      endpoint_,
      [this](const std::string&, BytesView frame) { on_frame(frame); });
  network_.send(endpoint_, ara_name, tagged_frame(type, 1, envelope));
}

template <class Credentials>
void RemoteRegistration<Credentials>::on_frame(BytesView data) {
  try {
    Reader r(data);
    if (read_frame_type(r) != FrameType::kAraResponse) return;
    const TaggedBody body = read_tagged(r);
    const auto response =
        open_response(FrameType::kAraResponse, ks_, body.payload);
    if (!response.has_value()) return;  // not sealed under this Ks
    close();  // the answer has landed, whatever it says
    if (response->status == kStatusOk) {
      credentials_ = Credentials::deserialize(pairing_, response->body);
    }
  } catch (const std::exception&) {
    // A malformed frame leaves no credentials.
  }
}

template <class Credentials>
void RemoteRegistration<Credentials>::close() {
  if (!pending_) return;
  pending_ = false;
  network_.unregister_endpoint(endpoint_);
}

template class RemoteRegistration<SubscriberCredentials>;
template class RemoteRegistration<PublisherCredentials>;

}  // namespace p3s::core
