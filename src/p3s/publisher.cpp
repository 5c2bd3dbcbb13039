#include "p3s/publisher.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/messages.hpp"

namespace p3s::core {

namespace {
struct PubMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& publishes = reg.counter(obs::names::kPubPublishTotal);
  obs::Histogram& publish_seconds =
      reg.histogram(obs::names::kPubPublishSeconds);
  obs::Histogram& pbe_encrypt_seconds =
      reg.histogram(obs::names::kPubPbeEncryptSeconds);
  obs::Histogram& abe_encrypt_seconds =
      reg.histogram(obs::names::kPubAbeEncryptSeconds);
  obs::Histogram& payload_bytes =
      reg.histogram(obs::names::kPubPayloadBytes, {}, "bytes");
};

PubMetrics& pub_metrics() {
  static PubMetrics m;
  return m;
}
}  // namespace

Publisher::Publisher(net::Network& network, std::string name,
                     PublisherCredentials credentials, Rng& rng,
                     ReliabilityConfig reliability)
    : network_(network),
      name_(std::move(name)),
      creds_(std::move(credentials)),
      rng_(rng),
      reliability_(reliability),
      channel_(network_, name_, creds_.services, creds_.abe_pk.pairing, rng_,
               reliability_, frame(FrameType::kRegisterPublisher)) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

Publisher::~Publisher() { network_.unregister_endpoint(name_); }

// The publisher stays connected through a re-registration: publish() keeps
// working while a reconnect's ack is in flight.
void Publisher::connect() { channel_.connect(); }

void Publisher::disconnect() { channel_.disconnect(); }

void Publisher::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    if (read_frame_type(r) != FrameType::kChannelRecord) return;
    const auto inner = channel_.open(r);
    if (!inner.has_value()) return;
    Reader ir(*inner);
    if (read_frame_type(ir) == FrameType::kPublishAck) {
      const Bytes request_id = ir.raw(kRequestIdSize);
      ir.expect_done();
      pending_.erase(request_id);  // duplicate acks miss and are ignored
    }
  } catch (const std::exception& e) {
    log_warn("pub:" + name_) << "bad frame from " << from << ": " << e.what();
  }
}

void Publisher::poll() {
  // Only disconnect() drops the session (a lost channel keeps it), and a
  // clean departure is not a lost channel: nothing re-registers or re-sends
  // until the application's next connect(). The DS dedupes the held
  // publishes by request id then.
  if (!reliability_.enabled || !channel_.has_session()) return;
  const double now = network_.now();
  if (channel_.poll(now)) ++retries_;

  bool reconnected_this_poll = false;
  retry_due(pending_, now, reliability_, rng_, publish_failures_, retries_,
            [&](const PendingPublish& p) {
              // Every reconnect_after-th attempt assumes the channel (not
              // just the frame) is gone — e.g. the DS restarted and lost our
              // registration — and re-establishes it before re-sending.
              if (p.attempts % reliability_.reconnect_after == 0 &&
                  !reconnected_this_poll) {
                client_metrics().reconnects.inc();
                reconnected_this_poll = true;
                connect();
              }
              channel_.send(p.request_frame);
            });
}

Guid Publisher::publish(const pbe::Metadata& metadata, BytesView payload,
                        const abe::PolicyNode& policy, double ttl_seconds) {
  if (!connected()) throw std::logic_error("Publisher: not connected");
  check_ttl(ttl_seconds);

  PubMetrics& metrics = pub_metrics();
  obs::ScopedTimer publish_timer(metrics.reg, metrics.publish_seconds,
                                 obs::names::kPubPublishSeconds);
  metrics.publishes.inc();
  metrics.payload_bytes.record(static_cast<double>(payload.size()));

  const Guid guid = Guid::random(rng_);
  // Token-revocation epochs (§6.1 mitigation): stamp the metadata with the
  // epoch active now, so only current-epoch tokens match it.
  pbe::Metadata stamped = metadata;
  if (creds_.epoch.has_value()) {
    stamped = creds_.epoch->stamp(std::move(stamped), network_.now());
  }

  // CP-ABE-encrypt the 2-tuple (GUID, payload) under the policy into the
  // (GUID, ciphertext, TTL) storage frame for the RS.
  Writer tuple;
  tuple.raw(guid.to_bytes());
  tuple.bytes(payload);
  ContentBody body;
  body.abe_ciphertext = [&] {
    obs::ScopedTimer t(metrics.reg, metrics.abe_encrypt_seconds,
                       obs::names::kPubAbeEncryptSeconds);
    return abe::cpabe_encrypt_bytes(creds_.abe_pk, tuple.data(), policy, rng_);
  }();
  body.guid_wrapped = super_encrypt_guid_;
  body.guid_field =
      super_encrypt_guid_
          ? pairing::ecies_encrypt(*creds_.abe_pk.pairing,
                                   creds_.services.rs_pk, guid.to_bytes(), rng_)
          : guid.to_bytes();
  body.ttl_seconds = ttl_seconds;
  const Bytes content = content_body(body);

  // PBE-encrypt the GUID under the metadata vector for dissemination to all
  // subscribers (paper Fig. 4).
  const pbe::BitVector bits = creds_.schema.encode_metadata(stamped);
  const Bytes hve_ciphertext = [&] {
    obs::ScopedTimer t(metrics.reg, metrics.pbe_encrypt_seconds,
                       obs::names::kPubPbeEncryptSeconds);
    return pbe::hve_encrypt_bytes(creds_.hve_pk, bits, guid.to_bytes(), rng_);
  }();

  if (!reliability_.enabled) {
    // Fire-and-forget (base paper protocol). Content is submitted before
    // the metadata broadcast so that a subscriber whose match races the
    // store never misses (the paper's model takes max(t_p, t_b) for the
    // same reason).
    channel_.send(frame(FrameType::kPublishContent, content));
    Writer meta;
    meta.u8(static_cast<std::uint8_t>(FrameType::kPublishMetadata));
    meta.bytes(hve_ciphertext);
    channel_.send(meta.data());
    return guid;
  }
  // Reliable: one retryable request carrying both halves; the DS broadcasts
  // only after the RS acked the store, which closes the race structurally.
  Writer req;
  req.u8(static_cast<std::uint8_t>(FrameType::kPublishRequest));
  req.raw(rng_.bytes(kRequestIdSize));
  req.bytes(content);
  req.bytes(hve_ciphertext);
  const Bytes request_id(req.data().begin() + 1,
                         req.data().begin() + 1 + kRequestIdSize);
  PendingPublish pending;
  pending.request_frame = req.take();
  pending.deadline = network_.now() + retry_timeout(reliability_, 0, rng_);
  const auto it = pending_.emplace(request_id, std::move(pending)).first;
  channel_.send(it->second.request_frame);
  return guid;
}

}  // namespace p3s::core
