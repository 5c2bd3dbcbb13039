#include "p3s/channel_client.hpp"

#include <stdexcept>

#include "p3s/messages.hpp"

namespace p3s::core {

ChannelClient::ChannelClient(net::Network& network, std::string endpoint,
                             const ServiceDirectory& services,
                             pairing::PairingPtr pairing, Rng& rng,
                             const ReliabilityConfig& reliability,
                             Bytes register_frame)
    : network_(network),
      endpoint_(std::move(endpoint)),
      ds_name_(services.ds_name),
      ds_pk_(services.ds_pk),
      pairing_(std::move(pairing)),
      rng_(rng),
      reliability_(reliability),
      register_frame_(std::move(register_frame)) {
  // The publisher takes attempts modulo reconnect_after; a jitter past 1
  // makes a retry timeout negative.
  if (reliability.reconnect_after == 0 ||
      !(reliability.jitter >= 0.0 && reliability.jitter <= 1.0)) {
    throw std::invalid_argument(
        "ReliabilityConfig: reconnect_after must be > 0, jitter in [0, 1]");
  }
}

void ChannelClient::connect(bool await_ack) {
  Bytes hello;
  session_ = net::SecureSession::initiate(*pairing_, ds_pk_, rng_, hello);
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kChannelHello));
  w.bytes(hello);
  network_.send(endpoint_, ds_name_, w.take());
  if (await_ack) connected_ = false;
  send(register_frame_);
  if (reliability_.enabled) {
    register_deadline_ =
        network_.now() + retry_timeout(reliability_, register_attempts_, rng_);
  }
}

void ChannelClient::disconnect() {
  if (!session_.has_value()) return;
  send(frame(FrameType::kUnregister));
  session_.reset();
  connected_ = false;
  register_deadline_.reset();
}

void ChannelClient::send(BytesView inner) {
  if (!session_.has_value()) throw std::logic_error(endpoint_ + ": not connected");
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kChannelRecord));
  w.bytes(session_->seal(inner, rng_));
  network_.send(endpoint_, ds_name_, w.take());
}

std::optional<Bytes> ChannelClient::open(Reader& r) {
  if (!session_.has_value()) return std::nullopt;
  const Bytes record = r.bytes();
  r.expect_done();
  std::optional<Bytes> inner = session_->open(record);
  if (inner.has_value() && !inner->empty() &&
      (*inner)[0] == static_cast<std::uint8_t>(FrameType::kAck)) {
    connected_ = true;
    register_deadline_.reset();
    register_attempts_ = 0;
  }
  return inner;
}

bool ChannelClient::poll(double now) {
  if (connected_ || !register_deadline_.has_value() ||
      now < *register_deadline_) {
    return false;
  }
  ClientMetrics& metrics = client_metrics();
  metrics.timeouts.inc();
  if (++register_attempts_ >= reliability_.max_attempts) {
    metrics.retry_exhausted.inc();
    register_deadline_.reset();
    return false;
  }
  metrics.retry.inc();
  metrics.reconnects.inc();
  connect();  // fresh hello + register (also resets the deadline)
  return true;
}

}  // namespace p3s::core
