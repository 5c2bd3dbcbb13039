#include "p3s/dissemination.hpp"

#include "common/log.hpp"
#include "common/serial.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/messages.hpp"

namespace p3s::core {

namespace {
// Replay ring (kMetaRingCap, messages.hpp) and idempotency caps: bounded
// memory under arbitrarily long chaos runs. A subscriber that falls more
// than kMetaRingCap broadcasts behind can no longer repair the gap by sync
// (same truncation any non-durable broker exhibits); a publisher retrying a
// request evicted from the done set would double-store, but stores are
// GUID-idempotent anyway.
constexpr std::size_t kDoneCap = 4096;

struct DsMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& publishes = reg.counter(obs::names::kDsPublishesTotal);
  obs::Counter& fanout = reg.counter(obs::names::kDsFanoutTotal);
  obs::Histogram& fanout_batch = reg.histogram(
      obs::names::kDsFanoutBatch, {}, "1", "",
      obs::Histogram::exponential_bounds(1.0, 2.0, 16));
  obs::Counter& content_forwarded =
      reg.counter(obs::names::kDsContentForwardedTotal);
  obs::Gauge& subscribers = reg.gauge(obs::names::kDsSubscribers);
  obs::Gauge& publishers = reg.gauge(obs::names::kDsPublishers);
  obs::Gauge& sessions = reg.gauge(obs::names::kDsSessions);
  obs::Histogram& fanout_seconds =
      reg.histogram(obs::names::kDsFanoutSeconds);
  obs::Counter& batch_flushes =
      reg.counter(obs::names::kDsBatchFlushesTotal);
  obs::Counter& cover = reg.counter(obs::names::kDsCoverTotal);
  obs::Counter& pad_bytes = reg.counter(obs::names::kDsPadBytesTotal);
};

DsMetrics& ds_metrics() {
  static DsMetrics m;
  return m;
}

// The broadcast inner frame: indexed (kMetadataDeliverySeq) for reliable
// subscribers, plain kMetadataDelivery for fire-and-forget ones.
Bytes broadcast_frame(BytesView hve_ciphertext,
                      std::optional<std::uint64_t> index) {
  Writer w;
  if (index.has_value()) {
    w.u8(static_cast<std::uint8_t>(FrameType::kMetadataDeliverySeq));
    w.u64(*index);
  } else {
    w.u8(static_cast<std::uint8_t>(FrameType::kMetadataDelivery));
  }
  w.bytes(hve_ciphertext);
  return w.take();
}
}  // namespace

DisseminationServer::DisseminationServer(
    net::Network& network, std::string name, pairing::PairingPtr pairing,
    std::string rs_name, Rng& rng,
    std::optional<pairing::EciesKeyPair> identity)
    : network_(network),
      name_(std::move(name)),
      pairing_(std::move(pairing)),
      rs_name_(std::move(rs_name)),
      keys_(identity.has_value() ? std::move(*identity)
                                 : pairing::ecies_keygen(*pairing_, rng)),
      rng_(rng) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

DisseminationServer::~DisseminationServer() {
  network_.unregister_endpoint(name_);
}

void DisseminationServer::crash_and_restart() {
  sessions_.clear();
  subscribers_.clear();
  publishers_.clear();
  reliable_subs_.clear();
  pending_stores_.clear();
  done_requests_.clear();
  done_order_.clear();
  meta_ring_.clear();
  meta_base_ = 0;
  next_meta_index_ = 0;
  pending_fanout_.clear();
  fanout_deadline_.reset();
  next_cover_.reset();
  ++incarnation_;
  DsMetrics& metrics = ds_metrics();
  metrics.sessions.set(0);
  metrics.subscribers.set(0);
  metrics.publishers.set(0);
}

std::size_t DisseminationServer::replay_broadcasts() {
  std::size_t sent = 0;
  for (std::uint64_t i = meta_base_; i < next_meta_index_; ++i) {
    const Bytes& hve = meta_ring_[static_cast<std::size_t>(i - meta_base_)];
    for (const std::string& sub : subscribers_) {
      if (!sessions_.contains(sub)) continue;
      // Same broadcast index as the original: the sequenced layer can (and
      // must) recognize and suppress the replay.
      send_sealed(sub, broadcast_frame(hve, reliable_subs_.contains(sub)
                                                ? std::optional(i)
                                                : std::nullopt));
      ++sent;
    }
  }
  return sent;
}

void DisseminationServer::send_sealed(const std::string& to, BytesView inner) {
  const auto it = sessions_.find(to);
  if (it == sessions_.end()) return;
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kChannelRecord));
  w.bytes(it->second.seal(inner, rng_));
  network_.send(name_, to, w.take());
}

void DisseminationServer::set_hardening(DsHardening hardening,
                                        std::size_t broadcast_size) {
  hard_ = hardening;
  cover_size_ = broadcast_size;
  if (hard_.any_enabled()) {
    hard_drbg_.emplace(hardening_drbg(hard_.seed, rng_));
  }
}

void DisseminationServer::schedule_fanout(const Bytes& hve_ciphertext) {
  if (!hard_.batching) {
    fan_out_metadata(hve_ciphertext);
    return;
  }
  pending_fanout_.push_back(hve_ciphertext);
  if (pending_fanout_.size() >= hard_.batch_size) {
    flush_broadcasts();
  } else if (!fanout_deadline_.has_value()) {
    fanout_deadline_ = network_.now() + jittered(hard_.flush_interval,
                                                 hard_.flush_jitter,
                                                 *hard_drbg_);
  }
}

void DisseminationServer::flush_broadcasts() {
  fanout_deadline_.reset();
  if (pending_fanout_.empty()) return;
  // A reacting subscriber is attributable to the batch, not to any
  // publication's arrival order.
  drbg_shuffle(pending_fanout_, *hard_drbg_);
  for (const Bytes& ct : pending_fanout_) fan_out_metadata(ct);
  pending_fanout_.clear();
  ds_metrics().batch_flushes.inc();
}

void DisseminationServer::poll() {
  if (!hard_.any_enabled()) return;
  const double now = network_.now();
  if (fanout_deadline_.has_value() && now >= *fanout_deadline_) {
    flush_broadcasts();
  }
  if (hard_.cover_interval > 0.0) {
    if (!next_cover_.has_value()) {
      next_cover_ =
          now + jittered(hard_.cover_interval, hard_.flush_jitter, *hard_drbg_);
    } else if (now >= *next_cover_) {
      // Garbage of a real ciphertext's size: after sealing (and bucketed
      // padding, when on) a cover broadcast is indistinguishable from a
      // publication on the wire; subscribers parse it into a universal
      // non-match (no pairing work done).
      fan_out_metadata(hard_drbg_->bytes(cover_size_));
      ds_metrics().cover.inc();
      next_cover_ = network_.now() + jittered(hard_.cover_interval,
                                              hard_.flush_jitter, *hard_drbg_);
    }
  }
}

void DisseminationServer::mark_done(const Bytes& request_id) {
  if (!done_requests_.insert(request_id).second) return;
  done_order_.push_back(request_id);
  while (done_order_.size() > kDoneCap) {
    done_requests_.erase(done_order_.front());
    done_order_.pop_front();
  }
}

void DisseminationServer::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    const FrameType type = read_frame_type(r);

    if (type == FrameType::kChannelHello) {
      const Bytes hello = r.bytes();
      r.expect_done();
      auto session = net::SecureSession::accept(*pairing_, keys_.secret, hello);
      if (!session.has_value()) {
        log_warn("ds") << "bad channel hello from " << from;
        return;
      }
      sessions_.insert_or_assign(from, std::move(*session));
      ds_metrics().sessions.set(static_cast<std::int64_t>(sessions_.size()));
      return;
    }

    if (type == FrameType::kChannelRecord) {
      const auto sit = sessions_.find(from);
      if (sit == sessions_.end()) return;  // no session: drop
      const Bytes record = r.bytes();
      r.expect_done();
      const auto inner = sit->second.open(record);
      if (!inner.has_value()) {
        log_warn("ds") << "undecryptable record from " << from;
        return;
      }
      handle_inner(from, *inner);
      return;
    }

    if (type == FrameType::kStoreAck) {
      handle_store_ack(from, r);
      return;
    }
    log_warn("ds") << "unexpected outer frame from " << from;
  } catch (const std::exception& e) {
    log_warn("ds") << "bad frame from " << from << ": " << e.what();
  }
}

void DisseminationServer::handle_store_ack(const std::string& from, Reader& r) {
  if (from != rs_name_) return;  // only the RS acknowledges stores
  const Bytes request_id = r.raw(kRequestIdSize);
  r.expect_done();
  const auto it = pending_stores_.find(request_id);
  if (it == pending_stores_.end()) return;  // duplicate ack: already handled
  PendingStore pending = std::move(it->second);
  pending_stores_.erase(it);
  mark_done(request_id);
  // The payload is durably stored; now the broadcast cannot outrun it. (A
  // batched flush only delays the broadcast further — the store-first
  // ordering is preserved, and the publisher ack below never waits on it.)
  schedule_fanout(pending.hve_ciphertext);
  Writer ack;
  ack.u8(static_cast<std::uint8_t>(FrameType::kPublishAck));
  ack.raw(request_id);
  send_sealed(pending.publisher, ack.data());
}

void DisseminationServer::fan_out_metadata(const Bytes& hve_ciphertext) {
  DsMetrics& metrics = ds_metrics();
  metrics.publishes.inc();
  obs::ScopedTimer fanout_timer(metrics.reg, metrics.fanout_seconds,
                                obs::names::kDsFanoutSeconds);
  const std::uint64_t index = next_meta_index_++;
  meta_ring_.push_back(hve_ciphertext);
  while (meta_ring_.size() > kMetaRingCap) {
    meta_ring_.pop_front();
    ++meta_base_;
  }
  // Fan out to every registered subscriber; the DS cannot tell who (if
  // anyone) will match — that is the point. The inner frame is serialized
  // once per flavor (legacy / indexed), then sealed and sent per session in
  // subscriber order, each seal drawing its one AEAD nonce from rng_.
  Bytes legacy = broadcast_frame(hve_ciphertext, std::nullopt);
  Bytes indexed = broadcast_frame(hve_ciphertext, index);
  if (hard_.pad_bucket > 0) {
    // Bucketed broadcast padding: the sealed record size then rounds with
    // the bucket instead of tracking the metadata ciphertext byte-for-byte.
    const std::size_t before = legacy.size() + indexed.size();
    legacy = pad_to_bucket(std::move(legacy), hard_.pad_bucket, *hard_drbg_);
    indexed =
        pad_to_bucket(std::move(indexed), hard_.pad_bucket, *hard_drbg_);
    metrics.pad_bytes.inc(legacy.size() + indexed.size() - before);
  }
  std::size_t sent = 0;
  for (const std::string& sub : subscribers_) {
    if (!sessions_.contains(sub)) continue;  // no session: drop
    send_sealed(sub, reliable_subs_.contains(sub) ? indexed : legacy);
    ++sent;
  }
  metrics.fanout.inc(sent);
  metrics.fanout_batch.record(static_cast<double>(subscribers_.size()));
}

void DisseminationServer::handle_inner(const std::string& from,
                                       BytesView inner) {
  Reader r(inner);
  const FrameType type = read_frame_type(r);

  DsMetrics& metrics = ds_metrics();
  switch (type) {
    case FrameType::kRegisterSubscriber: {
      subscribers_.insert(from);
      metrics.subscribers.set(static_cast<std::int64_t>(subscribers_.size()));
      const bool reliable = !r.done() && r.u8() == 1;
      if (!reliable) {
        send_sealed(from, frame(FrameType::kAck));
        return;
      }
      // Joined index: first registration pins where this subscriber's
      // entitlement starts; re-registrations keep it so a repaired channel
      // can still sync everything broadcast since joining.
      const auto [it, inserted] =
          reliable_subs_.try_emplace(from, next_meta_index_);
      (void)inserted;
      Writer ack;
      ack.u64(incarnation_);
      ack.u64(it->second);
      send_sealed(from, frame(FrameType::kAck, ack.data()));
      return;
    }
    case FrameType::kRegisterPublisher:
      publishers_.insert(from);
      metrics.publishers.set(static_cast<std::int64_t>(publishers_.size()));
      send_sealed(from, frame(FrameType::kAck));
      return;
    case FrameType::kUnregister:
      subscribers_.erase(from);
      publishers_.erase(from);
      sessions_.erase(from);
      reliable_subs_.erase(from);
      metrics.subscribers.set(static_cast<std::int64_t>(subscribers_.size()));
      metrics.publishers.set(static_cast<std::int64_t>(publishers_.size()));
      metrics.sessions.set(static_cast<std::int64_t>(sessions_.size()));
      return;
    case FrameType::kPublishMetadata: {
      if (!publishers_.contains(from)) return;
      const Bytes hve_ct = r.bytes();
      r.expect_done();
      schedule_fanout(hve_ct);
      return;
    }
    case FrameType::kPublishContent: {
      if (!publishers_.contains(from)) return;
      ContentBody body = read_content(r);
      network_.send(name_, rs_name_,
                    frame(FrameType::kStoreContent, content_body(body)));
      metrics.content_forwarded.inc();
      return;
    }
    case FrameType::kPublishRequest: {
      if (!publishers_.contains(from)) return;
      PublishRequestBody body = read_publish_request(r);
      if (done_requests_.contains(body.request_id)) {
        // Retry of a completed publish: the store and fanout already
        // happened; only the ack was lost. Re-ack, deliver nothing twice.
        Writer ack;
        ack.u8(static_cast<std::uint8_t>(FrameType::kPublishAck));
        ack.raw(body.request_id);
        send_sealed(from, ack.data());
        return;
      }
      const auto [it, inserted] = pending_stores_.try_emplace(
          body.request_id,
          PendingStore{from, body.hve_ciphertext,
                       frame(FrameType::kStoreRequest,
                             store_request_body(
                                 {body.request_id, body.content}))});
      if (inserted) metrics.content_forwarded.inc();
      // (Re-)forward the store; the RS overwrites by GUID so duplicates are
      // harmless.
      network_.send(name_, rs_name_, it->second.store_frame);
      return;
    }
    case FrameType::kMetaSyncRequest: {
      if (!subscribers_.contains(from) || !reliable_subs_.contains(from)) {
        return;  // stale/unregistered: the client's reconnect path recovers
      }
      const std::uint64_t from_index = r.u64();
      r.expect_done();
      const std::uint64_t start = std::max(from_index, meta_base_);
      for (std::uint64_t i = start; i < next_meta_index_; ++i) {
        send_sealed(from, broadcast_frame(
                              meta_ring_[static_cast<std::size_t>(
                                  i - meta_base_)],
                              i));
        metrics.fanout.inc();
      }
      Writer info;
      info.u8(static_cast<std::uint8_t>(FrameType::kMetaSyncInfo));
      info.u64(incarnation_);
      info.u64(next_meta_index_);
      send_sealed(from, info.data());
      return;
    }
    default:
      log_warn("ds") << "unexpected inner frame " << static_cast<int>(type)
                     << " from " << from;
  }
}

}  // namespace p3s::core
