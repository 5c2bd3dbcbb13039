#include "p3s/subscriber.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/messages.hpp"

namespace p3s::core {

namespace {
struct SubMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& metadata_received =
      reg.counter(obs::names::kSubMetadataReceivedTotal);
  obs::Counter& match_attempts =
      reg.counter(obs::names::kSubMatchAttemptsTotal);
  obs::Counter& match_hits = reg.counter(obs::names::kSubMatchHitsTotal);
  obs::Histogram& match_seconds =
      reg.histogram(obs::names::kSubMatchSeconds);
  obs::Histogram& decrypt_seconds =
      reg.histogram(obs::names::kSubDecryptSeconds);
  obs::Counter& deliveries = reg.counter(obs::names::kSubDeliveriesTotal);
  obs::Counter& fetch_failures =
      reg.counter(obs::names::kSubFetchFailuresTotal);
  obs::Counter& undecryptable =
      reg.counter(obs::names::kSubUndecryptableTotal);
  obs::Counter& token_requests =
      reg.counter(obs::names::kSubTokenRequestsTotal);
  obs::Counter& token_rejections =
      reg.counter(obs::names::kSubTokenRejectionsTotal);
  obs::Counter& match_skipped_width =
      reg.counter(obs::names::kSubMatchSkippedWidth);
  // Reliable request layer (shared p3s.client.* vocabulary).
  obs::Counter& retry = reg.counter(obs::names::kClientRetryTotal);
  obs::Counter& retry_exhausted =
      reg.counter(obs::names::kClientRetryExhaustedTotal);
  obs::Counter& reconnects =
      reg.counter(obs::names::kClientRetryReconnectsTotal);
  obs::Counter& timeouts = reg.counter(obs::names::kClientTimeoutTotal);
};

SubMetrics& sub_metrics() {
  static SubMetrics m;
  return m;
}
}  // namespace

Subscriber::Subscriber(net::Network& network, std::string name,
                       SubscriberCredentials credentials, Rng& rng,
                       bool use_anonymizer, ReliabilityConfig reliability)
    : network_(network),
      name_(std::move(name)),
      creds_(std::move(credentials)),
      rng_(rng),
      use_anonymizer_(use_anonymizer &&
                      !creds_.services.anonymizer_name.empty()),
      reliability_(reliability) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

Subscriber::~Subscriber() { network_.unregister_endpoint(name_); }

void Subscriber::send_sealed(BytesView inner) {
  if (!session_.has_value()) throw std::logic_error("Subscriber: not connected");
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kChannelRecord));
  w.bytes(session_->seal(inner, rng_));
  network_.send(name_, creds_.services.ds_name, w.take());
}

void Subscriber::connect() {
  const pairing::Pairing& pairing = *creds_.abe_pk.pairing;
  Bytes hello;
  session_ = net::SecureSession::initiate(pairing, creds_.services.ds_pk, rng_,
                                          hello);
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kChannelHello));
  w.bytes(hello);
  network_.send(name_, creds_.services.ds_name, w.take());
  if (reliability_.enabled) {
    // Reliable registration: the flag byte asks the DS for the sequenced
    // metadata stream, and the ack carries (incarnation, joined index).
    connected_ = false;
    Writer reg;
    reg.u8(1);
    send_sealed(frame(FrameType::kRegisterSubscriber, reg.data()));
    register_deadline_ =
        network_.now() + retry_timeout(reliability_, register_attempts_, rng_);
  } else {
    send_sealed(frame(FrameType::kRegisterSubscriber));
  }
}

void Subscriber::reconnect() { connect(); }

bool Subscriber::unsubscribe(const pbe::Interest& interest) {
  const auto it = std::find(interests_.begin(), interests_.end(), interest);
  if (it == interests_.end()) return false;
  interests_.erase(it);
  // Tokens are not labeled with their interest (unlinkability), so rebuild
  // the token set from the remaining interests. Epoch-restricted tokens are
  // re-requested for the current epoch as a side effect.
  refresh_tokens();
  return true;
}

void Subscriber::disconnect() {
  if (!session_.has_value()) return;
  send_sealed(frame(FrameType::kUnregister));
  session_.reset();
  connected_ = false;
  // A clean departure is not a lost channel: stop the reliable machinery
  // from re-registering or syncing behind the application's back.
  register_deadline_.reset();
  sync_deadline_.reset();
  force_sync_ = false;
}

void Subscriber::refresh_tokens() {
  tokens_.clear();
  reindex_tokens();
  for (const pbe::Interest& interest : interests_) request_token(interest);
}

void Subscriber::reindex_tokens() {
  token_min_widths_.clear();
  token_positions_union_.clear();
  for (const pbe::HveToken& token : tokens_) {
    std::uint32_t max_pos = 0;
    for (const std::uint32_t pos : token.positions) {
      max_pos = std::max(max_pos, pos);
      token_positions_union_.push_back(pos);
    }
    token_min_widths_.push_back(max_pos + 1);
  }
  std::sort(token_positions_union_.begin(), token_positions_union_.end());
  token_positions_union_.erase(
      std::unique(token_positions_union_.begin(),
                  token_positions_union_.end()),
      token_positions_union_.end());
}

void Subscriber::subscribe(const pbe::Interest& interest) {
  // Validate locally first so schema errors throw at the call site.
  (void)creds_.schema.encode_interest(interest);
  interests_.push_back(interest);
  request_token(interest);
}

void Subscriber::send_service_request(const std::string& service,
                                      Bytes request) {
  if (use_anonymizer_) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kAnonForward));
    w.str(service);
    w.bytes(request);
    network_.send(name_, creds_.services.anonymizer_name, w.take());
  } else {
    network_.send(name_, service, std::move(request));
  }
}

void Subscriber::request_token(const pbe::Interest& interest) {
  sub_metrics().token_requests.inc();
  const pairing::Pairing& pairing = *creds_.abe_pk.pairing;

  // Token-revocation epochs (§6.1): restrict the predicate to the current
  // epoch so the resulting token expires when the epoch rolls over.
  pbe::Interest effective = interest;
  if (creds_.epoch.has_value()) {
    effective = creds_.epoch->restrict(std::move(effective), network_.now());
  }

  // §8 alternative configuration: PBE-TS embedded in the subscriber — the
  // predicate never leaves this process.
  if (creds_.embedded_hve.has_value()) {
    tokens_.push_back(pbe::hve_gen_token(
        *creds_.embedded_hve, creds_.schema.encode_interest(effective), rng_));
    reindex_tokens();
    return;
  }

  // Fig. 3: 3-tuple (Ks, subscriber certificate, plaintext predicate)
  // under the PBE-TS public key.
  const Bytes ks = rng_.bytes(32);
  Writer plain;
  plain.bytes(ks);
  plain.bytes(creds_.certificate.serialize(pairing));
  plain.bytes(pbe::serialize_string_map(effective));
  const Bytes blob = pairing::ecies_encrypt(
      pairing, creds_.services.pbe_ts_pk, plain.data(), rng_);

  const std::uint64_t tag = next_tag_++;
  pending_token_ks_[tag] = ks;
  Bytes request = tagged_frame(FrameType::kTokenRequest, tag, blob);
  if (reliability_.enabled) {
    // Retries re-send the exact same bytes: same tag, same Ks, so a late
    // first response and a retry response are interchangeable and the
    // second one finds no pending Ks — deduplicated for free. Track before
    // sending: on DirectNetwork the response arrives inside this call.
    PendingRequest p;
    p.request = request;
    p.service = creds_.services.pbe_ts_name;
    p.deadline = network_.now() + retry_timeout(reliability_, 0, rng_);
    pending_token_requests_.emplace(tag, std::move(p));
  }
  send_service_request(creds_.services.pbe_ts_name, std::move(request));
}

void Subscriber::request_content(const Guid& guid) {
  if (!requested_guids_.insert(guid).second) return;  // already in flight
  const pairing::Pairing& pairing = *creds_.abe_pk.pairing;
  // Fig. 4: 2-tuple (Ks, GUID) under the RS public key.
  const Bytes ks = rng_.bytes(32);
  Writer plain;
  plain.bytes(ks);
  plain.raw(guid.to_bytes());
  const Bytes blob = pairing::ecies_encrypt(pairing, creds_.services.rs_pk,
                                            plain.data(), rng_);
  const std::uint64_t tag = next_tag_++;
  pending_content_ks_[tag] = ks;
  Bytes request = tagged_frame(FrameType::kContentRequest, tag, blob);
  if (reliability_.enabled) {
    PendingRequest p;
    p.request = request;
    p.service = creds_.services.rs_name;
    p.deadline = network_.now() + retry_timeout(reliability_, 0, rng_);
    pending_content_requests_.emplace(tag, std::move(p));
  }
  send_service_request(creds_.services.rs_name, std::move(request));
}

void Subscriber::request_metadata_replay(std::uint64_t from_index) {
  if (!session_.has_value()) return;
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kMetaSyncRequest));
  w.u64(from_index);
  send_sealed(w.data());
}

void Subscriber::send_sync(double now) {
  // Ask for the lowest known gap, or for "anything new" when gapless. The
  // DS replays [from, its next) and finishes with kMetaSyncInfo, which is
  // what actually reveals gaps (and restarts) to us.
  const std::uint64_t from =
      missing_meta_.empty() ? next_meta_index_ : *missing_meta_.begin();
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kMetaSyncRequest));
  w.u64(from);
  send_sealed(w.data());
  force_sync_ = false;
  sync_deadline_ = now + retry_timeout(reliability_, sync_failures_, rng_);
  next_heartbeat_ = now + reliability_.sync_interval;
}

void Subscriber::retry_requests(
    std::map<std::uint64_t, PendingRequest>& pending, double now) {
  SubMetrics& metrics = sub_metrics();
  for (auto it = pending.begin(); it != pending.end();) {
    PendingRequest& p = it->second;
    if (now < p.deadline) {
      ++it;
      continue;
    }
    metrics.timeouts.inc();
    if (p.attempts >= reliability_.max_attempts) {
      // Surface the failure at the application level (§6.1) instead of
      // retrying forever; the Ks entry stays so a very late response can
      // still complete the request.
      ++request_failures_;
      metrics.retry_exhausted.inc();
      it = pending.erase(it);
      continue;
    }
    ++p.attempts;
    ++retries_;
    metrics.retry.inc();
    send_service_request(p.service, p.request);
    p.deadline = now + retry_timeout(reliability_, p.attempts - 1, rng_);
    ++it;
  }
}

void Subscriber::poll() {
  if (!reliability_.enabled) return;
  const double now = network_.now();
  SubMetrics& metrics = sub_metrics();

  if (!connected_ && register_deadline_.has_value() &&
      now >= *register_deadline_) {
    metrics.timeouts.inc();
    ++register_attempts_;
    if (register_attempts_ >= reliability_.max_attempts) {
      metrics.retry_exhausted.inc();
      register_deadline_.reset();
    } else {
      metrics.retry.inc();
      metrics.reconnects.inc();
      ++retries_;
      connect();  // fresh hello + register (also resets the deadline)
    }
  }

  retry_requests(pending_token_requests_, now);
  retry_requests(pending_content_requests_, now);

  if (!connected_ || !meta_baseline_) return;
  if (sync_deadline_.has_value() && now >= *sync_deadline_) {
    metrics.timeouts.inc();
    sync_deadline_.reset();
    ++sync_failures_;
    ++retries_;
    if (sync_failures_ >= reliability_.reconnect_after) {
      // Repeated unanswered syncs: assume the channel (or the DS) died —
      // e.g. an endpoint restart wiped our registration. Re-establish and
      // let the post-ack sync repair whatever we missed.
      metrics.reconnects.inc();
      sync_failures_ = 0;
      connect();
      return;
    }
    metrics.retry.inc();
  }
  if (!sync_deadline_.has_value() &&
      (force_sync_ || !missing_meta_.empty() || now >= next_heartbeat_)) {
    send_sync(now);
  }
}

void Subscriber::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    const FrameType type = read_frame_type(r);
    switch (type) {
      case FrameType::kChannelRecord: {
        if (!session_.has_value()) return;
        const Bytes record = r.bytes();
        r.expect_done();
        const auto inner = session_->open(record);
        if (inner.has_value()) handle_inner(*inner);
        return;
      }
      case FrameType::kTokenResponse:
        handle_token_response(data.subspan(1));
        return;
      case FrameType::kContentResponse:
        handle_content_response(data.subspan(1));
        return;
      default:
        return;
    }
  } catch (const std::exception& e) {
    log_warn("sub:" + name_) << "bad frame from " << from << ": " << e.what();
  }
}

void Subscriber::handle_inner(BytesView inner) {
  Reader r(inner);
  const FrameType type = read_frame_type(r);
  if (type == FrameType::kAck) {
    connected_ = true;
    register_deadline_.reset();
    register_attempts_ = 0;
    if (!r.done()) handle_reliable_ack(r);
    return;
  }
  if (type == FrameType::kMetadataDelivery) {
    const Bytes hve_ct = r.bytes();
    skip_pad(r);  // hardened DS pads broadcasts to a bucket
    handle_metadata(hve_ct);
    return;
  }
  if (type == FrameType::kMetadataDeliverySeq) {
    handle_sequenced_metadata(r);
    return;
  }
  if (type == FrameType::kMetaSyncInfo) {
    handle_sync_info(r);
    return;
  }
}

void Subscriber::handle_reliable_ack(Reader& r) {
  const std::uint64_t incarnation = r.u64();
  const std::uint64_t joined = r.u64();
  r.expect_done();
  if (!meta_baseline_) {
    // First ack pins the baseline: we are entitled to everything from our
    // join index on. Broadcasts that raced ahead of this ack were dropped
    // on purpose — the forced sync replays them from the DS ring.
    meta_baseline_ = true;
    ds_incarnation_ = incarnation;
    next_meta_index_ = joined;
    missing_meta_.clear();
    force_sync_ = true;
    return;
  }
  if (ds_incarnation_ != incarnation) {
    // The DS restarted: its index space restarted at 0 and the ring was
    // wiped, so prior gaps are unrecoverable. Start over from 0 and sync
    // to pull whatever the new incarnation has broadcast so far.
    ds_incarnation_ = incarnation;
    next_meta_index_ = 0;
    missing_meta_.clear();
    force_sync_ = true;
  }
  // Same-incarnation re-ack (retried registration): stream state stands.
}

void Subscriber::handle_sequenced_metadata(Reader& r) {
  const std::uint64_t index = r.u64();
  const Bytes hve_ct = r.bytes();
  skip_pad(r);  // hardened DS pads broadcasts to a bucket
  if (!meta_baseline_) return;  // pre-ack frame; recovered via sync
  if (index >= next_meta_index_) {
    for (std::uint64_t i = next_meta_index_; i < index; ++i) {
      missing_meta_.insert(i);
    }
    next_meta_index_ = index + 1;
    handle_metadata(hve_ct);
    return;
  }
  if (missing_meta_.erase(index) > 0) {
    handle_metadata(hve_ct);
    return;
  }
  // Already processed: a duplicated frame or a sync replay overlapping what
  // arrived out of order in the meantime. Never processed twice.
  ++duplicate_metadata_;
}

void Subscriber::handle_sync_info(Reader& r) {
  const std::uint64_t incarnation = r.u64();
  const std::uint64_t ds_next = r.u64();
  r.expect_done();
  if (!meta_baseline_) return;
  if (ds_incarnation_ != incarnation) {
    ds_incarnation_ = incarnation;
    next_meta_index_ = 0;
    missing_meta_.clear();
    force_sync_ = true;
  } else {
    // Everything below the DS's next index exists; anything we have not
    // seen yet is a gap to repair on the next sync round.
    for (std::uint64_t i = next_meta_index_; i < ds_next; ++i) {
      missing_meta_.insert(i);
    }
    next_meta_index_ = std::max(next_meta_index_, ds_next);
  }
  sync_deadline_.reset();
  sync_failures_ = 0;
}

void Subscriber::handle_metadata(BytesView hve_ct) {
  ++metadata_received_;
  SubMetrics& metrics = sub_metrics();
  metrics.metadata_received.inc();
  const pairing::Pairing& pairing = *creds_.abe_pk.pairing;

  // Local matching on encrypted metadata. A successful KEM decryption
  // reveals exactly the GUID — nothing else about the metadata (attribute
  // hiding). The ciphertext-side Miller state is prepared once per
  // broadcast (restricted to positions some token probes) and shared by
  // every token evaluation, which run on the global pool with first-hit
  // short-circuit.
  std::optional<Guid> matched;
  {
    obs::ScopedTimer match_timer(metrics.reg, metrics.match_seconds,
                                 obs::names::kSubMatchSeconds);
    try {
      if (!tokens_.empty()) {
        const pbe::HveMatchCt prepared = pbe::hve_match_prepare(
            pairing, hve_ct, &token_positions_union_);
        // Width pre-filter: a token probing a position beyond this
        // broadcast's width can never match — skip it before any pairing.
        std::vector<const pbe::HveToken*> eligible;
        eligible.reserve(tokens_.size());
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
          if (token_min_widths_[i] > prepared.width()) {
            metrics.match_skipped_width.inc();
            continue;
          }
          eligible.push_back(&tokens_[i]);
        }
        metrics.match_attempts.inc(eligible.size());
        const pbe::HveMatchResult res =
            pbe::hve_match_any(pairing, eligible, prepared);
        if (res.matched() && res.payload.size() == Guid::kSize) {
          ++matches_;
          metrics.match_hits.inc();
          matched = Guid::from_bytes(res.payload);
        }
      }
    } catch (const std::exception&) {
      // Malformed broadcast — same outcome as a universal non-match.
    }
  }  // the match timer ends at the decision; the RS fetch is not match time
  if (matched.has_value()) request_content(*matched);
}

void Subscriber::handle_token_response(BytesView body) {
  Reader r(body);
  const TaggedBody tagged = read_tagged(r);
  const auto it = pending_token_ks_.find(tagged.tag);
  if (it == pending_token_ks_.end()) return;
  const Bytes ks = it->second;
  pending_token_ks_.erase(it);
  pending_token_requests_.erase(tagged.tag);

  const auto plain = crypto::aead_decrypt(
      ks, crypto::AeadCiphertext::deserialize(tagged.payload),
      str_to_bytes("token-resp"));
  if (!plain.has_value()) return;
  Reader pr(*plain);
  const std::uint8_t status = pr.u8();
  const Bytes token_bytes = pr.bytes();
  pr.expect_done();
  if (status != kStatusOk) {
    ++token_rejections_;
    sub_metrics().token_rejections.inc();
    return;
  }
  tokens_.push_back(
      pbe::HveToken::deserialize(*creds_.abe_pk.pairing, token_bytes));
  reindex_tokens();
}

void Subscriber::handle_content_response(BytesView body) {
  Reader r(body);
  const TaggedBody tagged = read_tagged(r);
  const auto it = pending_content_ks_.find(tagged.tag);
  if (it == pending_content_ks_.end()) return;
  const Bytes ks = it->second;
  pending_content_ks_.erase(it);
  pending_content_requests_.erase(tagged.tag);

  const auto plain = crypto::aead_decrypt(
      ks, crypto::AeadCiphertext::deserialize(tagged.payload),
      str_to_bytes("content-resp"));
  if (!plain.has_value()) return;
  Reader pr(*plain);
  const std::uint8_t status = pr.u8();
  const Bytes abe_ct = pr.bytes();
  skip_pad(pr);  // hardened RS pads responses inside the AEAD
  SubMetrics& metrics = sub_metrics();
  if (status != kStatusOk) {
    ++fetch_failures_;
    metrics.fetch_failures.inc();
    return;
  }

  const auto tuple = [&] {
    obs::ScopedTimer t(metrics.reg, metrics.decrypt_seconds,
                       obs::names::kSubDecryptSeconds);
    return abe::cpabe_decrypt_bytes(creds_.abe_pk, creds_.abe_sk, abe_ct);
  }();
  if (!tuple.has_value()) {
    ++undecryptable_;
    metrics.undecryptable.inc();
    return;
  }
  Reader tr(*tuple);
  Delivery delivery;
  delivery.guid = Guid::from_bytes(tr.raw(Guid::kSize));
  delivery.payload = tr.bytes();
  tr.expect_done();
  // GUID-level exactly-once, defense in depth behind the tag/Ks dedup: even
  // a replayed response for a re-requested GUID never delivers twice.
  if (!delivered_guids_.insert(delivery.guid).second) {
    ++duplicate_metadata_;
    return;
  }
  ++delivered_;
  metrics.deliveries.inc();
  if (handler_) handler_(delivery);
}

}  // namespace p3s::core
