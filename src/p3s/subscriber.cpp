#include "p3s/subscriber.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/exchange.hpp"

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
};

SubMetrics& sub_metrics() {
  static SubMetrics m;
  return m;
}

// Reliable registration: the flag byte asks the DS for the sequenced
// metadata stream, and the ack carries (incarnation, joined index).
Bytes register_frame(bool reliable) {
  return reliable ? frame(FrameType::kRegisterSubscriber, Bytes{1})
                  : frame(FrameType::kRegisterSubscriber);
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
      reliability_(reliability),
      channel_(network_, name_, creds_.services, creds_.abe_pk.pairing, rng_,
               reliability_, register_frame(reliability_.enabled)) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

Subscriber::~Subscriber() { network_.unregister_endpoint(name_); }

// A reliable subscriber is not connected until the ack brings its
// (incarnation, joined index).
void Subscriber::connect() { channel_.connect(reliability_.enabled); }

void Subscriber::reconnect() { connect(); }

bool Subscriber::unsubscribe(const pbe::Interest& interest) {
  const auto it = std::find_if(
      interests_.begin(), interests_.end(),
      [&](const InterestRecord& rec) { return rec.interest == interest; });
  if (it == interests_.end()) return false;
  // A response still in flight finds no record holding its tag and is
  // dropped on arrival; no retry re-sends the request.
  if (it->tag.has_value()) pending_token_requests_.erase(*it->tag);
  interests_.erase(it);
  return true;
}

std::size_t Subscriber::token_count() const {
  return static_cast<std::size_t>(
      std::count_if(interests_.begin(), interests_.end(),
                    [](const InterestRecord& rec) {
                      return rec.token.has_value();
                    }));
}

void Subscriber::disconnect() {
  if (!channel_.has_session()) return;
  channel_.disconnect();
  // A clean departure is not a lost channel: stop the reliable machinery
  // from re-registering or syncing behind the application's back.
  sync_deadline_.reset();
  force_sync_ = false;
}

void Subscriber::refresh_tokens() {
  // Responses still in flight answer for the old requests: with no record
  // holding their tag they are dropped on arrival.
  pending_token_requests_.clear();
  for (InterestRecord& rec : interests_) {
    rec.token.reset();
    rec.tag.reset();
    rec.ks.clear();
  }
  for (InterestRecord& rec : interests_) request_token(rec);
}

void Subscriber::subscribe(const pbe::Interest& interest) {
  // Validate locally first so schema errors throw at the call site.
  (void)creds_.schema.encode_interest(interest);
  interests_.push_back(InterestRecord{interest, {}, {}, {}});
  request_token(interests_.back());
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

void Subscriber::request_token(InterestRecord& record) {
  sub_metrics().token_requests.inc();
  const pairing::Pairing& pairing = *creds_.abe_pk.pairing;

  // Token-revocation epochs (§6.1): restrict the predicate to the current
  // epoch so the resulting token expires when the epoch rolls over.
  pbe::Interest effective = record.interest;
  if (creds_.epoch.has_value()) {
    effective = creds_.epoch->restrict(std::move(effective), network_.now());
  }

  // §8 alternative configuration: PBE-TS embedded in the subscriber — the
  // predicate never leaves this process.
  if (creds_.embedded_hve.has_value()) {
    record.token = pbe::hve_gen_token(
        *creds_.embedded_hve, creds_.schema.encode_interest(effective), rng_);
    return;
  }

  // Fig. 3: (Ks, subscriber certificate, plaintext predicate) under the
  // PBE-TS public key.
  Bytes ks = rng_.bytes(32);
  Writer fields;
  fields.bytes(creds_.certificate.serialize(pairing));
  fields.bytes(pbe::serialize_string_map(effective));
  record.tag = send_request(FrameType::kTokenRequest,
                            creds_.services.pbe_ts_name,
                            creds_.services.pbe_ts_pk, ks, fields.data(),
                            pending_token_requests_);
  record.ks = std::move(ks);
}

void Subscriber::request_content(const Guid& guid) {
  if (!requested_guids_.insert(guid).second) return;  // already in flight
  // Fig. 4: (Ks, GUID) under the RS public key.
  Bytes ks = rng_.bytes(32);
  const std::uint64_t tag = send_request(
      FrameType::kContentRequest, creds_.services.rs_name,
      creds_.services.rs_pk, ks, guid.to_bytes(), pending_content_requests_);
  pending_content_ks_[tag] = PendingFetch{std::move(ks), guid};
}

std::uint64_t Subscriber::send_request(
    FrameType type, const std::string& service,
    const pairing::Point& service_pk, BytesView ks, BytesView fields,
    std::map<std::uint64_t, PendingRequest>& pending) {
  const Bytes envelope =
      seal_request(*creds_.abe_pk.pairing, service_pk, ks, fields, rng_);
  const std::uint64_t tag = next_tag_++;
  Bytes request = tagged_frame(type, tag, envelope);
  if (reliability_.enabled) {
    // Retries re-send the exact same bytes: same tag, same Ks, so a late
    // first response and a retry response are interchangeable and the
    // second one finds nothing waiting on the tag — deduplicated for free.
    PendingRequest p;
    p.request = request;
    p.service = service;
    p.deadline = network_.now() + retry_timeout(reliability_, 0, rng_);
    pending.emplace(tag, std::move(p));
  }
  send_service_request(service, std::move(request));
  return tag;
}

void Subscriber::request_metadata_replay(std::uint64_t from_index) {
  if (!channel_.has_session()) return;
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kMetaSyncRequest));
  w.u64(from_index);
  channel_.send(w.data());
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
  channel_.send(w.data());
  force_sync_ = false;
  sync_deadline_ = now + retry_timeout(reliability_, sync_failures_, rng_);
  next_heartbeat_ = now + reliability_.sync_interval;
}

void Subscriber::poll() {
  if (!reliability_.enabled) return;
  const double now = network_.now();
  ClientMetrics& metrics = client_metrics();
  if (channel_.poll(now)) ++retries_;

  // A request out of attempts keeps its tag and Ks, so a very late
  // response can still complete it.
  const auto resend = [&](const PendingRequest& p) {
    send_service_request(p.service, p.request);
  };
  retry_due(pending_token_requests_, now, reliability_, rng_,
            request_failures_, retries_, resend);
  retry_due(pending_content_requests_, now, reliability_, rng_,
            request_failures_, retries_, resend);

  if (!channel_.connected() || !meta_baseline_) return;
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
        const auto inner = channel_.open(r);
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
    advance_meta_index(index + 1);
    missing_meta_.erase(index);
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
    advance_meta_index(ds_next);
  }
  sync_deadline_.reset();
  sync_failures_ = 0;
}

void Subscriber::advance_meta_index(std::uint64_t next) {
  if (next <= next_meta_index_) return;
  // Only the last kMetaRingCap indices below `next` can still be replayed.
  const std::uint64_t floor = next > kMetaRingCap ? next - kMetaRingCap : 0;
  while (!missing_meta_.empty() && *missing_meta_.begin() < floor) {
    missing_meta_.erase(missing_meta_.begin());
    ++lost_metadata_;
  }
  const std::uint64_t first = std::max(next_meta_index_, floor);
  lost_metadata_ += first - next_meta_index_;
  for (std::uint64_t i = first; i < next; ++i) missing_meta_.insert(i);
  next_meta_index_ = next;
}

void Subscriber::handle_metadata(BytesView hve_ct) {
  ++metadata_received_;
  SubMetrics& metrics = sub_metrics();
  metrics.metadata_received.inc();
  const pairing::Pairing& pairing = *creds_.abe_pk.pairing;

  // Local matching on encrypted metadata. A successful KEM decryption
  // reveals exactly the GUID — nothing else about the metadata (attribute
  // hiding). All tokens are evaluated against the broadcast in one
  // multi-output Miller loop on the global pool, and the lowest-index hit
  // wins. A token probing past the broadcast's width is a miss there before
  // any pairing work.
  std::optional<Guid> matched;
  {
    obs::ScopedTimer match_timer(metrics.reg, metrics.match_seconds,
                                 obs::names::kSubMatchSeconds);
    try {
      std::vector<const pbe::HveToken*> all;
      all.reserve(interests_.size());
      for (const InterestRecord& rec : interests_) {
        if (rec.token.has_value()) all.push_back(&*rec.token);
      }
      if (!all.empty()) {
        const pbe::HveMatchCt ct = pbe::hve_match_prepare(pairing, hve_ct);
        metrics.match_attempts.inc(all.size());
        const pbe::HveMatchResult res = pbe::hve_match_any(pairing, all, ct);
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
  const auto rec = std::find_if(
      interests_.begin(), interests_.end(),
      [&](const InterestRecord& x) { return x.tag == tagged.tag; });
  if (rec == interests_.end()) return;
  // The request is consumed only by a response that opens under its Ks:
  // anyone can send a frame with a guessed tag.
  const auto response =
      open_response(FrameType::kTokenResponse, rec->ks, tagged.payload);
  if (!response.has_value()) return;
  rec->ks.clear();
  rec->tag.reset();
  pending_token_requests_.erase(tagged.tag);
  if (response->status != kStatusOk) {
    ++token_rejections_;
    sub_metrics().token_rejections.inc();
    return;
  }
  rec->token =
      pbe::HveToken::deserialize(*creds_.abe_pk.pairing, response->body);
}

void Subscriber::handle_content_response(BytesView body) {
  Reader r(body);
  const TaggedBody tagged = read_tagged(r);
  const auto it = pending_content_ks_.find(tagged.tag);
  if (it == pending_content_ks_.end()) return;
  // As for tokens: only a response that opens under the fetch's Ks ends it.
  const auto response =
      open_response(FrameType::kContentResponse, it->second.ks, tagged.payload);
  if (!response.has_value()) return;
  const PendingFetch fetch = std::move(it->second);
  pending_content_ks_.erase(it);
  pending_content_requests_.erase(tagged.tag);
  SubMetrics& metrics = sub_metrics();
  if (response->status != kStatusOk) {
    ++fetch_failures_;
    metrics.fetch_failures.inc();
    return;
  }

  const auto tuple = [&] {
    obs::ScopedTimer t(metrics.reg, metrics.decrypt_seconds,
                       obs::names::kSubDecryptSeconds);
    return abe::cpabe_decrypt_bytes(creds_.abe_pk, creds_.abe_sk,
                                    response->body);
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
  // The RS answered with some other item: not what this fetch asked for.
  if (delivery.guid != fetch.guid) {
    ++fetch_failures_;
    metrics.fetch_failures.inc();
    return;
  }
  ++delivered_;
  metrics.deliveries.inc();
  if (handler_) handler_(delivery);
}

}  // namespace p3s::core
