#include "p3s/anonymizer.hpp"

#include <utility>

#include "common/guid.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/exchange.hpp"

namespace p3s::core {

namespace {
// A destination that does not exist never replies, and neither does a
// service that cannot open the request, so without a cap their tag-table
// entries would stay forever. Tags only increase, so the front of a table
// is its oldest entry, and that is the one evicted; a reply that arrives
// after its entry went is dropped like any unknown tag.
template <class Table>
void evict_oldest(Table& table) {
  while (table.size() > Anonymizer::kTagCap) table.erase(table.begin());
}

struct AnonMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& forwarded = reg.counter(obs::names::kAnonForwardedTotal);
  obs::Counter& replies = reg.counter(obs::names::kAnonRepliesTotal);
  obs::Gauge& pending = reg.gauge(obs::names::kAnonPending);
  obs::Gauge& held = reg.gauge(obs::names::kAnonHeld);
  obs::Counter& batch_flushes =
      reg.counter(obs::names::kAnonBatchFlushesTotal);
  obs::Histogram& batch_size = reg.histogram(
      obs::names::kAnonBatchSize, {}, "1", "",
      obs::Histogram::exponential_bounds(1.0, 2.0, 12));
  obs::Histogram& flush_seconds =
      reg.histogram(obs::names::kAnonFlushSeconds);
  obs::Counter& cover = reg.counter(obs::names::kAnonCoverTotal);
  obs::Counter& decoy_replies =
      reg.counter(obs::names::kAnonDecoyRepliesTotal);
  obs::Counter& pad_bytes = reg.counter(obs::names::kAnonPadBytesTotal);
};

AnonMetrics& anon_metrics() {
  static AnonMetrics m;
  return m;
}
}  // namespace

Anonymizer::Anonymizer(net::Network& network, std::string name, Rng& rng,
                       AnonHardening hardening)
    : network_(network), name_(std::move(name)), hard_(hardening) {
  if (hard_.any_enabled()) drbg_.emplace(hardening_drbg(hard_.seed, rng));
  network_.register_endpoint(name_, [this](const std::string& from,
                                           BytesView frame) {
    on_frame(from, frame);
  });
}

Anonymizer::~Anonymizer() { network_.unregister_endpoint(name_); }

void Anonymizer::enable_cover(pairing::PairingPtr pairing, std::string rs_name,
                              pairing::Point rs_pk) {
  cover_ = Cover{std::move(pairing), std::move(rs_name), rs_pk};
}

Bytes Anonymizer::maybe_pad(Bytes frame) {
  if (hard_.pad_bucket == 0) return frame;
  const std::size_t before = frame.size();
  Bytes padded = pad_to_bucket(std::move(frame), hard_.pad_bucket, *drbg_);
  anon_metrics().pad_bytes.inc(padded.size() - before);
  return padded;
}

void Anonymizer::relay(const Held& h) {
  network_.send(name_, h.destination,
                maybe_pad(tagged_frame(h.type, h.tag, h.payload)));
}

Anonymizer::Held Anonymizer::make_decoy() {
  // The same exchange as Subscriber::request_content: a fresh 32-byte Ks and
  // a random "GUID" sealed to the RS. The RS answers a clean
  // kStatusNotFound under the throwaway Ks; the reply is absorbed here.
  // Neither the wire nor the RS can tell a decoy from a real miss.
  const Bytes ks = drbg_->bytes(32);
  const Bytes guid = drbg_->bytes(Guid::kSize);
  Held h;
  h.destination = cover_->rs_name;
  h.type = FrameType::kContentRequest;
  h.tag = next_tag_++;
  h.payload = seal_request(*cover_->pairing, cover_->rs_pk, ks, guid, *drbg_);
  decoy_tags_.insert(h.tag);
  evict_oldest(decoy_tags_);
  anon_metrics().cover.inc();
  return h;
}

void Anonymizer::flush() {
  flush_deadline_.reset();
  AnonMetrics& metrics = anon_metrics();
  if (held_.empty()) return;  // empty flush: nothing to mix, nothing sent
  obs::ScopedTimer timer(metrics.reg, metrics.flush_seconds,
                         obs::names::kAnonFlushSeconds);
  // No crowd to hide in? Pad the batch with decoys up to min_batch (a lone
  // real request would otherwise be trivially linkable). Without cover
  // material the request was already held until the deadline — "pad or
  // hold", and past the deadline it must go out regardless.
  while (cover_.has_value() && held_.size() < hard_.min_batch) {
    held_.push_back(make_decoy());
  }
  drbg_shuffle(held_, *drbg_);
  for (const Held& h : held_) relay(h);
  metrics.batch_flushes.inc();
  metrics.batch_size.record(static_cast<double>(held_.size()));
  held_.clear();
  metrics.held.set(0);
}

void Anonymizer::poll() {
  if (flush_deadline_.has_value() && network_.now() >= *flush_deadline_) {
    flush();
  }
}

void Anonymizer::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    const FrameType type = read_frame_type(r);
    if (type == FrameType::kAnonForward) {
      // {destination, request frame}: rewrite the request's tag and relay.
      const std::string dest = r.str();
      const Bytes request = r.bytes();
      skip_pad(r);

      Reader rr(request);
      const FrameType req_type = read_frame_type(rr);
      TaggedBody body = read_tagged(rr);
      const std::uint64_t tag = next_tag_++;
      pending_[tag] = Pending{from, body.tag};
      evict_oldest(pending_);
      AnonMetrics& metrics = anon_metrics();
      metrics.forwarded.inc();
      metrics.pending.set(static_cast<std::int64_t>(pending_.size()));
      Held held;
      held.destination = dest;
      held.type = req_type;
      held.tag = tag;
      held.payload = std::move(body.payload);
      if (!hard_.batching) {
        relay(held);
        return;
      }
      held_.push_back(std::move(held));
      metrics.held.set(static_cast<std::int64_t>(held_.size()));
      if (held_.size() >= hard_.batch_size) {
        flush();
      } else if (!flush_deadline_.has_value()) {
        flush_deadline_ = network_.now() + jittered(hard_.flush_interval,
                                                    hard_.flush_jitter, *drbg_);
      }
      return;
    }
    if (type == FrameType::kContentResponse ||
        type == FrameType::kTokenResponse) {
      TaggedBody body = read_tagged(r);
      AnonMetrics& metrics = anon_metrics();
      if (decoy_tags_.erase(body.tag) > 0) {
        // A service answered one of our decoys: absorb it. Relaying would
        // hand the eavesdropper a frame with no matching request upstream.
        metrics.decoy_replies.inc();
        return;
      }
      const auto it = pending_.find(body.tag);
      if (it == pending_.end()) return;  // stale/unknown tag: drop
      const Pending origin = it->second;
      pending_.erase(it);
      metrics.replies.inc();
      metrics.pending.set(static_cast<std::int64_t>(pending_.size()));
      network_.send(
          name_, origin.requester,
          maybe_pad(tagged_frame(type, origin.original_tag, body.payload)));
      return;
    }
    log_warn("anon") << "unexpected frame type from " << from;
  } catch (const std::exception& e) {
    log_warn("anon") << "malformed frame from " << from << ": " << e.what();
  }
}

}  // namespace p3s::core
