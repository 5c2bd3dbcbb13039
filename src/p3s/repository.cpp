#include "p3s/repository.hpp"

#include <fstream>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/exchange.hpp"

namespace p3s::core {

namespace {
struct RsMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& stores = reg.counter(obs::names::kRsStoreTotal);
  obs::Histogram& stored_bytes =
      reg.histogram(obs::names::kRsStoredBytes, {}, "bytes");
  obs::Counter& fetch_ok = reg.counter(
      obs::names::kRsFetchTotal, {{"status", obs::labels::kStatusOk}});
  obs::Counter& fetch_notfound = reg.counter(
      obs::names::kRsFetchTotal, {{"status", obs::labels::kStatusNotFound}});
  obs::Gauge& items = reg.gauge(obs::names::kRsItems);
  obs::Counter& gc_reclaimed = reg.counter(obs::names::kRsGcReclaimedTotal);
};

RsMetrics& rs_metrics() {
  static RsMetrics m;
  return m;
}
}  // namespace

RepositoryServer::RepositoryServer(net::Network& network, std::string name,
                                   pairing::PairingPtr pairing, Rng& rng,
                                   double grace_seconds)
    : network_(network),
      name_(std::move(name)),
      pairing_(std::move(pairing)),
      keys_(pairing::ecies_keygen(*pairing_, rng)),
      rng_(rng),
      grace_seconds_(grace_seconds) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

RepositoryServer::~RepositoryServer() { network_.unregister_endpoint(name_); }

std::size_t RepositoryServer::garbage_collect() {
  const double now = network_.now();
  std::size_t collected = 0;
  for (auto it = store_.begin(); it != store_.end();) {
    if (it->second.expires_at <= now) {
      it = store_.erase(it);
      ++collected;
    } else {
      ++it;
    }
  }
  RsMetrics& metrics = rs_metrics();
  metrics.gc_reclaimed.inc(collected);
  metrics.items.set(static_cast<std::int64_t>(store_.size()));
  return collected;
}

void RepositoryServer::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    const FrameType type = read_frame_type(r);

    if (type == FrameType::kStoreContent ||
        type == FrameType::kStoreRequest) {
      Bytes request_id;
      ContentBody body;
      if (type == FrameType::kStoreRequest) {
        StoreRequestBody req = read_store_request(r);
        request_id = std::move(req.request_id);
        body = std::move(req.content);
      } else {
        body = read_content(r);
      }
      Guid guid;
      if (body.guid_wrapped) {
        // Footnote-1 mitigation: the GUID arrives under our public key.
        const auto plain =
            pairing::ecies_decrypt(*pairing_, keys_.secret, body.guid_field);
        if (!plain.has_value() || plain->size() != Guid::kSize) {
          log_warn("rs") << "undecryptable wrapped GUID from " << from;
          return;
        }
        guid = Guid::from_bytes(*plain);
      } else {
        guid = Guid::from_bytes(body.guid_field);
      }
      RsMetrics& metrics = rs_metrics();
      metrics.stores.inc();
      metrics.stored_bytes.record(
          static_cast<double>(body.abe_ciphertext.size()));
      // Overwrite by GUID: re-storing the same item (publisher/DS retry) is
      // idempotent — one slot, refreshed expiry, never a second copy.
      store_[guid] = Item{std::move(body.abe_ciphertext),
                          network_.now() + body.ttl_seconds + grace_seconds_};
      metrics.items.set(static_cast<std::int64_t>(store_.size()));
      if (!request_id.empty()) {
        Writer ack;
        ack.u8(static_cast<std::uint8_t>(FrameType::kStoreAck));
        ack.raw(request_id);
        network_.send(name_, from, ack.take());
      }
      return;
    }

    if (type == FrameType::kContentRequest) {
      const TaggedBody body = read_tagged(r);
      const auto request = open_request(*pairing_, keys_.secret, body.payload);
      if (!request.has_value()) return;
      Reader pr(request->fields);
      const Guid guid = Guid::from_bytes(pr.raw(Guid::kSize));
      pr.expect_done();

      const auto it = store_.find(guid);
      const bool hit =
          it != store_.end() && it->second.expires_at > network_.now();
      (hit ? rs_metrics().fetch_ok : rs_metrics().fetch_notfound).inc();
      // Super-encrypted under the requester's Ks so eavesdroppers cannot
      // tell whether two subscribers fetched the same payload (paper §6.1).
      // With padding on, hit and miss plaintexts round up to the same bucket
      // before sealing, so response SIZE leaks nothing either (DESIGN.md §11).
      network_.send(
          name_, from,
          response_frame(FrameType::kContentResponse, body.tag, request->ks,
                         hit ? kStatusOk : kStatusNotFound,
                         hit ? BytesView(it->second.abe_ciphertext)
                             : BytesView(),
                         rng_, response_pad_bucket_));
      return;
    }
    log_warn("rs") << "unexpected frame type from " << from;
  } catch (const std::exception& e) {
    log_warn("rs") << "bad frame from " << from << ": " << e.what();
  }
}

Bytes RepositoryServer::snapshot() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(store_.size()));
  for (const auto& [guid, item] : store_) {
    w.raw(guid.to_bytes());
    w.u64(to_wire_ms(item.expires_at));
    w.bytes(item.abe_ciphertext);
  }
  return w.take();
}

void RepositoryServer::save_to_file(const std::string& path) const {
  const Bytes snap = snapshot();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("RS: cannot open '" + path + "' for write");
  out.write(reinterpret_cast<const char*>(snap.data()),
            static_cast<std::streamsize>(snap.size()));
  if (!out) throw std::runtime_error("RS: write to '" + path + "' failed");
}

void RepositoryServer::load_from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("RS: cannot open '" + path + "' for read");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes snap(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(snap.data()), size);
  if (!in) throw std::runtime_error("RS: read from '" + path + "' failed");
  restore(snap);
}

void RepositoryServer::restore(BytesView snapshot) {
  Reader r(snapshot);
  const std::uint32_t n = r.u32();
  std::map<Guid, Item> restored;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Guid guid = Guid::from_bytes(r.raw(Guid::kSize));
    Item item;
    item.expires_at = static_cast<double>(r.u64()) / 1000.0;
    item.abe_ciphertext = r.bytes();
    restored.emplace(guid, std::move(item));
  }
  r.expect_done();
  store_ = std::move(restored);
  rs_metrics().items.set(static_cast<std::int64_t>(store_.size()));
}

}  // namespace p3s::core
