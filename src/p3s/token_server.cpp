#include "p3s/token_server.hpp"

#include "common/log.hpp"
#include "common/serial.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/exchange.hpp"

namespace p3s::core {

namespace {
struct TsMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& issued = reg.counter(obs::names::kTsTokensIssuedTotal);
  obs::Counter& rejected = reg.counter(obs::names::kTsRejectedTotal);
  obs::Histogram& gentoken_seconds =
      reg.histogram(obs::names::kTsGentokenSeconds);
};

TsMetrics& ts_metrics() {
  static TsMetrics m;
  return m;
}
}  // namespace

PbeTokenServer::PbeTokenServer(net::Network& network, std::string name,
                               pairing::PairingPtr pairing,
                               pbe::HveKeys hve_keys,
                               pbe::MetadataSchema schema,
                               pairing::Point ara_cert_pk, Rng& rng)
    : network_(network),
      name_(std::move(name)),
      pairing_(std::move(pairing)),
      hve_keys_(std::move(hve_keys)),
      schema_(std::move(schema)),
      ara_cert_pk_(std::move(ara_cert_pk)),
      keys_(pairing::ecies_keygen(*pairing_, rng)),
      rng_(rng) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

PbeTokenServer::~PbeTokenServer() { network_.unregister_endpoint(name_); }

void PbeTokenServer::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    const FrameType type = read_frame_type(r);
    if (type != FrameType::kTokenRequest) {
      log_warn("pbe-ts") << "unexpected frame from " << from;
      return;
    }
    const TaggedBody body = read_tagged(r);

    const auto request = open_request(*pairing_, keys_.secret, body.payload);
    if (!request.has_value()) {
      ++rejected_;
      ts_metrics().rejected.inc();
      return;  // cannot even recover Ks: silently drop
    }
    Reader pr(request->fields);
    const Bytes cert_bytes = pr.bytes();
    const Bytes interest_bytes = pr.bytes();
    pr.expect_done();

    auto respond = [&](std::uint8_t status, BytesView payload) {
      network_.send(name_, from,
                    response_frame(FrameType::kTokenResponse, body.tag,
                                   request->ks, status, payload, rng_));
    };

    const Certificate cert = Certificate::deserialize(*pairing_, cert_bytes);
    if (cert.role != Certificate::Role::kSubscriber ||
        !cert.verify(*pairing_, ara_cert_pk_)) {
      ++rejected_;
      ts_metrics().rejected.inc();
      respond(kStatusRejected, {});
      return;
    }

    const pbe::Interest interest = pbe::deserialize_string_map(interest_bytes);
    TsMetrics& metrics = ts_metrics();
    const pbe::Pattern pattern = schema_.encode_interest(interest);
    const pbe::HveToken token = [&] {
      obs::ScopedTimer t(metrics.reg, metrics.gentoken_seconds,
                         obs::names::kTsGentokenSeconds);
      return pbe::hve_gen_token(hve_keys_, pattern, rng_);
    }();
    metrics.issued.inc();
    respond(kStatusOk, token.serialize(*pairing_));
  } catch (const std::exception& e) {
    ++rejected_;
    ts_metrics().rejected.inc();
    log_warn("pbe-ts") << "bad request from " << from << ": " << e.what();
  }
}

}  // namespace p3s::core
