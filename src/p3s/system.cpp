#include "p3s/system.hpp"

#include "common/guid.hpp"
#include "pbe/hve.hpp"

namespace p3s::core {

P3sSystem::P3sSystem(net::Network& network, P3sConfig config, Rng& rng)
    : network_(network),
      config_(std::move(config)),
      ara_(config_.pairing, config_.schema, rng, config_.epoch,
           config_.embedded_token_server) {
  rs_ = std::make_unique<RepositoryServer>(network_, config_.rs_name,
                                           config_.pairing, rng,
                                           config_.rs_grace_seconds);
  ts_ = std::make_unique<PbeTokenServer>(
      network_, config_.ts_name, config_.pairing, ara_.hve_keys(),
      ara_.schema(), ara_.certificate_pk(), rng);
  rs_->set_response_pad_bucket(config_.rs_response_pad_bucket);
  ds_ = std::make_unique<DisseminationServer>(
      network_, config_.ds_name, config_.pairing, config_.rs_name, rng);
  ds_->set_hardening(config_.ds_hardening,
                     pbe::hve_encrypt_bytes_size(*config_.pairing,
                                                 config_.schema.width(),
                                                 Guid::kSize));
  if (config_.with_anonymizer) {
    anon_ = std::make_unique<Anonymizer>(network_, config_.anon_name, rng,
                                         config_.anon_hardening);
    if (config_.anon_hardening.min_batch > 0) {
      // Decoy fetches need the RS public key; without cover material a short
      // batch is held until its deadline instead of being topped up.
      anon_->enable_cover(config_.pairing, config_.rs_name, rs_->public_key());
    }
  }

  directory_.ds_name = config_.ds_name;
  directory_.rs_name = config_.rs_name;
  directory_.pbe_ts_name = config_.ts_name;
  directory_.anonymizer_name = config_.with_anonymizer ? config_.anon_name : "";
  directory_.ds_pk = ds_->public_key();
  directory_.rs_pk = rs_->public_key();
  directory_.pbe_ts_pk = ts_->public_key();
  ara_.set_service_directory(directory_);
}

std::unique_ptr<Subscriber> P3sSystem::make_subscriber(
    const std::string& endpoint_name, const std::string& pseudonym,
    const std::set<std::string>& attributes, Rng& rng) {
  auto sub = std::make_unique<Subscriber>(
      network_, endpoint_name, ara_.register_subscriber(pseudonym, attributes, rng),
      rng, config_.with_anonymizer, config_.reliability);
  sub->connect();
  return sub;
}

std::unique_ptr<Publisher> P3sSystem::make_publisher(
    const std::string& endpoint_name, const std::string& pseudonym, Rng& rng) {
  auto pub = std::make_unique<Publisher>(
      network_, endpoint_name, ara_.register_publisher(pseudonym, rng), rng,
      config_.reliability);
  pub->connect();
  return pub;
}

}  // namespace p3s::core
