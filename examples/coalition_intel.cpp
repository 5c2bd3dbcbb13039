// Coalition intelligence sharing (paper §1): "intelligence analysts in a
// coalition environment may be interested in receiving updates on
// information that they have agreed to share, but the knowledge that
// country A is interested in topic B may compromise country A's strategy."
//
// Demonstrates richer CP-ABE policies (threshold gates, per-nation
// releasability) combined with private interests — plus the TTL-based
// deletion the paper specifies for time-sensitive intelligence.
#include <cstdio>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT

int main() {
  crypto::Drbg rng(str_to_bytes("coalition"));

  pbe::MetadataSchema schema({
      {"theater", {"north", "south", "east", "west"}},
      {"domain", {"sigint", "humint", "imagery", "cyber"}},
      {"urgency", {"routine", "priority", "flash"}},
  });

  net::DirectNetwork network;
  core::P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = schema;
  config.rs_grace_seconds = 3.0;  // T_G: grace for slow coalition links
  core::P3sSystem p3s(network, config, rng);

  // Analysts from three nations with tiered clearances.
  auto us_analyst = p3s.make_subscriber(
      "us1", "node-7", {"nation:us", "analyst", "ts-clearance"}, rng);
  auto uk_analyst = p3s.make_subscriber(
      "uk1", "node-3", {"nation:uk", "analyst", "ts-clearance"}, rng);
  auto fr_liaison = p3s.make_subscriber(
      "fr1", "node-9", {"nation:fr", "liaison"}, rng);
  auto collector = p3s.make_publisher("col1", "collector-x", rng);

  // Interests stay sovereign: nobody learns that the US watches the east
  // cyber theater.
  us_analyst->subscribe({{"theater", "east"}, {"domain", "cyber"}});
  uk_analyst->subscribe({{"domain", "sigint"}});
  fr_liaison->subscribe({{"theater", "east"}});

  // Releasability policies ride on the ciphertext in the clear — they only
  // name attributes safe to disclose (paper §4.2 guidance).
  const auto five_eyes = abe::parse_policy(
      "analyst and ts-clearance and (nation:us or nation:uk)");
  const auto coalition_wide = abe::parse_policy(
      "analyst or liaison");

  std::printf("publishing FLASH east/cyber report, five-eyes only...\n");
  collector->publish(
      {{"theater", "east"}, {"domain", "cyber"}, {"urgency", "flash"}},
      str_to_bytes("APT infrastructure staging observed"), five_eyes,
      /*ttl_seconds=*/60.0);

  std::printf("publishing routine east/imagery summary, coalition-wide...\n");
  collector->publish(
      {{"theater", "east"}, {"domain", "imagery"}, {"urgency", "routine"}},
      str_to_bytes("daily satellite pass summary"), coalition_wide,
      /*ttl_seconds=*/3600.0);

  std::printf("\ndeliveries:\n");
  std::printf("  us node-7: %zu (flash matched + decrypted)\n",
              us_analyst->delivery_count());
  std::printf("  uk node-3: %zu (no sigint published)\n",
              uk_analyst->delivery_count());
  std::printf("  fr node-9: %zu matched=%zu undecryptable=%zu\n",
              fr_liaison->delivery_count(), fr_liaison->match_count(),
              fr_liaison->undecryptable_payloads());
  std::printf("      (the FR liaison matched BOTH east items, fetched both,\n"
              "       but could only decrypt the coalition-wide one — and it\n"
              "       learned nothing about the five-eyes item's content.)\n");

  // Deletion: the flash report's TTL expires; even a matching analyst who
  // was offline cannot fetch it afterwards (publisher's deletion intent).
  network.advance(100);
  const std::size_t collected = p3s.rs().garbage_collect();
  std::printf("\nafter TTL+T_G: garbage collector removed %zu item(s); %zu remain.\n",
              collected, p3s.rs().stored_items());
  return 0;
}
