// Quickstart: the minimal P3S flow — one publisher, two subscribers, one
// publication. Shows the full paper protocol (Figs. 1-4): registration at
// the ARA, anonymous token retrieval, encrypted-metadata broadcast, local
// matching, anonymous content fetch, CP-ABE decryption.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT

int main() {
  // Production RNG (ChaCha20 DRBG); seeded deterministically here so the
  // example's output is reproducible.
  crypto::Drbg rng(str_to_bytes("p3s-quickstart"));

  // 1. The metadata space: fixed and known to all participants (distributed
  //    by the ARA at registration).
  pbe::MetadataSchema schema({
      {"topic", {"markets", "energy", "tech", "politics"}},
      {"region", {"us", "eu", "apac"}},
  });

  // 2. Deploy the P3S services: ARA, DS, RS, PBE-TS and the anonymizer.
  net::DirectNetwork network;
  core::P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = schema;
  core::P3sSystem p3s(network, config, rng);
  std::printf("deployed: DS, RS, PBE-TS, anonymizer (+ARA)\n");

  // 3. Register clients. Subscribers get CP-ABE attribute keys; nobody but
  //    the ARA ever learns which pseudonym holds which attributes.
  auto alice = p3s.make_subscriber("alice-endpoint", "alice",
                                   {"trader", "clearance:low"}, rng);
  auto bob = p3s.make_subscriber("bob-endpoint", "bob",
                                 {"analyst", "clearance:high"}, rng);
  auto reuters = p3s.make_publisher("reuters-endpoint", "reuters", rng);
  std::printf("registered: alice (trader), bob (analyst), reuters (publisher)\n");

  // 4. Subscribe. The predicate goes to the PBE-TS in plaintext but through
  //    the anonymizer — the PBE-TS cannot tell WHO is interested in markets.
  alice->subscribe({{"topic", "markets"}});
  bob->subscribe({{"topic", "markets"}, {"region", "us"}});
  std::printf("subscribed: alice{topic=markets}, bob{topic=markets, region=us}\n");

  // 5. Publish. Metadata is HVE-encrypted (hides topic/region even from the
  //    DS); the payload is CP-ABE-encrypted for analysts with high clearance.
  bob->set_delivery_handler([](const core::Subscriber::Delivery& d) {
    std::printf("  -> bob received %s: \"%s\"\n", d.guid.to_hex().c_str(),
                bytes_to_str(d.payload).c_str());
  });
  alice->set_delivery_handler([](const core::Subscriber::Delivery& d) {
    std::printf("  -> alice received %s\n", d.guid.to_hex().c_str());
  });

  std::printf("publishing {topic=markets, region=us} under policy "
              "'analyst and clearance:high'...\n");
  reuters->publish({{"topic", "markets"}, {"region", "us"}},
                   str_to_bytes("FOMC minutes leaked: rates unchanged"),
                   abe::parse_policy("analyst and clearance:high"));

  // 6. What happened:
  std::printf("\nresults:\n");
  std::printf("  alice: matched=%zu delivered=%zu undecryptable=%zu  "
              "(interest matched, but policy blocked decryption)\n",
              alice->match_count(), alice->delivery_count(),
              alice->undecryptable_payloads());
  std::printf("  bob:   matched=%zu delivered=%zu  (matched and authorized)\n",
              bob->match_count(), bob->delivery_count());
  std::printf("  PBE-TS saw %zu plaintext predicates, all from '%s'\n",
              p3s.token_server().seen_predicates().size(),
              p3s.token_server().seen_predicates()[0].network_from.c_str());
  std::printf("  DS forwarded %zu encrypted frames; it never saw a topic, a\n"
              "  predicate, or a payload byte in the clear.\n",
              p3s.ds().observations().size());
  return 0;
}
