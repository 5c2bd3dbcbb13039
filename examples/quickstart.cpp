// Quickstart: the minimal P3S flow — one publisher, two subscribers, one
// publication. Shows the full paper protocol (Figs. 1-4): registration at
// the ARA, anonymous token retrieval, encrypted-metadata broadcast, local
// matching, anonymous content fetch, CP-ABE decryption.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <string>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/async.hpp"
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
  //    Like the paper's JMS transport, the network queues: a send returns
  //    at once, and run_until_idle() delivers until nothing is in flight.
  net::AsyncNetwork network;
  // A wire tap counts the frames that reach each endpoint, by sender;
  // received("ds") reads them back as e.g. "pub x4, sub x2".
  std::map<std::string, std::map<std::string, std::size_t>> inbound;
  network.set_tap([&inbound](const net::TrafficRecord& rec) {
    ++inbound[std::string(rec.to)][std::string(rec.from)];
  });
  const auto received = [&inbound](const std::string& endpoint) {
    std::string out;
    for (const auto& [from, n] : inbound[endpoint]) {
      out += (out.empty() ? "" : ", ") + from + " x" + std::to_string(n);
    }
    return out;
  };
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
  network.run_until_idle();
  std::printf("registered: alice (trader), bob (analyst), reuters (publisher)\n");

  // 4. Subscribe. The predicate goes to the PBE-TS in plaintext but through
  //    the anonymizer — the PBE-TS reads the pseudonym on each certificate,
  //    but cannot tell which endpoint is interested in markets.
  alice->subscribe({{"topic", "markets"}});
  bob->subscribe({{"topic", "markets"}, {"region", "us"}});
  network.run_until_idle();
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
  network.run_until_idle();

  // 6. What happened:
  std::printf("\nresults:\n");
  std::printf("  alice: matched=%zu delivered=%zu undecryptable=%zu  "
              "(interest matched, but policy blocked decryption)\n",
              alice->match_count(), alice->delivery_count(),
              alice->undecryptable_payloads());
  std::printf("  bob:   matched=%zu delivered=%zu  (matched and authorized)\n",
              bob->match_count(), bob->delivery_count());
  std::printf("  PBE-TS received %s: no request came from a subscriber's "
              "endpoint\n",
              received(p3s.token_server().name()).c_str());
  std::printf("  DS received %s;\n"
              "  it never saw a topic, a predicate, or a payload byte in the "
              "clear.\n",
              received(p3s.ds().name()).c_str());

  // The walkthrough's outcome; anything else fails the run.
  const bool as_described = alice->match_count() == 1 &&
                            alice->delivery_count() == 0 &&
                            alice->undecryptable_payloads() == 1 &&
                            bob->match_count() == 1 &&
                            bob->delivery_count() == 1;
  if (!as_described) std::fprintf(stderr, "quickstart: unexpected outcome\n");
  return as_described ? 0 : 1;
}
