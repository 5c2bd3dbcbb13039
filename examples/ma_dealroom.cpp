// M&A deal room (paper §1): "parties pursuing a merger and acquisition deal
// may be interested in receiving updates on various topics, but the
// knowledge that party X is interested in topic Y may tip the hand of X."
//
// Three investment banks watch different targets through the same P3S
// deployment. A market-data provider publishes updates. We then inspect
// what reached every third party to show that nobody — not the
// dissemination server, not the repository, not even the token server —
// can tell WHICH bank watches WHICH target.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/async.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT

int main() {
  crypto::Drbg rng(str_to_bytes("ma-dealroom"));

  pbe::MetadataSchema schema({
      {"target", {"lehman", "bear-stearns", "wamu", "merrill",
                  "wachovia", "countrywide", "ambac", "mbia"}},
      {"event", {"rumor", "downgrade", "filing", "default"}},
      {"confidence", {"low", "medium", "high"}},
  });

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

  // The deal teams. Their CP-ABE attribute is simply "subscriber of the
  // data service, premium tier" — access control is about the service
  // relationship, not the watched target.
  auto goldman = p3s.make_subscriber("gs-endpoint", "deal-team-1",
                                     {"premium"}, rng);
  auto morgan = p3s.make_subscriber("ms-endpoint", "deal-team-2",
                                    {"premium"}, rng);
  auto barclays = p3s.make_subscriber("bc-endpoint", "deal-team-3",
                                      {"basic"}, rng);
  auto feed = p3s.make_publisher("feed-endpoint", "market-feed", rng);
  std::vector<std::string> goldman_read;  // what deal-team-1 decrypted
  goldman->set_delivery_handler([&](const core::Subscriber::Delivery& d) {
    goldman_read.push_back(bytes_to_str(d.payload));
  });

  // Each bank registers its secret watch list.
  goldman->subscribe({{"target", "lehman"}});
  goldman->subscribe({{"target", "merrill"}, {"event", "default"}});
  morgan->subscribe({{"target", "bear-stearns"}});
  barclays->subscribe({{"target", "lehman"}, {"confidence", "high"}});
  network.run_until_idle();

  std::printf("watch lists registered (via anonymizer):\n");
  std::printf("  deal-team-1: lehman | merrill+default\n");
  std::printf("  deal-team-2: bear-stearns\n");
  std::printf("  deal-team-3: lehman+high-confidence\n\n");

  // The feed publishes a day of events. Premium policy on most items.
  struct Item {
    const char* target;
    const char* event;
    const char* confidence;
    const char* text;
    const char* policy;
  };
  const Item day[] = {
      {"lehman", "rumor", "medium", "repo desk counterparties pulling lines",
       "premium"},
      {"bear-stearns", "downgrade", "high", "moodys cuts to A2", "premium"},
      {"wamu", "filing", "low", "10-Q delayed", "premium"},
      {"lehman", "default", "high", "chapter 11 imminent", "premium or basic"},
  };
  const auto feedback_before = inbound["feed-endpoint"];
  for (const Item& item : day) {
    feed->publish({{"target", item.target},
                   {"event", item.event},
                   {"confidence", item.confidence}},
                  str_to_bytes(item.text), abe::parse_policy(item.policy));
    network.run_until_idle();
  }

  std::printf("after 4 publications:\n");
  std::printf("  deal-team-1 (gs): %zu deliveries\n", goldman->delivery_count());
  for (const std::string& text : goldman_read) {
    std::printf("      \"%s\"\n", text.c_str());
  }
  std::printf("  deal-team-2 (ms): %zu deliveries\n", morgan->delivery_count());
  std::printf("  deal-team-3 (bc): %zu deliveries (basic tier: only the open item)\n\n",
              barclays->delivery_count());

  // The privacy ledger: what each third party could write down.
  std::printf("third-party visibility (the paper's §6.1 claims, live):\n");
  std::printf("  PBE-TS: received %s;\n"
              "          it sees which pseudonym watches lehman, not which\n"
              "          bank holds that pseudonym or sent the request.\n",
              received(p3s.token_server().name()).c_str());
  std::printf("  DS:     received %s;\n"
              "          all targets/events opaque.\n",
              received(p3s.ds().name()).c_str());
  std::printf("  RS:     stored 4 ciphertexts; received %s\n"
              "          (it can count fetches — allowed leakage — but cannot\n"
              "          link them to banks: all requests arrive from 'anon').\n",
              received(p3s.rs().name()).c_str());
  std::printf("  feed:   received zero feedback; it cannot tell whether anyone\n"
              "          matched its lehman bombshell.\n");

  // The walkthrough's outcome; anything else fails the run.
  const bool as_described =
      goldman_read == std::vector<std::string>{
                          "repo desk counterparties pulling lines",
                          "chapter 11 imminent"} &&
      morgan->delivery_count() == 1 && barclays->delivery_count() == 1 &&
      p3s.rs().stored_items() == 4 &&
      inbound["feed-endpoint"] == feedback_before;
  if (!as_described) std::fprintf(stderr, "ma_dealroom: unexpected outcome\n");
  return as_described ? 0 : 1;
}
