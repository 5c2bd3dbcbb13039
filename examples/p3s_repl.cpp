// Interactive P3S console: drive a full deployment from stdin. Run with
// --demo for a scripted session (no input needed).
//
//   commands:
//     sub <name> <attr>[,<attr>...]        register+connect a subscriber
//     pub <name>                           register+connect a publisher
//     interest <sub> <k>=<v>[,<k>=<v>...]  subscribe
//     publish <pub> <k>=<v>,... | <policy> | <payload text>
//     stats [json]                         frames each service received,
//                                          by sender + metrics snapshot
//     gc                                   run the RS garbage collector
//     help / quit
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/async.hpp"
#include "obs/export.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT

namespace {

std::map<std::string, std::string> parse_kv(const std::string& text) {
  std::map<std::string, std::string> out;
  std::stringstream ss(text);
  std::string pair;
  while (std::getline(ss, pair, ',')) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("expected k=v: '" + pair + "'");
    }
    out[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return out;
}

std::set<std::string> parse_set(const std::string& text) {
  std::set<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.insert(item);
  }
  return out;
}

struct Console {
  crypto::Drbg rng{str_to_bytes("p3s-repl")};
  net::AsyncNetwork network;
  // Frames that reached each endpoint, by sender (counted by a wire tap).
  std::map<std::string, std::map<std::string, std::size_t>> inbound;
  std::unique_ptr<core::P3sSystem> system;
  std::map<std::string, std::unique_ptr<core::Subscriber>> subs;
  std::map<std::string, std::unique_ptr<core::Publisher>> pubs;

  Console() {
    network.set_tap([this](const net::TrafficRecord& rec) {
      ++inbound[std::string(rec.to)][std::string(rec.from)];
    });
    core::P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = pbe::MetadataSchema({
        {"topic", {"markets", "energy", "tech", "politics"}},
        {"region", {"us", "eu", "apac"}},
        {"urgency", {"low", "high"}},
    });
    system = std::make_unique<core::P3sSystem>(network, config, rng);
    std::printf("P3S console. Schema: topic{markets,energy,tech,politics} "
                "region{us,eu,apac} urgency{low,high}. 'help' for commands.\n");
  }

  void handle(const std::string& line) {
    std::stringstream ss(line);
    std::string cmd;
    ss >> cmd;
    if (cmd.empty() || cmd[0] == '#') return;
    try {
      if (cmd == "sub") {
        std::string name, attrs;
        ss >> name >> attrs;
        auto s = system->make_subscriber(name, name, parse_set(attrs), rng);
        s->set_delivery_handler([name](const core::Subscriber::Delivery& d) {
          std::printf("  [%s] delivery %s: \"%s\"\n", name.c_str(),
                      d.guid.to_hex().substr(0, 8).c_str(),
                      bytes_to_str(d.payload).c_str());
        });
        subs[name] = std::move(s);
        network.run_until_idle();
        std::printf("ok: subscriber %s registered\n", name.c_str());
      } else if (cmd == "pub") {
        std::string name;
        ss >> name;
        pubs[name] = system->make_publisher(name, name, rng);
        network.run_until_idle();
        std::printf("ok: publisher %s registered\n", name.c_str());
      } else if (cmd == "interest") {
        std::string name, kv;
        ss >> name >> kv;
        subs.at(name)->subscribe(parse_kv(kv));
        network.run_until_idle();
        std::printf("ok: %s holds %zu token(s)\n", name.c_str(),
                    subs.at(name)->token_count());
      } else if (cmd == "publish") {
        std::string name;
        ss >> name;
        std::string rest;
        std::getline(ss, rest);
        // "<k=v,..> | <policy> | <payload>"
        const auto p1 = rest.find('|');
        const auto p2 = rest.find('|', p1 + 1);
        if (p1 == std::string::npos || p2 == std::string::npos) {
          throw std::invalid_argument("publish <pub> md | policy | payload");
        }
        auto trim = [](std::string s) {
          const auto b = s.find_first_not_of(' ');
          const auto e = s.find_last_not_of(' ');
          return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
        };
        const auto md = parse_kv(trim(rest.substr(0, p1)));
        const auto policy = abe::parse_policy(trim(rest.substr(p1 + 1, p2 - p1 - 1)));
        const auto payload = trim(rest.substr(p2 + 1));
        const Guid guid =
            pubs.at(name)->publish(md, str_to_bytes(payload), policy);
        network.run_until_idle();
        std::printf("ok: published %s\n", guid.to_hex().substr(0, 8).c_str());
      } else if (cmd == "stats") {
        std::string mode;
        ss >> mode;
        if (mode == "json") {
          std::printf("%s\n",
                      obs::render_json(obs::Registry::global()).c_str());
          return;
        }
        for (const auto& [name, s] : subs) {
          std::printf("  %s: tokens=%zu broadcasts=%zu matches=%zu "
                      "delivered=%zu blocked=%zu\n",
                      name.c_str(), s->token_count(), s->metadata_received(),
                      s->match_count(), s->delivery_count(),
                      s->undecryptable_payloads());
        }
        std::printf("  rs: stored=%zu\n", system->rs().stored_items());
        for (const std::string& service :
             {system->ds().name(), system->rs().name(),
              system->token_server().name()}) {
          std::printf("  %s received:", service.c_str());
          for (const auto& [from, n] : inbound[service]) {
            std::printf(" %s x%zu", from.c_str(), n);
          }
          std::printf("\n");
        }
        std::printf("metrics ('stats json' for the JSON form):\n%s",
                    obs::render_text(obs::Registry::global(),
                                     /*max_spans=*/5)
                        .c_str());
      } else if (cmd == "gc") {
        std::printf("ok: collected %zu item(s)\n", system->rs().garbage_collect());
      } else if (cmd == "help") {
        std::printf(
            "  sub <name> <attr,...>\n  pub <name>\n"
            "  interest <sub> k=v[,k=v]\n"
            "  publish <pub> k=v,... | <policy> | <payload>\n"
            "  stats [json] | gc | quit\n");
      } else if (cmd == "quit" || cmd == "exit") {
        std::exit(0);
      } else {
        std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Console console;
  if (argc > 1 && std::string(argv[1]) == "--demo") {
    const char* script[] = {
        "sub alice analyst,clearance",
        "sub bob trader",
        "pub reuters",
        "interest alice topic=markets",
        "interest bob topic=markets,region=us",
        "publish reuters topic=markets,region=us,urgency=high | analyst and "
        "clearance | FOMC minutes leaked",
        "publish reuters topic=tech,region=eu,urgency=low | analyst | chip "
        "fab delayed",
        "stats",
    };
    for (const char* line : script) {
      std::printf("p3s> %s\n", line);
      console.handle(line);
    }
    // The script's outcome: alice reads the analyst-only item, bob matches
    // it but cannot decrypt, and nobody matches the tech item.
    const core::Subscriber& alice = *console.subs.at("alice");
    const core::Subscriber& bob = *console.subs.at("bob");
    const bool as_described =
        alice.match_count() == 1 && alice.delivery_count() == 1 &&
        bob.match_count() == 1 && bob.undecryptable_payloads() == 1 &&
        console.system->rs().stored_items() == 2;
    if (!as_described) std::fprintf(stderr, "p3s_repl: unexpected outcome\n");
    return as_described ? 0 : 1;
  }
  std::string line;
  std::printf("p3s> ");
  while (std::getline(std::cin, line)) {
    console.handle(line);
    std::printf("p3s> ");
  }
  return 0;
}
