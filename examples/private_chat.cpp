// Private multiparty chat — one of the paper's §8 future-work applications:
// "we are also exploring innovative uses of the basic privacy-preserving
// pub-sub middleware such as private multiparty chat."
//
// Each chat room is a metadata attribute value; membership in a room is a
// CP-ABE attribute. Joining a room = subscribing to its attribute. The
// infrastructure relays every message but never learns who is in which
// room, and room transcripts are only decryptable by members.
#include <cstdio>
#include <string>

#include "abe/policy.hpp"
#include "crypto/drbg.hpp"
#include "net/network.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT

namespace {

// A chat participant is both a publisher (to send) and a subscriber (to
// receive) — P3S supports clients in both roles.
struct ChatUser {
  std::unique_ptr<core::Subscriber> rx;
  std::unique_ptr<core::Publisher> tx;
  std::string handle;

  void join(const std::string& room) {
    rx->subscribe({{"room", room}});
  }

  void say(const std::string& room, const std::string& text) {
    tx->publish({{"room", room}},
                str_to_bytes(handle + ": " + text),
                abe::parse_policy("member:" + room),
                /*ttl_seconds=*/300.0);  // messages fade after 5 minutes
  }
};

ChatUser make_user(core::P3sSystem& p3s, const std::string& handle,
                   const std::set<std::string>& rooms, Rng& rng) {
  ChatUser u;
  u.handle = handle;
  std::set<std::string> attrs;
  for (const auto& r : rooms) attrs.insert("member:" + r);
  u.rx = p3s.make_subscriber(handle + "-rx", handle, attrs, rng);
  u.tx = p3s.make_publisher(handle + "-tx", handle, rng);
  u.rx->set_delivery_handler([handle](const core::Subscriber::Delivery& d) {
    std::printf("  [%s's screen] %s\n", handle.c_str(),
                bytes_to_str(d.payload).c_str());
  });
  return u;
}

}  // namespace

int main() {
  crypto::Drbg rng(str_to_bytes("private-chat"));

  pbe::MetadataSchema schema({
      {"room", {"ops", "social", "incident-4711", "board"}},
  });

  net::DirectNetwork network;
  core::P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = schema;
  core::P3sSystem p3s(network, config, rng);

  // dana is on the incident response; erin is ops+social; frank only social.
  ChatUser dana = make_user(p3s, "dana", {"ops", "incident-4711"}, rng);
  ChatUser erin = make_user(p3s, "erin", {"ops", "social"}, rng);
  ChatUser frank = make_user(p3s, "frank", {"social"}, rng);

  dana.join("incident-4711");
  dana.join("ops");
  erin.join("ops");
  erin.join("social");
  frank.join("social");

  std::printf("--- #ops ---\n");
  dana.say("ops", "rolling restart of edge pool in 10");
  erin.say("ops", "ack, draining traffic");

  std::printf("--- #incident-4711 (dana only) ---\n");
  dana.say("incident-4711", "customer data NOT affected, see timeline doc");

  std::printf("--- #social ---\n");
  frank.say("social", "cake in the kitchen");

  std::printf("\nscoreboard:\n");
  std::printf("  dana: %zu messages received\n", dana.rx->delivery_count());
  std::printf("  erin: %zu messages received\n", erin.rx->delivery_count());
  std::printf("  frank: %zu messages received (matched=%zu — frank never even\n"
              "        matched the ops or incident rooms, let alone decrypted)\n",
              frank.rx->delivery_count(), frank.rx->match_count());
  std::printf("\ninfrastructure view: DS relayed %zu frames, RS stored %zu\n"
              "ciphertexts; neither can name a single room membership.\n",
              p3s.ds().observations().size(), p3s.rs().stored_items());
  return 0;
}
