// Prototype measurements (paper §6.2, first paragraph): run the REAL P3S
// stack and the REAL baseline broker in-process, with actual HVE/CP-ABE
// crypto, and measure wall-clock publish→deliver times and component
// operation counts — the "metrics collected by running the P3S prototype in
// various configurations" step that calibrates the analytic models.
#include <chrono>
#include <cstdio>

#include "abe/policy.hpp"
#include "bench_util.hpp"
#include "broker/baseline.hpp"
#include "common/rng.hpp"
#include "net/async.hpp"
#include "p3s/system.hpp"

using namespace p3s;  // NOLINT
using benchutil::human_bytes;
using benchutil::human_time;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  TestRng rng(0xe2e);
  const auto schema = pbe::MetadataSchema::uniform(4, 4);  // 8-bit vectors

  std::printf("=== Prototype wall-clock measurements (real crypto, in-process transport) ===\n");
  std::printf("    schema: 4 attributes x 4 values (8-bit HVE vectors), test-scale pairing\n\n");

  for (const std::size_t n_subs : {4u, 16u}) {
    // --- P3S ---------------------------------------------------------------
    net::AsyncNetwork net;
    std::uint64_t ds_bytes = 0;  // NIC egress of the DS, counted by a tap
    net.set_tap([&](const net::TrafficRecord& rec) {
      if (rec.from == "ds") ds_bytes += rec.size;
    });
    core::P3sConfig config;
    config.pairing = pairing::Pairing::test_pairing();
    config.schema = schema;
    core::P3sSystem system(net, config, rng);

    std::vector<std::unique_ptr<core::Subscriber>> subs;
    for (std::size_t i = 0; i < n_subs; ++i) {
      subs.push_back(system.make_subscriber("sub" + std::to_string(i),
                                            "pseud" + std::to_string(i),
                                            {"analyst"}, rng));
      // Half the subscribers match attr0=v0.
      subs.back()->subscribe(
          {{"attr0", i % 2 == 0 ? "v0" : "v1"}});
    }
    auto pub = system.make_publisher("pub", "press", rng);
    net.run_until_idle();

    const Bytes payload = rng.bytes(1024);
    const pbe::Metadata md = {
        {"attr0", "v0"}, {"attr1", "v1"}, {"attr2", "v2"}, {"attr3", "v3"}};
    const auto policy = abe::parse_policy("analyst");

    const int reps = 5;
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r) {
      pub->publish(md, payload, policy);
      net.run_until_idle();
    }
    const double p3s_time = (now_s() - t0) / reps;

    std::size_t delivered = 0;
    for (const auto& s : subs) delivered += s->delivery_count();

    // --- baseline ------------------------------------------------------------
    net::AsyncNetwork bnet;
    broker::BaselineBroker broker(bnet, "broker");
    std::vector<std::unique_ptr<broker::BaselineSubscriber>> bsubs;
    for (std::size_t i = 0; i < n_subs; ++i) {
      bsubs.push_back(std::make_unique<broker::BaselineSubscriber>(
          bnet, "sub" + std::to_string(i), "broker"));
      bsubs[i]->subscribe({{"attr0", i % 2 == 0 ? "v0" : "v1"}});
    }
    broker::BaselinePublisher bpub(bnet, "pub", "broker");
    bnet.run_until_idle();
    const double t1 = now_s();
    for (int r = 0; r < reps; ++r) {
      bpub.publish(md, payload);
      bnet.run_until_idle();
    }
    const double base_time = (now_s() - t1) / reps;

    std::printf("N_s=%-3zu  p3s publish->deliver(all): %-10s baseline: %-10s overhead: %.0fx\n",
                n_subs, human_time(p3s_time).c_str(),
                human_time(base_time).c_str(), p3s_time / base_time);
    std::printf("         deliveries/pub: %.1f (expected %.1f); ds bytes/pub: %s; matches at subscribers: %zu\n",
                static_cast<double>(delivered) / reps,
                static_cast<double>((n_subs + 1) / 2),
                human_bytes(static_cast<double>(ds_bytes) / reps).c_str(),
                [&] {
                  std::size_t m = 0;
                  for (const auto& s : subs) m += s->match_count();
                  return m;
                }() / reps);
  }

  std::printf(
      "\nNote: in-process overhead is crypto-dominated (no real network);\n"
      "the §6.2 models add network latency/bandwidth on top of these costs.\n");
  p3s::benchutil::emit_metrics("e2e_prototype");
  return 0;
}
