// The real P3S components on the simulated network: every endpoint is its
// own machine whose handlers' CPU time delays its sends, at the paper's
// ℓ = 45 ms and ℬ = 10 Mbps. For small payloads the DS broadcast binds, as
// the §6.2 throughput model says (bench_figs_measured runs the full sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "p3s/system.hpp"
#include "sim/simnet.hpp"

namespace p3s::core {
namespace {

TEST(SimDeployment, SmallPayloadsRunAtTheDsBroadcastRate) {
  constexpr std::size_t kSubs = 16;
  constexpr std::size_t kMatching = 8;  // the last in the DS's fan-out order
  constexpr int kPubs = 24;
  sim::SimEngine engine;
  sim::SimNetwork net(engine);  // ℓ = 45 ms, ℬ = 10 Mbps
  net.set_link("ds", "rs", {0.045, 100e6});
  double broadcast_bytes = 0;
  std::size_t broadcasts = 0;
  net.set_tap([&](const net::TrafficRecord& r) {
    if (r.from == "ds" && r.to.starts_with("sub-")) {
      broadcast_bytes += static_cast<double>(r.size);
      ++broadcasts;
    }
  });

  TestRng rng(0x51d);
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = pbe::MetadataSchema::uniform(10, 16);  // 40 bits
  config.with_anonymizer = false;
  P3sSystem system(net, config, rng);
  auto pub = system.make_publisher("pub", "press", rng);
  std::map<Guid, std::vector<double>> deliveries;  // per GUID, their times
  std::vector<std::unique_ptr<Subscriber>> subs;
  for (std::size_t i = 0; i < kSubs; ++i) {
    const bool matching = i >= kSubs - kMatching;
    subs.push_back(system.make_subscriber(
        "sub-" + std::to_string(10 + i), "p" + std::to_string(i), {"analyst"},
        rng));
    subs.back()->subscribe({{"attr0", matching ? "v0" : "v1"}});
    subs.back()->set_delivery_handler([&](const Subscriber::Delivery& d) {
      deliveries[d.guid].push_back(net.now());
    });
  }
  engine.run();
  broadcast_bytes = 0;
  broadcasts = 0;

  pbe::Metadata md;
  for (const auto& a : config.schema.attributes()) md[a.name] = "v0";
  const Bytes payload(1024);
  const auto policy = abe::parse_policy("analyst");
  std::vector<Guid> guids;
  for (int k = 0; k < kPubs; ++k) {
    net.run_on("pub", [&] { guids.push_back(pub->publish(md, payload, policy)); });
  }
  engine.run();

  ASSERT_EQ(guids.size(), static_cast<std::size_t>(kPubs));
  ASSERT_EQ(deliveries.size(), guids.size());
  std::vector<double> completions;
  for (const Guid& guid : guids) {
    const auto it = deliveries.find(guid);
    ASSERT_NE(it, deliveries.end());
    EXPECT_EQ(it->second.size(), kMatching);
    completions.push_back(*std::max_element(it->second.begin(), it->second.end()));
  }
  const auto [first, last] =
      std::minmax_element(completions.begin(), completions.end());
  const double rate = (kPubs - 1) / (*last - *first);
  ASSERT_EQ(broadcasts, kSubs * kPubs);
  const double p_e = broadcast_bytes / static_cast<double>(broadcasts);
  const double ds_rate = 10e6 / (8.0 * p_e * static_cast<double>(kSubs));
  EXPECT_NEAR(rate, ds_rate, 0.05 * ds_rate);
}

}  // namespace
}  // namespace p3s::core
