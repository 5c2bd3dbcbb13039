#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/simnet.hpp"
#include "wire_log.hpp"

namespace p3s::sim {
namespace {

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine eng;
  std::vector<int> order;
  eng.at(3.0, [&] { order.push_back(3); });
  eng.at(1.0, [&] { order.push_back(1); });
  eng.at(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(SimEngine, SimultaneousEventsAreFifo) {
  SimEngine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.at(1.0, [&, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngine, AfterIsRelative) {
  SimEngine eng;
  double fired_at = -1;
  eng.at(5.0, [&] { eng.after(2.5, [&] { fired_at = eng.now(); }); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimEngine, PastSchedulingClampsToNow) {
  SimEngine eng;
  double fired_at = -1;
  eng.at(10.0, [&] { eng.at(3.0, [&] { fired_at = eng.now(); }); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SimEngine, RunUntilStopsAtBoundary) {
  SimEngine eng;
  int fired = 0;
  eng.at(1.0, [&] { ++fired; });
  eng.at(5.0, [&] { ++fired; });
  eng.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimNetwork, DeliveryTimeIsSerializationPlusLatency) {
  SimEngine eng;
  SimNetwork net(eng, {0.045, 10e6});
  double arrival = -1;
  net.register_endpoint("b", [&](const std::string&, BytesView) {
    arrival = eng.now();
  });
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  net.send("a", "b", Bytes(12'500));  // 12500 B = 100 kbit -> 10 ms at 10 Mbps
  eng.run();
  EXPECT_NEAR(arrival, 0.045 + 0.010, 1e-9);
}

TEST(SimNetwork, NicSerializesFanOut) {
  // Two frames out of the same NIC: second waits for the first (the DS
  // broadcast bottleneck from the paper's throughput model).
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});  // zero latency, 1 MB/s
  std::vector<double> arrivals;
  net.register_endpoint("s1", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("s2", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("ds", [](const std::string&, BytesView) {});
  net.send("ds", "s1", Bytes(1'000'000));  // 1 s of wire time
  net.send("ds", "s2", Bytes(1'000'000));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 1.0, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.0, 1e-9);  // queued behind the first
}

TEST(SimNetwork, PerLinkOverride) {
  SimEngine eng;
  SimNetwork net(eng, {0.045, 10e6});
  net.set_link("ds", "rs", {0.001, 100e6});
  double arrival = -1;
  net.register_endpoint("rs", [&](const std::string&, BytesView) {
    arrival = eng.now();
  });
  net.register_endpoint("ds", [](const std::string&, BytesView) {});
  net.send("ds", "rs", Bytes(125'000));  // 1 Mbit -> 10 ms at 100 Mbps
  eng.run();
  EXPECT_NEAR(arrival, 0.001 + 0.010, 1e-9);
}

TEST(SimNetwork, EgressOverrideAppliesToAllDestinations) {
  SimEngine eng;
  SimNetwork net(eng, {0.0, 10e6});
  net.set_egress("fast", {0.0, 100e6});
  std::vector<double> arrivals;
  net.register_endpoint("x", [&](const std::string&, BytesView) {
    arrivals.push_back(eng.now());
  });
  net.register_endpoint("fast", [](const std::string&, BytesView) {});
  net.send("fast", "x", Bytes(125'000));  // 10 ms at 100 Mbps
  eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 0.010, 1e-9);
}

TEST(SimNetwork, FramesToDeadHostsAreLost) {
  SimEngine eng;
  SimNetwork net(eng);
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  test::WireLog wire(net);
  EXPECT_NO_THROW(net.send("a", "dead", Bytes(10)));
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(wire.size(), 1u);  // eavesdropper still saw it
}

TEST(SimNetwork, TrafficLogTimestamps) {
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  net.register_endpoint("b", [](const std::string&, BytesView) {});
  net.register_endpoint("a", [](const std::string&, BytesView) {});
  test::WireLog wire(net);
  eng.at(1.5, [&] { net.send("a", "b", Bytes(10)); });
  eng.run();
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_DOUBLE_EQ(wire.frames()[0].time, 1.5);
}

TEST(SimNetwork, TapSeesModeledWireSize) {
  // send_sized charges the NIC for `wire_size` bytes; the eavesdropper sees
  // that size, next to the (smaller) frame actually carried.
  SimEngine eng;
  SimNetwork net(eng, {0.0, 8e6});
  net.register_endpoint("b", [](const std::string&, BytesView) {});
  test::WireLog wire(net);
  net.send_sized("a", "b", Bytes(10), 1'000'000);
  eng.run();
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire.frames()[0].size, 1'000'000u);
  EXPECT_EQ(wire.frames()[0].bytes.size(), 10u);
}

}  // namespace
}  // namespace p3s::sim
