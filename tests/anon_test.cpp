// Anonymizer hardening edge cases (DESIGN.md §11): the batched-mixing
// machinery at its boundaries — an empty batch flush must be a wire no-op,
// a lone request must be padded with decoys (or held to its deadline when
// no cover material exists), a flush into a blacked-out RS must still
// converge to exactly-once delivery, and DS cover traffic must flow without
// confusing subscribers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "abe/policy.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "net/async.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "p3s/anonymizer.hpp"
#include "p3s/system.hpp"
#include "wire_log.hpp"

namespace p3s::core {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

P3sConfig base_config() {
  P3sConfig config;
  config.pairing = pairing::Pairing::test_pairing();
  config.schema = pbe::MetadataSchema(
      {{"sector", {"finance", "tech"}}, {"grade", {"x", "y"}}});
  config.rs_grace_seconds = 1e9;
  return config;
}

/// Drive the async system: deliver, poll every component, advance when idle.
template <typename Done>
bool converge(net::AsyncNetwork& net, P3sSystem& system, Subscriber* sub,
              const Done& done, int max_rounds = 500) {
  for (int round = 0; round < max_rounds; ++round) {
    net.run_until_idle(500000);
    if (done()) return true;
    if (sub != nullptr) sub->poll();
    system.ds().poll();
    if (auto* anon = system.anonymizer()) anon->poll();
    if (net.in_flight() == 0) net.advance(97);
  }
  net.run_until_idle(500000);
  return done();
}

TEST(AnonHardeningTest, EmptyBatchFlushIsWireNoop) {
  net::AsyncNetwork net;
  AnonHardening hard;
  hard.batching = true;
  hard.batch_size = 4;
  hard.flush_interval = 50.0;
  test::WireLog wire(net);
  TestRng rng(0xe3b7);
  Anonymizer anon(net, "anon", rng, hard);
  const auto flushes_before =
      counter_value(obs::names::kAnonBatchFlushesTotal);
  // Plenty of deadline-worths of time with nothing held: no frames, no
  // flushes, no deadline armed.
  for (int i = 0; i < 10; ++i) {
    net.advance(100);
    anon.poll();
  }
  EXPECT_EQ(anon.held_count(), 0u);
  EXPECT_EQ(wire.size(), 0u);
  EXPECT_EQ(counter_value(obs::names::kAnonBatchFlushesTotal),
            flushes_before);
}

TEST(AnonHardeningTest, LoneRequestIsPaddedWithDecoys) {
  net::AsyncNetwork net;
  test::WireLog wire(net);
  TestRng rng(0xdec0);
  P3sConfig config = base_config();
  config.anon_hardening.batching = true;
  config.anon_hardening.batch_size = 3;
  config.anon_hardening.min_batch = 3;
  config.anon_hardening.flush_interval = 150.0;
  config.anon_hardening.flush_jitter = 50.0;
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  net.run_until_idle();
  sub->subscribe({{"sector", "finance"}});
  // The token request itself is held at the batching relay: converge
  // (polling the anonymizer) until the deadline flush releases it.
  ASSERT_TRUE(converge(net, system, sub.get(),
                       [&] { return sub->token_count() == 1u; }));
  ASSERT_NE(system.anonymizer(), nullptr);
  ASSERT_EQ(system.anonymizer()->held_count(), 0u);

  const auto cover_before = counter_value(obs::names::kAnonCoverTotal);
  const auto absorbed_before =
      counter_value(obs::names::kAnonDecoyRepliesTotal);
  const std::size_t wire_to_rs_before = wire.count(
      system.directory().anonymizer_name, system.directory().rs_name);
  pub->publish({{"sector", "finance"}, {"grade", "x"}},
               str_to_bytes("lone-payload"), abe::parse_policy("m"), 1e9);
  net.run_until_idle();
  // The single fetch is held: one real request, batch of 3 not reached.
  EXPECT_EQ(system.anonymizer()->held_count(), 1u);
  EXPECT_TRUE(converge(net, system, sub.get(),
                       [&] { return sub->delivery_count() == 1u; }));
  // The deadline flush topped the lone request up with two decoy fetches,
  // and the decoys' replies were absorbed at the relay, never forwarded.
  EXPECT_EQ(counter_value(obs::names::kAnonCoverTotal), cover_before + 2);
  EXPECT_EQ(counter_value(obs::names::kAnonDecoyRepliesTotal),
            absorbed_before + 2);
  EXPECT_EQ(wire.count(system.directory().anonymizer_name,
                       system.directory().rs_name),
            wire_to_rs_before + 3);
  EXPECT_EQ(system.anonymizer()->held_count(), 0u);
}

TEST(AnonHardeningTest, LoneRequestHeldToDeadlineWithoutCover) {
  net::AsyncNetwork net;
  TestRng rng(0x401d);
  P3sConfig config = base_config();
  config.anon_hardening.batching = true;
  config.anon_hardening.batch_size = 3;
  config.anon_hardening.min_batch = 0;  // no cover material: hold, don't pad
  config.anon_hardening.flush_interval = 150.0;
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  net.run_until_idle();
  sub->subscribe({{"sector", "finance"}});
  // Token request held at the relay until its deadline flush, as above.
  ASSERT_TRUE(converge(net, system, sub.get(),
                       [&] { return sub->token_count() == 1u; }));
  ASSERT_NE(system.anonymizer(), nullptr);
  ASSERT_EQ(system.anonymizer()->held_count(), 0u);

  const auto cover_before = counter_value(obs::names::kAnonCoverTotal);
  pub->publish({{"sector", "finance"}, {"grade", "x"}},
               str_to_bytes("held-payload"), abe::parse_policy("m"), 1e9);
  net.run_until_idle();
  EXPECT_EQ(system.anonymizer()->held_count(), 1u);
  EXPECT_EQ(sub->delivery_count(), 0u);  // still held
  EXPECT_TRUE(converge(net, system, sub.get(),
                       [&] { return sub->delivery_count() == 1u; }));
  EXPECT_EQ(counter_value(obs::names::kAnonCoverTotal), cover_before);
}

TEST(AnonHardeningTest, FlushAcrossRsBlackoutConvergesExactlyOnce) {
  net::AsyncNetwork net;
  TestRng rng(0xb1ac);
  P3sConfig config = base_config();
  config.reliability.enabled = true;
  config.reliability.timeout = 300.0;
  config.reliability.max_timeout = 1200.0;
  config.reliability.sync_interval = 700.0;
  config.reliability.max_attempts = 16;
  config.anon_hardening.batching = true;
  config.anon_hardening.batch_size = 3;
  config.anon_hardening.min_batch = 3;
  config.anon_hardening.flush_interval = 150.0;
  config.anon_hardening.flush_jitter = 50.0;
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  const auto settled = [&] {
    return pub->connected() && sub->connected() && sub->token_count() == 1;
  };
  sub->subscribe({{"sector", "finance"}});
  ASSERT_TRUE(converge(net, system, sub.get(), settled));

  pub->publish({{"sector", "finance"}, {"grade", "x"}},
               str_to_bytes("blackout-payload"), abe::parse_policy("m"), 1e9);
  net.run_until_idle();
  // The fetch is held at the relay; black the RS out across the flush
  // deadline, so the mixed batch lands on a dark endpoint and is lost.
  net::FaultPlan plan(0xb1ac);
  plan.add_blackout(system.directory().rs_name, net.now(), net.now() + 600.0);
  net.set_fault_plan(std::move(plan));
  EXPECT_TRUE(converge(net, system, sub.get(),
                       [&] { return sub->delivery_count() == 1u; },
                       800));
  // Exactly-once despite retries re-entering later mixed batches.
  EXPECT_EQ(sub->delivery_count(), 1u);
  EXPECT_EQ(sub->request_failures(), 0u);
}

// A destination that never answers must not grow the relay's tag table.
// Forwards to an endpoint that does not exist used to stay pending one
// each; past the cap the oldest entry goes, so the gauge stays at the cap,
// and a real fetch afterwards is still relayed and delivered.
TEST(AnonHardeningTest, UnansweredForwardsStayCapped) {
  net::AsyncNetwork net;
  TestRng rng(0x7a6);
  P3sSystem system(net, base_config(), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  sub->subscribe({{"sector", "finance"}});
  net.run_until_idle();
  ASSERT_EQ(sub->token_count(), 1u);

  const obs::Gauge& pending =
      obs::Registry::global().gauge(obs::names::kAnonPending);
  const Bytes request =
      tagged_frame(FrameType::kContentRequest, 1, rng.bytes(64));
  for (std::size_t i = 0; i < Anonymizer::kTagCap + 500; ++i) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kAnonForward));
    w.str("nowhere");
    w.bytes(request);
    net.send("attacker", "anon", w.take());
  }
  net.run_until_idle(1000000);
  EXPECT_EQ(pending.value(),
            static_cast<std::int64_t>(Anonymizer::kTagCap));

  pub->publish({{"sector", "finance"}, {"grade", "x"}},
               str_to_bytes("still-delivered"), abe::parse_policy("m"), 1e9);
  net.run_until_idle(1000000);
  EXPECT_EQ(sub->delivery_count(), 1u);
  EXPECT_LE(pending.value(), static_cast<std::int64_t>(Anonymizer::kTagCap));
}

// Deployments that leave the hardening seeds unset draw them from their own
// RNG: built from different seeds, two of them shuffle the same batch of
// requests into different orders and pad each one with different bytes.
TEST(AnonHardeningTest, UnsetSeedsDifferAcrossDeployments) {
  // What the anonymizer relays to the RS: request i's marker byte in
  // relay order, and each request's padded frame.
  struct Relayed {
    std::vector<std::uint8_t> order;
    std::map<std::uint8_t, Bytes> frames;
  };
  const auto relay = [](std::uint64_t seed) {
    net::AsyncNetwork net;
    TestRng rng(seed);
    P3sConfig config = base_config();
    config.anon_hardening.batching = true;
    config.anon_hardening.batch_size = 8;
    config.anon_hardening.pad_bucket = 256;
    P3sSystem system(net, std::move(config), rng);
    test::WireLog wire(net);
    const std::string anon = system.directory().anonymizer_name;
    const std::string rs = system.directory().rs_name;
    for (std::uint8_t i = 0; i < 8; ++i) {
      Writer w;
      w.u8(static_cast<std::uint8_t>(FrameType::kAnonForward));
      w.str(rs);
      w.bytes(tagged_frame(FrameType::kContentRequest, 1, Bytes(32, i)));
      net.send("client", anon, w.take());
    }
    net.run_until_idle();
    Relayed out;
    for (const auto& f : wire.frames()) {
      if (f.from != anon || f.to != rs) continue;
      Reader r(f.bytes);
      (void)read_frame_type(r);
      const std::uint8_t i = read_tagged(r).payload.at(0);
      out.order.push_back(i);
      out.frames[i] = f.bytes;
    }
    return out;
  };
  const Relayed a = relay(1);
  const Relayed b = relay(2);
  ASSERT_EQ(a.frames.size(), 8u);
  ASSERT_EQ(b.frames.size(), 8u);
  EXPECT_NE(a.order, b.order);
  for (const auto& [i, frame] : a.frames) {
    ASSERT_EQ(frame.size(), b.frames.at(i).size());
    EXPECT_TRUE(frame != b.frames.at(i)) << "same pad for request " << +i;
  }
}

// With cover on and padding off, every broadcast record has one size from
// the start: the DS sizes cover from the group and the schema, so cover
// sent before the first publication looks like the publication.
TEST(DsHardeningTest, CoverBeforeFirstPublicationMatchesRealBroadcasts) {
  net::AsyncNetwork net;
  TestRng rng(0x5123);
  P3sConfig config = base_config();
  config.ds_hardening.cover_interval = 120.0;
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  auto pub = system.make_publisher("pub1", "press", rng);
  net.run_until_idle();
  ASSERT_TRUE(sub->connected());

  // From here on every DS → subscriber record is a broadcast.
  test::WireLog wire(net);
  const std::string ds = system.directory().ds_name;
  const auto cover_rounds = [&] {
    for (int i = 0; i < 8; ++i) {
      net.advance(120);
      system.ds().poll();
      net.run_until_idle();
    }
  };
  cover_rounds();
  const std::size_t before = wire.count(ds, "sub1");
  pub->publish({{"sector", "finance"}, {"grade", "x"}}, str_to_bytes("p"),
               abe::parse_policy("m"), 1e9);
  net.run_until_idle();
  cover_rounds();
  EXPECT_GT(before, 0u);
  EXPECT_GT(wire.count(ds, "sub1"), before + 1);
  std::set<std::size_t> sizes;
  for (const auto& f : wire.frames()) {
    if (f.from == ds && f.to == "sub1") sizes.insert(f.size);
  }
  EXPECT_EQ(sizes.size(), 1u);
}

TEST(DsHardeningTest, CoverBroadcastsFlowWithoutConfusingSubscribers) {
  net::AsyncNetwork net;
  TestRng rng(0xc0ffe);
  P3sConfig config = base_config();
  config.ds_hardening.batching = true;
  config.ds_hardening.batch_size = 4;
  config.ds_hardening.flush_interval = 200.0;
  config.ds_hardening.cover_interval = 120.0;
  P3sSystem system(net, std::move(config), rng);
  auto sub = system.make_subscriber("sub1", "alice", {"m"}, rng);
  net.run_until_idle();
  sub->subscribe({{"sector", "finance"}});
  net.run_until_idle();
  ASSERT_EQ(sub->token_count(), 1u);

  const auto cover_before = counter_value(obs::names::kDsCoverTotal);
  const auto attempts_before =
      counter_value(obs::names::kSubMatchAttemptsTotal);
  for (int i = 0; i < 12; ++i) {
    net.advance(120);
    system.ds().poll();
    net.run_until_idle();
  }
  // Cover broadcasts went out on the normal fanout path and the subscriber
  // processed them as ordinary (unmatchable) metadata — no delivery, no
  // crash, no match. The parse rejects the garbage before any token is
  // tried, so cover costs no match attempt (the model's r_match relies on
  // this).
  EXPECT_GT(counter_value(obs::names::kDsCoverTotal), cover_before);
  EXPECT_GT(sub->metadata_received(), 0u);
  EXPECT_EQ(counter_value(obs::names::kSubMatchAttemptsTotal),
            attempts_before);
  EXPECT_EQ(sub->match_count(), 0u);
  EXPECT_EQ(sub->delivery_count(), 0u);
}

}  // namespace
}  // namespace p3s::core
