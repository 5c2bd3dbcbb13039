// Anonymizer hardening edge cases (DESIGN.md §11): the batched-mixing
// machinery at its boundaries — an empty batch flush must be a wire no-op,
// a lone request must be padded with decoys (or held to its deadline when
// no cover material exists), a flush into a blacked-out RS must still
// converge to exactly-once delivery, and DS cover traffic must flow without
// confusing subscribers.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "abe/policy.hpp"
#include "common/rng.hpp"
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
  Anonymizer anon(net, "anon", hard);
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
  for (int i = 0; i < 12; ++i) {
    net.advance(120);
    system.ds().poll();
    net.run_until_idle();
  }
  // Cover broadcasts went out on the normal fanout path and the subscriber
  // processed them as ordinary (unmatchable) metadata — no delivery, no
  // crash, no match.
  EXPECT_GT(counter_value(obs::names::kDsCoverTotal), cover_before);
  EXPECT_GT(sub->metadata_received(), 0u);
  EXPECT_EQ(sub->match_count(), 0u);
  EXPECT_EQ(sub->delivery_count(), 0u);
}

}  // namespace
}  // namespace p3s::core
