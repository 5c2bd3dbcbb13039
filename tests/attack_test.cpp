// Adversarial workload matrix (DESIGN.md §11): every attack in src/attack
// runs as an executable scenario against a vulnerable baseline (defense
// off — the attack must LAND, advantage above its leak budget) and against
// the hardened configuration (advantage must stay within budget while
// delivery stays exactly-once). Each (attack, mode, seed) cell is an
// individual ctest case; a failing cell prints a one-line replay command.
//
// Budgets are the declared leak contract for each attack class. They are
// meaningful only because the vulnerable cells EXCEED them: a budget both
// modes satisfy would pin nothing.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacks.hpp"
#include "attack/scenario.hpp"
#include "delivery_log.hpp"
#include "net/async.hpp"
#include "net/fault.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::attack {
namespace {

constexpr double kFrequencyBudget = 0.25;
constexpr double kIntersectionBudget = 0.20;
constexpr double kProbeBudget = 0.25;
constexpr double kReplayBudget = 0.15;

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

struct AttackCellCase {
  const char* attack;  // frequency | intersection | probe | replay
  const char* mode;    // vulnerable | hardened
  std::uint64_t seed;
};

std::string case_name(const AttackCellCase& c) {
  return std::string(c.attack) + "_" + c.mode + "_seed" +
         std::to_string(c.seed);
}

void PrintTo(const AttackCellCase& c, std::ostream* os) {
  *os << case_name(c);
}

std::vector<AttackCellCase> attack_cases() {
  std::vector<AttackCellCase> out;
  for (const char* attack :
       {"frequency", "intersection", "probe", "replay"}) {
    for (const char* mode : {"vulnerable", "hardened"}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        out.push_back({attack, mode, seed});
      }
    }
  }
  return out;
}

class AttackMatrix : public ::testing::TestWithParam<AttackCellCase> {
 protected:
  bool hardened() const { return std::string(GetParam().mode) == "hardened"; }

  void check_budget(const AttackReport& report) {
    if (hardened()) {
      EXPECT_LE(report.advantage, report.budget)
          << report.name << " leaked past its budget: " << report.detail;
    } else {
      EXPECT_GT(report.advantage, report.budget)
          << report.name
          << " did not land on the vulnerable baseline (vacuous budget): "
          << report.detail;
    }
  }

  /// Settle the scenario, then log what each subscriber delivers.
  [[nodiscard]] bool settle(AttackScenario& sc) {
    if (!sc.settle()) return false;
    for (core::Subscriber* sub : sc.subscribers()) {
      delivered_.try_emplace(sub->name(), *sub);
    }
    return true;
  }

  /// Every subscriber delivered exactly the publications of its topic,
  /// without duplicates — the defenses must not cost correctness.
  void check_exactly_once(AttackScenario& sc, std::size_t per_topic) {
    for (core::Subscriber* sub : sc.subscribers()) {
      std::set<Guid> got;
      for (const auto& d : delivered_.at(sub->name()).deliveries()) {
        EXPECT_TRUE(got.insert(d.guid).second)
            << sub->name() << ": duplicate delivery";
      }
      EXPECT_EQ(got.size(), per_topic) << sub->name();
    }
  }

  std::map<std::string, test::DeliveryLog> delivered_;  // by subscriber
};

TEST_P(AttackMatrix, AdvantageStaysWithinLeakBudget) {
  const AttackCellCase c = GetParam();
  SCOPED_TRACE("replay: tests/test_attack --gtest_filter='*" + case_name(c) +
               "'");
  const std::string attack = c.attack;

  if (attack == "frequency") {
    // Passive eavesdropper correlating a known publish schedule with
    // per-subscriber reaction timing on the sub → anonymizer link.
    ScenarioConfig cfg;
    cfg.seed = c.seed;
    cfg.hardened = hardened();
    cfg.subs_per_topic = 3;
    AttackScenario sc(cfg);
    ASSERT_TRUE(settle(sc));
    const auto ds_flushes = counter_value(obs::names::kDsBatchFlushesTotal);
    const auto anon_flushes =
        counter_value(obs::names::kAnonBatchFlushesTotal);
    for (int round = 0; round < 4; ++round) {
      sc.publish("finance");
      sc.publish("tech");
    }
    ASSERT_TRUE(sc.drain());
    const EavesdropperObserver& obs = sc.observer();
    const AttackReport report = frequency_attack(
        obs, sc.schedule(), sc.truth(),
        sc.system().directory().anonymizer_name, AttackScenario::topics(),
        kFrequencyBudget);
    emit_attack_metrics(report, obs.sightings().size());
    check_budget(report);
    if (hardened()) {
      // Non-vacuous: the mixing defenses actually engaged.
      EXPECT_GT(counter_value(obs::names::kDsBatchFlushesTotal), ds_flushes);
      EXPECT_GT(counter_value(obs::names::kAnonBatchFlushesTotal),
                anon_flushes);
    }
    check_exactly_once(sc, 4);
    return;
  }

  if (attack == "intersection") {
    // Malicious RS intersecting request arrivals with the publish schedule.
    // The defense under test is the anonymizer itself: the vulnerable
    // baseline runs without it, so subscribers fetch under their own names.
    ScenarioConfig cfg;
    cfg.seed = c.seed;
    cfg.hardened = hardened();
    cfg.with_anonymizer = hardened();
    cfg.subs_per_topic = 3;
    AttackScenario sc(cfg);
    ASSERT_TRUE(settle(sc));
    for (int round = 0; round < 4; ++round) {
      sc.publish("finance");
      sc.publish("tech");
    }
    ASSERT_TRUE(sc.drain());
    const EavesdropperObserver& obs = sc.observer();
    const std::string rs = sc.system().directory().rs_name;
    const AttackReport report =
        intersection_attack(obs, sc.schedule(), sc.truth(), rs,
                            AttackScenario::topics(), kIntersectionBudget);
    emit_attack_metrics(report, obs.on_link("", rs).size());
    check_budget(report);
    if (hardened()) {
      // Structural form of the same guarantee: the RS never sees a
      // subscriber identity — only the relay and the DS talk to it.
      const std::string anon = sc.system().directory().anonymizer_name;
      const std::string ds = sc.system().directory().ds_name;
      for (const Sighting& s : obs.on_link("", rs)) {
        EXPECT_TRUE(s.from == anon || s.from == ds) << s.from;
      }
    }
    check_exactly_once(sc, 4);
    return;
  }

  if (attack == "probe") {
    // Chosen-publication oracle: a malicious publisher probes each topic
    // and watches which victims react. Ambient workload publications
    // interleave with the probes; hardened batching merges probe and
    // ambient rounds so the oracle loses attribution.
    ScenarioConfig cfg;
    cfg.seed = c.seed;
    cfg.hardened = hardened();
    cfg.subs_per_topic = 2;
    AttackScenario sc(cfg);
    ASSERT_TRUE(settle(sc));
    sc.attacker();  // register before the schedule opens
    std::size_t probes = 0;
    for (int rep = 0; rep < 2; ++rep) {
      sc.publish("finance", /*probe=*/true);
      ++probes;
      sc.publish("tech");
      sc.publish("tech", /*probe=*/true);
      ++probes;
      sc.publish("finance");
    }
    ASSERT_TRUE(sc.drain());
    const EavesdropperObserver& obs = sc.observer();
    const AttackReport report = probe_attack(
        obs, sc.schedule(), sc.truth(),
        sc.system().directory().anonymizer_name, AttackScenario::topics(),
        kProbeBudget);
    emit_attack_metrics(report, obs.sightings().size(), probes);
    check_budget(report);
    check_exactly_once(sc, 4);
    return;
  }

  ASSERT_EQ(attack, "replay");
  // Malicious-DS replay griefing, two layers deep. First, the PR-5 fault
  // plan's duplicate fault re-sends sealed channel records on the wire —
  // the SecureSession sequence check must absorb those in BOTH modes.
  // Second, a compromised DS re-seals its retained broadcasts with fresh
  // channel sequence numbers (replay_broadcasts), which only the reliable
  // layer's broadcast-index dedup can suppress: the vulnerable baseline
  // reprocesses every replay (match + fetch amplification).
  ScenarioConfig cfg;
  cfg.seed = c.seed;
  cfg.reliability = hardened();
  cfg.subs_per_topic = 1;
  AttackScenario sc(cfg);
  ASSERT_TRUE(settle(sc));
  net::FaultPlan plan(c.seed);
  net::LinkFaults replay_faults;
  replay_faults.duplicate = 0.6;
  replay_faults.delay_max = 2.0;
  const std::string ds = sc.system().directory().ds_name;
  for (core::Subscriber* sub : sc.subscribers()) {
    plan.set_link(ds, sub->name(), replay_faults);
  }
  const auto wire_dups_before =
      counter_value(obs::names::kNetFaultDuplicatedTotal);
  sc.net().set_fault_plan(std::move(plan));
  for (int round = 0; round < 3; ++round) {
    sc.publish("finance");
    sc.publish("tech");
  }
  ASSERT_TRUE(sc.converge([&] {
    for (core::Subscriber* sub : sc.subscribers()) {
      if (sub->delivery_count() != 3u) return false;
    }
    return sc.net().in_flight() == 0;
  }));
  // Wire-level duplicates were injected, yet the channel absorbed them:
  // metadata processing so far matches the genuine broadcast count.
  EXPECT_GT(counter_value(obs::names::kNetFaultDuplicatedTotal),
            wire_dups_before);
  const std::size_t broadcasts = sc.schedule().size();
  const std::size_t expected =
      broadcasts * sc.subscribers().size();
  EXPECT_EQ(sc.metadata_received_total(), expected);
  // Now the compromised DS replays its whole broadcast log.
  EXPECT_GT(sc.system().ds().replay_broadcasts(), 0u);
  ASSERT_TRUE(sc.drain());
  const AttackReport report =
      replay_attack(broadcasts, sc.subscribers().size(),
                    sc.metadata_received_total(), kReplayBudget);
  emit_attack_metrics(report, sc.observer().sightings().size());
  check_budget(report);
  if (hardened()) {
    // Non-vacuous: replays really arrived and were suppressed.
    EXPECT_GT(sc.duplicate_metadata_total(), 0u);
  }
  check_exactly_once(sc, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AttackMatrix, ::testing::ValuesIn(attack_cases()),
    [](const ::testing::TestParamInfo<AttackCellCase>& info) {
      return case_name(info.param);
    });

// --- observer unit coverage --------------------------------------------------

TEST(EavesdropperObserverTest, StripsContentAndTalliesLinks) {
  net::AsyncNetwork net;
  EavesdropperObserver obs;
  obs.watch(net);
  net.register_endpoint("b", [](const std::string&, BytesView) {});
  net.send("a", "b", Bytes{1, 2, 3});
  net.send("a", "b", Bytes{4, 5, 6, 7});
  net.send("c", "b", Bytes{8});
  ASSERT_EQ(obs.sightings().size(), 3u);
  EXPECT_EQ(obs.on_link("a", "b").size(), 2u);
  EXPECT_EQ(obs.on_link("", "b").size(), 3u);
  const auto tally = obs.link_tally();
  ASSERT_EQ(tally.size(), 2u);
  EXPECT_EQ(tally.at({"a", "b"}).frames, 2u);
  EXPECT_EQ(tally.at({"a", "b"}).bytes, 7u);
  EXPECT_EQ(tally.at({"c", "b"}).frames, 1u);
  EXPECT_EQ(obs.sizes_on("a", "b"), (std::set<std::size_t>{3u, 4u}));
}

TEST(AttackReportTest, ReplayAdvantageIsAmplification) {
  const AttackReport none = replay_attack(6, 2, 12, 0.15);
  EXPECT_DOUBLE_EQ(none.advantage, 0.0);
  EXPECT_TRUE(none.within_budget());
  const AttackReport amplified = replay_attack(6, 2, 18, 0.15);
  EXPECT_DOUBLE_EQ(amplified.advantage, 0.5);
  EXPECT_FALSE(amplified.within_budget());
}

}  // namespace
}  // namespace p3s::attack
