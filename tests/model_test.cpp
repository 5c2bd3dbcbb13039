// Tests of the §6.2 analytic models: the qualitative claims the paper makes
// about Figs. 8-10 must hold in our implementation of the formulas.
#include <gtest/gtest.h>

#include "model/analytic.hpp"

namespace p3s::model {
namespace {

constexpr double kKB = 1024.0;
constexpr double kMB = 1024.0 * 1024.0;

TEST(AnalyticLatency, BaselineSmallPayloadIsFast) {
  const ModelParams p = ModelParams::paper_defaults();
  const BaselineLatency lat = baseline_latency(p, 1 * kKB);
  // ℓ + tiny serialization + 5 ms matching + 5 deliveries.
  EXPECT_LT(lat.total(), 0.5);
  EXPECT_GT(lat.total(), p.latency_s);
}

TEST(AnalyticLatency, P3sHasFloorFromPbeAndFanOut) {
  // Paper: "For small payloads P3S exhibits a threshold" — the PBE match
  // (~30-38 ms) and the N_s · ser(P_E) fan-out dominate.
  const ModelParams p = ModelParams::paper_defaults();
  const P3sLatency small = p3s_latency(p, 1 * kKB);
  const P3sLatency tiny = p3s_latency(p, 100.0);
  // The floor: both are dominated by metadata path, nearly equal.
  EXPECT_NEAR(small.total(), tiny.total(), 0.01 * small.total());
  // The fan-out term alone: 100 subscribers x 8 ms = 0.8 s.
  EXPECT_GT(small.tp2, 0.7);
}

TEST(AnalyticLatency, P3sConvergesToBaselineForLargePayloads) {
  // Paper Fig. 8(b): the relative latency approaches ~1 as serialization
  // dominates.
  const ModelParams p = ModelParams::paper_defaults();
  for (double c : {10 * kMB, 100 * kMB}) {
    const double ratio = p3s_latency(p, c).total() / baseline_latency(p, c).total();
    EXPECT_LT(ratio, 1.6) << c;
    EXPECT_GT(ratio, 0.3) << c;
  }
}

TEST(AnalyticLatency, P3sWithin10xEverywhere) {
  // The paper's headline: overhead within 10x across payload sizes.
  const ModelParams p = ModelParams::paper_defaults();
  for (double c = 1 * kKB; c <= 100 * kMB; c *= 4) {
    const double ratio =
        p3s_latency(p, c).total() / baseline_latency(p, c).total();
    EXPECT_LT(ratio, 10.0) << "payload " << c;
  }
}

TEST(AnalyticLatency, WorstCaseUsesMaxOfPaths) {
  const ModelParams p = ModelParams::paper_defaults();
  const P3sLatency lat = p3s_latency(p, 100 * kMB);
  // At 100 MB the content path exceeds the metadata path.
  EXPECT_GT(lat.content_path(), lat.metadata_path());
  EXPECT_DOUBLE_EQ(lat.total(), lat.content_path() + lat.tr);
}

TEST(AnalyticThroughput, BandwidthBoundForLargePayloads) {
  // Paper Fig. 9: "As payload size increases, throughput decreases because
  // fewer messages per second can be sent out the network interface."
  const ModelParams p = ModelParams::paper_defaults();
  const BaselineThroughput b1 = baseline_throughput(p, 1 * kMB);
  const BaselineThroughput b2 = baseline_throughput(p, 10 * kMB);
  EXPECT_NEAR(b1.total() / b2.total(), 10.0, 0.5);
  EXPECT_STREQ(b2.bottleneck(), "broker-nic");
}

TEST(AnalyticThroughput, P3sFlattensForSmallPayloads) {
  // Paper: "For small payloads, P3S performance flattens because ... the DS
  // must send the PBE encrypted metadata to each of the 100 subscribers."
  const ModelParams p = ModelParams::paper_defaults();
  const P3sThroughput t1 = p3s_throughput(p, 1 * kKB);
  const P3sThroughput t2 = p3s_throughput(p, 16 * kKB);
  EXPECT_NEAR(t1.total(), t2.total(), 0.05 * t1.total());
  EXPECT_STREQ(t1.bottleneck(), "ds-nic");
  // And the flat value is ℬ/(P_E·N_s) = 10e6 / (10000·8·100) = 1.25/s.
  EXPECT_NEAR(t1.total(), 1.25, 0.05);
}

TEST(AnalyticThroughput, P3sMatchesBaselineShapeForLargePayloads) {
  // Paper: "The P3S system exhibits almost exactly the same behavior as the
  // baseline for large payloads, but it is the bandwidth out of the RS that
  // limits the throughput."
  const ModelParams p = ModelParams::paper_defaults();
  for (double c : {1 * kMB, 10 * kMB, 100 * kMB}) {
    const double ratio =
        p3s_throughput(p, c).total() / baseline_throughput(p, c).total();
    EXPECT_NEAR(ratio, 1.0, 0.05) << c;
    EXPECT_STREQ(p3s_throughput(p, c).bottleneck(), "rs-nic") << c;
  }
}

TEST(AnalyticThroughput, SmallPayloadLowMatchRateIsTheBadCase) {
  // Paper conclusion: "P3S performs very well (within 10x) compared to the
  // baseline except for small payloads and low matching rates."
  ModelParams p = ModelParams::paper_defaults();
  p.match_fraction = 0.05;
  const double small_ratio =
      p3s_throughput(p, 1 * kKB).total() / baseline_throughput(p, 1 * kKB).total();
  EXPECT_LT(small_ratio, 0.1);  // worse than 10x at 1 KB, f=5%
}

TEST(AnalyticThroughput, HigherMatchRateBenefitsP3s) {
  // Paper Fig. 10: "increasing the match rate benefits P3S. The baseline
  // only disseminates to subscribers who match, whereas P3S must
  // disseminate to all of them."
  ModelParams p5 = ModelParams::paper_defaults();
  ModelParams p50 = ModelParams::paper_defaults();
  p50.match_fraction = 0.5;
  const double c = 64 * kKB;
  const double rel5 =
      p3s_throughput(p5, c).total() / baseline_throughput(p5, c).total();
  const double rel50 =
      p3s_throughput(p50, c).total() / baseline_throughput(p50, c).total();
  EXPECT_GT(rel50, rel5);
}

TEST(AnalyticThroughput, BandwidthHelpsBothEqually) {
  // Paper: "increasing the network bandwidth from 10 to 100 Mbps helps both
  // systems equally" (in the bandwidth-bound regime).
  ModelParams p10 = ModelParams::paper_defaults();
  ModelParams p100 = ModelParams::paper_defaults();
  p100.bandwidth_bps = 100e6;
  const double c = 10 * kMB;
  const double gain_base = baseline_throughput(p100, c).total() /
                           baseline_throughput(p10, c).total();
  const double gain_p3s =
      p3s_throughput(p100, c).total() / p3s_throughput(p10, c).total();
  EXPECT_NEAR(gain_base, 10.0, 0.1);
  EXPECT_NEAR(gain_p3s, 10.0, 0.1);
}

TEST(AnalyticThroughput, RelativeThroughputIndependentOfSubscriberCount) {
  // Paper: "P3S throughput relative to the baseline shows no dependence on
  // the number of subscribers for a fixed matching rate f" (in the
  // bandwidth-bound regime).
  const double c = 1 * kMB;
  for (std::size_t ns : {50u, 100u, 200u}) {
    ModelParams p = ModelParams::paper_defaults();
    p.n_subscribers = ns;
    const double rel =
        p3s_throughput(p, c).total() / baseline_throughput(p, c).total();
    ModelParams p2 = ModelParams::paper_defaults();
    const double rel_ref =
        p3s_throughput(p2, c).total() / baseline_throughput(p2, c).total();
    EXPECT_NEAR(rel, rel_ref, 0.02) << ns;
  }
}

// A cover broadcast fails the subscriber's parse before any pairing work
// (DsHardeningTest.CoverBroadcastsFlowWithoutConfusingSubscribers counts no
// match attempt), so cover and padding slow only the NIC-bound rates.
TEST(AnalyticThroughput, CoverLoadsTheWireButNotTheMatch) {
  const ModelParams plain = ModelParams::paper_defaults();
  ModelParams hard = plain;
  hard.anon_pad_overhead = 0.05;
  hard.anon_cover_fraction = 0.25;
  const P3sThroughput a = p3s_throughput(plain, 1024.0);
  const P3sThroughput b = p3s_throughput(hard, 1024.0);
  EXPECT_EQ(b.r_match, a.r_match);
  EXPECT_NEAR(a.r_ds / b.r_ds, 1.05 * 1.25, 1e-12);
  EXPECT_NEAR(a.r_rs / b.r_rs, 1.05 * 1.25, 1e-12);
}

}  // namespace
}  // namespace p3s::model
