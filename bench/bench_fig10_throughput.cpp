// Figure 10 reproduction: throughput at f = 50% — the match-rate ablation.
// "increasing the match rate benefits P3S ... if more subscribers match, the
// baseline loses its advantage." Closed-form model only; bench_figs_measured
// runs the real system.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "model/analytic.hpp"

using namespace p3s;  // NOLINT
using benchutil::human_bytes;

int main() {
  model::ModelParams p50 = model::ModelParams::paper_defaults();
  p50.match_fraction = 0.50;
  model::ModelParams p5 = model::ModelParams::paper_defaults();
  p5.match_fraction = 0.05;

  std::printf("=== Fig. 10: Throughput vs message size (f=50%%, B=10Mbps, N_s=%zu, w=%u) ===\n\n",
              p50.n_subscribers, p50.sub_match_threads);
  std::printf("%10s  %12s  %12s  %10s  |  %10s\n", "payload", "base(pub/s)",
              "p3s(pub/s)", "rel(f=50%)", "rel(f=5%)");
  std::printf("%10s  %12s  %12s  %10s  |  %10s\n", "-------", "-----------",
              "----------", "----------", "---------");

  std::vector<double> sizes;
  for (double c = 1024.0; c <= 100.0 * 1024 * 1024; c *= 4) sizes.push_back(c);

  bool f50_always_better = true;
  for (double c : sizes) {
    const double base50 = model::baseline_throughput(p50, c).total();
    const double p3s50 = model::p3s_throughput(p50, c).total();
    const double rel50 = p3s50 / base50;
    const double rel5 = model::p3s_throughput(p5, c).total() /
                        model::baseline_throughput(p5, c).total();
    std::printf("%10s  %12.4f  %12.4f  %9.4fx  |  %9.4fx\n",
                human_bytes(c).c_str(), base50, p3s50, rel50, rel5);
    if (rel50 < rel5 - 1e-9) f50_always_better = false;
  }

  // Where does each configuration cross the paper's 10x line? In the
  // DS-bound regime rel = c·f/P_E, so the crossover payload shrinks by the
  // same factor f grows: f=50% crosses at ~2KB, f=5% only at ~20KB.
  auto crossover = [](const model::ModelParams& p) {
    for (double c = 512.0; c <= 100.0 * 1024 * 1024; c *= 2) {
      if (model::p3s_throughput(p, c).total() /
              model::baseline_throughput(p, c).total() >=
          0.1) {
        return c;
      }
    }
    return -1.0;
  };
  const double cross50 = crossover(p50);
  const double cross5 = crossover(p5);
  std::printf("\nShape checks vs paper:\n");
  const bool crossover_moves = cross50 > 0 && cross50 * 4 <= cross5;
  std::printf("  [%s] raising f from 5%% to 50%% improves P3S's relative throughput at every size\n",
              f50_always_better ? "ok" : "FAIL");
  std::printf("  [%s] 10x crossover moves from %s (f=5%%) down to %s (f=50%%): the baseline loses its advantage\n",
              crossover_moves ? "ok" : "FAIL", human_bytes(cross5).c_str(),
              human_bytes(cross50).c_str());

  // Paper: "increasing the network bandwidth from 10 to 100 Mbps helps both
  // systems equally."
  model::ModelParams p100 = p50;
  p100.bandwidth_bps = 100e6;
  const double c = 4.0 * 1024 * 1024;
  const double gain_base = model::baseline_throughput(p100, c).total() /
                           model::baseline_throughput(p50, c).total();
  const double gain_p3s = model::p3s_throughput(p100, c).total() /
                          model::p3s_throughput(p50, c).total();
  const bool helps_equally = std::abs(gain_base - gain_p3s) < 0.5;
  std::printf("  [%s] 10->100 Mbps helps both equally (base x%.1f, p3s x%.1f)\n",
              helps_equally ? "ok" : "FAIL", gain_base, gain_p3s);
  // Privacy/throughput trade-off at the high match rate (DESIGN.md §11):
  // with f=50% the RS NIC carries most of the load, so padding+cover bite
  // hardest exactly where P3S was winning.
  model::ModelParams ph = p50;
  ph.anon_pad_overhead = 0.05;
  ph.anon_cover_fraction = 0.25;
  std::printf("\n=== Privacy/throughput trade-off at f=50%% (pad=%.0f%%, "
              "cover=%.0f%%) ===\n\n",
              ph.anon_pad_overhead * 100.0, ph.anon_cover_fraction * 100.0);
  std::printf("%10s  %12s  %12s  %8s\n", "payload", "plain(pub/s)",
              "hard(pub/s)", "cost");
  for (double sz : sizes) {
    const double plain = model::p3s_throughput(p50, sz).total();
    const double hard = model::p3s_throughput(ph, sz).total();
    std::printf("%10s  %12.4f  %12.4f  %7.1f%%\n", human_bytes(sz).c_str(),
                plain, hard, (1.0 - hard / plain) * 100.0);
  }
  p3s::benchutil::emit_metrics("fig10_throughput");
  return f50_always_better && crossover_moves && helps_equally ? 0 : 1;
}
