// Figure 8 reproduction: end-to-end latency vs payload size at B = 10 Mbps.
//   8(a) absolute latency (baseline vs P3S),
//   8(b) latency relative to baseline (the paper's 10x target line).
// Closed-form model only; bench_figs_measured runs the real system.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "model/analytic.hpp"

using namespace p3s;  // NOLINT
using benchutil::human_bytes;

int main() {
  const model::ModelParams p = model::ModelParams::paper_defaults();

  std::printf("=== Fig. 8(a): End-to-end latency vs message size (B=10Mbps, N_s=%zu, f=%.0f%%) ===\n\n",
              p.n_subscribers, p.match_fraction * 100);
  std::printf("%10s  %12s  %12s  %8s\n", "payload", "baseline(s)", "p3s(s)",
              "p3s/base");
  std::printf("%10s  %12s  %12s  %8s\n", "-------", "-----------", "------",
              "--------");

  std::vector<double> sizes;
  for (double c = 1024.0; c <= 100.0 * 1024 * 1024; c *= 2) sizes.push_back(c);

  bool within_10x_large = true;
  double crossover = -1;
  double prev_ratio = -1;
  for (double c : sizes) {
    const double base = model::baseline_latency(p, c).total();
    const double p3s = model::p3s_latency(p, c).total();
    const double ratio = p3s / base;
    std::printf("%10s  %12.3f  %12.3f  %7.2fx\n", human_bytes(c).c_str(), base,
                p3s, ratio);
    if (c >= 1024.0 * 1024 && ratio > 10.0) within_10x_large = false;
    if (prev_ratio > 10.0 && ratio <= 10.0 && crossover < 0) crossover = c;
    prev_ratio = ratio;
  }

  std::printf("\n=== Fig. 8(b): latency relative to baseline ===\n\n");
  std::printf("%10s  %10s   %s\n", "payload", "p3s/base", "(10x = paper target)");
  for (double c : sizes) {
    const double ratio = model::p3s_latency(p, c).total() /
                         model::baseline_latency(p, c).total();
    const int bars = static_cast<int>(ratio * 4);
    std::printf("%10s  %9.2fx   %.*s%s\n", human_bytes(c).c_str(), ratio,
                bars > 60 ? 60 : bars,
                "############################################################",
                ratio > 10.0 ? "  <-- exceeds 10x" : "");
  }

  std::printf("\nShape checks vs paper:\n");
  std::printf("  [%s] P3S within 10x of baseline for payloads >= 1MB\n",
              within_10x_large ? "ok" : "FAIL");
  const double r1k = model::p3s_latency(p, 1024).total() /
                     model::baseline_latency(p, 1024).total();
  const double r64m = model::p3s_latency(p, 64.0 * 1024 * 1024).total() /
                      model::baseline_latency(p, 64.0 * 1024 * 1024).total();
  std::printf("  [%s] small-payload threshold visible (ratio at 1KB = %.1fx > ratio at 64MB = %.1fx)\n",
              r1k > r64m ? "ok" : "FAIL", r1k, r64m);
  if (crossover > 0) {
    std::printf("  [ok] 10x crossover near %s\n", human_bytes(crossover).c_str());
  }
  p3s::benchutil::emit_metrics("fig8_latency");
  return within_10x_large && r1k > r64m ? 0 : 1;
}
