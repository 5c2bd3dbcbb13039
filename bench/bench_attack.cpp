// Adversarial-suite bench (DESIGN.md §11): runs each attack scenario from
// src/attack end to end in both modes and reports (a) the measured adversary
// advantage against its leak budget and (b) what the hardening costs — wall
// time per publish round and wire bytes, vulnerable baseline vs hardened.
// Epilogue: BENCH_attack.json with the p3s.attack.* / p3s.anon.* counters.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "attack/attacks.hpp"
#include "attack/scenario.hpp"
#include "bench_util.hpp"

using namespace p3s;  // NOLINT

namespace {

struct RunResult {
  double seconds = 0.0;       // wall time for the publish rounds + drain
  std::size_t publishes = 0;  // genuine publications pushed through
  std::size_t wire_frames = 0;
  std::size_t wire_bytes = 0;
  attack::AttackReport report;
};

RunResult run_frequency(bool hardened, std::uint64_t seed, int rounds) {
  attack::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.hardened = hardened;
  cfg.subs_per_topic = 3;
  attack::AttackScenario sc(cfg);
  if (!sc.settle()) throw std::runtime_error("scenario failed to settle");
  const std::size_t frames_before = sc.observer().sightings().size();
  RunResult out;
  out.seconds = benchutil::time_op(1, [&] {
    for (int round = 0; round < rounds; ++round) {
      sc.publish("finance");
      sc.publish("tech");
    }
    if (!sc.drain()) throw std::runtime_error("scenario failed to drain");
  });
  out.publishes = static_cast<std::size_t>(rounds) * 2;
  const attack::EavesdropperObserver& obs = sc.observer();
  for (std::size_t i = frames_before; i < obs.sightings().size(); ++i) {
    ++out.wire_frames;
    out.wire_bytes += obs.sightings()[i].size;
  }
  out.report = attack::frequency_attack(
      obs, sc.schedule(), sc.truth(), sc.system().directory().anonymizer_name,
      attack::AttackScenario::topics(), 0.25);
  attack::emit_attack_metrics(out.report, obs.sightings().size());
  return out;
}

void print_row(const char* mode, const RunResult& r) {
  std::printf("%10s  %10.3f  %12.1f  %10zu  %12s  %9.3f\n", mode, r.seconds,
              static_cast<double>(r.publishes) / r.seconds, r.wire_frames,
              benchutil::human_bytes(static_cast<double>(r.wire_bytes)).c_str(),
              r.report.advantage);
}

}  // namespace

int main() {
  constexpr int kRounds = 6;
  std::printf("=== Adversarial suite: hardening cost vs adversary advantage "
              "(frequency attack, %d rounds x 2 topics) ===\n\n",
              kRounds);
  std::printf("%10s  %10s  %12s  %10s  %12s  %9s\n", "mode", "wall(s)",
              "pub/s", "frames", "wire", "advantage");
  std::printf("%10s  %10s  %12s  %10s  %12s  %9s\n", "----", "-------",
              "-----", "------", "----", "---------");
  const RunResult plain = run_frequency(/*hardened=*/false, 1, kRounds);
  print_row("vulnerable", plain);
  const RunResult hard = run_frequency(/*hardened=*/true, 1, kRounds);
  print_row("hardened", hard);

  std::printf("\nTrade-off: hardening costs %.1f%% wire bytes and %.2fx wall "
              "time, and buys advantage %.3f -> %.3f (budget %.2f).\n",
              (static_cast<double>(hard.wire_bytes) /
                   static_cast<double>(plain.wire_bytes) -
               1.0) *
                  100.0,
              hard.seconds / plain.seconds, plain.report.advantage,
              hard.report.advantage, hard.report.budget);
  const bool landed = plain.report.advantage > plain.report.budget;
  const bool contained = hard.report.advantage <= hard.report.budget;
  std::printf("  [%s] vulnerable baseline exceeds the leak budget\n",
              landed ? "ok" : "FAIL");
  std::printf("  [%s] hardened run stays within the leak budget\n",
              contained ? "ok" : "FAIL");

  benchutil::emit_metrics("attack");
  return landed && contained ? 0 : 1;
}
