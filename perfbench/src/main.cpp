// p3s_perfbench: publish→deliver benchmark of the real P3S components.
//
//   p3s_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--withhold <n>]
//
// --trace 0 sets the system up several times, then runs the closed loop and
// reports the end-to-end metrics. --trace 1 runs half as many publications
// of the same seed untraced and then traced on fresh deployments, checks
// both saw the same deliveries, frames and bytes and that the endpoints'
// egress sums to the bytes sent, then probes the primitives, and reports the
// per-layer metrics; the spans go to --trace-out as Chrome trace-event JSON.
// --withhold <n> makes the transport drop the n-th content response of the
// measured phase, which the oracle must report.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

// Publications with the metrics registry off and on, alternating, in a
// traced run (obs.registry_overhead_pct).
constexpr std::size_t kRegistryPairs = 6;
// One exec pool worker: the pool runs its tasks inline on the driving
// thread. On a 4-core VM with steal time, 3 workers on interest_churn spread
// the per-run p50 by 25% and p90 by 30% across ten seeds while CPU per
// publication held within 4%: parallel wall time follows which of the
// host's cores are free, which the single-core calibration cannot take
// out. Inline execution stays within a few percent.
constexpr std::size_t kPoolThreads = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::uint64_t withhold = 0;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = std::stoi(value);
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--withhold") {
      o.withhold = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (find_workload(o.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1)) {
    throw std::invalid_argument("bad --seconds or --trace");
  }
  return o;
}

struct Counters {
  std::map<std::string, p3s::obs::MetricSnapshot> metrics;
  static Counters read() {
    Counters r;
    for (auto& m : p3s::obs::Registry::global().snapshot().metrics) {
      r.metrics.emplace(m.name, std::move(m));
    }
    return r;
  }
  double count(const std::string& name) const {
    const auto it = metrics.find(name);
    if (it == metrics.end()) return 0.0;
    return it->second.type == p3s::obs::MetricType::kCounter
               ? static_cast<double>(it->second.counter_value)
               : static_cast<double>(it->second.count);
  }
  double sum(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.sum;
  }
};

/// One closed-loop pass over a deployment: warm-up, then the measured phase.
struct Pass {
  // Timings at reference speed (see kCalibrationReference).
  std::vector<double> deliver_ms;
  std::vector<double> swap_ms;
  double wall = 0.0;
  double cpu = 0.0;
  // As measured, and the machine's slowdown per round.
  std::vector<double> raw_deliver_ms;
  std::vector<double> slowdown;
  std::size_t pubs = 0;
  BenchNetwork::Totals measured;  // traffic of the measured phase
  Counters before;
  Counters after;
  double rss_growth_kib = 0.0;
  double drain_seconds = 0.0;
  std::uint64_t delivered = 0;
  std::size_t queue_depth_max = 0;

  double per_pub(double total) const { return total / static_cast<double>(pubs); }
  double delta_count(const std::string& name) const {
    return after.count(name) - before.count(name);
  }
  double delta_sum(const std::string& name) const {
    return after.sum(name) - before.sum(name);
  }
};

Pass measure(Deployment& dep, std::size_t warmup, std::size_t pubs, bool traced,
             std::uint64_t withhold) {
  for (std::size_t i = 0; i < warmup; ++i) dep.round(i);
  Pass pass;
  pass.pubs = pubs;
  BenchNetwork& net = dep.net();
  const BenchNetwork::Totals start = net.totals();
  const double drain0 = net.drain_seconds();
  const std::uint64_t delivered0 = dep.deliveries();
  const double rss0 = rss_kib();
  net.reset_queue_depth_max();
  net.withhold_content_response(withhold);
  pass.before = Counters::read();
  net.set_tracing(traced);
  for (std::size_t i = warmup; i < warmup + pubs; ++i) {
    const RoundTimes t = dep.round(i);
    pass.deliver_ms.push_back(t.deliver_ms / t.slowdown);
    pass.raw_deliver_ms.push_back(t.deliver_ms);
    pass.slowdown.push_back(t.slowdown);
    if (t.swap_ms >= 0.0) pass.swap_ms.push_back(t.swap_ms / t.slowdown);
    pass.wall += t.wall / t.slowdown;
    pass.cpu += t.cpu / t.slowdown;
  }
  net.set_tracing(false);
  net.withhold_content_response(0);
  pass.after = Counters::read();
  pass.rss_growth_kib = rss_kib() - rss0;
  pass.queue_depth_max = net.queue_depth_max();
  pass.drain_seconds = net.drain_seconds() - drain0;
  pass.delivered = dep.deliveries() - delivered0;
  const BenchNetwork::Totals end = net.totals();
  pass.measured.frames = end.frames - start.frames;
  pass.measured.bytes = end.bytes - start.bytes;
  for (std::size_t r = 0; r < kRoleCount; ++r) {
    pass.measured.egress[r] = end.egress[r] - start.egress[r];
  }
  return pass;
}

void print_result(const Tally& tally, bool checks_ok,
                  const std::vector<Metric>& metrics) {
  if (tally.failed != 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu outcomes failed; first: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted),
                 tally.first_failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 && checks_ok ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_untraced(const Options& o, const Scenario& sc, std::size_t pubs) {
  const WorkloadSpec& spec = *sc.spec;
  Tally tally;
  std::vector<double> setup_s;
  std::vector<double> setup_subscribe_ms;
  std::unique_ptr<Deployment> dep;
  for (std::size_t k = 0; k < spec.setups; ++k) {
    dep.reset();
    dep = std::make_unique<Deployment>(sc, o.seed, tally, setup_subscribe_ms);
    setup_s.push_back(dep->setup_seconds());
  }
  const Pass pass = measure(*dep, spec.warmup, pubs, false, o.withhold);
  std::fprintf(stderr,
               "perfbench: as measured, deliver p50 %.3f ms p90 %.3f ms; machine "
               "slowdown against the reference p10 %.3f p50 %.3f p90 %.3f\n",
               quantile(pass.raw_deliver_ms, 0.5), quantile(pass.raw_deliver_ms, 0.9),
               quantile(pass.slowdown, 0.1), quantile(pass.slowdown, 0.5),
               quantile(pass.slowdown, 0.9));
  const double outcomes = static_cast<double>(tally.attempted);
  std::vector<Metric> m;
  m.push_back({"deliver_p50_ms", quantile(pass.deliver_ms, 0.5), "ms"});
  m.push_back({"deliver_p90_ms", quantile(pass.deliver_ms, 0.9), "ms"});
  m.push_back({"pub_per_s", static_cast<double>(pubs) / pass.wall, "1/s"});
  m.push_back({"subscribe_p50_ms",
               quantile(pass.swap_ms.empty() ? setup_subscribe_ms : pass.swap_ms, 0.5),
               "ms"});
  m.push_back({"cpu_ms_per_pub", pass.per_pub(pass.cpu) * 1e3, "ms"});
  m.push_back({"wire_kb_per_pub",
               pass.per_pub(static_cast<double>(pass.measured.bytes)) / 1024.0, "KiB"});
  m.push_back({"peak_rss_mb", peak_rss_kib() / 1024.0, "MiB"});
  m.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
  m.push_back({"success_frac",
               1.0 - static_cast<double>(tally.failed) / std::max(outcomes, 1.0),
               "ratio"});
  print_result(tally, true, m);
  return 0;
}

int run_traced(const Options& o, const Scenario& sc, std::size_t pubs) {
  const WorkloadSpec& spec = *sc.spec;
  Tally tally;
  std::vector<double> subscribe_ms;  // set-up subscribes, not reported here
  bool checks_ok = true;
  std::vector<Metric> m;

  // Untraced reference pass, then a traced pass of the same seed on a fresh
  // deployment.
  auto dep = std::make_unique<Deployment>(sc, o.seed, tally, subscribe_ms);
  const Pass plain = measure(*dep, spec.warmup, pubs, false, 0);
  const BenchNetwork::Totals plain_totals = dep->net().totals();
  const std::uint64_t plain_digest = dep->delivery_digest();
  dep.reset();
  dep = std::make_unique<Deployment>(sc, o.seed, tally, subscribe_ms);
  const Pass traced = measure(*dep, spec.warmup, pubs, true, 0);
  if (dep->delivery_digest() != plain_digest ||
      dep->net().totals().frames != plain_totals.frames ||
      dep->net().totals().bytes != plain_totals.bytes) {
    checks_ok = false;
    std::fprintf(stderr, "perfbench: traced and untraced runs of seed %llu differ\n",
                 static_cast<unsigned long long>(o.seed));
  }
  const std::vector<Span>& spans = dep->net().spans();

  // Registry off/on pairs, untraced, on the traced deployment.
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  p3s::obs::Registry& registry = p3s::obs::Registry::global();
  for (std::size_t j = 0; j < 2 * kRegistryPairs; ++j) {
    const bool on = (j % 2 == 0) == ((j / 2) % 2 == 0);
    registry.set_enabled(on);
    const RoundTimes t = dep->round(spec.warmup + pubs + j);
    (on ? on_ms : off_ms).push_back(t.deliver_ms / t.slowdown);
  }
  registry.set_enabled(true);

  span_metrics(spans, pubs, m);
  const LayerTimes layers = layer_times(spans);
  // Payloads delivered per content response received.
  const auto responses = std::count_if(spans.begin(), spans.end(), [](const Span& s) {
    return std::string_view(s.name) == "sub.deliver";
  });
  m.push_back({"sub.deliver_ratio",
               responses > 0 ? static_cast<double>(traced.delivered) /
                                   static_cast<double>(responses)
                             : 0.0,
               "ratio"});
  const double frames = static_cast<double>(plain.measured.frames);
  m.push_back({"net.frames_per_pub", plain.per_pub(frames), "frames/pub"});
  std::uint64_t attributed = 0;
  for (const Role role : {Role::kPub, Role::kDs, Role::kRs, Role::kAnon, Role::kTs,
                          Role::kSub}) {
    const std::uint64_t bytes = plain.measured.egress[static_cast<std::size_t>(role)];
    attributed += bytes;
    m.push_back({std::string("net.") + role_name(role) + "_egress_kb_per_pub",
                 plain.per_pub(static_cast<double>(bytes)) / 1024.0, "KiB/pub"});
  }
  if (attributed != plain.measured.bytes) {
    checks_ok = false;
    std::fprintf(stderr, "perfbench: the endpoints' egress sums to %llu of %llu bytes\n",
                 static_cast<unsigned long long>(attributed),
                 static_cast<unsigned long long>(plain.measured.bytes));
  }
  m.push_back({"net.queue_depth_max", static_cast<double>(plain.queue_depth_max),
               "frames"});
  double dispatched = 0.0;
  for (const Span& s : spans) {
    if (s.queued >= 0.0) dispatched += s.end - s.start;
  }
  m.push_back({"net.dispatch_ms_per_pub",
               traced.per_pub(traced.drain_seconds - dispatched) * 1e3, "ms/pub"});

  m.push_back({"exec.threads",
               static_cast<double>(p3s::exec::Pool::global().thread_count()),
               "threads"});
  m.push_back({"exec.tasks_per_pub", plain.per_pub(plain.delta_count("p3s.exec.tasks_total")),
               "tasks/pub"});
  m.push_back({"exec.steals_per_pub",
               plain.per_pub(plain.delta_count("p3s.exec.steals_total")), "tasks/pub"});
  m.push_back({"exec.inline_per_pub",
               plain.per_pub(plain.delta_count("p3s.exec.inline_total")), "tasks/pub"});

  m.push_back({"pbe.prepares_per_pub",
               plain.per_pub(plain.delta_count("p3s.crypto.hve_prepare_seconds")),
               "calls/pub"});
  const double batches = plain.delta_count("p3s.crypto.hve_batch_tokens");
  m.push_back({"pbe.tokens_per_match",
               batches > 0 ? plain.delta_sum("p3s.crypto.hve_batch_tokens") / batches
                           : 0.0,
               "tokens"});
  m.push_back({"pairing.pair_products_per_pub",
               plain.per_pub(plain.delta_count("p3s.crypto.pair_product_seconds")),
               "ops/pub"});
  m.push_back({"pairing.pairs_per_pub",
               plain.per_pub(plain.delta_sum("p3s.crypto.pair_product_pairs") +
                             plain.delta_count("p3s.crypto.pair_seconds")),
               "ops/pub"});
  m.push_back({"pairing.g1_muls_per_pub",
               plain.per_pub(plain.delta_count("p3s.crypto.g1_mul_seconds") -
                             plain.delta_count("p3s.crypto.g1_fixed_base_total")),
               "ops/pub"});
  m.push_back({"pairing.gt_pows_per_pub",
               plain.per_pub(plain.delta_count("p3s.crypto.gt_pow_seconds")),
               "ops/pub"});

  const double off = quantile(off_ms, 0.5);
  m.push_back({"obs.registry_overhead_pct",
               off > 0.0 ? 100.0 * (quantile(on_ms, 0.5) - off) / off : 0.0, "%"});
  m.push_back({"rss.growth_kb_per_pub", plain.per_pub(plain.rss_growth_kib),
               "KiB/pub"});
  m.push_back({"trace.coverage", layers.coverage(), "ratio"});
  m.push_back({"trace.overhead_pct", 100.0 * (traced.wall - plain.wall) / plain.wall,
               "%"});

  probe_primitives(sc, *dep, m);

  print_layer_table(layers, pubs, stderr);
  if (!o.trace_out.empty()) {
    write_chrome_trace(spans,
                       std::string("p3s perfbench ") + spec.name + " seed " +
                           std::to_string(o.seed),
                       o.trace_out);
    std::fprintf(stderr, "perfbench: trace written to %s\n", o.trace_out.c_str());
  }
  print_result(tally, checks_ok, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options o = parse(argc, argv);
    const WorkloadSpec& spec = *find_workload(o.workload);
    // Runs are sized by publication count, so counts, bytes and memory
    // compare across commits.
    const std::size_t pubs = std::max<std::size_t>(
        5, static_cast<std::size_t>(std::llround(o.seconds * spec.pubs_per_second)));
    const Scenario sc =
        generate(spec, o.seed, spec.warmup + pubs + 2 * kRegistryPairs);
    p3s::exec::Pool::set_global_threads(kPoolThreads);
    std::fprintf(stderr, "perfbench: %s seed %llu, %zu publications, %zu pool threads\n",
                 spec.name, static_cast<unsigned long long>(o.seed), pubs,
                 kPoolThreads);
    // A traced run measures its publications twice, untraced and traced, and
    // then probes the primitives: half as many keep it far inside the time a
    // run may take (70 s at most against run.py's 175 s on a 4-core VM).
    return o.trace == 1 ? run_traced(o, sc, (pubs + 1) / 2) : run_untraced(o, sc, pubs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
