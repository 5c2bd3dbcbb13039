#include "sim/simnet.hpp"

#include <algorithm>
#include <ctime>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::sim {

namespace {
struct SimNetMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& frames = reg.counter(obs::names::kSimFramesTotal);
  obs::Histogram& frame_bytes =
      reg.histogram(obs::names::kSimFrameBytes, {}, "bytes");
};

SimNetMetrics& simnet_metrics() {
  static SimNetMetrics m;
  return m;
}
}  // namespace

double SimNetwork::thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SimNetwork::set_link(const std::string& from, const std::string& to,
                          LinkConfig link) {
  pair_links_[{from, to}] = link;
}

const LinkConfig& SimNetwork::link_for(const std::string& from,
                                       const std::string& to) const {
  const auto it = pair_links_.find({from, to});
  return it != pair_links_.end() ? it->second : defaults_;
}

double SimNetwork::now() const {
  if (!running_) return engine_.now();
  return work_start_ + (cpu_() - work_cpu_start_);
}

void SimNetwork::send(const std::string& from, const std::string& to,
                      Bytes frame) {
  observe(from, to, frame.size(), frame);
  SimNetMetrics& metrics = simnet_metrics();
  metrics.frames.inc();
  metrics.frame_bytes.record(static_cast<double>(frame.size()));
  const LinkConfig& link = link_for(from, to);
  const double tx = static_cast<double>(frame.size()) * 8.0 / link.bandwidth_bps;
  double& nic_free = machines_[from].nic_free_at;
  const double start = std::max(now(), nic_free);
  nic_free = start + tx;
  engine_.at(start + tx + link.latency_s,
             [this, from, to, frame = std::move(frame)]() mutable {
               run_on(to, [this, from, to, frame = std::move(frame)] {
                 endpoints_.deliver(from, to, frame);  // host down: lost
               });
             });
}

void SimNetwork::run_on(const std::string& name, std::function<void()> work) {
  Machine& machine = machines_[name];
  machine.inbox.push_back(std::move(work));
  if (machine.serving) return;
  machine.serving = true;
  engine_.at(std::max(now(), machine.busy_until), [this, name] { serve(name); });
}

void SimNetwork::serve(const std::string& name) {
  Machine& machine = machines_[name];
  const std::function<void()> work = std::move(machine.inbox.front());
  machine.inbox.pop_front();
  work_start_ = engine_.now();
  work_cpu_start_ = cpu_();
  running_ = true;
  work();
  machine.busy_until = now();
  running_ = false;
  if (machine.inbox.empty()) {
    machine.serving = false;
    return;
  }
  engine_.at(machine.busy_until, [this, name] { serve(name); });
}

}  // namespace p3s::sim
