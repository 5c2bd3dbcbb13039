#include "sim/simnet.hpp"

#include <algorithm>

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

void SimNetwork::set_link(const std::string& from, const std::string& to,
                          LinkConfig link) {
  pair_links_[{from, to}] = link;
}

void SimNetwork::set_egress(const std::string& from, LinkConfig link) {
  egress_links_[from] = link;
}

const LinkConfig& SimNetwork::link_for(const std::string& from,
                                       const std::string& to) const {
  const auto pit = pair_links_.find({from, to});
  if (pit != pair_links_.end()) return pit->second;
  const auto eit = egress_links_.find(from);
  if (eit != egress_links_.end()) return eit->second;
  return defaults_;
}

void SimNetwork::send(const std::string& from, const std::string& to,
                      Bytes frame) {
  const std::size_t wire_size = frame.size();
  send_sized(from, to, std::move(frame), wire_size);
}

void SimNetwork::send_sized(const std::string& from, const std::string& to,
                            Bytes frame, std::size_t wire_size) {
  observe(from, to, wire_size, frame);
  SimNetMetrics& metrics = simnet_metrics();
  metrics.frames.inc();
  metrics.frame_bytes.record(static_cast<double>(wire_size));
  const LinkConfig& link = link_for(from, to);
  const double tx = static_cast<double>(wire_size) * 8.0 / link.bandwidth_bps;
  double& nic_free = nic_free_at_[from];
  const double start = std::max(engine_.now(), nic_free);
  nic_free = start + tx;
  engine_.at(start + tx + link.latency_s,
             [this, from, to, frame = std::move(frame)]() {
               endpoints_.deliver(from, to, frame);  // host down: lost
             });
}

}  // namespace p3s::sim
