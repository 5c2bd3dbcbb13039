// Simulated network with per-link latency and per-NIC egress bandwidth.
// Matches the paper's cost model: a frame of size m from A to B arrives at
//   start + m/B_A + ℓ, where start is when A's NIC becomes free —
// so fan-out from one node (the DS broadcasting PBE metadata to all
// subscribers) serializes on that node's NIC, which is exactly the
// bottleneck the paper's throughput model captures. The wire tap sees each
// frame at send time, with the wire size the NIC is charged for.
//
// The links are lossless: fault injection lives in net::AsyncNetwork only.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace p3s::sim {

struct LinkConfig {
  double latency_s = 0.045;            // paper Table 1: ℓ = 45 ms
  double bandwidth_bps = 10e6;         // paper Table 1: ℬ = 10 Mbps
};

class SimNetwork final : public net::Network {
 public:
  explicit SimNetwork(SimEngine& engine, LinkConfig defaults = {})
      : engine_(engine), defaults_(defaults) {}

  /// Override the link used for a specific (from, to) pair — e.g. the paper
  /// assumes DS→RS runs on a 100 Mbps LAN while clients see 10 Mbps.
  void set_link(const std::string& from, const std::string& to,
                LinkConfig link);
  /// Override every link leaving `from` (NIC-level config).
  void set_egress(const std::string& from, LinkConfig link);

  void register_endpoint(const std::string& name, Handler handler) override {
    endpoints_.add(name, std::move(handler));
  }
  void unregister_endpoint(const std::string& name) override {
    endpoints_.remove(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes frame) override;
  /// Like send(), but the NIC/link timing uses `wire_size` instead of the
  /// frame's real length. Lets large-payload experiments model multi-MB
  /// transfers without allocating them (the receiver still gets `frame`).
  void send_sized(const std::string& from, const std::string& to, Bytes frame,
                  std::size_t wire_size);
  double now() const override { return engine_.now(); }

  SimEngine& engine() { return engine_; }

 private:
  const LinkConfig& link_for(const std::string& from,
                             const std::string& to) const;

  SimEngine& engine_;
  LinkConfig defaults_;
  std::map<std::pair<std::string, std::string>, LinkConfig> pair_links_;
  std::map<std::string, LinkConfig> egress_links_;
  net::EndpointTable endpoints_;
  std::map<std::string, double> nic_free_at_;
};

}  // namespace p3s::sim
