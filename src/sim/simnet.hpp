// Simulated network with per-link latency and per-NIC egress bandwidth, in
// which every endpoint is its own machine. Matches the paper's cost model: a
// frame of size m from A to B arrives at start + m/B_A + ℓ, where start is
// when A's NIC becomes free — so fan-out from one node (the DS broadcasting
// PBE metadata to all subscribers) serializes on that node's NIC, which is
// exactly the bottleneck the paper's throughput model captures.
//
// A machine runs one piece of work at a time: a handler for an arrived
// frame, or a client call (run_on). Work that reaches a busy machine waits,
// first come first served. Work starts at time t and keeps its machine busy
// for the CPU time it uses; inside it, now() is t plus the CPU time used so
// far, so the real crypto a handler runs delays its sends and its machine's
// next work. The wire tap sees each frame at that send time. The CPU clock
// reads the calling thread only: work a handler hands to other threads goes
// uncharged, so run the exec pool on one thread when the times matter. Work
// must not throw: an exception propagates out of SimEngine::run and leaves
// the network unusable.
//
// The links are lossless: fault injection lives in net::AsyncNetwork only.
#pragma once

#include <deque>
#include <functional>
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
  /// CPU seconds the calling thread has used so far.
  using CpuClock = std::function<double()>;
  /// The default CpuClock: the calling thread's CPU time.
  static double thread_cpu_seconds();

  explicit SimNetwork(SimEngine& engine, LinkConfig defaults = {},
                      CpuClock cpu = thread_cpu_seconds)
      : engine_(engine), defaults_(defaults), cpu_(std::move(cpu)) {}

  /// Override the link used for a specific (from, to) pair — e.g. the paper
  /// assumes DS→RS runs on a 100 Mbps LAN while clients see 10 Mbps.
  void set_link(const std::string& from, const std::string& to,
                LinkConfig link);

  void register_endpoint(const std::string& name, Handler handler) override {
    endpoints_.add(name, std::move(handler));
  }
  void unregister_endpoint(const std::string& name) override {
    endpoints_.remove(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes frame) override;
  /// Inside a machine's work: its start time plus the CPU time it has used.
  /// Elsewhere: the engine's time.
  double now() const override;

  /// Queue a client call (an API call such as publish) on machine
  /// `name`: it runs under the engine, in FIFO order with the frames that
  /// reach that machine, and is charged like a handler.
  void run_on(const std::string& name, std::function<void()> work);

  SimEngine& engine() { return engine_; }

 private:
  struct Machine {
    double busy_until = 0.0;
    double nic_free_at = 0.0;
    std::deque<std::function<void()>> inbox;
    bool serving = false;  // a serve() event is pending or running
  };

  const LinkConfig& link_for(const std::string& from,
                             const std::string& to) const;
  void serve(const std::string& name);

  SimEngine& engine_;
  LinkConfig defaults_;
  CpuClock cpu_;
  std::map<std::pair<std::string, std::string>, LinkConfig> pair_links_;
  net::EndpointTable endpoints_;
  std::map<std::string, Machine> machines_;
  // The work running now: when it started, and the CPU clock then.
  bool running_ = false;
  double work_start_ = 0.0;
  double work_cpu_start_ = 0.0;
};

}  // namespace p3s::sim
