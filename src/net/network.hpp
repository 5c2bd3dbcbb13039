// In-process message-passing substrate standing in for the paper's
// ActiveMQ/JMS transport. Components register named endpoints and exchange
// opaque byte frames. Three implementations share one endpoint table:
//   * DirectNetwork (this file) — immediate synchronous dispatch; used by
//     functional tests and the runnable examples.
//   * AsyncNetwork (net/async.hpp) — queued delivery pumped by the caller,
//     with seeded fault injection; used by the reliability, chaos and
//     attack suites.
//   * sim::SimNetwork (src/sim) — discrete-event delivery with link latency
//     and bandwidth; used for the performance experiments.
//
// A network keeps no copy of the frames it carries. Whoever wants the
// "eavesdropper's view" (the paper's §6.1 analysis of what network observers
// learn — sizes and endpoints, not content) installs a wire tap: each
// network hands the tap a view of every frame at the point where the frame
// enters the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/annotations.hpp"
#include "common/bytes.hpp"

namespace p3s::net {

/// What an eavesdropper sees of one frame. Every field is a view that is
/// valid only during the tap call: a tap copies what it keeps.
struct TrafficRecord {
  double time = 0.0;
  std::string_view from;
  std::string_view to;
  std::size_t size = 0;  // wire size (SimNetwork::send_sized may model more)
  BytesView frame;       // ciphertext as seen on the wire
};

class Network {
 public:
  using Handler =
      std::function<void(const std::string& from, BytesView frame)>;
  using Tap = std::function<void(const TrafficRecord& record)>;

  virtual ~Network() = default;

  /// Register a named endpoint. Throws std::invalid_argument on duplicates.
  virtual void register_endpoint(const std::string& name, Handler handler) = 0;
  /// Remove an endpoint (component crash/leave). Unknown names are ignored.
  virtual void unregister_endpoint(const std::string& name) = 0;
  /// Queue a frame for delivery. Frames to unknown endpoints are dropped
  /// (the tap sees them either way, like a real wire). Marked P3S_BLOCKING:
  /// delivery may dispatch handlers inline or touch transport queues, so
  /// pool tasks must never call it — sends stay serial on the caller
  /// (p3s-lint no-block).
  virtual void send(const std::string& from, const std::string& to,
                    Bytes frame) P3S_BLOCKING = 0;
  /// Current network time in seconds (wall-free; simulated or logical).
  virtual double now() const = 0;

  /// Install the wire tap (an empty function removes it). Nothing is copied
  /// for the tap: it sees each frame once per wire appearance, in wire
  /// order, and changes nothing about delivery.
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 protected:
  /// Show one frame to the tap, if one is installed.
  void observe(const std::string& from, const std::string& to,
               std::size_t size, BytesView frame) const {
    if (tap_) tap_({now(), from, to, size, frame});
  }

 private:
  Tap tap_;
};

/// The named endpoints of one network: registration and dispatch, shared by
/// every network in the tree.
class EndpointTable {
 public:
  /// Throws std::invalid_argument when `name` is already registered.
  void add(const std::string& name, Network::Handler handler);
  /// Unknown names are ignored.
  void remove(const std::string& name) { handlers_.erase(name); }
  /// Run the handler registered as `to`. A frame to an unknown endpoint is
  /// lost, like one sent to a dead host; returns false then.
  bool deliver(const std::string& from, const std::string& to,
               BytesView frame) const;

 private:
  std::map<std::string, Network::Handler> handlers_;
};

/// Immediate synchronous delivery: `send` invokes the receiver's handler
/// inline (re-entrantly for protocol chains). Logical time is a counter.
/// The tap sees every send.
class DirectNetwork final : public Network {
 public:
  void register_endpoint(const std::string& name, Handler handler) override {
    endpoints_.add(name, std::move(handler));
  }
  void unregister_endpoint(const std::string& name) override {
    endpoints_.remove(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes frame) override;
  double now() const override { return static_cast<double>(tick_); }

  /// Advance logical time (e.g. to trigger RS garbage collection windows).
  void advance(std::uint64_t ticks) { tick_ += ticks; }

 private:
  EndpointTable endpoints_;
  std::uint64_t tick_ = 0;
};

}  // namespace p3s::net
