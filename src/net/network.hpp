// In-process message-passing substrate standing in for the paper's
// ActiveMQ/JMS transport. Components register named endpoints and exchange
// opaque byte frames. Like JMS, every network here queues: `send` returns
// before any handler runs, and handlers run when the caller drives delivery.
// Two implementations share one endpoint table:
//   * AsyncNetwork (net/async.hpp) — logical ticks, delivered when the
//     caller drains it, with a seeded fault plan (fault-free by default);
//     used by the tests and the runnable examples.
//   * sim::SimNetwork (src/sim) — discrete-event delivery with link latency
//     and bandwidth, every endpoint its own machine; used for the measured
//     performance experiments.
//
// A network keeps no copy of the frames it carries. Whoever wants the
// "eavesdropper's view" (the paper's §6.1 analysis of what network observers
// learn — sizes and endpoints, not content) installs a wire tap: each
// network hands the tap a view of every frame at the point where the frame
// enters the wire.
#pragma once

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
  std::size_t size = 0;  // wire size: the frame's length
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
  /// Queue a frame for delivery; no handler runs inside `send`. Frames to
  /// unknown endpoints are dropped at delivery (the tap sees them either
  /// way, like a real wire). Marked P3S_BLOCKING: a send touches the
  /// transport queue, so pool tasks must never call it — sends stay serial
  /// on the caller (p3s-lint no-block).
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

}  // namespace p3s::net
