// Deferred-delivery in-process network. Unlike DirectNetwork (inline,
// synchronous), send() only enqueues; frames are delivered when the test or
// application pumps the queue. This models true asynchronous message
// passing — in-flight races, loss, reordering — while staying fully
// deterministic and single-threaded.
//
// Fault injection covers the §6.1 robustness discussion: "participants can
// detect if network failures cause message loss at the application level"
// and the slow-consumer/deletion races behind the T_G grace period. A
// seeded net::FaultPlan drives probabilistic per-link drop/duplicate/
// reorder/delay and endpoint blackout windows — every chaos schedule is
// replayable from its seed. This is the only consumer of FaultPlan. Without
// a plan installed the network delivers FIFO, one tick per send and per
// delivery.
//
// The wire tap sees a frame after the sender-blackout check (a dark
// sender's frame never reaches the wire) and before any other fault, so a
// dropped frame was still seen and a duplicated frame is seen twice.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "net/fault.hpp"
#include "net/network.hpp"

namespace p3s::net {

class AsyncNetwork final : public Network {
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

  /// Advance logical time without delivering anything.
  void advance(std::uint64_t ticks) { tick_ += ticks; }

  /// Deliver one in-flight frame (oldest first; earliest deliver_at first
  /// under a FaultPlan). Returns false when nothing is in flight.
  bool pump_one();

  /// Deliver until the queue drains (frames sent during delivery are also
  /// processed). Returns the number of frames delivered. Throws
  /// std::runtime_error if `max_deliveries` is exceeded (live-lock guard).
  std::size_t run_until_idle(std::size_t max_deliveries = 100000);

  std::size_t in_flight() const { return queue_.size(); }

  // --- fault injection -----------------------------------------------------
  /// Install a seeded fault schedule; all faults (and their replayability)
  /// come from the plan. Delays are in ticks. clear_fault_plan() restores
  /// plain FIFO delivery.
  void set_fault_plan(FaultPlan plan) { plan_ = std::move(plan); }
  void clear_fault_plan() { plan_.reset(); }
  /// Mutable access so a running chaos harness can add blackout windows at
  /// the current network time. nullptr when no plan is installed.
  FaultPlan* fault_plan() { return plan_.has_value() ? &*plan_ : nullptr; }

  /// Every frame the plan lost (drop or blackout).
  std::size_t dropped_frames() const { return dropped_; }
  /// Per-link loss counter for the same events.
  std::size_t dropped_on(const std::string& from, const std::string& to) const;

 private:
  struct InFlight {
    std::string from;
    std::string to;
    Bytes frame;
    std::uint64_t deliver_at = 0;
  };

  void count_drop(const std::string& from, const std::string& to);

  EndpointTable endpoints_;
  std::deque<InFlight> queue_;
  std::uint64_t tick_ = 0;
  std::size_t dropped_ = 0;
  std::optional<FaultPlan> plan_;
  std::map<std::pair<std::string, std::string>, std::size_t> dropped_by_link_;
};

}  // namespace p3s::net
