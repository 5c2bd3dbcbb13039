// Discrete-event engine for the performance experiments: sim::SimNetwork
// schedules its frame arrivals and its machines' work on it, so the real
// components run at the paper's scale (100 subscribers, ℓ, ℬ) in simulated
// time.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace p3s::sim {

class SimEngine {
 public:
  using Task = std::function<void()>;

  /// Schedule at an absolute time (>= now, else clamped to now).
  void at(double time, Task task);
  /// Schedule `delay` seconds from now (negative clamped to 0).
  void after(double delay, Task task);

  double now() const { return now_; }

  /// Execute the next event; returns false when the queue is empty.
  bool step();
  /// Run until no events remain.
  void run();
  /// Run events with time <= t, then set now to t.
  void run_until(double t);

 private:
  struct Event {
    double time;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events
    Task task;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace p3s::sim
