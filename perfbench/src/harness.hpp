// The transport and span recorder the benchmark owns.
//
// BenchNetwork implements net::Network as one FIFO queue that the driving
// thread drains: `send` moves the frame into the queue (no copy, no traffic
// log) and `run_until_idle` dispatches frames in order. A handler therefore
// never runs inside another handler, so each dispatch span is its own self
// time. Logical time advances only when the benchmark calls `advance`.
//
// With tracing on, every dispatch and every harness call into a component
// becomes a Span carrying its parent (the span during which the dispatched
// frame was sent) and the publication it belongs to. Spans stay in memory
// until the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace perfbench {

/// Monotonic wall seconds.
double wall_now();
/// CPU seconds of the whole process (every thread).
double cpu_now();
/// Seconds a fixed CPU kernel owned by the benchmark takes right now (the
/// best of three short runs): a measure of the machine's current speed that
/// no change to the program can move.
double calibration_seconds();
/// calibration_seconds() on the uncontended 4-core Xeon VM the benchmark was
/// sized on. Timings are reported at this speed: measured time × reference ÷
/// the calibration taken around the measured interval. Shared VMs swing by
/// 1.5-1.8× within seconds as neighbours load the host; the division takes
/// that out and leaves the program's own time.
inline constexpr double kCalibrationReference = 120e-6;
/// The machine's slowdown over an interval, from the calibrations taken
/// just before and just after it; divide a timing by it for reference speed.
inline double slowdown(double calibration_before, double calibration_after) {
  return 0.5 * (calibration_before + calibration_after) / kCalibrationReference;
}

/// The component kinds of a deployment; endpoint names map onto them.
enum class Role : std::uint8_t { kPub, kDs, kRs, kAnon, kTs, kSub, kOther };
inline constexpr std::size_t kRoleCount = 7;
const char* role_name(Role role);
Role role_of(const std::string& endpoint);

struct Span {
  const char* name = nullptr;  // a fixed span name, e.g. "sub.match_hit"
  std::uint32_t parent = 0;    // 1-based id of the causing span; 0 = root
  std::uint32_t pub = 0;       // publication id; 0 outside publications
  Role role = Role::kOther;    // component that did the work
  Role from = Role::kOther;    // sender of the dispatched frame
  double start = 0.0;          // wall_now()
  double end = 0.0;
  double cpu = 0.0;            // process CPU seconds spent during the span
  double queued = -1.0;        // seconds the frame waited; < 0 for calls
};

class BenchNetwork final : public p3s::net::Network {
 public:
  void register_endpoint(const std::string& name, Handler handler) override;
  void unregister_endpoint(const std::string& name) override;
  void send(const std::string& from, const std::string& to,
            p3s::Bytes frame) override;
  double now() const override { return clock_; }

  /// Advance logical time (RS TTL and garbage collection run on it).
  void advance(double seconds) { clock_ += seconds; }

  /// Dispatch queued frames in FIFO order until none is left.
  void run_until_idle();

  /// A harness call into a component: recorded as a root span when tracing.
  void call(const char* span, Role role, const std::function<void()>& fn);

  void set_tracing(bool on) { tracing_ = on; }
  void set_publication(std::uint32_t pub) { pub_ = pub; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Withhold the n-th content response the RS sends from now on
  /// (1-based; 0 disarms). The transport drops it silently.
  void withhold_content_response(std::uint64_t nth);

  struct Totals {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::array<std::uint64_t, kRoleCount> egress{};  // bytes sent per role
  };
  const Totals& totals() const { return totals_; }
  /// End of the last dispatch into a subscriber (wall_now()).
  double last_subscriber_dispatch() const { return last_sub_end_; }
  std::size_t queue_depth_max() const { return depth_max_; }
  void reset_queue_depth_max() { depth_max_ = 0; }
  /// Wall seconds spent inside run_until_idle (handlers included).
  double drain_seconds() const { return drain_seconds_; }

 private:
  struct Endpoint {
    Handler handler;
    Role role;
  };
  struct Frame {
    std::string from;
    std::string to;
    p3s::Bytes bytes;
    std::uint32_t cause;  // span that sent it (0 = none / untraced)
    double enqueued;      // wall_now() when tracing, else 0
  };

  const char* classify(const Span& span, bool sent) const;

  std::unordered_map<std::string, Endpoint> endpoints_;
  std::deque<Frame> queue_;
  double clock_ = 0.0;
  bool tracing_ = false;
  std::uint32_t pub_ = 0;
  std::uint32_t current_ = 0;  // span whose sends are being attributed
  bool sent_in_current_ = false;
  std::vector<Span> spans_;
  Totals totals_;
  double last_sub_end_ = 0.0;
  std::size_t depth_max_ = 0;
  double drain_seconds_ = 0.0;
  std::uint64_t withhold_nth_ = 0;
  std::uint64_t rs_responses_ = 0;
};

}  // namespace perfbench
