#include "net/async.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::net {

namespace {
struct NetFaultMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& dropped = reg.counter(obs::names::kNetFaultDroppedTotal);
  obs::Counter& duplicated =
      reg.counter(obs::names::kNetFaultDuplicatedTotal);
  obs::Counter& delayed = reg.counter(obs::names::kNetFaultDelayedTotal);
  obs::Counter& reordered = reg.counter(obs::names::kNetFaultReorderedTotal);
  obs::Counter& blackout_dropped =
      reg.counter(obs::names::kNetFaultBlackoutDroppedTotal);
};

NetFaultMetrics& net_fault_metrics() {
  static NetFaultMetrics m;
  return m;
}
}  // namespace

std::size_t AsyncNetwork::dropped_on(const std::string& from,
                                     const std::string& to) const {
  const auto it = dropped_by_link_.find({from, to});
  return it != dropped_by_link_.end() ? it->second : 0;
}

void AsyncNetwork::count_drop(const std::string& from, const std::string& to) {
  ++dropped_;
  ++dropped_by_link_[{from, to}];
}

void AsyncNetwork::send(const std::string& from, const std::string& to,
                        Bytes frame) {
  ++tick_;
  if (plan_.in_blackout(from, now())) {
    // A dark sender's frames never leave the host segment — they are lost
    // before the wire, so the tap never sees them. Plan drops and receiver
    // blackouts below happen PAST the observation point.
    count_drop(from, to);
    net_fault_metrics().blackout_dropped.inc();
    return;
  }
  // The wire sees the frame whether or not it survives delivery: loss
  // happens past the observation point, and a duplicate is seen twice —
  // once per wire appearance.
  observe(from, to, frame.size(), frame);
  NetFaultMetrics& metrics = net_fault_metrics();
  if (plan_.should_drop(from, to)) {
    count_drop(from, to);
    metrics.dropped.inc();
    return;
  }
  const auto delayed = [&] {
    const std::uint64_t d = static_cast<std::uint64_t>(plan_.delay(from, to));
    if (d > 0) metrics.delayed.inc();
    return tick_ + d;
  };
  const auto enqueue = [&](Bytes f, std::uint64_t at) {
    if (at != tick_) ++delayed_in_flight_;
    queue_.push_back(InFlight{from, to, std::move(f), at, at != tick_});
  };
  const std::uint64_t deliver_at = delayed();
  if (plan_.should_duplicate(from, to)) {
    metrics.duplicated.inc();
    observe(from, to, frame.size(), frame);
    enqueue(frame, delayed());
  }
  enqueue(std::move(frame), deliver_at);
}

bool AsyncNetwork::pump_one() {
  while (!queue_.empty()) {
    // Earliest deliver_at first (FIFO on ties), which is the front unless a
    // delayed frame is in flight; a reorder fault lets a uniformly chosen
    // in-flight frame overtake the scheduled one.
    std::size_t idx = 0;
    if (delayed_in_flight_ > 0) {
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].deliver_at < queue_[idx].deliver_at) idx = i;
      }
    }
    if (queue_.size() > 1 &&
        plan_.should_reorder(queue_[idx].from, queue_[idx].to)) {
      const std::size_t victim = plan_.pick(queue_.size());
      if (victim != idx) net_fault_metrics().reordered.inc();
      idx = victim;
    }
    InFlight msg = std::move(queue_[idx]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    if (msg.delayed) --delayed_in_flight_;
    tick_ = std::max(tick_ + 1, msg.deliver_at);
    if (plan_.in_blackout(msg.to, now())) {
      count_drop(msg.from, msg.to);
      net_fault_metrics().blackout_dropped.inc();
      continue;  // receiver dark at delivery time
    }
    if (endpoints_.deliver(msg.from, msg.to, msg.frame)) return true;
  }
  return false;
}

std::size_t AsyncNetwork::run_until_idle(std::size_t max_deliveries) {
  std::size_t delivered = 0;
  while (pump_one()) {
    if (++delivered > max_deliveries) {
      throw std::runtime_error("AsyncNetwork: live-lock (message storm)");
    }
  }
  return delivered;
}

}  // namespace p3s::net
