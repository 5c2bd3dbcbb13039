// Test-side delivery sink: a subscriber's delivery handler that keeps every
// delivery, in order. Subscribers keep no such copy themselves; tests that
// assert on delivered GUIDs or payloads create one of these per subscriber.
#pragma once

#include <vector>

#include "p3s/subscriber.hpp"

namespace p3s::test {

class DeliveryLog {
 public:
  using Delivery = core::Subscriber::Delivery;

  /// Become `sub`'s delivery handler; the log must outlive its deliveries.
  explicit DeliveryLog(core::Subscriber& sub) {
    sub.set_delivery_handler(
        [this](const Delivery& d) { deliveries_.push_back(d); });
  }
  DeliveryLog(const DeliveryLog&) = delete;
  DeliveryLog& operator=(const DeliveryLog&) = delete;

  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  std::vector<Delivery> deliveries_;
};

}  // namespace p3s::test
