// Baseline system (paper §6.2): "a standard centralized pub-sub system,
// where publishers submit their payload and metadata (such as a topic) to a
// central broker, subscribers register subscriptions with the broker, and
// the broker sends the payload whose metadata matches with a subscription to
// the subscriber." No privacy: the broker sees interests, metadata, and
// payloads in the clear — that visibility is exactly what the privacy tests
// contrast against P3S.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "pbe/schema.hpp"

namespace p3s::broker {

struct BaselineDelivery {
  pbe::Metadata metadata;
  Bytes payload;
};

class BaselineBroker {
 public:
  BaselineBroker(net::Network& network, std::string name);
  ~BaselineBroker();

  const std::string& name() const { return name_; }
  std::uint64_t publications() const { return publications_; }
  /// Total subscription predicate evaluations performed (the broker-side
  /// matching cost the paper models as N_s · t_match).
  std::uint64_t match_operations() const { return match_operations_; }

  /// The broker's (non-private) view — everything in the clear.
  const std::vector<pbe::Interest>& visible_interests() const {
    return visible_interests_;
  }
  const std::vector<pbe::Metadata>& visible_metadata() const {
    return visible_metadata_;
  }

 private:
  void on_frame(const std::string& from, BytesView frame);

  net::Network& network_;
  std::string name_;
  std::multimap<std::string, pbe::Interest> subscriptions_;  // subscriber -> interest
  std::uint64_t publications_ = 0;
  std::uint64_t match_operations_ = 0;
  std::vector<pbe::Interest> visible_interests_;
  std::vector<pbe::Metadata> visible_metadata_;
};

class BaselineSubscriber {
 public:
  using DeliveryHandler = std::function<void(const BaselineDelivery&)>;

  BaselineSubscriber(net::Network& network, std::string name,
                     std::string broker);
  ~BaselineSubscriber();

  void subscribe(const pbe::Interest& interest);
  /// The only output of delivered payloads: each one is handed to the
  /// handler once and not kept.
  void set_delivery_handler(DeliveryHandler handler) {
    handler_ = std::move(handler);
  }
  const std::string& name() const { return name_; }

 private:
  void on_frame(const std::string& from, BytesView frame);

  net::Network& network_;
  std::string name_;
  std::string broker_;
  DeliveryHandler handler_;
};

class BaselinePublisher {
 public:
  BaselinePublisher(net::Network& network, std::string name,
                    std::string broker);
  ~BaselinePublisher();

  void publish(const pbe::Metadata& metadata, BytesView payload);
  const std::string& name() const { return name_; }

 private:
  net::Network& network_;
  std::string name_;
  std::string broker_;
};

}  // namespace p3s::broker
