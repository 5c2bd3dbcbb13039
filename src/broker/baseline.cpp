#include "broker/baseline.hpp"

#include "common/log.hpp"
#include "common/serial.hpp"

namespace p3s::broker {

namespace {
enum class Tag : std::uint8_t { kSubscribe = 1, kPublish = 2, kDeliver = 3 };
}  // namespace

BaselineBroker::BaselineBroker(net::Network& network, std::string name)
    : network_(network), name_(std::move(name)) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

BaselineBroker::~BaselineBroker() { network_.unregister_endpoint(name_); }

void BaselineBroker::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    const Tag tag = static_cast<Tag>(r.u8());
    if (tag == Tag::kSubscribe) {
      const pbe::Interest interest = pbe::deserialize_string_map(r.bytes());
      r.expect_done();
      subscriptions_.emplace(from, interest);
      visible_interests_.push_back(interest);
      return;
    }
    if (tag == Tag::kPublish) {
      const pbe::Metadata metadata = pbe::deserialize_string_map(r.bytes());
      const Bytes payload = r.bytes();
      r.expect_done();
      ++publications_;
      visible_metadata_.push_back(metadata);

      Writer w;
      w.u8(static_cast<std::uint8_t>(Tag::kDeliver));
      w.bytes(pbe::serialize_string_map(metadata));
      w.bytes(payload);
      const Bytes frame = w.take();
      // The broker tests each registered subscription (cost the paper
      // models) and forwards to each matching subscriber once.
      std::string last_delivered;
      for (const auto& [subscriber, interest] : subscriptions_) {
        ++match_operations_;
        if (subscriber != last_delivered &&
            pbe::interest_matches(interest, metadata)) {
          network_.send(name_, subscriber, frame);
          last_delivered = subscriber;
        }
      }
      return;
    }
    log_warn("broker") << "unknown frame from " << from;
  } catch (const std::exception& e) {
    log_warn("broker") << "bad frame from " << from << ": " << e.what();
  }
}

BaselineSubscriber::BaselineSubscriber(net::Network& network, std::string name,
                                       std::string broker)
    : network_(network), name_(std::move(name)), broker_(std::move(broker)) {
  network_.register_endpoint(
      name_, [this](const std::string& from, BytesView frame) {
        on_frame(from, frame);
      });
}

BaselineSubscriber::~BaselineSubscriber() {
  network_.unregister_endpoint(name_);
}

void BaselineSubscriber::subscribe(const pbe::Interest& interest) {
  Writer w;
  w.u8(1);  // kSubscribe
  w.bytes(pbe::serialize_string_map(interest));
  network_.send(name_, broker_, w.take());
}

void BaselineSubscriber::on_frame(const std::string& from, BytesView data) {
  try {
    Reader r(data);
    if (r.u8() != 3) return;  // not kDeliver
    BaselineDelivery d;
    d.metadata = pbe::deserialize_string_map(r.bytes());
    d.payload = r.bytes();
    r.expect_done();
    if (handler_) handler_(d);
  } catch (const std::exception& e) {
    log_warn("baseline-sub") << "bad frame from " << from << ": " << e.what();
  }
}

BaselinePublisher::BaselinePublisher(net::Network& network, std::string name,
                                     std::string broker)
    : network_(network), name_(std::move(name)), broker_(std::move(broker)) {
  network_.register_endpoint(name_,
                             [](const std::string&, BytesView) {});
}

BaselinePublisher::~BaselinePublisher() { network_.unregister_endpoint(name_); }

void BaselinePublisher::publish(const pbe::Metadata& metadata,
                                BytesView payload) {
  Writer w;
  w.u8(2);  // kPublish
  w.bytes(pbe::serialize_string_map(metadata));
  w.bytes(payload);
  network_.send(name_, broker_, w.take());
}

}  // namespace p3s::broker
