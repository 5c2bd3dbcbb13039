#include <gtest/gtest.h>

#include <vector>

#include "broker/baseline.hpp"
#include "net/async.hpp"

namespace p3s::broker {
namespace {

// Keeps what a subscriber's delivery handler is handed.
struct Inbox {
  explicit Inbox(BaselineSubscriber& sub) {
    sub.set_delivery_handler(
        [this](const BaselineDelivery& d) { items.push_back(d); });
  }
  std::vector<BaselineDelivery> items;
};

class BaselineTest : public ::testing::Test {
 protected:
  net::AsyncNetwork net_;
  BaselineBroker broker_{net_, "broker"};
};

TEST_F(BaselineTest, DeliversToMatchingSubscribers) {
  BaselineSubscriber s1(net_, "s1", "broker");
  BaselineSubscriber s2(net_, "s2", "broker");
  Inbox in1(s1);
  Inbox in2(s2);
  BaselinePublisher pub(net_, "p", "broker");
  s1.subscribe({{"topic", "sports"}});
  s2.subscribe({{"topic", "finance"}});
  net_.run_until_idle();

  pub.publish({{"topic", "sports"}, {"lang", "en"}}, str_to_bytes("goal!"));
  net_.run_until_idle();
  ASSERT_EQ(in1.items.size(), 1u);
  EXPECT_EQ(bytes_to_str(in1.items[0].payload), "goal!");
  EXPECT_TRUE(in2.items.empty());
}

TEST_F(BaselineTest, WildcardViaAbsentAttribute) {
  BaselineSubscriber s(net_, "s", "broker");
  Inbox in(s);
  BaselinePublisher pub(net_, "p", "broker");
  s.subscribe({{"lang", "en"}});  // any topic
  net_.run_until_idle();
  pub.publish({{"topic", "a"}, {"lang", "en"}}, str_to_bytes("1"));
  pub.publish({{"topic", "b"}, {"lang", "en"}}, str_to_bytes("2"));
  pub.publish({{"topic", "b"}, {"lang", "fr"}}, str_to_bytes("3"));
  net_.run_until_idle();
  EXPECT_EQ(in.items.size(), 2u);
}

TEST_F(BaselineTest, OneDeliveryPerSubscriberEvenWithMultipleMatchingSubs) {
  BaselineSubscriber s(net_, "s", "broker");
  Inbox in(s);
  BaselinePublisher pub(net_, "p", "broker");
  s.subscribe({{"topic", "x"}});
  s.subscribe({{"lang", "en"}});
  net_.run_until_idle();
  pub.publish({{"topic", "x"}, {"lang", "en"}}, str_to_bytes("once"));
  net_.run_until_idle();
  EXPECT_EQ(in.items.size(), 1u);
}

TEST_F(BaselineTest, MatchCostIsPerSubscriptionPerPublication) {
  BaselineSubscriber s1(net_, "s1", "broker");
  BaselineSubscriber s2(net_, "s2", "broker");
  BaselinePublisher pub(net_, "p", "broker");
  s1.subscribe({{"topic", "a"}});
  s2.subscribe({{"topic", "b"}});
  net_.run_until_idle();
  pub.publish({{"topic", "a"}}, str_to_bytes("m"));
  pub.publish({{"topic", "b"}}, str_to_bytes("m"));
  net_.run_until_idle();
  // The broker tested each of the 2 subscriptions against each of the 2
  // publications — the N_s · t_match term of the paper's model.
  EXPECT_EQ(broker_.match_operations(), 4u);
  EXPECT_EQ(broker_.publications(), 2u);
}

TEST_F(BaselineTest, BrokerSeesEverythingInTheClear) {
  // The privacy contrast with P3S: interests AND metadata are fully visible
  // at the baseline broker.
  BaselineSubscriber s(net_, "s", "broker");
  BaselinePublisher pub(net_, "p", "broker");
  s.subscribe({{"topic", "merger"}});
  net_.run_until_idle();
  pub.publish({{"topic", "merger"}}, str_to_bytes("m"));
  net_.run_until_idle();
  ASSERT_EQ(broker_.visible_interests().size(), 1u);
  EXPECT_EQ(broker_.visible_interests()[0].at("topic"), "merger");
  ASSERT_EQ(broker_.visible_metadata().size(), 1u);
  EXPECT_EQ(broker_.visible_metadata()[0].at("topic"), "merger");
}

TEST_F(BaselineTest, MalformedFramesIgnored) {
  EXPECT_NO_THROW(net_.send("x", "broker", Bytes{0xff, 1, 2}));
  EXPECT_NO_THROW(net_.send("x", "broker", Bytes{}));
  EXPECT_NO_THROW(net_.run_until_idle());
  EXPECT_EQ(broker_.publications(), 0u);
}

TEST_F(BaselineTest, DeliveryCarriesMetadata) {
  BaselineSubscriber s(net_, "s", "broker");
  Inbox in(s);
  BaselinePublisher pub(net_, "p", "broker");
  s.subscribe({{"topic", "t"}});
  net_.run_until_idle();
  pub.publish({{"topic", "t"}, {"extra", "e"}}, str_to_bytes("m"));
  net_.run_until_idle();
  ASSERT_EQ(in.items.size(), 1u);
  EXPECT_EQ(in.items[0].metadata.at("extra"), "e");
}

}  // namespace
}  // namespace p3s::broker
