#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace bftsim {
namespace {

TEST(MetricsTest, Counters) {
  Metrics m;
  m.on_send();
  m.on_send();
  m.on_deliver();
  m.on_drop();
  m.on_inject();
  m.on_timer();
  m.on_event();
  EXPECT_EQ(m.messages_sent(), 2u);
  EXPECT_EQ(m.messages_delivered(), 1u);
  EXPECT_EQ(m.messages_dropped(), 1u);
  EXPECT_EQ(m.messages_injected(), 1u);
  EXPECT_EQ(m.timers_fired(), 1u);
  EXPECT_EQ(m.events_processed(), 1u);
}

TEST(MetricsTest, DecisionCount) {
  Metrics m;
  m.on_decision({0, 10, 0, 100});
  m.on_decision({0, 20, 1, 101});
  m.on_decision({1, 15, 0, 100});
  EXPECT_EQ(m.decision_count(0), 2u);
  EXPECT_EQ(m.decision_count(1), 1u);
  EXPECT_EQ(m.decision_count(2), 0u);
}

TEST(MetricsTest, CompletionTimeIsLastNodesKth) {
  Metrics m;
  m.on_decision({0, 10, 0, 100});
  m.on_decision({1, 30, 0, 100});
  m.on_decision({2, 20, 0, 100});
  EXPECT_EQ(m.completion_time({0, 1, 2}, 1), 30);
  EXPECT_EQ(m.completion_time({0, 2}, 1), 20);
}

TEST(MetricsTest, CompletionTimeUnreachedIsNoTime) {
  Metrics m;
  m.on_decision({0, 10, 0, 100});
  EXPECT_EQ(m.completion_time({0, 1}, 1), kNoTime);  // node 1 never decided
  EXPECT_EQ(m.completion_time({0}, 2), kNoTime);     // only one decision
}

TEST(MetricsTest, CompletionTimeCountsKthPerNode) {
  Metrics m;
  m.on_decision({0, 10, 0, 1});
  m.on_decision({0, 40, 1, 2});
  m.on_decision({1, 20, 0, 1});
  m.on_decision({1, 30, 1, 2});
  EXPECT_EQ(m.completion_time({0, 1}, 2), 40);
}

TEST(MetricsTest, ViewRecords) {
  Metrics m;
  m.on_view({3, 100, 7});
  ASSERT_EQ(m.views().size(), 1u);
  EXPECT_EQ(m.views()[0].node, 3u);
  EXPECT_EQ(m.views()[0].view, 7u);
}

}  // namespace
}  // namespace bftsim
