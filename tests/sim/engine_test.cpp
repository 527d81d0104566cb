#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nectar::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeEventsFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  SimTime fired = -1;
  e.schedule_at(50, [&] { e.schedule_in(25, [&] { fired = e.now(); }); });
  e.run();
  EXPECT_EQ(fired, 75);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(100, [&] {
    EXPECT_THROW(e.schedule_at(50, [] {}), std::logic_error);
  });
  e.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  auto id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel reports failure
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelledEventDoesNotAdvanceClockPastIt) {
  Engine e;
  auto id = e.schedule_at(10, [] {});
  SimTime seen = -1;
  e.schedule_at(20, [&] { seen = e.now(); });
  e.cancel(id);
  e.run();
  EXPECT_EQ(seen, 20);
}

TEST(Engine, StepProcessesExactlyOneEvent) {
  Engine e;
  int count = 0;
  e.schedule_at(1, [&] { ++count; });
  e.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(20, [&] { fired.push_back(20); });
  e.schedule_at(30, [&] { fired.push_back(30); });
  EXPECT_TRUE(e.run_until(20));  // events at exactly t are processed
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_FALSE(e.run_until(100));
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(e.now(), 100);  // clock advances to the requested time
}

TEST(Engine, RunUntilBeforeNowKeepsTheClock) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule_at(100, [&] { fired.push_back(e.now()); });
  e.schedule_at(500, [&] { fired.push_back(e.now()); });
  EXPECT_TRUE(e.run_until(200));
  EXPECT_EQ(e.now(), 200);
  EXPECT_TRUE(e.run_until(50));  // a horizon behind the clock leaves it alone
  EXPECT_EQ(e.now(), 200);
  EXPECT_THROW(e.schedule_at(60, [] {}), std::logic_error);
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 500}));
}

TEST(Engine, RunUntilWithEmptyQueueAdvancesClock) {
  Engine e;
  EXPECT_FALSE(e.run_until(500));
  EXPECT_EQ(e.now(), 500);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_in(10, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, RunWhilePredicate) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 10; ++i) e.schedule_at(i, [&] { ++count; });
  bool satisfied = e.run_while([&] { return count < 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 4);
  satisfied = e.run_while([&] { return count < 100; });
  EXPECT_FALSE(satisfied);  // queue drained before predicate met
  EXPECT_EQ(count, 10);
}

TEST(Engine, EventsProcessedCounter) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

TEST(TimeHelpers, UnitConversions) {
  EXPECT_EQ(usec(3), 3'000);
  EXPECT_EQ(msec(2), 2'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_usec(1500), 1.5);
}

TEST(TimeHelpers, TransmitTimeAt100Mbit) {
  // 1250 bytes at 100 Mbit/s = 100 us.
  EXPECT_EQ(transmit_time(1250, 100e6), usec(100));
  // 8 KB at 100 Mbit/s = 655.36 us.
  EXPECT_NEAR(static_cast<double>(transmit_time(8192, 100e6)), 655'360.0, 1.0);
}

}  // namespace
}  // namespace nectar::sim
