#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cpu.hpp"
#include "core/priorities.hpp"
#include "core/thread.hpp"

namespace nectar::core {
namespace {

/// Threads that are never started: the queue only reads their priority.
class RunQueueTest : public ::testing::Test {
 protected:
  Thread* make(int priority) {
    threads_.push_back(std::make_unique<Thread>(cpu_, "t" + std::to_string(threads_.size()),
                                                priority, [] {}));
    return threads_.back().get();
  }

  sim::Engine engine_;
  Cpu cpu_{engine_, "cpu"};
  std::vector<std::unique_ptr<Thread>> threads_;
};

TEST_F(RunQueueTest, HighestPriorityFirstAndFifoWithinALevel) {
  RunQueue q;
  Thread* app1 = make(kAppPriority);
  Thread* sys1 = make(kSystemPriority);
  Thread* mid = make(kAppPriority + 1);
  Thread* app2 = make(kAppPriority);
  Thread* sys2 = make(kSystemPriority);
  for (Thread* t : {app1, sys1, mid, app2, sys2}) q.push(t);
  EXPECT_EQ(q.size(), 5u);
  std::vector<Thread*> order;
  while (!q.empty()) {
    Thread* best = q.peek_best();
    EXPECT_EQ(q.pop_best(), best);
    order.push_back(best);
  }
  EXPECT_EQ(order, (std::vector<Thread*>{sys1, sys2, mid, app1, app2}));
  EXPECT_EQ(q.pop_best(), nullptr);
  EXPECT_EQ(q.peek_best(), nullptr);
}

TEST_F(RunQueueTest, ALevelThatEmptiesRefills) {
  RunQueue q;
  Thread* sys1 = make(kSystemPriority);
  Thread* sys2 = make(kSystemPriority);
  Thread* app = make(kAppPriority);
  q.push(sys1);
  q.push(app);
  EXPECT_EQ(q.pop_best(), sys1);  // the system level is now empty
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peek_best(), app);
  q.push(sys2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peek_best(), sys2);
  EXPECT_EQ(q.pop_best(), sys2);
  EXPECT_EQ(q.pop_best(), app);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(app);
  q.push(sys1);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pop_best(), sys1);
  EXPECT_EQ(q.pop_best(), app);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace nectar::core
