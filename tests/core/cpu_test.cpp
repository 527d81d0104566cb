#include "core/cpu.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/priorities.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::core {
namespace {

namespace costs = sim::costs;

TEST(Cpu, RunsForkedThread) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool ran = false;
  cpu.fork("t", kSystemPriority, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(cpu.threads_alive(), 0u);
}

TEST(Cpu, ChargeAdvancesSimulatedTime) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  sim::SimTime end = -1;
  cpu.fork("t", kSystemPriority, [&] {
    cpu.charge(sim::usec(10));
    end = e.now();
  });
  e.run();
  // Context switch into the thread + 10 us of work.
  EXPECT_EQ(end, costs::kContextSwitch + sim::usec(10));
  EXPECT_GE(cpu.busy_time(), sim::usec(10));
}

TEST(Cpu, ChargeSlicingPreservesTotal) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  sim::SimTime end = -1;
  cpu.fork("t", kSystemPriority, [&] {
    cpu.charge(sim::usec(200));  // sliced into kChargeSlice pieces
    end = e.now();
  });
  e.run();
  EXPECT_EQ(end, costs::kContextSwitch + sim::usec(200));
}

TEST(Cpu, ContextSwitchCostsTwentyMicroseconds) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  EXPECT_EQ(cpu.context_switch_cost(), sim::usec(20));  // paper §3.1
}

TEST(Cpu, HigherPriorityRunsFirst) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::vector<int> order;
  cpu.fork("lo", kAppPriority, [&] { order.push_back(1); });
  cpu.fork("hi", kSystemPriority, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Cpu, PreemptionOnWakeup) {
  // §3.1: "With preemption, a context switch occurs as soon as a
  // higher-priority thread is awakened."
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::vector<std::string> log;
  Thread* hi = cpu.fork("hi", kSystemPriority, [&] {
    cpu.block();  // wait to be woken by the app thread's interrupt
    log.push_back("hi");
  });
  cpu.fork("lo", kAppPriority, [&] {
    log.push_back("lo-start");
    // Simulate an interrupt waking the high-priority thread mid-computation.
    cpu.set_timer(e.now() + sim::usec(30), [&, hi] { cpu.wake(hi); });
    cpu.charge(sim::usec(200));
    log.push_back("lo-end");
  });
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "lo-start");
  EXPECT_EQ(log[1], "hi");     // preempted the app thread
  EXPECT_EQ(log[2], "lo-end");
}

TEST(Cpu, EqualPriorityIsNotPreemptive) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::vector<int> order;
  Thread* a = cpu.fork("a", kAppPriority, [&] {
    cpu.block();
    order.push_back(1);
  });
  cpu.fork("b", kAppPriority, [&] {
    cpu.wake(a);
    cpu.charge(sim::usec(50));
    order.push_back(2);  // b keeps running: equal priority does not preempt
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Cpu, YieldRoundRobinsEqualPriority) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::vector<int> order;
  cpu.fork("a", kAppPriority, [&] {
    order.push_back(1);
    cpu.yield();
    order.push_back(3);
  });
  cpu.fork("b", kAppPriority, [&] {
    order.push_back(2);
    cpu.yield();
    order.push_back(4);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Cpu, YieldWithNothingElseReadyIsCheap) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::uint64_t switches_before = 0;
  cpu.fork("only", kAppPriority, [&] {
    switches_before = cpu.context_switches();
    cpu.yield();
    EXPECT_EQ(cpu.context_switches(), switches_before);  // no-op yield
  });
  e.run();
}

TEST(Cpu, JoinWaitsForCompletion) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool child_done = false, parent_done = false;
  cpu.fork("parent", kSystemPriority, [&] {
    Thread* c = cpu.fork("child", kSystemPriority, [&] {
      cpu.charge(sim::usec(100));
      child_done = true;
    });
    cpu.join(c);
    EXPECT_TRUE(child_done);
    parent_done = true;
  });
  e.run();
  EXPECT_TRUE(parent_done);
}

TEST(Cpu, JoinFinishedThreadReturnsImmediately) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool ok = false;
  cpu.fork("parent", kSystemPriority, [&] {
    Thread* c = cpu.fork("child", kSystemPriority, [] {});
    cpu.charge(sim::usec(500));
    cpu.yield();
    cpu.join(c);  // child long finished
    ok = true;
  });
  e.run();
  EXPECT_TRUE(ok);
}

TEST(Cpu, SleepWakesAtRequestedTime) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  sim::SimTime woke = -1;
  cpu.fork("t", kSystemPriority, [&] {
    cpu.sleep_until(sim::usec(500));
    woke = e.now();
  });
  e.run();
  // Wake + context switch back in.
  EXPECT_GE(woke, sim::usec(500));
  EXPECT_LE(woke, sim::usec(500) + costs::kContextSwitch);
}

TEST(Cpu, InterruptRunsWhenIdle) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool handled = false;
  e.schedule_at(sim::usec(100), [&] { cpu.post_interrupt([&] { handled = true; }); });
  e.run();
  EXPECT_TRUE(handled);
  EXPECT_EQ(cpu.interrupts_taken(), 1u);
}

TEST(Cpu, InterruptDeliveredAtChargeBoundary) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  sim::SimTime handled_at = -1;
  cpu.fork("t", kSystemPriority, [&] {
    cpu.charge(sim::usec(10));  // ends at switch+10us
    cpu.charge(sim::usec(10));
  });
  e.schedule_at(costs::kContextSwitch + sim::usec(5),
                [&] { cpu.post_interrupt([&] { handled_at = e.now(); }); });
  e.run();
  // Delivered at the end of the 10 us charge (within one slice), plus the
  // interrupt-entry cost.
  EXPECT_GE(handled_at, costs::kContextSwitch + sim::usec(10));
  EXPECT_LE(handled_at, costs::kContextSwitch + sim::usec(10) + costs::kInterruptEntry +
                            costs::kChargeSlice);
}

TEST(Cpu, MaskedInterruptsAreDeferred) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::vector<std::string> log;
  cpu.fork("t", kSystemPriority, [&] {
    cpu.disable_interrupts();
    cpu.post_interrupt([&] { log.push_back("irq"); });
    cpu.charge(sim::usec(50));
    log.push_back("critical-done");
    cpu.enable_interrupts();
    cpu.charge(sim::usec(1));
    log.push_back("after");
  });
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "critical-done");
  EXPECT_EQ(log[1], "irq");
  EXPECT_EQ(log[2], "after");
}

TEST(Cpu, InterruptHandlersRunInQueueOrderWithoutNesting) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::vector<int> order;
  cpu.post_interrupt([&] {
    order.push_back(1);
    cpu.post_interrupt([&] { order.push_back(3); });  // queued, not nested
    cpu.charge(sim::usec(5));
    order.push_back(2);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Cpu, InterruptPreemptsThreadCharges) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  sim::SimTime irq_at = -1;
  cpu.fork("t", kAppPriority, [&] { cpu.charge(sim::msec(2)); });
  e.schedule_at(sim::usec(100), [&] { cpu.post_interrupt([&] { irq_at = e.now(); }); });
  e.run();
  // Thanks to charge slicing, the interrupt runs within one slice of its
  // posting, not 2 ms later.
  EXPECT_LE(irq_at, sim::usec(100) + costs::kChargeSlice + costs::kInterruptEntry);
}

TEST(Cpu, SliceBoundariesAndEventCountsAreExact) {
  // A charge is cut into kChargeSlice pieces, and interrupts and preemption
  // land only on their boundaries. These times and event counts pin where
  // each slice begins, not just that it falls within bounds.
  {
    // A thread's 2 ms charge, split by an interrupt posted at 100 us: the
    // slice boundary at 120 us takes it.
    sim::Engine e;
    Cpu cpu(e, "cpu");
    sim::SimTime body_at = -1, charge_done = -1;
    cpu.fork("t", kAppPriority, [&] {
      cpu.charge(sim::msec(2));
      charge_done = e.now();
    });
    e.schedule_at(sim::usec(100), [&] { cpu.post_interrupt([&] { body_at = e.now(); }); });
    e.run();
    EXPECT_EQ(body_at, 122'500);
    EXPECT_EQ(charge_done, 2'023'500);
    EXPECT_EQ(e.events_processed(), 85u);
  }
  {
    // A timer wakes a blocked high-priority thread during a low-priority
    // thread's charge: the next boundary preempts it.
    sim::Engine e;
    Cpu cpu(e, "cpu");
    sim::SimTime hi_at = -1, hi_done = -1, lo_done = -1;
    Thread* hi = cpu.fork("hi", kSystemPriority, [&] {
      cpu.block();
      hi_at = e.now();
      cpu.charge(sim::usec(60));
      hi_done = e.now();
    });
    cpu.fork("lo", kAppPriority, [&] {
      cpu.set_timer(e.now() + sim::usec(30), [&, hi] { cpu.wake(hi); });
      cpu.charge(sim::usec(200));
      lo_done = e.now();
    });
    e.run();
    EXPECT_EQ(hi_at, 113'500);
    EXPECT_EQ(hi_done, 173'500);
    EXPECT_EQ(lo_done, 343'500);
    EXPECT_EQ(e.events_processed(), 20u);
  }
  {
    // An interrupt handler's own charge is never split by a later
    // interrupt: handlers do not nest.
    sim::Engine e;
    Cpu cpu(e, "cpu");
    sim::SimTime first_done = -1, second_at = -1;
    cpu.post_interrupt([&] {
      cpu.charge(sim::usec(100));
      first_done = e.now();
    });
    e.schedule_at(sim::usec(30), [&] { cpu.post_interrupt([&] { second_at = e.now(); }); });
    e.run();
    EXPECT_EQ(first_done, 102'500);
    EXPECT_EQ(second_at, 106'000);
    EXPECT_EQ(e.events_processed(), 10u);
  }
  {
    // Every slice of a split charge stays under the cost scope open around
    // it, and the folded total still equals the busy time.
    sim::Engine e;
    Cpu cpu(e, "cpu");
    obs::Profiler prof;
    prof.set_enabled(true);
    cpu.attach_profiler(&prof);
    cpu.fork("t", kAppPriority, [&] {
      obs::CostScope scope("dom");
      cpu.charge(sim::usec(130));
    });
    e.schedule_at(sim::usec(50), [&] { cpu.post_interrupt([&] { cpu.charge(sim::usec(3)); }); });
    e.run();
    const std::string folded = prof.folded();
    EXPECT_NE(folded.find("cpu;t;dom 130000\n"), std::string::npos) << folded;
    EXPECT_EQ(cpu.busy_time(), 156'500);
    EXPECT_EQ(prof.attributed_ns(), cpu.busy_time()) << folded;
  }
}

TEST(Cpu, KickDuringASliceSchedulesNoEvent) {
  // An interrupt post and a wakeup land in the middle of a slice. The
  // slice's own end dispatches, so neither schedules a dispatch of its own,
  // and the handler and the woken thread run at that boundary: the handler
  // at 115 us + interrupt entry, then the preempting thread after the
  // interrupt exit and a context switch.
  sim::Engine e;
  Cpu cpu(e, "cpu");
  sim::SimTime irq_at = -1, woke_at = -1, lo_done = -1;
  Thread* hi = cpu.fork("hi", kSystemPriority, [&] {
    cpu.block();
    woke_at = e.now();
  });
  cpu.fork("lo", kAppPriority, [&] {
    cpu.charge(sim::msec(1));  // slices from 40 us: 40, 65, 90, 115, ...
    lo_done = e.now();
  });
  std::size_t before = 0, after_post = 0, after_wake = 0;
  e.schedule_at(sim::usec(100), [&] {
    before = e.pending_events();
    cpu.post_interrupt([&] { irq_at = e.now(); });
    after_post = e.pending_events();
    cpu.wake(hi);
    after_wake = e.pending_events();
  });
  e.run();
  EXPECT_EQ(before, 1u);  // the slice ending at 115 us
  EXPECT_EQ(after_post, before);
  EXPECT_EQ(after_wake, before);
  EXPECT_EQ(irq_at, 117'500);
  EXPECT_EQ(woke_at, 138'500);
  EXPECT_EQ(lo_done, 1'083'500);
}

TEST(Cpu, BlockOutsideThreadThrows) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  cpu.post_interrupt([&] { EXPECT_THROW(cpu.block(), std::logic_error); });
  e.run();
}

TEST(Cpu, TimerFiresInInterruptContext) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool was_irq = false;
  cpu.set_timer(sim::usec(50), [&] { was_irq = cpu.in_interrupt(); });
  e.run();
  EXPECT_TRUE(was_irq);
}

TEST(Cpu, CancelledTimerDoesNotFire) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool fired = false;
  auto id = cpu.set_timer(sim::usec(50), [&] { fired = true; });
  cpu.cancel_timer(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Cpu, CurrentCpuTracksExecutionContext) {
  sim::Engine e;
  Cpu a(e, "a"), b(e, "b");
  Cpu* in_a = nullptr;
  Cpu* in_b = nullptr;
  a.fork("t", kSystemPriority, [&] { in_a = Cpu::current(); });
  b.fork("t", kSystemPriority, [&] { in_b = Cpu::current(); });
  e.run();
  EXPECT_EQ(in_a, &a);
  EXPECT_EQ(in_b, &b);
  EXPECT_EQ(Cpu::current(), nullptr);
}

TEST(Cpu, TwoCpusProgressIndependently) {
  sim::Engine e;
  Cpu a(e, "a"), b(e, "b");
  sim::SimTime a_done = -1, b_done = -1;
  a.fork("t", kSystemPriority, [&] {
    a.charge(sim::usec(100));
    a_done = e.now();
  });
  b.fork("t", kSystemPriority, [&] {
    b.charge(sim::usec(100));
    b_done = e.now();
  });
  e.run();
  // Parallel hardware: both finish at the same simulated time.
  EXPECT_EQ(a_done, b_done);
}

TEST(Cpu, CrossCpuWake) {
  sim::Engine e;
  Cpu a(e, "a"), b(e, "b");
  bool woke = false;
  Thread* sleeper = a.fork("sleeper", kSystemPriority, [&] {
    a.block();
    woke = true;
  });
  b.fork("waker", kSystemPriority, [&] {
    b.charge(sim::usec(10));
    a.wake(sleeper);
  });
  e.run();
  EXPECT_TRUE(woke);
}

}  // namespace
}  // namespace nectar::core
