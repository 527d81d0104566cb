#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/system.hpp"

namespace nectar::core {
namespace {

struct Fixture {
  sim::Engine engine;
  hw::CabBoard board{engine, "cab0", 0};
  CabRuntime rt{board};
};

TEST(Runtime, MailboxRegistryAssignsSequentialIndices) {
  Fixture f;
  Mailbox& a = f.rt.create_mailbox("a");
  Mailbox& b = f.rt.create_mailbox("b");
  EXPECT_EQ(a.address().node, 0);
  EXPECT_EQ(b.address().index, a.address().index + 1);
  EXPECT_EQ(f.rt.find_mailbox(a.address().index), &a);
  EXPECT_EQ(f.rt.find_mailbox(b.address().index), &b);
  EXPECT_EQ(f.rt.find_mailbox(9999), nullptr);
  EXPECT_EQ(f.rt.mailbox_count(), 2u);
}

TEST(Runtime, SystemThreadsOutrankApplicationThreads) {
  Fixture f;
  std::vector<std::string> order;
  f.rt.fork_app("app", [&] { order.push_back("app"); });
  f.rt.fork_system("sys", [&] { order.push_back("sys"); });
  f.engine.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "sys");
}

TEST(Runtime, DoorbellDrivesSignalQueueAtInterruptLevel) {
  Fixture f;
  bool handled = false;
  bool was_irq = false;
  f.rt.signals().register_opcode(9, [&](SignalElement) {
    handled = true;
    was_irq = f.rt.cpu().in_interrupt();
  });
  f.rt.signals().post_to_cab({9, 0, 0});
  f.board.ring_doorbell();
  f.engine.run();
  EXPECT_TRUE(handled);
  EXPECT_TRUE(was_irq);
}

TEST(Runtime, PacketHandlerRunsInInterruptContext) {
  Fixture f;
  f.board.out_link().attach(&f.board.in_fifo());  // loopback
  bool handled = false;
  bool was_irq = false;
  f.rt.set_packet_handler([&] {
    handled = true;
    was_irq = f.rt.cpu().in_interrupt();
    // Drain so the frame does not leak.
    f.board.dma().start_recv(hw::DmaController::kDiscard, 0,
                             [](hw::FiberInFifo::ArrivedFrame, bool) {});
  });
  f.board.memory().write32(hw::kDataBase, 42);
  f.board.dma().start_send({}, {}, hw::kDataBase, 4, [] {}, 0);
  f.engine.run();
  EXPECT_TRUE(handled);
  EXPECT_TRUE(was_irq);
}

TEST(Runtime, TraceMarksFlowToSharedRecorder) {
  sim::Engine engine;
  obs::Tracer tracer(engine);
  tracer.set_enabled(true);
  hw::CabBoard board0(engine, "cab0", 0), board1(engine, "cab1", 1);
  CabRuntime rt0(board0, nullptr, &tracer), rt1(board1, nullptr, &tracer);
  rt0.fork_system("t", [&] {
    rt0.cpu().charge(sim::usec(5));
    rt0.trace_mark("checkpoint");
  });
  rt1.fork_system("t", [&] { rt1.trace_mark("other"); });
  engine.run();
  // Each mark is an instant on its own CAB's CPU track of the one tracer.
  const obs::Tracer::Event* e = tracer.find("checkpoint");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->type, obs::Tracer::EventType::Instant);
  EXPECT_EQ(e->track, tracer.track("node0", "cab.cpu"));
  EXPECT_GE(e->ts, sim::usec(5));
  ASSERT_NE(tracer.find("other"), nullptr);
  EXPECT_EQ(tracer.find("other")->track, tracer.track("node1", "cab.cpu"));
}

TEST(Runtime, TraceMarkWithoutRecorderIsSafe) {
  Fixture f;
  f.rt.fork_system("t", [&] { f.rt.trace_mark("nobody-listens"); });
  f.engine.run();
  SUCCEED();
}

TEST(Runtime, LogStopsAtItsCapAndCountsTheRest) {
  Fixture f;
  for (std::size_t i = 0; i < CabRuntime::kLogCap + 3; ++i) {
    f.rt.log("test.event", std::to_string(i));
  }
  ASSERT_EQ(f.rt.log_entries().size(), CabRuntime::kLogCap);
  EXPECT_EQ(f.rt.log_dropped(), 3u);
  // The oldest entries are kept: the log records the start of a storm.
  EXPECT_EQ(f.rt.log_entries().front().detail, "0");
  EXPECT_EQ(f.rt.log_entries().back().detail, std::to_string(CabRuntime::kLogCap - 1));
  EXPECT_EQ(f.rt.log_entries().back().node, 0);
}

TEST(Runtime, LogMarksTheTraceOnlyWhileTracing) {
  sim::Engine engine;
  obs::Tracer tracer(engine);
  hw::CabBoard board(engine, "cab0", 0);
  CabRuntime rt(board, nullptr, &tracer);
  rt.log("test.quiet", "tracer off");
  EXPECT_TRUE(tracer.events().empty());
  tracer.set_enabled(true);
  engine.run_until(sim::usec(7));
  rt.log("test.loud", "tracer on");
  ASSERT_EQ(tracer.events().size(), 1u);
  const obs::Tracer::Event& e = tracer.events()[0];
  EXPECT_EQ(e.type, obs::Tracer::EventType::Instant);
  EXPECT_EQ(e.name, "test.loud");
  EXPECT_EQ(e.track, tracer.track("node0", "cab.cpu"));
  EXPECT_EQ(e.ts, sim::usec(7));
  // Both entries are logged either way, stamped with the CAB's clock.
  ASSERT_EQ(rt.log_entries().size(), 2u);
  EXPECT_EQ(rt.log_entries()[0].t, 0);
  EXPECT_EQ(rt.log_entries()[1].t, sim::usec(7));
}

TEST(Runtime, NetworkMergesLogsInTimeThenNodeOrder) {
  net::Network net;
  int hub = net.add_hub();
  net.add_cab(hub, 0);
  net.add_cab(hub, 1);
  net.runtime(1).log("b", "node1 first");
  net.runtime(0).log("a", "node0 second");
  net.engine().run_until(sim::usec(5));
  net.runtime(1).log("c", "late x");
  net.runtime(0).log("c", "late y");
  net.runtime(0).log("c", "late z");
  std::vector<std::string> order;
  for (const LogEntry& e : net.events()) order.push_back(e.detail);
  // (t, node) order; one CAB's entries at one time keep insertion order.
  EXPECT_EQ(order, (std::vector<std::string>{"node0 second", "node1 first", "late y", "late z",
                                             "late x"}));
  EXPECT_EQ(net.events_dropped(), 0u);
}

TEST(Runtime, HeapLivesInDataRegion) {
  Fixture f;
  EXPECT_EQ(f.rt.heap().capacity(), hw::kDataSize);
  hw::CabAddr a = f.rt.heap().alloc(128);
  EXPECT_TRUE(hw::CabMemory::in_data_region(a, 128));
  f.rt.heap().free(a);
}

TEST(Runtime, ManyThreadsShareTheCpuFairly) {
  Fixture f;
  constexpr int kThreads = 8;
  std::vector<int> rounds(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    f.rt.fork_app("worker", [&f, &rounds, i] {
      for (int r = 0; r < 10; ++r) {
        f.rt.cpu().charge(sim::usec(10));
        rounds[static_cast<std::size_t>(i)] = r + 1;
        f.rt.cpu().yield();
      }
    });
  }
  f.engine.run();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(rounds[static_cast<std::size_t>(i)], 10);
}

TEST(Runtime, BusyTimeAccountsChargedWork) {
  Fixture f;
  f.rt.fork_system("t", [&] { f.rt.cpu().charge(sim::usec(123)); });
  f.engine.run();
  // Work + context switch; no more than a handful of switches.
  EXPECT_GE(f.rt.cpu().busy_time(), sim::usec(123));
  EXPECT_LE(f.rt.cpu().busy_time(), sim::usec(123) + 3 * sim::costs::kContextSwitch);
}

}  // namespace
}  // namespace nectar::core
