#include "scenario/faults.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "net/system.hpp"
#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

/// Two CABs on one HUB with a paced datagram stream 0 -> 1. Datagrams have
/// no retransmission, so every frame a fault eats is a message that never
/// arrives — loss is directly observable.
struct Fixture {
  net::NectarSystem sys{2};
  core::Mailbox& sink;
  int delivered = 0;

  explicit Fixture(int messages, sim::SimTime gap = sim::msec(1))
      : sink(sys.runtime(1).create_mailbox("sink")) {
    sys.runtime(1).fork_system("count", [this] {
      for (;;) {
        core::Message m = sink.begin_get();
        ++delivered;
        sink.end_get(m);
      }
    });
    sys.runtime(0).fork_system("send", [this, messages, gap] {
      core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
      for (int i = 0; i < messages; ++i) {
        sys.stack(0).datagram.send(sink.address(), scratch.begin_put(64));
        sys.runtime(0).cpu().sleep_for(gap);
      }
    });
  }
};

TEST(FaultSchedulerTest, RejectsBadTargets) {
  net::NectarSystem sys(2);
  FaultScheduler fs(sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::LinkDown;
  f.target = "node9.link";
  EXPECT_THROW(fs.schedule(f), std::invalid_argument);
  f.target = "node0.flux";
  EXPECT_THROW(fs.schedule(f), std::invalid_argument);
  f.target = "nowhere";
  EXPECT_THROW(fs.schedule(f), std::invalid_argument);
  f.kind = FaultKind::HubBlackout;
  f.target = "hub0.port99";
  EXPECT_THROW(fs.schedule(f), std::invalid_argument);
  f.kind = FaultKind::VmeStall;
  f.target = "node0.vme";  // this system has no VME buses
  f.duration = sim::msec(1);
  EXPECT_THROW(fs.schedule(f), std::invalid_argument);
  f.kind = FaultKind::LinkDrop;
  f.target = "node0.link";
  f.rate = 1.5;
  EXPECT_THROW(fs.schedule(f), std::invalid_argument);
  EXPECT_EQ(fs.faults_injected(), 0u);
}

// [capture] element and [fault] target share one element grammar: an index
// is decimal digits only and below the element count, so neither section
// reads a prefix of a malformed name or wraps an oversized index.
TEST(FaultSchedulerTest, CaptureAndFaultRejectTheSameElements) {
  auto star4 = [] {
    ScenarioSpec spec;
    spec.topology.nodes = 4;
    return spec;
  };
  const std::string pcap = ::testing::TempDir() + "element-grammar.pcap";
  auto capture = [&star4, &pcap](const std::string& element) {
    ScenarioSpec spec = star4();
    spec.captures.push_back({element, pcap});
    Scenario sc(std::move(spec));
  };
  auto fault = [&star4](const std::string& element) {
    ScenarioSpec spec = star4();
    FaultSpec& f = spec.faults.emplace_back();
    f.kind = FaultKind::LinkDrop;
    f.target = element;
    f.at = sim::msec(1);
    f.duration = sim::msec(1);
    f.rate = 0.5;
    Scenario sc(std::move(spec));
  };
  for (const char* bad : {"node1x.link", "node+1.link", "node 1.link", "node-0.link",
                          "node4294967296.link", "node4.link", "node.link", "node1.lnk",
                          "nodeA.link", "hub0.port3"}) {
    EXPECT_THROW(capture(bad), std::invalid_argument) << "[capture] element = " << bad;
    EXPECT_THROW(fault(bad), std::invalid_argument) << "[fault] target = " << bad;
  }
  // An empty [capture] element fails its key's row (a required value) before
  // the Scenario parses it, as in an INI file.
  EXPECT_THROW(capture(""), std::runtime_error);
  EXPECT_THROW(fault(""), std::invalid_argument);
  EXPECT_NO_THROW(capture("node3.link"));
  EXPECT_NO_THROW(fault("node3.link"));
  std::remove(pcap.c_str());
}

TEST(FaultSchedulerTest, DropBurstEatsExactlyCountFrames) {
  Fixture fx(20);
  FaultScheduler fs(fx.sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::LinkDropBurst;
  f.target = "node0.link";
  f.at = sim::msec(5);  // mid-stream
  f.count = 3;
  fs.schedule(f);
  fx.sys.engine().run_until(sim::msec(100));
  fs.finalize();
  EXPECT_EQ(fx.delivered, 17);
  EXPECT_EQ(fx.sys.net().cab(0).out_link().frames_dropped_faulted(), 3u);
  EXPECT_EQ(fs.records().at(0).attributed_drops, 3u);
  EXPECT_EQ(fs.total_attributed_drops(), 3u);
}

TEST(FaultSchedulerTest, LinkDownWindowThenRecovery) {
  Fixture fx(50);
  FaultScheduler fs(fx.sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::LinkDown;
  f.target = "node0.link";
  f.at = sim::msec(10);
  f.duration = sim::msec(10);
  fs.schedule(f);
  fx.sys.engine().run_until(sim::msec(200));
  fs.finalize();
  // ~10 of the 50 messages fall in the window; the stream recovers after.
  EXPECT_LT(fx.delivered, 50);
  EXPECT_GE(fx.delivered, 35);
  EXPECT_FALSE(fx.sys.net().cab(0).out_link().is_down());
  const FaultRecord& r = fs.records().at(0);
  EXPECT_EQ(r.cleared_at, r.applied_at + sim::msec(10));
  EXPECT_EQ(r.attributed_drops,
            fx.sys.net().cab(0).out_link().frames_dropped_faulted());
  EXPECT_GT(r.attributed_drops, 0u);
}

TEST(FaultSchedulerTest, LinkCorruptLossesAreCounted) {
  // A corrupted frame crosses the link and dies at the receiver's CRC check;
  // the fault's drops and the network's drops must count it all the same.
  Fixture fx(50);
  FaultScheduler fs(fx.sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::LinkCorrupt;
  f.target = "node0.link";
  f.at = sim::msec(10);
  f.duration = sim::msec(20);
  f.rate = 0.5;
  fs.schedule(f);
  fx.sys.engine().run_until(sim::msec(200));
  fs.finalize();
  const std::uint64_t corrupted = fx.sys.net().cab(0).out_link().frames_corrupted();
  EXPECT_GT(corrupted, 0u);
  EXPECT_EQ(fx.sys.net().datalink(1).dropped_crc(), corrupted);
  EXPECT_EQ(fx.delivered + static_cast<int>(corrupted), 50);
  EXPECT_EQ(fs.records().at(0).attributed_drops, corrupted);
  EXPECT_EQ(fs.network_drops(), corrupted);
}

TEST(FaultSchedulerTest, HubBlackoutDiscardsAtTheSwitch) {
  Fixture fx(50);
  FaultScheduler fs(fx.sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::HubBlackout;
  f.target = "hub0.port1";  // the port feeding node 1's inbound fiber
  f.at = sim::msec(10);
  f.duration = sim::msec(10);
  fs.schedule(f);
  fx.sys.engine().run_until(sim::msec(200));
  fs.finalize();
  EXPECT_LT(fx.delivered, 50);
  EXPECT_GT(fx.sys.net().hub(0).blackout_drops(), 0u);
  EXPECT_FALSE(fx.sys.net().hub(0).port_blackout(1));
  EXPECT_EQ(fs.records().at(0).attributed_drops, fx.sys.net().hub(0).blackout_drops());
}

TEST(FaultSchedulerTest, OverlappingBlackoutsCountOnlyTheirOwnPort) {
  // Three CABs on one HUB; node 0 alternates paced datagrams to nodes 1
  // and 2, and both of their HUB ports black out over overlapping windows.
  net::NectarSystem sys(3);
  std::array<core::Mailbox*, 3> sinks{};
  for (int n : {1, 2}) {
    core::Mailbox& sink = sys.runtime(n).create_mailbox("sink");
    sinks[static_cast<std::size_t>(n)] = &sink;
    sys.runtime(n).fork_system("count", [&sink] {
      for (;;) {
        core::Message m = sink.begin_get();
        sink.end_get(m);
      }
    });
  }
  sys.runtime(0).fork_system("send", [&sys, sinks] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    for (std::size_t i = 0; i < 100; ++i) {
      sys.stack(0).datagram.send(sinks[1 + i % 2]->address(), scratch.begin_put(64));
      sys.runtime(0).cpu().sleep_for(sim::msec(1));
    }
  });
  FaultScheduler fs(sys.net(), 1);
  for (int n : {1, 2}) {
    FaultSpec f;
    f.kind = FaultKind::HubBlackout;
    f.target = "hub0.port" + std::to_string(sys.net().cab_port(n));
    f.at = sim::msec(10 * n);
    f.duration = sim::msec(30);
    fs.schedule(f);
  }
  sys.engine().run_until(sim::msec(200));
  fs.finalize();
  const hw::Hub& hub = sys.net().hub(0);
  for (int n : {1, 2}) {
    std::uint64_t own = hub.output_blackout_drops(sys.net().cab_port(n));
    EXPECT_GT(own, 0u) << "node " << n;
    EXPECT_EQ(fs.records().at(static_cast<std::size_t>(n - 1)).attributed_drops, own)
        << "node " << n;
  }
  EXPECT_EQ(fs.total_attributed_drops(), hub.blackout_drops());
  EXPECT_LE(fs.total_attributed_drops(), fs.network_drops());
}

TEST(FaultSchedulerTest, CabCrashIsolatesBothDirectionsThenReboots) {
  Fixture fx(50);
  FaultScheduler fs(fx.sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::CabCrash;
  f.target = "node1.cab";
  f.at = sim::msec(10);
  f.duration = sim::msec(10);
  fs.schedule(f);
  fx.sys.engine().run_until(sim::msec(200));
  fs.finalize();
  EXPECT_LT(fx.delivered, 50);   // traffic toward the dead board vanished
  EXPECT_GE(fx.delivered, 35);   // and resumed after the reboot
  EXPECT_FALSE(fx.sys.net().cab(1).out_link().is_down());
  EXPECT_FALSE(fx.sys.net().hub(0).port_blackout(1));
}

TEST(FaultSchedulerTest, VmeStallHoldsTheBus) {
  net::NectarSystem sys(2, /*with_vme=*/true);
  FaultScheduler fs(sys.net(), 1);
  FaultSpec f;
  f.kind = FaultKind::VmeStall;
  f.target = "node0.vme";
  f.at = sim::msec(1);
  f.duration = sim::msec(5);
  fs.schedule(f);
  sys.engine().run_until(sim::msec(20));
  fs.finalize();
  EXPECT_EQ(sys.net().vme(0)->stalls(), 1u);
  EXPECT_EQ(sys.net().vme(0)->stall_time(), sim::msec(5));
  EXPECT_EQ(fs.records().at(0).cleared_at, fs.records().at(0).applied_at + sim::msec(5));
}

TEST(FaultSchedulerTest, JitterIsSeededByMasterSeed) {
  auto applied_at = [](std::uint64_t master) {
    net::NectarSystem sys(2);
    FaultScheduler fs(sys.net(), master);
    FaultSpec f;
    f.kind = FaultKind::LinkDown;
    f.target = "node0.link";
    f.at = sim::msec(10);
    f.duration = sim::msec(1);
    f.jitter = sim::msec(50);
    std::size_t idx = fs.schedule(f);
    return fs.records().at(idx).applied_at;
  };
  sim::SimTime a1 = applied_at(7);
  sim::SimTime a2 = applied_at(7);
  sim::SimTime b = applied_at(8);
  EXPECT_EQ(a1, a2) << "same master seed must reproduce the fault time";
  EXPECT_NE(a1, b) << "different master seeds must decorrelate fault times";
  EXPECT_GE(a1, sim::msec(10));
  EXPECT_LT(a1, sim::msec(60));
}

}  // namespace
}  // namespace nectar::scenario
