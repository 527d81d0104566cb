#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "net/system.hpp"
#include "obs/audit.hpp"

namespace nectar::sim {
struct EngineTestAccess {
  /// Take a slot that is neither free nor holding a pending event.
  static void leak_slot(Engine& e) { e.slots_.emplace_back(); }
};
}  // namespace nectar::sim

namespace nectar::net {
namespace {

TEST(Topology, EventPoolAuditHoldsWithTargetsPendingAndCatchesALeak) {
  Network net;
  int hub = net.add_hub();
  int a = net.add_cab(hub, 0);
  net.add_cab(hub, 1);
  net.install_routes();
  obs::Auditor auditor;
  net.register_audit(auditor);
  core::Cpu& cpu = net.runtime(a).cpu();
  cpu.fork("t", core::kAppPriority, [&] { cpu.charge(sim::msec(1)); });
  sim::Engine& e = net.engine();
  e.run_until(sim::usec(100));
  ASSERT_GT(e.pending_targets(), 0u);  // the charge's slice end, slot-free
  auditor.check(e.now());
  EXPECT_TRUE(auditor.ok());

  sim::EngineTestAccess::leak_slot(e);
  auditor.check(e.now());
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations().front().invariant, "engine.event_pool_balance");
  EXPECT_EQ(auditor.violations().front().component, "shard0");
}

TEST(Topology, SingleHubRoutesAreOneHop) {
  Network net;
  int hub = net.add_hub();
  int a = net.add_cab(hub, 3);
  int b = net.add_cab(hub, 9);
  net.install_routes();
  EXPECT_EQ(net.route(a, b), (std::vector<std::uint8_t>{9}));
  EXPECT_EQ(net.route(b, a), (std::vector<std::uint8_t>{3}));
  EXPECT_EQ(net.route(a, a), (std::vector<std::uint8_t>{3}));  // self via own port
}

TEST(Topology, TwoHubRoutesTraverseTrunk) {
  Network net;
  int h1 = net.add_hub();
  int h2 = net.add_hub();
  net.link_hubs(h1, 15, h2, 14);
  int a = net.add_cab(h1, 0);
  int b = net.add_cab(h2, 1);
  net.install_routes();
  EXPECT_EQ(net.route(a, b), (std::vector<std::uint8_t>{15, 1}));
  EXPECT_EQ(net.route(b, a), (std::vector<std::uint8_t>{14, 0}));
}

TEST(Topology, ThreeHubLineUsesShortestPath) {
  Network net;
  int h[3] = {net.add_hub(), net.add_hub(), net.add_hub()};
  net.link_hubs(h[0], 15, h[1], 15);
  net.link_hubs(h[1], 14, h[2], 15);
  int a = net.add_cab(h[0], 0);
  int c = net.add_cab(h[2], 2);
  net.install_routes();
  EXPECT_EQ(net.route(a, c), (std::vector<std::uint8_t>{15, 14, 2}));
}

TEST(Topology, MeshPrefersFewerHops) {
  // Triangle: direct trunk h0-h2 must beat the detour through h1.
  Network net;
  int h0 = net.add_hub(), h1 = net.add_hub(), h2 = net.add_hub();
  net.link_hubs(h0, 15, h1, 15);
  net.link_hubs(h1, 14, h2, 14);
  net.link_hubs(h0, 13, h2, 13);
  int a = net.add_cab(h0, 0);
  int b = net.add_cab(h2, 1);
  net.install_routes();
  EXPECT_EQ(net.route(a, b).size(), 2u);  // trunk + final port
  EXPECT_EQ(net.route(a, b)[0], 13);
}

TEST(Topology, DisconnectedHubsThrow) {
  Network net;
  int h1 = net.add_hub();
  int h2 = net.add_hub();
  int a = net.add_cab(h1, 0);
  int b = net.add_cab(h2, 0);
  (void)a;
  (void)b;
  EXPECT_THROW(net.install_routes(), std::logic_error);
}

TEST(Topology, PaperScaleDeployment) {
  // "Currently the prototype system consists of 2 HUBs and 26 hosts in
  // full-time use" (§6). 13 CABs per HUB + one trunk pair.
  Network net;
  int h1 = net.add_hub();
  int h2 = net.add_hub();
  net.link_hubs(h1, 15, h2, 15);
  std::vector<int> nodes;
  for (int i = 0; i < 13; ++i) nodes.push_back(net.add_cab(h1, i));
  for (int i = 0; i < 13; ++i) nodes.push_back(net.add_cab(h2, i));
  net.install_routes();
  EXPECT_EQ(net.cab_count(), 26);
  // Same-hub pairs: one route byte; cross-hub: two.
  EXPECT_EQ(net.route(0, 12).size(), 1u);
  EXPECT_EQ(net.route(0, 13).size(), 2u);
  EXPECT_EQ(net.route(25, 3).size(), 2u);
}

TEST(Topology, CabsOnOneHubShareEachRoute) {
  // Each route is stored once per (source HUB, destination): every CAB on a
  // HUB holds the same RouteRef, and Network::route reads it.
  Network net;
  int h1 = net.add_hub();
  int h2 = net.add_hub();
  net.link_hubs(h1, 15, h2, 15);
  for (int i = 0; i < 3; ++i) net.add_cab(h1, i);
  for (int i = 0; i < 3; ++i) net.add_cab(h2, i);
  net.install_routes();
  for (int d = 0; d < 6; ++d) {
    EXPECT_EQ(&net.route(1, d), &net.route(0, d)) << "dst " << d;
    EXPECT_EQ(&net.route(2, d), &net.route(0, d)) << "dst " << d;
    EXPECT_EQ(&net.route(4, d), &net.route(3, d)) << "dst " << d;
    EXPECT_EQ(&net.datalink(4).route_ref(d).bytes(), &net.route(3, d)) << "dst " << d;
  }
}

TEST(NectarSystemTest, RejectsMoreThanSixteenCabs) {
  EXPECT_THROW(NectarSystem sys(17), std::invalid_argument);
  EXPECT_THROW(NectarSystem sys(0), std::invalid_argument);
}

TEST(NectarSystemTest, EveryPairCanExchangeDatagrams) {
  NectarSystem sys(4);
  int delivered = 0;
  std::vector<core::Mailbox*> inboxes;
  for (int i = 0; i < 4; ++i) {
    inboxes.push_back(&sys.runtime(i).create_mailbox("in"));
  }
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      sys.runtime(src).fork_system("tx", [&sys, src, dst, &inboxes] {
        core::Mailbox& s = sys.runtime(src).create_mailbox("s");
        core::Message m = s.begin_put(16);
        sys.stack(src).datagram.send(inboxes[static_cast<std::size_t>(dst)]->address(), m);
      });
      sys.runtime(dst).fork_system("rx", [&sys, dst, &inboxes, &delivered] {
        core::Message m = inboxes[static_cast<std::size_t>(dst)]->begin_get();
        inboxes[static_cast<std::size_t>(dst)]->end_get(m);
        ++delivered;
      });
    }
  }
  sys.engine().run();
  EXPECT_EQ(delivered, 12);
}

TEST(Topology, HubContentionSerializesConcurrentSendersToOneTarget) {
  // Three senders blast one receiver: HUB output-port contention must
  // serialize frames, not lose them.
  NectarSystem sys(4);
  core::Mailbox& sink = sys.runtime(3).create_mailbox("sink");
  constexpr int kEach = 10;
  int got = 0;
  sys.runtime(3).fork_system("rx", [&] {
    for (int i = 0; i < 3 * kEach; ++i) {
      core::Message m = sink.begin_get();
      sink.end_get(m);
      ++got;
    }
  });
  for (int src = 0; src < 3; ++src) {
    sys.runtime(src).fork_system("tx", [&sys, src, &sink] {
      core::Mailbox& s = sys.runtime(src).create_mailbox("s");
      for (int i = 0; i < kEach; ++i) {
        core::Message m = s.begin_put(2048);
        sys.stack(src).rmp.send(sink.address(), m);
      }
      sys.stack(src).rmp.wait_acked(3);
    });
  }
  sys.net().run_until(sim::sec(5));
  EXPECT_EQ(got, 3 * kEach);
  EXPECT_GT(sys.net().hub(0).output_queue_highwater(3), 0u);
}

}  // namespace
}  // namespace nectar::net
