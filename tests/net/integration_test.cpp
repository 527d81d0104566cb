// Whole-system integration: concurrent mixed traffic across a multi-node,
// multi-host Nectar — every layer of the repo exercised in one scenario.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "host/node.hpp"

namespace nectar::net {
namespace {

std::string read_bytes(core::CabRuntime& rt, const core::Message& m) {
  std::vector<std::uint8_t> buf(m.len);
  rt.board().memory().read(m.data, buf);
  return {buf.begin(), buf.end()};
}

core::Message stage(core::Mailbox& mb, core::CabRuntime& rt, const std::string& s) {
  core::Message m = mb.begin_put(static_cast<std::uint32_t>(s.size()));
  rt.board().memory().write(m.data, std::span<const std::uint8_t>(
                                        reinterpret_cast<const std::uint8_t*>(s.data()),
                                        s.size()));
  return m;
}

TEST(Integration, MixedProtocolTrafficOnFourNodes) {
  // Node pairs run different protocols simultaneously over the same HUB:
  // 0->1 TCP stream, 2->3 RMP stream, 1->2 datagram pings, 3->0 RPC calls.
  NectarSystem sys(4);

  std::string tcp_data(20000, 't');
  std::string tcp_got;
  bool rpc_done = false, dg_done = false;
  std::string rmp_got;
  std::string rmp_data(10000, 'r');

  // TCP 0 -> 1.
  sys.runtime(1).fork_app("tcp-server", [&] {
    proto::TcpConnection* c = sys.stack(1).tcp.listen(80);
    sys.stack(1).tcp.wait_established(c);
    while (tcp_got.size() < tcp_data.size()) {
      core::Message m = c->receive_mailbox().begin_get();
      tcp_got += read_bytes(sys.runtime(1), m);
      c->receive_mailbox().end_get(m);
    }
  });
  sys.runtime(0).fork_app("tcp-client", [&] {
    sys.runtime(0).cpu().sleep_for(sim::usec(50));
    proto::TcpConnection* c = sys.stack(0).tcp.connect(5000, proto::ip_of_node(1), 80);
    ASSERT_TRUE(sys.stack(0).tcp.wait_established(c));
    core::Mailbox& s = sys.runtime(0).create_mailbox("tcp-tx");
    sys.stack(0).tcp.send(c, stage(s, sys.runtime(0), tcp_data));
  });

  // RMP 2 -> 3 (with some loss on the way).
  sys.net().cab(2).out_link().set_drop_rate(0.1, 77);
  core::Mailbox& rmp_sink = sys.runtime(3).create_mailbox("rmp-sink");
  sys.runtime(3).fork_system("rmp-rx", [&] {
    while (rmp_got.size() < rmp_data.size()) {
      core::Message m = rmp_sink.begin_get();
      rmp_got += read_bytes(sys.runtime(3), m);
      rmp_sink.end_get(m);
    }
  });
  sys.runtime(2).fork_system("rmp-tx", [&] {
    core::Mailbox& s = sys.runtime(2).create_mailbox("rmp-tx");
    for (std::size_t off = 0; off < rmp_data.size(); off += 2000) {
      sys.stack(2).rmp.send(rmp_sink.address(),
                            stage(s, sys.runtime(2), rmp_data.substr(off, 2000)));
    }
  });

  // Datagram ping-pong 1 <-> 2.
  core::Mailbox& dg_echo = sys.runtime(2).create_mailbox("dg-echo");
  core::Mailbox& dg_reply = sys.runtime(1).create_mailbox("dg-reply");
  sys.runtime(2).fork_system("dg-echo", [&] {
    for (int i = 0; i < 5; ++i) {
      core::Message m = dg_echo.begin_get();
      auto info = sys.stack(2).datagram.last_sender(dg_echo);
      sys.stack(2).datagram.send({info.src_node, info.src_mailbox}, m);
    }
  });
  sys.runtime(1).fork_system("dg-client", [&] {
    core::Mailbox& s = sys.runtime(1).create_mailbox("dg-tx");
    for (int i = 0; i < 5; ++i) {
      sys.stack(1).datagram.send(dg_echo.address(), stage(s, sys.runtime(1), "ping"), true,
                                 dg_reply.address().index);
      core::Message r = dg_reply.begin_get();
      dg_reply.end_get(r);
    }
    dg_done = true;
  });

  // RPC 3 -> 0.
  core::Mailbox& svc = sys.runtime(0).create_mailbox("svc");
  sys.runtime(0).fork_system("rpc-server", [&] {
    for (int i = 0; i < 4; ++i) {
      core::Message req = svc.begin_get();
      auto info = nproto::ReqResp::parse_request(sys.runtime(0), req);
      sys.stack(0).reqresp.respond(info, nproto::ReqResp::payload_of(req));
    }
  });
  sys.runtime(3).fork_app("rpc-client", [&] {
    core::Mailbox& s = sys.runtime(3).create_mailbox("rpc-tx");
    for (int i = 0; i < 4; ++i) {
      core::Message rsp =
          sys.stack(3).reqresp.call(svc.address(), stage(s, sys.runtime(3), "call"));
      s.end_get(rsp);
    }
    rpc_done = true;
  });

  sys.net().run_until(sim::sec(30));
  EXPECT_EQ(tcp_got, tcp_data);
  EXPECT_EQ(rmp_got, rmp_data);
  EXPECT_TRUE(dg_done);
  EXPECT_TRUE(rpc_done);
}

TEST(Integration, TwoHostPairsShareTheFabric) {
  // Four hosts on four CABs: 0->1 and 2->3 stream through the same HUB.
  NectarSystem sys(4, /*with_vme=*/true);
  host::HostNode h0(sys, 0), h1(sys, 1), h2(sys, 2), h3(sys, 3);

  // The receive ports outlive stream(): their processes run in run_until.
  std::vector<std::unique_ptr<host::HostNectarPort>> rx_ports;
  auto stream = [&sys, &rx_ports](host::HostNode& src, host::HostNode& dst, int dst_node,
                                  const char* name, int n, std::size_t size, sim::SimTime* done) {
    rx_ports.push_back(std::make_unique<host::HostNectarPort>(dst.nin, dst.sockets, name));
    host::HostNectarPort* dstp = rx_ports.back().get();
    core::MailboxAddr addr = dstp->address();
    dst.host.run_process("rx", [&sys, dstp, n, size, done] {
      std::vector<std::uint8_t> buf(size);
      for (int i = 0; i < n; ++i) dstp->recv(buf);
      *done = sys.engine().now();
    });
    src.host.run_process("tx", [&sys, &src, addr, n, size, dst_node] {
      host::HostNectarPort port(src.nin, src.sockets, "tx");
      std::vector<std::uint8_t> data(size, 0x11);
      for (int i = 0; i < n; ++i) {
        while (sys.stack(port.address().node).rmp.queued_to(dst_node) >= 8) {
          src.host.cpu().sleep_for(sim::usec(200));
        }
        port.send_reliable(addr, data);
      }
    });
  };

  sim::SimTime done01 = 0, done23 = 0;
  stream(h0, h1, 1, "s01", 30, 4096, &done01);
  stream(h2, h3, 3, "s23", 30, 4096, &done23);
  sys.net().run_until(sim::sec(30));
  EXPECT_GT(done01, 0);
  EXPECT_GT(done23, 0);
  // The fabric is non-blocking (crossbar): two disjoint pairs see similar
  // completion times, not 2x serialization.
  double ratio = static_cast<double>(std::max(done01, done23)) /
                 static_cast<double>(std::min(done01, done23));
  EXPECT_LT(ratio, 1.5);
}

TEST(Integration, ProtectionDomainsIsolateApplicationTasks) {
  // §3: "The runtime system can use the multiple protection domains ... to
  // provide firewalls around application tasks if desired."
  NectarSystem sys(1);
  core::CabRuntime& rt = sys.runtime(0);
  hw::ProtectionUnit& prot = rt.board().protection();

  // Give domain 1 read-only access to a page another task owns.
  core::Mailbox& mb = rt.create_mailbox("guarded");
  bool checked = false;
  sys.runtime(0).fork_app("task", [&] {
    core::Message m = mb.begin_put(64);
    hw::CabAddr page_addr = m.data;
    prot.set_range(1, page_addr, 64, hw::ProtectionUnit::Access::Read);
    prot.set_current_domain(1);
    EXPECT_TRUE(prot.check(page_addr, 64, false));    // reads pass
    EXPECT_FALSE(prot.check(page_addr, 64, true));    // writes fault
    prot.set_current_domain(0);                       // reload the register
    EXPECT_TRUE(prot.check(page_addr, 64, true));
    mb.end_put(m);
    checked = true;
  });
  sys.engine().run();
  EXPECT_TRUE(checked);
  EXPECT_GE(prot.faults(), 1u);
}

}  // namespace
}  // namespace nectar::net
