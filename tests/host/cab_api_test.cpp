#include "nectarine/cab_api.hpp"

#include <gtest/gtest.h>

#include "host/node.hpp"

namespace nectar::nectarine {
namespace {

TEST(CabNectarineTest, SameInterfaceMailboxRoundTrip) {
  net::NectarSystem sys(2);
  CabNectarine nin(sys.runtime(0), sys.stack(0).datagram, sys.stack(0).rmp,
                   sys.stack(0).reqresp);
  std::string got;
  sys.runtime(0).fork_app("t", [&] {
    auto mb = nin.create_mailbox("ipc");
    core::Message m = nin.begin_put(mb, 5);
    const char* text = "hello";
    nin.write_message(m, std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(text), 5));
    nin.end_put(mb, m);
    core::Message g = nin.begin_get(mb);
    std::vector<std::uint8_t> buf(g.len);
    nin.read_message(g, buf);
    got.assign(buf.begin(), buf.end());
    nin.end_get(mb, g);
  });
  sys.engine().run();
  EXPECT_EQ(got, "hello");
}

TEST(CabNectarineTest, ReliableSendAcrossNodes) {
  net::NectarSystem sys(2);
  CabNectarine nin0(sys.runtime(0), sys.stack(0).datagram, sys.stack(0).rmp,
                    sys.stack(0).reqresp);
  CabNectarine nin1(sys.runtime(1), sys.stack(1).datagram, sys.stack(1).rmp,
                    sys.stack(1).reqresp);
  core::Mailbox& inbox = sys.runtime(1).create_mailbox("in");
  std::string got;
  sys.runtime(1).fork_app("rx", [&] {
    auto mb = nin1.attach(inbox);
    core::Message m = nin1.begin_get(mb);
    std::vector<std::uint8_t> buf(m.len);
    nin1.read_message(m, buf);
    got.assign(buf.begin(), buf.end());
    nin1.end_get(mb, m);
  });
  sys.runtime(0).fork_app("tx", [&] {
    auto s = nin0.create_mailbox("s");
    core::Message m = nin0.begin_put(s, 8);
    const char* text = "reliable";
    nin0.write_message(m, std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(text), 8));
    nin0.send_reliable(inbox.address(), m);
  });
  sys.engine().run();
  EXPECT_EQ(got, "reliable");
}

TEST(CabNectarineTest, DatagramSendAcrossNodes) {
  net::NectarSystem sys(2);
  CabNectarine nin0(sys.runtime(0), sys.stack(0).datagram, sys.stack(0).rmp,
                    sys.stack(0).reqresp);
  CabNectarine nin1(sys.runtime(1), sys.stack(1).datagram, sys.stack(1).rmp,
                    sys.stack(1).reqresp);
  core::Mailbox& inbox = sys.runtime(1).create_mailbox("in");
  std::string got;
  sys.runtime(1).fork_app("rx", [&] {
    auto mb = nin1.attach(inbox);
    core::Message m = nin1.begin_get(mb);
    std::vector<std::uint8_t> buf(m.len);
    nin1.read_message(m, buf);
    got.assign(buf.begin(), buf.end());
    nin1.end_get(mb, m);
  });
  sys.runtime(0).fork_app("tx", [&] {
    auto s = nin0.create_mailbox("s");
    core::Message m = nin0.begin_put(s, 8);
    const char* text = "datagram";
    nin0.write_message(m, std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(text), 8));
    nin0.send_datagram(inbox.address(), m);
  });
  sys.engine().run();
  EXPECT_EQ(got, "datagram");
  EXPECT_EQ(sys.stack(0).datagram.datagrams_sent(), 1u);
  EXPECT_EQ(sys.stack(1).datagram.datagrams_delivered(), 1u);
}

TEST(CabNectarineTest, RemoteTaskStartMirrorsHostApi) {
  // The same start_remote_task call shape as HostNectarine — here issued
  // from a CAB task instead of a host process.
  net::NectarSystem sys(2, /*with_vme=*/true);
  host::HostNode h0(sys, 0), h1(sys, 1);
  CabNectarine nin(sys.runtime(0), sys.stack(0).datagram, sys.stack(0).rmp,
                   sys.stack(0).reqresp);
  std::uint32_t ran_with = 0;
  h1.services.register_task("job", [&](std::uint32_t a) { ran_with = a; });
  bool ok = false;
  sys.runtime(0).fork_app("spawner", [&] {
    ok = nin.start_remote_task(h1.services.service_address(), "job", 777);
  });
  sys.net().run_until(sim::sec(2));
  EXPECT_TRUE(ok);
  EXPECT_EQ(ran_with, 777u);
}

TEST(CabNectarineTest, UnknownTaskReturnsFalse) {
  net::NectarSystem sys(2, /*with_vme=*/true);
  host::HostNode h0(sys, 0), h1(sys, 1);
  CabNectarine nin(sys.runtime(0), sys.stack(0).datagram, sys.stack(0).rmp,
                   sys.stack(0).reqresp);
  bool ok = true;
  sys.runtime(0).fork_app("spawner", [&] {
    ok = nin.start_remote_task(h1.services.service_address(), "missing", 0);
  });
  sys.net().run_until(sim::sec(2));
  EXPECT_FALSE(ok);
}

TEST(CabNectarineTest, OversizeWriteThrows) {
  net::NectarSystem sys(1);
  CabNectarine nin(sys.runtime(0), sys.stack(0).datagram, sys.stack(0).rmp,
                   sys.stack(0).reqresp);
  bool threw = false;
  sys.runtime(0).fork_app("t", [&] {
    auto mb = nin.create_mailbox("m");
    core::Message m = nin.begin_put(mb, 4);
    std::vector<std::uint8_t> big(10);
    try {
      nin.write_message(m, big);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    nin.end_put(mb, m);
    nin.end_get(mb, nin.begin_get(mb));
  });
  sys.engine().run();
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace nectar::nectarine
