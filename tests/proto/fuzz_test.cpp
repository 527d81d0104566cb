// Adversarial-input robustness: a hostile node blasts malformed frames at a
// victim running the full stack. Nothing may crash, wedge a server thread,
// or leak a buffer — malformed input is dropped and accounted.

#include <gtest/gtest.h>

#include "coll/engine.hpp"
#include "net/system.hpp"
#include "session/manager.hpp"
#include "sim/random.hpp"

namespace nectar::proto {
namespace {

/// Heap bytes legitimately resident at idle (mailbox small-buffer caches).
std::size_t idle_floor(core::CabRuntime& rt) {
  return rt.mailbox_count() * core::Mailbox::kSmallBufSize + 256;
}

struct Fixture {
  net::NectarSystem sys{2};
  sim::Random rng{20260707};

  /// Send a raw datalink frame of `type` with the given protocol-header
  /// bytes and `payload_len` random payload bytes from node 0 to node 1.
  void blast(PacketType type, std::vector<std::uint8_t> header, std::size_t payload_len) {
    core::CabRuntime& rt = sys.runtime(0);
    hw::CabAddr buf = payload_len > 0 ? rt.heap().alloc(payload_len) : hw::kDataBase;
    if (payload_len > 0) {
      std::vector<std::uint8_t> junk(payload_len);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
      rt.board().memory().write(buf, junk);
    }
    sys.net().datalink(0).send(type, 1, std::move(header), buf, payload_len);
    // (the buffer is intentionally leaked on the *sender* — the victim's
    // accounting is what this test watches)
  }

  std::vector<std::uint8_t> random_bytes(std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(256));
    return v;
  }

  void run_attack(std::function<void()> attack) {
    sys.runtime(0).fork_system("attacker", std::move(attack));
    sys.net().run_until(sim::sec(2));
  }
};

TEST(Fuzz, UnknownPacketTypesAreDropped) {
  Fixture f;
  f.run_attack([&] {
    for (int i = 0; i < 20; ++i) {
      f.blast(static_cast<PacketType>(200 + i % 50), f.random_bytes(8), 64);
    }
  });
  EXPECT_EQ(f.sys.net().datalink(1).dropped_no_client(), 20u);
  EXPECT_LE(f.sys.runtime(1).heap().bytes_in_use(), idle_floor(f.sys.runtime(1)));
}

TEST(Fuzz, GarbageIpHeadersAreDropped) {
  Fixture f;
  f.run_attack([&] {
    for (int i = 0; i < 30; ++i) {
      // Random 20-byte "IP headers": essentially all fail the checksum or
      // the version/length sanity checks at start-of-data.
      f.blast(PacketType::Ip, f.random_bytes(IpHeader::kSize), 40);
    }
  });
  EXPECT_EQ(f.sys.stack(1).ip.dropped_bad_header(), 30u);
  EXPECT_EQ(f.sys.stack(1).ip.datagrams_delivered(), 0u);
  EXPECT_LE(f.sys.runtime(1).heap().bytes_in_use(), idle_floor(f.sys.runtime(1)));
}

TEST(Fuzz, TruncatedIpHeadersAreDropped) {
  Fixture f;
  f.run_attack([&] {
    for (std::size_t n = 0; n < IpHeader::kSize; n += 3) {
      f.blast(PacketType::Ip, f.random_bytes(n), 0);
    }
  });
  EXPECT_EQ(f.sys.stack(1).ip.datagrams_delivered(), 0u);
  EXPECT_LE(f.sys.runtime(1).heap().bytes_in_use(), idle_floor(f.sys.runtime(1)));
}

TEST(Fuzz, RandomNectarHeadersDoNotWedgeProtocols) {
  Fixture f;
  f.run_attack([&] {
    for (int i = 0; i < 25; ++i) {
      f.blast(PacketType::NectarDatagram, f.random_bytes(NectarHeader::kSize), 32);
      f.blast(PacketType::Rmp, f.random_bytes(NectarHeader::kSize), 32);
      f.blast(PacketType::ReqResp, f.random_bytes(NectarHeader::kSize), 32);
    }
    // Truncated protocol headers too.
    for (std::size_t n = 0; n < NectarHeader::kSize; n += 5) {
      f.blast(PacketType::NectarDatagram, f.random_bytes(n), 0);
      f.blast(PacketType::Rmp, f.random_bytes(n), 0);
    }
  });
  // The victim's protocols are still alive: a legitimate datagram after the
  // storm gets through.
  core::Mailbox& inbox = f.sys.runtime(1).create_mailbox("after");
  bool delivered = false;
  f.sys.runtime(0).fork_system("legit", [&] {
    core::Mailbox& s = f.sys.runtime(0).create_mailbox("s");
    core::Message m = s.begin_put(16);
    f.sys.stack(0).datagram.send(inbox.address(), m);
  });
  f.sys.runtime(1).fork_system("rx", [&] {
    core::Message m = inbox.begin_get();
    inbox.end_get(m);
    delivered = true;
  });
  f.sys.net().run_until(sim::sec(4));
  EXPECT_TRUE(delivered);
}

TEST(Fuzz, RandomTcpSegmentsAreRejected) {
  Fixture f;
  f.run_attack([&] {
    for (int i = 0; i < 30; ++i) {
      // A valid-enough IP header carrying protocol 6 with random TCP bytes:
      // the software checksum (or the connection lookup + RST path) rejects.
      IpHeader iph;
      iph.total_len = static_cast<std::uint16_t>(IpHeader::kSize + TcpHeader::kSize + 16);
      iph.protocol = kProtoTcp;
      iph.src = ip_of_node(0);
      iph.dst = ip_of_node(1);
      std::vector<std::uint8_t> hdr(IpHeader::kSize + TcpHeader::kSize);
      iph.serialize(hdr);
      auto tcp_junk = f.random_bytes(TcpHeader::kSize);
      tcp_junk[12] = 5 << 4;  // keep the data-offset parseable
      std::copy(tcp_junk.begin(), tcp_junk.end(), hdr.begin() + IpHeader::kSize);
      f.blast(PacketType::Ip, hdr, 16);
    }
  });
  // No connection materialized; the stack answered with RSTs or dropped on
  // checksum; nothing leaked.
  EXPECT_EQ(f.sys.stack(1).tcp.segments_received(), 30u);
  EXPECT_GT(f.sys.stack(1).tcp.bad_checksums() + f.sys.stack(1).tcp.resets_sent(), 0u);
  EXPECT_LE(f.sys.runtime(1).heap().bytes_in_use(), idle_floor(f.sys.runtime(1)));
}

TEST(Fuzz, LengthFieldLiesAreCaught) {
  Fixture f;
  f.run_attack([&] {
    for (int i = 0; i < 10; ++i) {
      // IP header claims more bytes than the frame carries (and vice versa).
      IpHeader iph;
      iph.total_len = 9999;
      iph.protocol = kProtoUdp;
      iph.src = ip_of_node(0);
      iph.dst = ip_of_node(1);
      std::vector<std::uint8_t> hdr(IpHeader::kSize);
      iph.serialize(hdr);
      f.blast(PacketType::Ip, hdr, 8);

      iph.total_len = IpHeader::kSize;  // claims empty, carries 64
      std::vector<std::uint8_t> hdr2(IpHeader::kSize);
      iph.serialize(hdr2);
      f.blast(PacketType::Ip, hdr2, 64);
    }
  });
  EXPECT_EQ(f.sys.stack(1).ip.dropped_bad_header(), 20u);
  EXPECT_LE(f.sys.runtime(1).heap().bytes_in_use(), idle_floor(f.sys.runtime(1)));
}

TEST(Fuzz, MalformedCollHeadersAreCounted) {
  // A 3-member group whose root holds rank 1's partial for the live
  // sequence: a partial from rank 2 whose operator byte names no ReduceOp
  // would reach combine() from the receive interrupt.
  net::NectarSystem sys(3);
  coll::GroupSpec g;
  g.id = 1;
  g.members = {0, 1, 2};
  std::vector<std::unique_ptr<coll::CollectiveEngine>> eng;
  for (int i = 0; i < 3; ++i) {
    eng.push_back(std::make_unique<coll::CollectiveEngine>(sys.net().datalink(i)));
    eng.back()->join_group(g);
  }
  sys.runtime(1).fork_system("attacker", [&] {
    auto send = [&](std::uint16_t rank, std::uint8_t kind, std::uint8_t op) {
      coll::CollHeader h;
      h.group = g.id;
      h.epoch = g.epoch;
      h.kind = static_cast<coll::MsgKind>(kind);
      h.op = op;
      h.src_rank = rank;
      h.seq = 1;
      h.value = 5;
      std::vector<std::uint8_t> hdr(coll::CollHeader::kSize);
      h.serialize(hdr);
      sys.net().datalink(1).send(PacketType::Coll, 0, std::move(hdr), hw::kDataBase, 0);
    };
    const auto reduce_up = static_cast<std::uint8_t>(coll::MsgKind::ReduceUp);
    send(1, reduce_up, static_cast<std::uint8_t>(coll::ReduceOp::Sum));
    send(2, reduce_up, 0x7f);
    send(2, 0, 0);
    send(2, 200, 0);
    // A header cut short.
    sys.net().datalink(1).send(PacketType::Coll, 0, std::vector<std::uint8_t>(10), hw::kDataBase,
                               0);
  });
  sys.net().run_until(sim::msec(10));
  EXPECT_EQ(eng[0]->msgs_received(), 5u);
  EXPECT_EQ(eng[0]->malformed_drops(), 4u);
  EXPECT_EQ(eng[0]->stale_drops(), 0u);
}

TEST(Fuzz, FarAheadCollSequencesAreCounted) {
  // Members are at most one collective apart, so a frame whose sequence runs
  // two or more ahead of the root's live one is forged. Buffering each such
  // sequence would grow the root's state without bound.
  net::NectarSystem sys(3);
  coll::GroupSpec g;
  g.id = 1;
  g.members = {0, 1, 2};
  std::vector<std::unique_ptr<coll::CollectiveEngine>> eng;
  for (int i = 0; i < 3; ++i) {
    eng.push_back(std::make_unique<coll::CollectiveEngine>(sys.net().datalink(i)));
    eng.back()->join_group(g);
  }
  constexpr std::uint32_t kForged = 40;
  sys.runtime(1).fork_system("attacker", [&] {
    for (std::uint32_t i = 0; i < kForged; ++i) {
      coll::CollHeader h;
      h.group = g.id;
      h.epoch = g.epoch;
      h.kind = coll::MsgKind::Arrive;
      h.src_rank = 1;
      h.seq = 3 + i * 104729;  // the live sequence is 1
      std::vector<std::uint8_t> hdr(coll::CollHeader::kSize);
      h.serialize(hdr);
      sys.net().datalink(1).send(PacketType::Coll, 0, std::move(hdr), hw::kDataBase, 0);
    }
  });
  sys.net().run_until(sim::msec(10));
  EXPECT_EQ(eng[0]->msgs_received(), kForged);
  EXPECT_EQ(eng[0]->stale_drops(), kForged);

  int passed = 0;
  for (int i = 0; i < 3; ++i) {
    sys.runtime(i).fork_app("barrier", [&, i] {
      if (eng[static_cast<std::size_t>(i)]->barrier(g.id)) ++passed;
    });
  }
  sys.net().run_until(sim::msec(100));
  EXPECT_EQ(passed, 3);
}

TEST(Fuzz, SessionFramesOfUnknownTypeAreCounted) {
  net::NectarSystem sys(2);
  session::SessionManager a(sys.runtime(0), 0, sys.stack(0).rmp, {});
  session::SessionManager b(sys.runtime(1), 1, sys.stack(1).rmp, {});
  const int trunk = session::SessionManager::connect_rmp_pair(a, b).second;
  sys.runtime(0).fork_system("attacker", [&] {
    // Two frame headers whose type byte is 0: the first is counted and the
    // rest of the trunk message dropped with it.
    std::vector<std::uint8_t> frames(2 * session::FrameHeader::kSize, 0);
    core::Message m = sys.runtime(0).create_mailbox("tx").begin_put(
        static_cast<std::uint32_t>(frames.size()));
    sys.runtime(0).board().memory().write(m.data, frames);
    sys.stack(0).rmp.send(b.trunk_local_address(trunk), m);
  });
  sys.net().run_until(sim::msec(10));
  EXPECT_EQ(b.proto_errors(), 1u);
}

}  // namespace
}  // namespace nectar::proto
