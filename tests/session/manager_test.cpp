#include "session/manager.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/system.hpp"
#include "session/wire.hpp"

namespace nectar::session {
namespace {

/// Two managers over one NectarSystem, one RMP trunk wired between them.
struct Pair {
  net::NectarSystem sys;
  SessionManager a;
  SessionManager b;
  int ta = 0;  ///< a's trunk index toward b
  int tb = 0;  ///< b's trunk index toward a

  explicit Pair(SessionConfig cfg = {})
      : sys(2),
        a(sys.runtime(0), 0, sys.stack(0).rmp, cfg),
        b(sys.runtime(1), 1, sys.stack(1).rmp, cfg) {
    auto [x, y] = SessionManager::connect_rmp_pair(a, b);
    ta = x;
    tb = y;
  }
};

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(SessionManagerTest, OpenSendCloseRoundtrip) {
  Pair p;
  std::map<std::uint16_t, std::string> got;
  p.b.on_deliver = [&](int, std::uint16_t ch, std::uint8_t, std::span<const std::uint8_t> pl) {
    got[ch].append(pl.begin(), pl.end());
  };
  bool accepted = false, closed = false;
  p.a.on_open_result = [&](SessionManager::ChannelHandle, bool ok) { accepted = ok; };
  p.a.on_closed = [&](SessionManager::ChannelHandle) { closed = true; };
  SessionManager::ChannelHandle h = SessionManager::kNoHandle;
  p.sys.runtime(0).fork_system("app", [&] {
    h = p.a.open_channel(p.ta);
    ASSERT_NE(h, SessionManager::kNoHandle);
    // Staging is legal in Opening: data flows once the OPEN_ACK grants credit.
    EXPECT_EQ(p.a.try_send(h, bytes("hello ")), SendResult::Ok);
    EXPECT_EQ(p.a.try_send(h, bytes("world")), SendResult::Ok);
    p.a.close_channel(h);
  });
  p.sys.engine().run();
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(closed);
  EXPECT_EQ(p.a.state(h), ChannelState::Closed);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.begin()->second, "hello world");
  EXPECT_EQ(p.a.channels_opened(), 1u);
  EXPECT_EQ(p.a.channels_closed(), 1u);
  EXPECT_EQ(p.a.channels_failed(), 0u);
  // Two DATA frames delivered; the sender's total also counts the OPEN and
  // CLOSE control frames riding the same trunk.
  EXPECT_EQ(p.b.frames_delivered(), 2u);
  EXPECT_GE(p.a.frames_sent(), 4u);
}

// Satellite: interleaved small writes from N channels over ONE trunk
// connection must preserve per-channel byte ordering exactly.
TEST(SessionManagerTest, InterleavedChannelsPreservePerChannelOrder) {
  Pair p;
  constexpr int kChannels = 8;
  constexpr int kMsgs = 25;
  std::map<std::uint16_t, std::vector<std::string>> got;
  p.b.on_deliver = [&](int, std::uint16_t ch, std::uint8_t, std::span<const std::uint8_t> pl) {
    got[ch].emplace_back(pl.begin(), pl.end());
  };
  p.sys.runtime(0).fork_system("app", [&] {
    std::vector<SessionManager::ChannelHandle> hs;
    for (int c = 0; c < kChannels; ++c) hs.push_back(p.a.open_channel(p.ta));
    for (int m = 0; m < kMsgs; ++m) {
      for (int c = 0; c < kChannels; ++c) {
        std::string payload = "c" + std::to_string(c) + ".m" + std::to_string(m);
        // Retry through transient window stalls: the pumper drains while we
        // sleep, and every accepted byte must still arrive in per-channel
        // order.
        while (p.a.try_send(hs[static_cast<std::size_t>(c)], bytes(payload)) !=
               SendResult::Ok) {
          p.sys.runtime(0).cpu().sleep_for(sim::usec(200));
        }
      }
    }
  });
  p.sys.engine().run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kChannels));
  int c = 0;
  for (auto& [ch, msgs] : got) {
    ASSERT_EQ(msgs.size(), static_cast<std::size_t>(kMsgs)) << "channel " << ch;
    for (int m = 0; m < kMsgs; ++m) {
      EXPECT_EQ(msgs[static_cast<std::size_t>(m)],
                "c" + std::to_string(c) + ".m" + std::to_string(m));
    }
    ++c;
  }
}

// Satellite: the send window surfaces as Backpressure (shed accounting),
// never silent loss — and the stall is observable in the stats.
TEST(SessionManagerTest, SendWindowBackpressureIsLoud) {
  SessionConfig cfg;
  cfg.send_window = 2;
  Pair p(cfg);
  int ok = 0, backpressure = 0;
  p.sys.runtime(0).fork_system("app", [&] {
    SessionManager::ChannelHandle h = p.a.open_channel(p.ta);
    // No yield between sends: the window must fill at exactly send_window.
    for (int i = 0; i < 5; ++i) {
      SendResult r = p.a.try_send(h, bytes("x"));
      if (r == SendResult::Ok) ++ok;
      if (r == SendResult::Backpressure) ++backpressure;
    }
  });
  p.sys.engine().run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(backpressure, 3);
}

TEST(SessionManagerTest, CreditStallDoesNotBlockSiblingChannels) {
  SessionConfig cfg;
  cfg.initial_credit = 4;
  cfg.send_window = 64;
  Pair p(cfg);
  constexpr int kMsgs = 30;
  std::map<std::uint16_t, int> delivered;
  sim::SimTime victim_last = 0, sibling_done = 0;
  p.b.on_deliver = [&](int, std::uint16_t ch, std::uint8_t, std::span<const std::uint8_t>) {
    ++delivered[ch];
    if (ch == 0) victim_last = p.sys.engine().now();
    if (ch == 1 && delivered[1] == kMsgs) sibling_done = p.sys.engine().now();
  };
  SessionManager::ChannelHandle hv = SessionManager::kNoHandle;
  p.sys.runtime(0).fork_system("app", [&] {
    hv = p.a.open_channel(p.ta);                               // wire id 0: the victim
    SessionManager::ChannelHandle hs = p.a.open_channel(p.ta);  // wire id 1: the sibling
    // Wait until both OPEN_ACKs returned — only then does the receiver have
    // an inbound channel 0 to freeze. Frozen before any data flows, the
    // victim exhausts its initial grant and stalls.
    while (p.a.state(hv) != ChannelState::Open || p.a.state(hs) != ChannelState::Open) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(100));
    }
    p.b.freeze_inbound_credit(p.tb, 0, true);
    for (int i = 0; i < kMsgs; ++i) {
      p.a.try_send(hv, bytes("v" + std::to_string(i)));
      while (p.a.try_send(hs, bytes("s" + std::to_string(i))) != SendResult::Ok) {
        p.sys.runtime(0).cpu().sleep_for(sim::usec(100));
      }
    }
  });
  p.sys.runtime(1).fork_system("unfreeze", [&] {
    p.sys.runtime(1).cpu().sleep_for(sim::msec(30));
    p.b.freeze_inbound_credit(p.tb, 0, false);
  });
  p.sys.engine().run();
  // The sibling finished every message while the victim was stalled at its
  // initial credit — a stalled channel starves alone, it never drags its
  // trunk neighbours.
  EXPECT_EQ(delivered[1], kMsgs);
  ASSERT_GT(sibling_done, 0);
  EXPECT_GT(p.a.credit_stalls(), 0u);
  // After the unfreeze the victim's staged backlog drains completely.
  EXPECT_EQ(delivered[0], kMsgs);
  EXPECT_GT(victim_last, sibling_done);
}

TEST(SessionManagerTest, StrictPriorityGoesFirstInTheBatch) {
  Pair p;
  std::vector<std::uint16_t> order;
  p.b.on_deliver = [&](int, std::uint16_t ch, std::uint8_t, std::span<const std::uint8_t>) {
    order.push_back(ch);
  };
  p.sys.runtime(0).fork_system("app", [&] {
    SessionManager::ChannelHandle lo = p.a.open_channel(p.ta, /*priority=*/2);
    SessionManager::ChannelHandle hi = p.a.open_channel(p.ta, /*priority=*/0);
    // Wait for both OPEN_ACKs so credit exists, then stage low before high
    // without yielding: the scheduler, not arrival order, decides.
    while (p.a.state(hi) != ChannelState::Open || p.a.state(lo) != ChannelState::Open) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(100));
    }
    for (int i = 0; i < 4; ++i) p.a.try_send(lo, bytes("l"));
    for (int i = 0; i < 4; ++i) p.a.try_send(hi, bytes("h"));
  });
  p.sys.engine().run();
  ASSERT_EQ(order.size(), 8u);
  // hi is wire id 1, lo is wire id 0: all of hi's frames ride ahead.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(order[i], 1) << i;
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(order[i], 0) << i;
}

TEST(SessionManagerTest, EqualWeightChannelsShareTheTrunk) {
  SessionConfig cfg;
  cfg.send_window = 64;
  cfg.initial_credit = 64;
  cfg.max_batch = 512;  // several batches, so interleaving is observable
  Pair p(cfg);
  std::vector<std::uint16_t> order;
  p.b.on_deliver = [&](int, std::uint16_t ch, std::uint8_t, std::span<const std::uint8_t>) {
    order.push_back(ch);
  };
  constexpr int kMsgs = 24;
  p.sys.runtime(0).fork_system("app", [&] {
    SessionManager::ChannelHandle c0 = p.a.open_channel(p.ta);
    SessionManager::ChannelHandle c1 = p.a.open_channel(p.ta);
    while (p.a.state(c0) != ChannelState::Open || p.a.state(c1) != ChannelState::Open) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(100));
    }
    // Stage ALL of channel 0 first, then all of channel 1. Round-robin must
    // still interleave them rather than draining c0 FIFO-first.
    for (int i = 0; i < kMsgs; ++i) p.a.try_send(c0, bytes(std::string(40, 'a')));
    for (int i = 0; i < kMsgs; ++i) p.a.try_send(c1, bytes(std::string(40, 'b')));
  });
  p.sys.engine().run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kMsgs));
  // c1's first delivery must not wait for c0's backlog to drain.
  std::size_t first_c1 = 0;
  while (first_c1 < order.size() && order[first_c1] != 1) ++first_c1;
  EXPECT_LT(first_c1, static_cast<std::size_t>(kMsgs)) << "DRR must interleave the channels";
}

TEST(SessionManagerTest, AdmissionControlRefusesLoudly) {
  SessionConfig cfg;
  cfg.max_channels = 3;
  Pair p(cfg);
  int accepted = 0, refused = 0;
  p.a.on_open_result = [&](SessionManager::ChannelHandle, bool ok) {
    ok ? ++accepted : ++refused;
  };
  std::vector<SessionManager::ChannelHandle> hs;
  p.sys.runtime(0).fork_system("app", [&] {
    for (int i = 0; i < 5; ++i) hs.push_back(p.a.open_channel(p.ta));
  });
  p.sys.engine().run();
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(p.a.channels_opened(), 3u);
  EXPECT_EQ(p.a.channels_refused(), 2u);
  EXPECT_EQ(p.a.state(hs[4]), ChannelState::Refused);
  // Refusal is attributable on the receiver: an admission event fired.
  bool saw = false;
  for (const core::LogEntry& e : p.sys.runtime(1).log_entries()) {
    saw = saw || std::string(e.kind) == "session.admission_refused";
  }
  EXPECT_TRUE(saw);
  // try_send on a refused channel fails loudly, not silently.
  p.sys.runtime(0).fork_system("late", [&] {
    EXPECT_EQ(p.a.try_send(hs[4], bytes("x")), SendResult::Failed);
  });
  p.sys.engine().run();
}

TEST(SessionManagerTest, ClosedIdsRecycleWithBumpedGeneration) {
  Pair p;
  std::uint16_t first_id = 0;
  std::uint8_t delivered_gen = 0;
  p.sys.runtime(0).fork_system("app", [&] {
    SessionManager::ChannelHandle h1 = p.a.open_channel(p.ta);
    first_id = p.a.wire_id(h1);
    p.a.close_channel(h1);
    while (p.a.state(h1) != ChannelState::Closed) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(200));
    }
    // The id comes back with a new generation; the peer accepts the new
    // incarnation and stamps deliveries with it.
    SessionManager::ChannelHandle h2 = p.a.open_channel(p.ta);
    EXPECT_EQ(p.a.wire_id(h2), first_id);
    while (p.a.state(h2) != ChannelState::Open) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(200));
    }
    EXPECT_EQ(p.a.try_send(h2, bytes("again")), SendResult::Ok);
    p.a.close_channel(h2);
  });
  std::string got;
  p.b.on_deliver = [&](int, std::uint16_t, std::uint8_t gen, std::span<const std::uint8_t> pl) {
    got.assign(pl.begin(), pl.end());
    delivered_gen = gen;
  };
  p.sys.engine().run();
  EXPECT_EQ(got, "again");
  EXPECT_NE(delivered_gen, 0) << "reused id must carry a bumped generation";
  EXPECT_EQ(p.a.channels_closed(), 2u);
}

TEST(SessionManagerTest, StaleGenerationFramesAreDropped) {
  Pair p;
  std::uint16_t id = 0;
  p.sys.runtime(0).fork_system("app", [&] {
    SessionManager::ChannelHandle h = p.a.open_channel(p.ta);
    id = p.a.wire_id(h);
    p.a.close_channel(h);
    while (p.a.state(h) != ChannelState::Closed) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(200));
    }
    // Reopen the same wire id (generation bumped) and then forge a DATA
    // frame from the dead generation 0 straight onto the trunk.
    SessionManager::ChannelHandle h2 = p.a.open_channel(p.ta);
    ASSERT_EQ(p.a.wire_id(h2), id);
    while (p.a.state(h2) != ChannelState::Open) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(200));
    }
    FrameHeader stale;
    stale.channel = id;
    stale.generation = 0;
    stale.type = FrameType::Data;
    stale.seq = 0;
    stale.length = 1;
    std::vector<std::uint8_t> wire(FrameHeader::kSize + 1);
    stale.serialize(wire);
    wire[FrameHeader::kSize] = 'z';
    core::Mailbox& s = p.sys.runtime(0).create_mailbox("forge");
    core::Message m = s.begin_put(static_cast<std::uint32_t>(wire.size()));
    p.sys.runtime(0).board().memory().write(m.data, wire);
    p.sys.stack(0).rmp.send(p.b.trunk_local_address(p.tb), m);
  });
  bool delivered_stale = false;
  p.b.on_deliver = [&](int, std::uint16_t, std::uint8_t gen, std::span<const std::uint8_t>) {
    delivered_stale = delivered_stale || gen == 0;
  };
  p.sys.engine().run();
  // The dead incarnation's frame is counted and dropped, never delivered to
  // the new channel.
  EXPECT_EQ(p.b.gen_mismatch_drops(), 1u);
  EXPECT_FALSE(delivered_stale);
}

TEST(SessionManagerTest, TrunkDeathFailsChannelsWithAttribution) {
  SessionConfig cfg;
  cfg.fail_timeout = sim::msec(10);
  Pair p(cfg);
  std::vector<std::string> reasons;
  p.a.on_channel_failed = [&](SessionManager::ChannelHandle, const std::string& why) {
    reasons.push_back(why);
  };
  p.sys.runtime(0).fork_system("app", [&] {
    SessionManager::ChannelHandle h1 = p.a.open_channel(p.ta);
    SessionManager::ChannelHandle h2 = p.a.open_channel(p.ta);
    while (p.a.state(h1) != ChannelState::Open || p.a.state(h2) != ChannelState::Open) {
      p.sys.runtime(0).cpu().sleep_for(sim::usec(200));
    }
    // Kill the reverse path: B's acks (RMP and session) stop arriving.
    p.sys.net().cab(1).out_link().set_down(true);
    p.a.try_send(h1, bytes("doomed"));
    p.a.try_send(h2, bytes("doomed too"));
  });
  // Bound the run: RMP keeps retransmitting into the dead link forever.
  p.sys.engine().run_until(sim::msec(200));
  EXPECT_EQ(p.a.channels_failed(), 2u);
  EXPECT_EQ(p.a.trunk_failures(), 1u);
  EXPECT_TRUE(p.a.trunk_failed(p.ta));
  ASSERT_EQ(reasons.size(), 2u);
  // The reason is attributable: it names the trunk, the peer and the cause.
  EXPECT_NE(reasons[0].find("node1"), std::string::npos) << reasons[0];
  EXPECT_NE(reasons[0].find("no acknowledgment progress"), std::string::npos) << reasons[0];
  bool saw = false;
  for (const core::LogEntry& e : p.sys.runtime(0).log_entries()) {
    saw = saw || std::string(e.kind) == "session.trunk_failed";
  }
  EXPECT_TRUE(saw);
  // Further opens and sends on the dead trunk fail immediately and loudly.
  bool post_checked = false;
  p.sys.runtime(0).fork_system("post", [&] {
    EXPECT_EQ(p.a.open_channel(p.ta), SessionManager::kNoHandle);
    post_checked = true;
  });
  p.sys.engine().run_until(sim::msec(210));
  EXPECT_TRUE(post_checked);
}

}  // namespace
}  // namespace nectar::session
