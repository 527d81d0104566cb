#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "sim/parallel.hpp"

namespace nectar::sim {
namespace {

// The conservative-window contract: with lookahead L, a cross-shard event
// posted during window [T, T+L) can land no earlier than T+L — exactly the
// horizon — so the coordinator's drain never has to push an event behind a
// shard's clock, and the drain order (time, key, seq) makes the interleave
// deterministic regardless of worker timing.

TEST(ParallelEngineTest, SingleShardDelegatesToSequentialEngine) {
  ParallelEngine par(1);
  Engine& e = par.shard(0);
  std::vector<SimTime> fired;
  e.schedule_at(5, [&] { fired.push_back(e.now()); });
  e.schedule_at(2, [&] { fired.push_back(e.now()); });
  EXPECT_TRUE(par.run_until(4));   // event at 5 still pending
  EXPECT_FALSE(par.run_until(10)); // drained
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 2);
  EXPECT_EQ(fired[1], 5);
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(par.windows(), 2u) << "single shard: one 'window' per run_until call";
  EXPECT_EQ(par.total_events(), 2u);
  EXPECT_EQ(par.critical_path_events(), 2u) << "serial run: critical path == total";
}

TEST(ParallelEngineTest, CrossShardPingAtExactHorizonBoundary) {
  ParallelEngine par(2);
  par.set_lookahead(10);
  Engine& a = par.shard(0);
  Engine& b = par.shard(1);
  std::vector<std::pair<int, SimTime>> log;
  // First window starts at T=5, horizon 15. The sender posts for exactly
  // T+lookahead — the tightest legal cross-shard event — which must arrive
  // in a later window, never behind b's clock.
  a.schedule_at(5, [&] {
    log.push_back({0, a.now()});
    a.send_cross(b, a.now() + 10, [&] { log.push_back({1, b.now()}); }, /*key=*/1, /*seq=*/0);
  });
  EXPECT_FALSE(par.run_until(100));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<int, SimTime>{0, 5}));
  EXPECT_EQ(log[1], (std::pair<int, SimTime>{1, 15}));
  EXPECT_EQ(par.cross_events(), 1u);
  EXPECT_EQ(a.cross_posts(), 1u);
  EXPECT_GE(par.windows(), 2u) << "boundary event needs a second window";
  // run_until settles every shard clock at the stop time.
  EXPECT_EQ(a.now(), 100);
  EXPECT_EQ(b.now(), 100);
}

TEST(ParallelEngineTest, ZeroLookaheadCrossPostRejectedLoudly) {
  // No lookahead declared: the coordinator runs unbounded windows, so a
  // cross-shard post inside one would have to land behind the destination
  // clock. The drain must refuse — loudly — rather than corrupt causality.
  ParallelEngine par(2);
  Engine& a = par.shard(0);
  Engine& b = par.shard(1);
  b.schedule_at(100, [] {});
  a.schedule_at(5, [&] { a.send_cross(b, 6, [] {}, 1, 0); });
  EXPECT_THROW(par.run_until(200), std::logic_error);
}

TEST(ParallelEngineTest, SameTimeCrossEventsDrainInKeyOrder) {
  ParallelEngine par(2);
  par.set_lookahead(10);
  Engine& a = par.shard(0);
  Engine& b = par.shard(1);
  std::vector<int> order;
  a.schedule_at(0, [&] {
    // Posted in descending key order; the barrier drain must sort them back.
    a.send_cross(b, 20, [&] { order.push_back(2); }, /*key=*/9, /*seq=*/0);
    a.send_cross(b, 20, [&] { order.push_back(1); }, /*key=*/3, /*seq=*/0);
    a.send_cross(b, 20, [&] { order.push_back(3); }, /*key=*/9, /*seq=*/1);
  });
  par.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(par.cross_events(), 3u);
  EXPECT_EQ(par.mailbox_highwater(), 3u);
}

// Ping-pong harness: one message bouncing between two shards, each hop
// `hop` ns of simulated time. Exercises many windows and alternating
// single-writer mailbox use.
struct PingPong {
  SimTime hop;
  int remaining;
  std::uint64_t seq = 0;
  std::vector<SimTime> times;

  void fire(Engine* at, Engine* other) {
    times.push_back(at->now());
    if (--remaining <= 0) return;
    at->send_cross(*other, at->now() + hop,
                   [this, at, other] { fire(other, at); }, /*key=*/7, seq++);
  }
};

struct PingPongResult {
  std::vector<SimTime> times;
  std::uint64_t windows, cross, total, critical;
};

PingPongResult run_ping_pong() {
  ParallelEngine par(2);
  par.set_lookahead(10);
  Engine& a = par.shard(0);
  Engine& b = par.shard(1);
  PingPong pp{/*hop=*/10, /*remaining=*/32};
  a.schedule_at(0, [&] { pp.fire(&a, &b); });
  par.run_until(1000);
  return {pp.times, par.windows(), par.cross_events(), par.total_events(),
          par.critical_path_events()};
}

TEST(ParallelEngineTest, PingPongIsExactAndDeterministic) {
  PingPongResult r1 = run_ping_pong();
  ASSERT_EQ(r1.times.size(), 32u);
  for (std::size_t i = 0; i < r1.times.size(); ++i) {
    EXPECT_EQ(r1.times[i], static_cast<SimTime>(10 * i)) << "hop " << i;
  }
  EXPECT_EQ(r1.cross, 31u);
  // A strictly serial ping-pong has no parallelism to find: the critical
  // path is every event (the +1 counts the kick-off event's window).
  EXPECT_EQ(r1.critical, r1.total);

  PingPongResult r2 = run_ping_pong();
  EXPECT_EQ(r1.times, r2.times);
  EXPECT_EQ(r1.windows, r2.windows);
  EXPECT_EQ(r1.cross, r2.cross);
  EXPECT_EQ(r1.total, r2.total);
  EXPECT_EQ(r1.critical, r2.critical);
}

TEST(ParallelEngineTest, RunToEmptyDrainsCrossTraffic) {
  ParallelEngine par(3);
  par.set_lookahead(5);
  std::atomic<int> fired = 0;  // bumped from every shard's worker thread
  for (int s = 0; s < 3; ++s) {
    Engine& src = par.shard(s);
    Engine& dst = par.shard((s + 1) % 3);
    src.schedule_at(s + 1, [&src, &dst, &fired] {
      src.send_cross(dst, src.now() + 5, [&fired] { ++fired; }, 1, 0);
    });
  }
  par.run();
  EXPECT_EQ(fired.load(), 3);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(par.shard(s).pending_events(), 0u);
}

TEST(ParallelEngineTest, IndependentShardsParallelizePerfectly) {
  // Two shards with disjoint event streams and no cross traffic: the
  // critical path is one shard's share, so ideal speedup == shard count.
  ParallelEngine par(2);
  par.set_lookahead(100);
  std::atomic<int> fired = 0;  // bumped from both shards' worker threads
  for (int s = 0; s < 2; ++s) {
    Engine& e = par.shard(s);
    for (SimTime t = 1; t <= 50; ++t) e.schedule_at(t, [&fired] { ++fired; });
  }
  par.run_until(200);
  EXPECT_EQ(fired.load(), 100);
  EXPECT_EQ(par.total_events(), 100u);
  EXPECT_EQ(par.critical_path_events(), 50u);
}

}  // namespace
}  // namespace nectar::sim
