#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"

// The engine's firing order, pinned against a reference model: a sorted map
// keyed by (time, schedule counter). Every operation is applied to both, and
// after it the fired sequence, now(), pending_events(), next_event_time() and
// the operation's return value must agree. The callbacks themselves schedule more events
// (zero-delay ones included), so the model is advanced one firing at a time
// from inside them. A quarter of the schedules are slot-free targets, each
// often pending several times at once; cancelling one must fail.

namespace nectar::sim {
namespace {

struct Fired {
  SimTime time;
  int label;
  bool operator==(const Fired&) const = default;
};

class OrderHarness {
 public:
  explicit OrderHarness(std::uint64_t seed) : rng_(seed) {
    for (int k = 0; k < kTargets; ++k)
      targets_.push_back(std::make_unique<HarnessTarget>(*this, target_label(k)));
  }

  Engine& engine() { return e_; }
  Random& rng() { return rng_; }
  bool model_empty() const { return pending_.empty(); }
  SimTime model_next_time() const { return pending_.begin()->first.first; }

  /// A delay from 0 to past 2^40 ns: zero 15% of the time, otherwise
  /// 1 + uniform below 2^b for a bit width b from 0 to 42.
  SimTime random_delay() {
    if (rng_.chance(0.15)) return 0;
    int bits = static_cast<int>(rng_.next_below(43));
    return 1 + static_cast<SimTime>(rng_.next_below(std::uint64_t{1} << bits));
  }

  /// Schedule on both sides: a random target a quarter of the time, else a
  /// slot event through schedule_at or schedule_in.
  void schedule(SimTime t) {
    Key key{t, counter_++};
    if (rng_.chance(0.25)) {
      HarnessTarget& target = *targets_[rng_.next_below(kTargets)];
      target.id = e_.schedule_at(t, target.target);
      handles_.push_back(target.id);
      pending_.emplace(key, target.label);
      return;
    }
    int label = next_label_++;
    Engine::EventId id = rng_.chance(0.5)
                             ? e_.schedule_in(t - e_.now(), [this, label] { fire(label); })
                             : e_.schedule_at(t, [this, label] { fire(label); });
    pending_.emplace(key, label);
    live_.emplace(label, Live{id, key});
    handles_.push_back(id);
  }

  /// Cancel `label`'s handle; the engine must agree on whether it was live.
  /// A target's cancel fails and leaves it pending.
  void cancel_label(int label) {
    if (label < 0) {
      EXPECT_FALSE(e_.cancel(targets_[target_index(label)]->id)) << "a target cancelled";
      return;
    }
    auto it = live_.find(label);
    ASSERT_NE(it, live_.end());
    EXPECT_TRUE(e_.cancel(it->second.id));
    pending_.erase(it->second.key);
    live_.erase(it);
  }

  /// Cancel a random handle ever issued: live slot events' succeed; fired or
  /// cancelled ones, and targets', must be rejected.
  void cancel_any_handle() {
    if (handles_.empty()) return;
    Engine::EventId id = handles_[rng_.next_below(handles_.size())];
    int live_label = -1;
    for (const auto& [label, l] : live_)
      if (l.id == id) live_label = label;
    if (live_label >= 0) {
      cancel_label(live_label);
    } else {
      EXPECT_FALSE(e_.cancel(id)) << "a fired or cancelled handle cancelled again";
    }
  }

  int earliest_live_label() const { return pending_.begin()->second; }

  int random_live_label() {
    auto it = pending_.begin();
    std::advance(it, static_cast<long>(rng_.next_below(pending_.size())));
    return it->second;
  }

  void step() {
    bool expect = !pending_.empty();
    EXPECT_EQ(e_.step(), expect);
  }

  void run_until(SimTime t) {
    bool more = e_.run_until(t);
    if (t > now_) now_ = t;
    // No live event at or before the horizon may remain; the return value
    // says whether a live one remains after it.
    if (!pending_.empty()) {
      EXPECT_GT(model_next_time(), t);
    }
    EXPECT_EQ(more, !pending_.empty()) << "run_until(" << t << ")";
  }

  void run_while(std::size_t extra) {
    std::size_t target = fired_.size() + extra;
    bool satisfied = e_.run_while([&] { return fired_.size() < target; });
    EXPECT_EQ(satisfied, fired_.size() >= target);
    if (!satisfied) {
      EXPECT_TRUE(pending_.empty());
    }
  }

  /// The per-operation comparison (firings are compared once, as they come).
  ::testing::AssertionResult agrees() {
    if (fired_.size() != expected_.size())
      return ::testing::AssertionFailure() << "engine fired " << fired_.size()
                                           << " events, model " << expected_.size();
    for (std::size_t i = checked_; i < fired_.size(); ++i) {
      if (!(fired_[i] == expected_[i]))
        return ::testing::AssertionFailure()
               << "firing " << i << ": engine label " << fired_[i].label << " at "
               << fired_[i].time << ", model label " << expected_[i].label << " at "
               << expected_[i].time;
    }
    if (e_.now() != now_)
      return ::testing::AssertionFailure() << "now() " << e_.now() << ", model " << now_;
    if (e_.pending_events() != pending_.size())
      return ::testing::AssertionFailure() << "pending_events() " << e_.pending_events()
                                           << ", model " << pending_.size();
    if (e_.empty() != pending_.empty()) return ::testing::AssertionFailure() << "empty()";
    const SimTime next = pending_.empty() ? -1 : model_next_time();
    if (e_.next_event_time() != next)
      return ::testing::AssertionFailure() << "next_event_time() " << e_.next_event_time()
                                           << ", model " << next;
    checked_ = fired_.size();
    return ::testing::AssertionSuccess();
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, schedule counter)
  struct Live {
    Engine::EventId id;
    Key key;
  };

  /// A target fires under its own negative label, however often it is queued.
  static constexpr int kTargets = 5;
  static int target_label(int k) { return -1 - k; }
  static std::size_t target_index(int label) { return static_cast<std::size_t>(-1 - label); }
  struct HarnessTarget {
    HarnessTarget(OrderHarness& h, int l)
        : label(l),
          target(
              h.e_,
              [](void* self) {
                auto* t = static_cast<HarnessTarget*>(self);
                t->harness.fire(t->label);
              },
              this),
          harness(h) {}
    int label;
    Engine::Target target;
    OrderHarness& harness;
    Engine::EventId id = 0;  // what schedule_at returned, once it has
  };

  /// Runs inside the engine: the model's earliest entry is what must fire.
  /// Then the callback may schedule children, zero-delay ones included.
  void fire(int label) {
    fired_.push_back({e_.now(), label});
    if (pending_.empty()) {
      expected_.push_back({-1, -1});
      return;
    }
    auto it = pending_.begin();
    expected_.push_back({it->first.first, it->second});
    now_ = it->first.first;
    live_.erase(it->second);
    pending_.erase(it);
    std::uint64_t roll = rng_.next_below(10);
    int children = roll < 6 ? 0 : roll < 9 ? 1 : 2;
    for (int c = 0; c < children; ++c) {
      SimTime d = rng_.chance(0.5) ? 0 : random_delay();
      schedule(e_.now() + d);
    }
  }

  Engine e_;
  std::vector<std::unique_ptr<HarnessTarget>> targets_;
  Random rng_;
  SimTime now_ = 0;
  std::uint64_t counter_ = 0;
  int next_label_ = 0;
  std::map<Key, int> pending_;
  std::unordered_map<int, Live> live_;
  std::vector<Engine::EventId> handles_;
  std::vector<Fired> fired_;
  std::vector<Fired> expected_;
  std::size_t checked_ = 0;
};

/// One random operation (some are short scripted sequences).
void random_op(OrderHarness& h) {
  Random& r = h.rng();
  Engine& e = h.engine();
  std::uint64_t op = r.next_below(100);
  if (op < 22) {
    h.schedule(e.now() + h.random_delay());
  } else if (op < 24) {
    // A burst of at least 1,000 events at one time.
    SimTime t = e.now() + (r.chance(0.3) ? 0 : h.random_delay());
    int n = 1000 + static_cast<int>(r.next_below(500));
    for (int i = 0; i < n; ++i) h.schedule(t);
  } else if (op < 32) {
    if (!h.model_empty()) h.cancel_label(h.random_live_label());
  } else if (op < 38) {
    // Cancel the current earliest event.
    if (!h.model_empty()) h.cancel_label(h.earliest_live_label());
  } else if (op < 44) {
    h.cancel_any_handle();
  } else if (op < 64) {
    h.step();
  } else if (op < 80) {
    // A horizon at, just before, or past the next event, or anywhere.
    SimTime t = e.now();
    if (!h.model_empty() && r.chance(0.6)) {
      SimTime next = h.model_next_time();
      std::uint64_t pick = r.next_below(3);
      t = pick == 0 ? next : pick == 1 ? next - 1 : next + 1;
      if (t < e.now()) t = e.now();
    } else {
      t = e.now() + h.random_delay();
    }
    h.run_until(t);
  } else if (op < 88) {
    h.run_while(r.next_below(40));
  } else if (op < 94) {
    // Stop before the next event, then schedule between the horizon and it
    // (the horizon itself included).
    if (h.model_empty()) return;
    SimTime next = h.model_next_time();
    if (next - e.now() < 2) return;
    SimTime horizon = e.now() + static_cast<SimTime>(r.next_below(
                                    static_cast<std::uint64_t>(next - e.now() - 1)));
    h.run_until(horizon);
    int n = 1 + static_cast<int>(r.next_below(8));
    for (int i = 0; i < n; ++i) {
      SimTime t = horizon + static_cast<SimTime>(
                                r.next_below(static_cast<std::uint64_t>(next - horizon)));
      h.schedule(t);
    }
  } else {
    // Drain to empty with step(), then schedule again at now().
    if (r.chance(0.5)) {
      for (int guard = 0; guard < 100'000 && !h.model_empty(); ++guard) h.step();
      h.step();  // on an empty queue: returns false
      h.schedule(e.now());
    }
  }
}

TEST(EngineOrder, ZeroDelayScheduleFromACallbackFiresAfterItsPeers) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.schedule_in(0, [&] { order.push_back(4); });
    e.schedule_at(10, [&] { order.push_back(5); });
  });
  e.schedule_at(10, [&] { order.push_back(2); });
  e.schedule_at(10, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(e.now(), 10);
}

TEST(EngineOrder, BurstsAtOneTimeKeepScheduleOrderAcrossCancels) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 1500; ++i) {
    SimTime t = i % 3 == 0 ? 50 : i % 3 == 1 ? 0 : (SimTime{1} << 41);
    ids.push_back(e.schedule_at(t, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 1500; i += 7) EXPECT_TRUE(e.cancel(ids[static_cast<std::size_t>(i)]));
  e.run();
  std::vector<int> expected;
  for (int phase : {1, 0, 2})
    for (int i = 0; i < 1500; ++i)
      if (i % 3 == phase && i % 7 != 0) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(e.now(), SimTime{1} << 41);
}

TEST(EngineOrder, SchedulesBetweenAnEarlyHorizonAndTheNextEvent) {
  Engine e;
  std::vector<char> order;
  e.schedule_at(1000, [&] { order.push_back('a'); });
  e.schedule_at(SimTime{1} << 41, [&] { order.push_back('z'); });
  EXPECT_TRUE(e.run_until(400));  // stops before the next event
  EXPECT_EQ(e.now(), 400);
  e.schedule_at(999, [&] { order.push_back('d'); });
  e.schedule_at(400, [&] { order.push_back('b'); });
  e.schedule_at(1000, [&] { order.push_back('e'); });
  e.schedule_at(700, [&] { order.push_back('c'); });
  e.schedule_at((SimTime{1} << 41) - 1, [&] { order.push_back('y'); });
  EXPECT_TRUE(e.run_until(1000));
  EXPECT_EQ(order, (std::vector<char>{'b', 'c', 'd', 'a', 'e'}));
  EXPECT_FALSE(e.run_until(SimTime{1} << 42));
  EXPECT_EQ(order, (std::vector<char>{'b', 'c', 'd', 'a', 'e', 'y', 'z'}));
  EXPECT_EQ(e.now(), SimTime{1} << 42);
}

TEST(EngineOrder, HorizonWhoseNextEntryIsCancelled) {
  Engine e;
  int fired = 0;
  Engine::EventId a = e.schedule_at(100, [&] { ++fired; });
  Engine::EventId b = e.schedule_at(300, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(a));
  EXPECT_TRUE(e.run_until(200));  // b is live past the horizon
  EXPECT_EQ(e.now(), 200);
  EXPECT_TRUE(e.cancel(b));
  EXPECT_FALSE(e.run_until(250));  // only a cancelled entry remains
  EXPECT_EQ(e.now(), 250);
  Engine::EventId c = e.schedule_at(260, [&] { ++fired; });
  e.schedule_at(270, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(c));
  EXPECT_TRUE(e.run_until(265));
  EXPECT_EQ(e.now(), 265);
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_FALSE(e.run_until(270));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 270);
}

TEST(EngineOrder, CancellingTheEarliestAndFiredHandles) {
  Engine e;
  std::vector<char> order;
  Engine::EventId a = e.schedule_at(10, [&] { order.push_back('a'); });
  Engine::EventId b = e.schedule_at(10, [&] { order.push_back('b'); });
  Engine::EventId c = e.schedule_at(20, [&] { order.push_back('c'); });
  EXPECT_TRUE(e.cancel(a));  // the current earliest
  EXPECT_TRUE(e.step());
  EXPECT_EQ(order, (std::vector<char>{'b'}));
  EXPECT_FALSE(e.cancel(b));  // already fired
  EXPECT_FALSE(e.cancel(a));  // already cancelled
  EXPECT_TRUE(e.cancel(c));
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.now(), 10);
  EXPECT_TRUE(e.empty());
}

TEST(EngineOrder, StepDrainsToEmptyThenSchedulesAtNow) {
  Engine e;
  std::vector<char> order;
  for (SimTime t : {30, 10, 20}) e.schedule_at(t, [] {});
  while (e.step()) {
  }
  EXPECT_EQ(e.now(), 30);
  EXPECT_TRUE(e.empty());
  e.schedule_at(30, [&] { order.push_back('x'); });
  e.schedule_in(0, [&] { order.push_back('y'); });
  e.schedule_in(5, [&] { order.push_back('z'); });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'x', 'y', 'z'}));
  EXPECT_EQ(e.now(), 35);
}

TEST(EngineOrder, RandomInterleavingsMatchTheReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 1990u, 4242u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OrderHarness h(seed);
    for (int i = 0; i < 4000; ++i) {
      random_op(h);
      ASSERT_TRUE(h.agrees()) << "after operation " << i;
    }
    h.engine().run();
    ASSERT_TRUE(h.agrees()) << "after the final run()";
    EXPECT_TRUE(h.engine().empty());
  }
}

}  // namespace
}  // namespace nectar::sim
