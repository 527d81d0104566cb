#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace nectar::obs {

struct MetricsRegistryTestAccess {
  /// Probe records the registry holds, free ones included.
  static std::size_t records(const MetricsRegistry& reg) { return reg.records_.size(); }
};

namespace {

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter(0, "tcp", "segments_sent");
  c.inc();
  c.inc(3);
  ++c;
  EXPECT_EQ(c.value(), 5u);
  // Same key returns the same cell.
  EXPECT_EQ(&reg.counter(0, "tcp", "segments_sent"), &c);

  Gauge& g = reg.gauge(1, "mailbox", "queued");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains(0, "tcp", "segments_sent"));
  EXPECT_FALSE(reg.contains(9, "tcp", "segments_sent"));
}

TEST(Metrics, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram(0, "datalink", "packet_bytes", {64, 256, 1024});
  // Bounds are inclusive upper bounds: 64 lands in bucket 0, 65 in bucket 1.
  h.observe(0);
  h.observe(64);
  h.observe(65);
  h.observe(256);
  h.observe(257);
  h.observe(1024);
  h.observe(1025);     // overflow bucket
  h.observe(1 << 20);  // overflow bucket
  EXPECT_EQ(h.count(), 8u);
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.bucket_count(0), 2u);   // 0, 64
  EXPECT_EQ(h.bucket_count(1), 2u);   // 65, 256
  EXPECT_EQ(h.bucket_count(2), 2u);   // 257, 1024
  EXPECT_EQ(h.bucket_count(3), 2u);   // 1025, 1M
  EXPECT_EQ(h.sum(), 0 + 64 + 65 + 256 + 257 + 1024 + 1025 + (1 << 20));
}

TEST(Metrics, SnapshotSortedAndDeterministic) {
  auto populate = [](MetricsRegistry& reg) {
    // Deliberately register out of key order.
    reg.counter(1, "zeta", "z").inc(2);
    reg.counter(0, "alpha", "a").inc(1);
    reg.gauge(0, "alpha", "b").set(-4);
    reg.histogram(0, "beta", "h", {10, 20}).observe(15);
  };
  MetricsRegistry r1, r2;
  populate(r1);
  populate(r2);

  Snapshot s1 = r1.snapshot();
  Snapshot s2 = r2.snapshot();
  EXPECT_EQ(s1, s2);
  // Byte-identical serialization is the diffability guarantee.
  EXPECT_EQ(s1.to_json(), s2.to_json());

  // Entries come out sorted by (node, component, name).
  ASSERT_EQ(s1.size(), 4u);
  EXPECT_EQ(s1.entries()[0].key.str(), "node0/alpha/a");
  EXPECT_EQ(s1.entries()[3].key.str(), "node1/zeta/z");
  EXPECT_EQ(s1.value_of(1, "zeta", "z"), 2);
  EXPECT_EQ(s1.value_of(0, "alpha", "b"), -4);
  EXPECT_EQ(s1.value_of(5, "none", "none", -1), -1);
}

TEST(Metrics, SnapshotDelta) {
  MetricsRegistry reg;
  Counter& c = reg.counter(0, "tcp", "segments_sent");
  c.inc(10);
  Snapshot base = reg.snapshot();
  c.inc(5);
  reg.counter(0, "tcp", "resets_sent").inc(1);  // new since base
  Snapshot now = reg.snapshot();
  Snapshot d = now.delta(base);
  EXPECT_EQ(d.value_of(0, "tcp", "segments_sent"), 5);
  EXPECT_EQ(d.value_of(0, "tcp", "resets_sent"), 1);
}

TEST(Metrics, ProbesReadLiveValuesAndUnregisterViaRaii) {
  MetricsRegistry reg;
  std::uint64_t plain_counter = 0;  // a module's existing stat member
  {
    Registration r(reg);
    r.probe(0, "cpu", "context_switches",
            [&] { return static_cast<std::int64_t>(plain_counter); });
    plain_counter = 42;
    EXPECT_EQ(reg.snapshot().value_of(0, "cpu", "context_switches"), 42);
    plain_counter = 43;
    EXPECT_EQ(reg.snapshot().value_of(0, "cpu", "context_switches"), 43);
  }
  // Registration destroyed: the probe is gone, no dangling read at snapshot.
  EXPECT_FALSE(reg.contains(0, "cpu", "context_switches"));
  EXPECT_EQ(reg.snapshot().size(), 0u);
}

TEST(Metrics, DuplicateKeysGetDeterministicSuffix) {
  MetricsRegistry reg;
  Registration r(reg);
  r.probe(0, "mailbox", "m.puts", [] { return 1; });
  r.probe(0, "mailbox", "m.puts", [] { return 2; });
  r.probe(0, "mailbox", "m.puts", [] { return 3; });
  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.value_of(0, "mailbox", "m.puts"), 1);
  EXPECT_EQ(s.value_of(0, "mailbox", "m.puts#2"), 2);
  EXPECT_EQ(s.value_of(0, "mailbox", "m.puts#3"), 3);
}

TEST(Metrics, SameKindReRegistrationIsLookup) {
  MetricsRegistry reg;
  Counter& c = reg.counter(0, "tcp", "segments_sent");
  c.inc(4);
  // Re-asking for the same (key, kind) is a lookup, never a reset.
  EXPECT_EQ(&reg.counter(0, "tcp", "segments_sent"), &c);
  EXPECT_EQ(reg.counter(0, "tcp", "segments_sent").value(), 4u);
  Histogram& h = reg.histogram(0, "dl", "bytes", {10, 20});
  EXPECT_EQ(&reg.histogram(0, "dl", "bytes", {10, 20}), &h);
}

TEST(Metrics, KindConflictOnDuplicateNameThrows) {
  MetricsRegistry reg;
  reg.counter(0, "tcp", "segments_sent").inc();
  // A different-kind claim on a registered name is a wiring bug: fail loudly
  // instead of silently aliasing or overwriting the cell.
  EXPECT_THROW(reg.gauge(0, "tcp", "segments_sent"), std::logic_error);
  EXPECT_THROW(reg.histogram(0, "tcp", "segments_sent", {1, 2}), std::logic_error);
  reg.gauge(1, "mailbox", "queued");
  EXPECT_THROW(reg.counter(1, "mailbox", "queued"), std::logic_error);
  // The original cells are intact after the failed claims.
  EXPECT_EQ(reg.counter(0, "tcp", "segments_sent").value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, HistogramBoundsConflictThrows) {
  MetricsRegistry reg;
  reg.histogram(0, "dl", "bytes", {64, 256});
  EXPECT_THROW(reg.histogram(0, "dl", "bytes", {64, 512}), std::logic_error);
}

TEST(Metrics, HistogramWithDescendingBoundsLeavesNoCell) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram(0, "c", "h", {2, 1}), std::logic_error);
  EXPECT_FALSE(reg.contains(0, "c", "h"));
  EXPECT_EQ(reg.snapshot().size(), 0u);
  reg.histogram(0, "c", "h", {1, 2}).observe(2);
  EXPECT_THROW(reg.histogram(0, "c", "h", {3, 1}), std::logic_error);
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.entries()[0].count, 1u);
}

TEST(Metrics, EmptyRegistrationIsInert) {
  Registration r;  // no registry attached
  r.probe(0, "x", "y", [] { return 0; });  // must not crash
  r.release();
}

// Registering a probe only logs it until the first read; the cases below pin
// that the log replays into exactly the keys, suffixes and throws that
// indexing every probe at registration gives.

TEST(Metrics, ProbeReleasedBeforeTheFirstReadFreesItsKey) {
  MetricsRegistry reg;
  { Registration gone(reg); gone.probe(0, "c", "x", [] { return 1; }); }
  Registration a(reg);
  a.probe(0, "c", "x", [] { return 2; });  // the key is free again: no suffix
  // A probe registered while a since-released one held its key keeps the
  // suffix it got then; the freed key goes to the next registrant.
  auto first = std::make_unique<Registration>(reg);
  first->probe(0, "c", "y", [] { return 3; });
  Registration b(reg);
  b.probe(0, "c", "y", [] { return 4; });  // y#2
  first.reset();
  b.probe(0, "c", "y", [] { return 5; });  // y
  b.probe(0, "c", "y", [] { return 6; });  // y#3
  EXPECT_FALSE(reg.indexed());
  Snapshot s = reg.snapshot();
  EXPECT_TRUE(reg.indexed());
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.value_of(0, "c", "x"), 2);
  EXPECT_EQ(s.value_of(0, "c", "y"), 5);
  EXPECT_EQ(s.value_of(0, "c", "y#2"), 4);
  EXPECT_EQ(s.value_of(0, "c", "y#3"), 6);
}

TEST(Metrics, OwnedCellOverALoggedProbeThrowsAtThatCall) {
  MetricsRegistry reg;
  Registration r(reg);
  r.probe(0, "c", "x", [] { return 1; });
  // No read in between: the conflict still throws from the call that causes it.
  EXPECT_THROW(reg.counter(0, "c", "x"), std::logic_error);
  EXPECT_THROW(reg.gauge(0, "c", "x"), std::logic_error);
  EXPECT_THROW(reg.histogram(0, "c", "x", {1, 2}), std::logic_error);
  EXPECT_EQ(reg.snapshot().value_of(0, "c", "x"), 1);

  // A released probe's key is free for a counter, and a probe registered
  // while the released one held it keeps its name: "k#2", not the "k#2#2"
  // that replaying it after the counter would give.
  MetricsRegistry reg2;
  Registration first(reg2), second(reg2);
  first.probe(0, "c", "k", [] { return 1; });
  second.probe(0, "c", "k#2", [] { return 2; });
  first.release();
  reg2.counter(0, "c", "k").inc(9);
  Snapshot s = reg2.snapshot();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.find(0, "c", "k")->kind, SnapshotEntry::Kind::Counter);
  EXPECT_EQ(s.value_of(0, "c", "k"), 9);
  EXPECT_EQ(s.value_of(0, "c", "k#2"), 2);
}

TEST(Metrics, ProbeAfterAnOwnedCellTakesASuffix) {
  MetricsRegistry reg;
  reg.counter(0, "c", "x").inc(5);
  Registration r(reg);
  r.probe(0, "c", "x", [] { return 7; });  // x#2
  // No read in between: the probe already holds x#2.
  EXPECT_THROW(reg.counter(0, "c", "x#2"), std::logic_error);
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.find(0, "c", "x")->kind, SnapshotEntry::Kind::Counter);
  EXPECT_EQ(s.value_of(0, "c", "x"), 5);
  EXPECT_EQ(s.find(0, "c", "x#2")->kind, SnapshotEntry::Kind::Probe);
  EXPECT_EQ(s.value_of(0, "c", "x#2"), 7);
}

TEST(Metrics, ProbeRegisteredAfterTheFirstReadIsIndexedAtOnce) {
  MetricsRegistry reg;
  Registration a(reg);
  a.probe(0, "c", "x", [] { return 1; });
  EXPECT_EQ(reg.size(), 1u);
  Registration b(reg);
  b.probe(0, "c", "x", [] { return 2; });
  b.probe(1, "c", "x", [] { return 3; });
  EXPECT_TRUE(reg.contains(0, "c", "x#2"));
  EXPECT_TRUE(reg.contains(1, "c", "x"));
  EXPECT_THROW(reg.gauge(1, "c", "x"), std::logic_error);
  a.release();
  EXPECT_FALSE(reg.contains(0, "c", "x"));
  b.probe(0, "c", "x", [] { return 4; });  // x is free again
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.value_of(0, "c", "x"), 4);
  EXPECT_EQ(s.value_of(0, "c", "x#2"), 2);
  EXPECT_EQ(s.value_of(1, "c", "x"), 3);
}

TEST(Metrics, ReleasedLoggedProbeIsNeverCalled) {
  MetricsRegistry reg;
  Registration keep(reg);
  keep.probe(0, "c", "kept", [] { return 1; });
  auto value = std::make_unique<std::int64_t>(42);
  auto token = std::make_shared<int>(0);
  {
    Registration r(reg);
    r.probe(0, "c", "gone", [p = value.get(), token] { return *p; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // the release dropped the callback
  value.reset();  // a call now would read freed memory, which ASan reports
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.value_of(0, "c", "kept"), 1);
}

// Seeded random registrations, releases, owned cells and (in some runs) reads,
// against a model that indexes every probe at once, as the registry did
// before it deferred: every read and the final snapshot must match it, and
// every owned cell must throw exactly when the model says it conflicts. Runs
// are short so that most runs without owned cells or reads end still
// deferred; the rest index on an owned cell, a read or churn part way.
TEST(Metrics, DeferredIndexMatchesIndexingEveryProbeAtRegistration) {
  using Kind = SnapshotEntry::Kind;
  const std::vector<std::string> names = {"x", "y", "x#2", "x#3", "y#2"};
  const std::vector<std::string> owned_names = {"x", "x#2", "u"};
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Random rng(seed);
    const bool owned = seed % 3 != 0, reads = seed % 3 == 2;
    MetricsRegistry reg;
    std::map<MetricKey, std::pair<Kind, std::int64_t>> model;
    // Each Registration's probes, as the model keys they took.
    std::vector<std::pair<std::unique_ptr<Registration>, std::vector<MetricKey>>> regs;
    std::int64_t next_value = 1;
    auto random_key = [&](const std::vector<std::string>& from) {
      return MetricKey{static_cast<int>(rng.next_below(3)) - 1, rng.chance(0.5) ? "a" : "b",
                       from[rng.next_below(from.size())]};
    };
    auto compare = [&] {
      Snapshot s = reg.snapshot();
      ASSERT_EQ(s.size(), model.size());
      std::size_t i = 0;
      for (const auto& [key, cell] : model) {
        const SnapshotEntry& e = s.entries()[i++];
        ASSERT_EQ(e.key, key);
        ASSERT_EQ(e.kind, cell.first);
        ASSERT_EQ(e.value, cell.second);
      }
    };
    for (int op = 0; op < 300; ++op) {
      const double dice = rng.next_double();
      if (dice < 0.48 || regs.empty()) {
        if (regs.empty() || rng.chance(0.7)) {
          regs.emplace_back(std::make_unique<Registration>(reg), std::vector<MetricKey>{});
        }
        auto& [r, keys] = regs[rng.next_below(regs.size())];
        MetricKey key = random_key(names);
        const std::int64_t v = next_value++;
        r->probe(key.node, key.component, key.name, [v] { return v; });
        const std::string base = key.name;
        for (int i = 2; model.count(key) != 0; ++i) key.name = base + "#" + std::to_string(i);
        model[key] = {Kind::Probe, v};
        keys.push_back(key);
      } else if (dice < 0.96) {
        const std::size_t i = rng.next_below(regs.size());
        for (const MetricKey& k : regs[i].second) model.erase(k);
        regs.erase(regs.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (dice < 0.98) {
        if (!owned) continue;
        const MetricKey key = random_key(owned_names);
        const Kind kind = rng.chance(0.5) ? Kind::Counter : Kind::Gauge;
        auto it = model.find(key);
        const bool conflict = it != model.end() && it->second.first != kind;
        if (it == model.end()) model[key] = {kind, 0};
        if (kind == Kind::Counter) {
          if (conflict) {
            EXPECT_THROW(reg.counter(key.node, key.component, key.name), std::logic_error);
          } else {
            EXPECT_NO_THROW(reg.counter(key.node, key.component, key.name));
          }
        } else if (conflict) {
          EXPECT_THROW(reg.gauge(key.node, key.component, key.name), std::logic_error);
        } else {
          EXPECT_NO_THROW(reg.gauge(key.node, key.component, key.name));
        }
      } else if (reads) {
        compare();
      }
    }
    compare();
  }
}

TEST(Metrics, ChurnBeforeTheFirstReadKeepsRecordsBounded) {
  MetricsRegistry reg;
  reg.counter(0, "c", "x").inc(3);
  Registration keep(reg);
  for (int i = 0; i < 10; ++i) keep.probe(0, "c", "keep" + std::to_string(i), [i] { return i; });
  // Two probes under the counter's name, the older released after each
  // registration: each new one's suffix depends on which of x#2, x#3 and
  // x#4 is free.
  std::vector<Registration> churn;
  for (int i = 0; i < 20000; ++i) {
    churn.emplace_back(reg);
    churn.back().probe(0, "c", "x", [i] { return 1000 + i; });
    if (churn.size() > 2) churn.erase(churn.begin());
    // A registration on a node whose log holds more than 64 releases beyond
    // its live probes builds the index; after that releases free records.
    ASSERT_LT(MetricsRegistryTestAccess::records(reg), 100u);
  }
  EXPECT_TRUE(reg.indexed());
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 13u);
  EXPECT_EQ(s.value_of(0, "c", "x"), 3);
  // Probe i holds x#2, x#3 or x#4 as i mod 3 is 0, 1 or 2.
  EXPECT_EQ(s.value_of(0, "c", "x#2"), 1000 + 19998);
  EXPECT_EQ(s.value_of(0, "c", "x#3"), 1000 + 19999);
  EXPECT_EQ(s.find(0, "c", "x#4"), nullptr);
}

// Shard workers register and release probes mid-run while a sampler reads the
// registry; the tsan CI job runs this one.
TEST(Metrics, ConcurrentRegistrationAndSnapshot) {
  MetricsRegistry reg;
  std::atomic<int> registered{0};
  auto worker = [&](int node) {
    Registration kept(reg);
    kept.probe(node, "w", "kept", [node] { return node; });
    for (int i = 0; i < 2000; ++i) {
      Registration r(reg);
      r.probe(node, "w", "churn", [i] { return i; });
      r.probe(node, "w", "churn", [i] { return -i; });
      if (i == 100) kept.probe(node, "w", "late", [] { return 7; });
      registered.fetch_add(1, std::memory_order_relaxed);
    }
    return kept;
  };
  Registration a, b;
  std::thread ta([&] { a = worker(0); });
  std::thread tb([&] { b = worker(1); });
  std::thread reader([&] {
    while (registered.load(std::memory_order_relaxed) < 200) std::this_thread::yield();
    for (int i = 0; i < 200; ++i) {
      Snapshot s = reg.snapshot();
      EXPECT_LE(s.size(), 8u);
    }
  });
  ta.join();
  tb.join();
  reader.join();
  Snapshot s = reg.snapshot();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.value_of(0, "w", "kept"), 0);
  EXPECT_EQ(s.value_of(1, "w", "kept"), 1);
  EXPECT_EQ(s.value_of(0, "w", "late"), 7);
  EXPECT_EQ(s.value_of(1, "w", "late"), 7);
}

}  // namespace
}  // namespace nectar::obs
