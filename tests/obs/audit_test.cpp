#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "hw/pool.hpp"

namespace nectar::obs {
namespace {

TEST(Auditor, HoldingInvariantsStayQuiet) {
  Auditor a;
  int calls = 0;
  a.add("always.holds", "x", [&calls] {
    ++calls;
    return std::string();
  });
  a.check(0);
  a.check(sim::msec(1));
  a.finalize(sim::msec(2));
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(a.ticks(), 3u);
  EXPECT_EQ(a.checks_run(), 3u);
  EXPECT_TRUE(a.violations().empty());
  a.throw_if_failed();  // must not throw
}

TEST(Auditor, RecordsFirstViolatingIntervalAndCountsRecurrences) {
  Auditor a;
  int tick = 0;
  a.add("frames.conserved", "node3.link", [&tick] {
    return tick >= 2 ? "sent=10 delivered=8" : std::string();
  });
  for (tick = 0; tick < 5; ++tick) a.check(sim::msec(tick));
  EXPECT_FALSE(a.ok());
  ASSERT_EQ(a.violations().size(), 1u);
  const Auditor::Violation& v = a.violations().front();
  EXPECT_EQ(v.t, sim::msec(2));  // first violating tick, not the last
  EXPECT_EQ(v.invariant, "frames.conserved");
  EXPECT_EQ(v.component, "node3.link");
  EXPECT_EQ(v.detail, "sent=10 delivered=8");
  EXPECT_EQ(v.occurrences, 3u);  // ticks 2, 3, 4
}

TEST(Auditor, FinalChecksRunOnlyAtFinalize) {
  Auditor a;
  int final_calls = 0;
  a.add_final("lease.balance", "pool", [&final_calls] {
    ++final_calls;
    return "outstanding=1 baseline=0";
  });
  a.check(0);
  a.check(sim::msec(1));
  EXPECT_EQ(final_calls, 0);
  EXPECT_TRUE(a.ok());
  a.finalize(sim::msec(2));
  EXPECT_EQ(final_calls, 1);
  ASSERT_EQ(a.violations().size(), 1u);
  EXPECT_EQ(a.violations().front().t, sim::msec(2));
}

TEST(Auditor, ThrowIfFailedNamesTheViolation) {
  Auditor a;
  a.add("frames.conserved", "hub0", [] { return "in=5 out=4"; });
  a.check(sim::msec(7));
  try {
    a.throw_if_failed();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("frames.conserved"), std::string::npos) << what;
    EXPECT_NE(what.find("hub0"), std::string::npos) << what;
    EXPECT_NE(what.find("in=5 out=4"), std::string::npos) << what;
  }
}

TEST(Auditor, ReportJsonIsStructured) {
  Auditor a;
  a.add("inv.a", "compA", [] { return "bad"; });
  a.add("inv.b", "compB", [] { return std::string(); });
  a.check(sim::msec(3));
  a.finalize(sim::msec(4));
  json::Value doc = a.report_json();
  EXPECT_EQ(doc.find("schema")->as_string(), "nectar-audit");
  EXPECT_EQ(doc.find("version")->as_int(), 1);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("invariants")->as_int(), 2);
  const json::Value& violations = *doc.find("violations");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.at(0).find("invariant")->as_string(), "inv.a");
  EXPECT_EQ(violations.at(0).find("component")->as_string(), "compA");
  EXPECT_EQ(violations.at(0).find("t_ns")->as_int(), sim::msec(3));
}

TEST(Auditor, BuiltinHistogramCheckPassesOnConsistentRegistry) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram(0, "dl", "bytes", {100, 200});
  h.observe(50);
  h.observe(150);
  h.observe(500);
  Auditor a(&reg);
  a.check(0);
  EXPECT_TRUE(a.ok());
}

// The acceptance demonstration for the lease-balance invariant: a quiesced
// system passes against its baseline; a deliberately leaked PooledBytes (a
// lease acquired and never released) makes outstanding() stay permanently
// above it and the final check fails, naming the pool.
TEST(Auditor, CatchesDeliberatelyLeakedBufferPoolLease) {
  hw::BufferPool& pool = hw::BufferPool::payloads();

  auto install = [&pool](Auditor& a, std::int64_t baseline) {
    a.add_final("pool.lease_balance", "hw.framepool", [&pool, baseline] {
      // Quiesced end-of-run: every lease taken since the baseline must have
      // been handed back. (<= because independent owners may release
      // buffers adopted from outside the pool.)
      if (pool.outstanding() <= baseline) return std::string();
      return "outstanding=" + std::to_string(pool.outstanding()) +
             " baseline=" + std::to_string(baseline);
    });
  };

  {
    // Balanced traffic: acquire and release in pairs, then quiesce.
    std::int64_t baseline = pool.outstanding();
    Auditor a;
    install(a, baseline);
    for (int i = 0; i < 16; ++i) hw::PooledBytes scratch(128);
    a.finalize(sim::msec(1));
    EXPECT_TRUE(a.ok());
  }

  {
    std::int64_t baseline = pool.outstanding();
    Auditor a;
    install(a, baseline);
    // The leak: acquire a lease and deliberately never run its destructor.
    auto* leaked = new hw::PooledBytes(256);
    a.finalize(sim::msec(2));
    EXPECT_FALSE(a.ok());
    ASSERT_EQ(a.violations().size(), 1u);
    EXPECT_EQ(a.violations().front().invariant, "pool.lease_balance");
    EXPECT_EQ(a.violations().front().component, "hw.framepool");
    EXPECT_THROW(a.throw_if_failed(), std::runtime_error);
    delete leaked;  // clean up so later tests see a balanced pool
  }
}

}  // namespace
}  // namespace nectar::obs
