#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nectar::obs {
namespace {

Sampler::Options opts(sim::SimTime interval = sim::msec(1), std::size_t max_samples = 4096) {
  Sampler::Options o;
  o.interval = interval;
  o.max_samples = max_samples;
  return o;
}

TEST(Sampler, DeltaEncodesCounters) {
  MetricsRegistry reg;
  Counter& c = reg.counter(0, "tcp", "segments");
  Sampler s(reg, opts());
  s.sample(0);
  c.inc(5);
  s.sample(sim::msec(1));
  c.inc(2);
  s.sample(sim::msec(2));
  EXPECT_EQ(s.samples(), 3u);
  EXPECT_EQ(s.series_count(), 1u);

  json::Value doc = s.artifact("t");
  const json::Value& series = *doc.find("series");
  ASSERT_EQ(series.size(), 1u);
  const json::Value& row = series.at(0);
  EXPECT_EQ(row.find("component")->as_string(), "tcp");
  EXPECT_EQ(row.find("name")->as_string(), "segments");
  EXPECT_EQ(row.find("first")->as_int(), 0);
  const json::Value& deltas = *row.find("deltas");
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas.at(0).as_int(), 5);
  EXPECT_EQ(deltas.at(1).as_int(), 2);
}

TEST(Sampler, HistogramsSplitIntoCountAndSum) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram(0, "dl", "bytes", {100, 200});
  Sampler s(reg, opts());
  s.sample(0);
  h.observe(50);
  h.observe(150);
  s.sample(sim::msec(1));
  EXPECT_EQ(s.series_count(), 2u);  // .count and .sum streams

  json::Value doc = s.artifact("t");
  const json::Value& series = *doc.find("series");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series.at(0).find("field")->as_string(), "count");
  EXPECT_EQ(series.at(0).find("deltas")->at(0).as_int(), 2);
  EXPECT_EQ(series.at(1).find("field")->as_string(), "sum");
  EXPECT_EQ(series.at(1).find("deltas")->at(0).as_int(), 200);
}

TEST(Sampler, RingEvictsOldestAndFoldsBase) {
  MetricsRegistry reg;
  Counter& c = reg.counter(0, "x", "n");
  Sampler s(reg, opts(sim::msec(1), 3));
  for (int i = 0; i < 6; ++i) {
    s.sample(sim::msec(i));
    c.inc(1);
  }
  EXPECT_EQ(s.samples(), 6u);
  EXPECT_EQ(s.retained(), 3u);
  EXPECT_EQ(s.dropped(), 3u);
  json::Value doc = s.artifact("t");
  // Retained window is ticks 3..5 with values 3,4,5: base folded to 3.
  const json::Value& row = doc.find("series")->at(0);
  EXPECT_EQ(row.find("first")->as_int(), 3);
  const json::Value& deltas = *row.find("deltas");
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas.at(0).as_int(), 1);
  EXPECT_EQ(deltas.at(1).as_int(), 1);
  EXPECT_EQ(doc.find("t_ns")->size(), 3u);
}

TEST(Sampler, LateSeriesStartsAtItsFirstTick) {
  MetricsRegistry reg;
  reg.counter(0, "a", "early").inc();
  Sampler s(reg, opts());
  s.sample(0);
  s.sample(sim::msec(1));
  reg.counter(0, "b", "late").inc(7);
  s.sample(sim::msec(2));
  json::Value doc = s.artifact("t");
  const json::Value& series = *doc.find("series");
  ASSERT_EQ(series.size(), 2u);
  // Key-sorted: a.early first, b.late second.
  EXPECT_EQ(series.at(0).find("start")->as_int(), 0);
  EXPECT_EQ(series.at(1).find("name")->as_string(), "late");
  EXPECT_EQ(series.at(1).find("start")->as_int(), 2);
  EXPECT_EQ(series.at(1).find("first")->as_int(), 7);
}

TEST(Sampler, ExcludesHostSideSeriesByDefault) {
  MetricsRegistry reg;
  Registration r(reg);
  r.probe(-1, "sim.parallel", "shard0.work_ns", [] { return 123; });
  r.probe(-1, "sim.parallel", "shard0.barrier_wait_ns", [] { return 5; });
  r.probe(-1, "hw.framepool", "acquires", [] { return 9; });
  r.probe(-1, "proto.hdrpool", "pooled", [] { return 2; });
  reg.counter(-1, "sim.parallel", "windows").inc();
  Sampler s(reg, opts());
  s.sample(0);
  EXPECT_EQ(s.series_count(), 1u);  // only "windows" survives
}

TEST(Sampler, IncludeFilterKeepsOnlyMatchingSeries) {
  MetricsRegistry reg;
  reg.counter(-1, "sim.parallel", "shard0.events").inc();
  reg.counter(-1, "sim.parallel", "windows").inc();
  reg.counter(0, "tcp", "segments").inc();
  // Exclusions still apply on top of the include list.
  Registration r(reg);
  r.probe(-1, "sim.parallel", "shard0.work_ns", [] { return 42; });
  Sampler::Options o = opts();
  o.include = {"sim.parallel"};
  Sampler s(reg, o);
  s.sample(0);
  EXPECT_EQ(s.series_count(), 2u);  // the two shard counters, nothing else
}

TEST(Sampler, IncludeFilterAppliesToMarkKinds) {
  MetricsRegistry reg;
  Sampler::Options o = opts();
  o.include = {"sim.parallel", "route."};
  Sampler s(reg, o);
  s.mark(sim::msec(1), "rmp.retransmit", "node3 peer=1 seq=7");
  s.mark(sim::msec(2), "route.failover", "node0 dst=1 path=1");
  s.mark(sim::msec(3), "fault", "link_drop(node1.link)", sim::msec(4));
  ASSERT_EQ(s.marks().size(), 1u);
  EXPECT_EQ(s.marks()[0].kind, "route.failover");
  // Exclusions filter mark kinds too.
  Sampler::Options x = opts();
  x.exclude.push_back("rmp.");
  Sampler t(reg, x);
  t.mark(sim::msec(1), "rmp.retransmit", "node3 peer=1 seq=7");
  t.mark(sim::msec(3), "fault", "link_drop(node1.link)", sim::msec(4));
  ASSERT_EQ(t.marks().size(), 1u);
  EXPECT_EQ(t.marks()[0].kind, "fault");
}

TEST(Sampler, RejectsDecreasingTicksAndZeroCapacity) {
  MetricsRegistry reg;
  Sampler s(reg, opts());
  s.sample(sim::msec(5));
  EXPECT_THROW(s.sample(sim::msec(4)), std::logic_error);
  Sampler::Options bad;
  bad.max_samples = 0;
  EXPECT_THROW(Sampler(reg, bad), std::invalid_argument);
}

TEST(Sampler, MarksSortDeterministically) {
  MetricsRegistry reg;
  Sampler s(reg, opts());
  s.mark(sim::msec(9), "fault", "late");
  s.mark(sim::msec(1), "fault", "window", sim::msec(3));
  s.mark(sim::msec(1), "failover", "node0->1 path1");
  json::Value doc = s.artifact("t");
  const json::Value& marks = *doc.find("marks");
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks.at(0).find("kind")->as_string(), "failover");
  EXPECT_EQ(marks.at(1).find("label")->as_string(), "window");
  EXPECT_EQ(marks.at(1).find("end_ns")->as_int(), sim::msec(3));
  EXPECT_EQ(marks.at(2).find("label")->as_string(), "late");
  EXPECT_FALSE(marks.at(2).has("end_ns"));  // instant, not window
}

TEST(Sampler, ArtifactIsByteDeterministic) {
  auto run = [] {
    MetricsRegistry reg;
    Counter& c = reg.counter(0, "tcp", "segs");
    Gauge& g = reg.gauge(1, "mbox", "depth");
    Histogram& h = reg.histogram(0, "dl", "bytes", {100});
    Sampler s(reg, opts());
    for (int i = 0; i < 20; ++i) {
      c.inc(static_cast<std::uint64_t>(i));
      g.set(i % 3 - 1);
      h.observe(i * 50);
      s.sample(sim::msec(i));
    }
    s.mark(sim::msec(7), "fault", "x", sim::msec(9));
    return s.artifact("det").dump(2);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace nectar::obs
