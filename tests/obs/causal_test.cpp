#include "obs/causal.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"

namespace nectar::obs {
namespace {

TEST(TraceStamp, EncodeDecodeRoundTrip) {
  std::uint8_t buf[kTraceStampBytes];
  TraceContext in;
  in.trace_id = 0x0123456789ABCDEFull;
  in.parent_span = 0xDEADBEEF;
  in.hop = 7;
  encode_stamp(buf, in);

  TraceContext out;
  ASSERT_TRUE(decode_stamp(buf, out));
  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.parent_span, in.parent_span);
  EXPECT_EQ(out.hop, in.hop);
}

TEST(TraceStamp, DecodeRejectsShortAndCorruptInput) {
  std::uint8_t buf[kTraceStampBytes];
  TraceContext in;
  in.trace_id = 42;
  encode_stamp(buf, in);

  TraceContext out;
  EXPECT_FALSE(decode_stamp(std::span<const std::uint8_t>(buf, kTraceStampBytes - 1), out));
  buf[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(decode_stamp(buf, out));
}

TEST(CausalTracer, InactiveByDefaultAndScopedActivation) {
  EXPECT_EQ(CausalTracer::active(), nullptr);
  sim::Engine e;
  {
    CausalTracer t(e, 1);
    EXPECT_EQ(CausalTracer::active(), nullptr);  // construction does not activate
    t.activate();
    EXPECT_EQ(CausalTracer::active(), &t);
  }
  // Destruction deactivates.
  EXPECT_EQ(CausalTracer::active(), nullptr);
}

TEST(CausalTracer, SamplingIsSeededAndDeterministic) {
  sim::Engine e;
  auto run = [&e](std::uint64_t seed) {
    CausalTracer::Options opt;
    opt.sample = 0.5;
    CausalTracer t(e, seed, opt);
    std::vector<bool> picks;
    for (int i = 0; i < 64; ++i) picks.push_back(t.maybe_start("f", 0, 1, i).valid());
    return picks;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(CausalTracer, SampleZeroAndOne) {
  sim::Engine e;
  CausalTracer::Options none;
  none.sample = 0.0;
  CausalTracer t0(e, 1, none);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(t0.maybe_start("f", 0, 1, i).valid());
  EXPECT_EQ(t0.sampled_out(), 32u);

  CausalTracer::Options all;
  all.sample = 1.0;
  CausalTracer t1(e, 1, all);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(t1.maybe_start("f", 0, 1, i).valid());
  EXPECT_EQ(t1.started(), 32u);
}

TEST(CausalTracer, MaxTracesCapsStarts) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  opt.max_traces = 3;
  CausalTracer t(e, 1, opt);
  for (int i = 0; i < 5; ++i) t.maybe_start("f", 0, 1, i);
  EXPECT_EQ(t.started(), 3u);
  EXPECT_EQ(t.capped(), 2u);
}

// The heart of the design: consecutive stage() calls tile [start, end], so
// the per-stage durations sum exactly to the end-to-end latency.
TEST(CausalTracer, CutPointStagesTileTheTraceExactly) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  CausalTracer t(e, 1, opt);

  TraceContext ctx;
  e.schedule_at(1000, [&] {
    ctx = t.maybe_start("flow", 0, 1, 0);
    t.stage(ctx, "tx.app", "node0");
  });
  e.schedule_at(1400, [&] { t.stage(ctx, "tx.udp", "node0"); });
  e.schedule_at(2650, [&] { t.stage(ctx, "link.tx"); });
  e.schedule_at(4000, [&] { t.stage(ctx, "rx.udp", "node1"); });
  e.schedule_at(4100, [&] { t.finish(ctx); });
  e.run();

  ASSERT_EQ(t.traces().size(), 1u);
  const CausalTracer::Trace& tr = *t.traces()[0];
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.e2e(), 3100);
  ASSERT_EQ(tr.stages.size(), 4u);
  sim::SimTime sum = 0;
  for (const StageRecord& s : tr.stages) sum += s.duration();
  EXPECT_EQ(sum, tr.e2e());
  EXPECT_EQ(tr.stages[0].label, "tx.app");
  EXPECT_EQ(tr.stages[0].duration(), 400);
  EXPECT_EQ(tr.stages[1].duration(), 1250);
  EXPECT_EQ(tr.stages[2].duration(), 1350);
  EXPECT_EQ(tr.stages[3].duration(), 100);

  CriticalPathAnalyzer cpa(t);
  EXPECT_EQ(cpa.verify(), "");
}

TEST(CausalTracer, StagesAfterFinishAreIgnored) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  CausalTracer t(e, 1, opt);
  TraceContext ctx = t.maybe_start("f", 0, 1, 0);
  t.stage(ctx, "tx.app");
  t.finish(ctx);
  t.stage(ctx, "late");
  t.annotate(ctx, "late.note");
  ASSERT_EQ(t.traces().size(), 1u);
  EXPECT_EQ(t.traces()[0]->stages.size(), 1u);
  EXPECT_TRUE(t.traces()[0]->notes.empty());
  // Invalid contexts are always no-ops.
  t.stage({}, "nothing");
  t.finish({});
}

TEST(CausalTracer, StageOverflowDiscardsTrace) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  opt.max_stages = 4;
  CausalTracer t(e, 1, opt);
  TraceContext ctx = t.maybe_start("f", 0, 1, 0);
  for (int i = 0; i < 10; ++i) t.stage(ctx, "s");
  t.finish(ctx);
  EXPECT_EQ(t.overflowed(), 1u);
  EXPECT_EQ(t.finished_count(), 0u);
  // Overflowed traces are excluded from verification and the artifact.
  CriticalPathAnalyzer cpa(t);
  EXPECT_EQ(cpa.verify(), "");
}

TEST(CausalTracer, AddressTagsLookupByContainment) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  CausalTracer t(e, 1, opt);
  TraceContext ctx = t.maybe_start("f", 0, 1, 0);

  t.tag(2, 0x1000, 64, ctx);
  EXPECT_EQ(t.lookup(2, 0x1000).trace_id, ctx.trace_id);
  EXPECT_EQ(t.lookup(2, 0x103F).trace_id, ctx.trace_id);  // last byte
  EXPECT_FALSE(t.lookup(2, 0x1040).valid());              // one past the end
  EXPECT_FALSE(t.lookup(2, 0x0FFF).valid());              // before the range
  EXPECT_FALSE(t.lookup(3, 0x1000).valid());              // other node
}

TEST(CausalTracer, OverlappingTagOverwritesAndInvalidClears) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  CausalTracer t(e, 1, opt);
  TraceContext a = t.maybe_start("f", 0, 1, 0);
  TraceContext b = t.maybe_start("f", 0, 1, 1);

  // b's buffer recycles part of a's range: a's stale tag must not survive.
  t.tag(0, 0x2000, 128, a);
  t.tag(0, 0x2040, 64, b);
  EXPECT_EQ(t.lookup(0, 0x2050).trace_id, b.trace_id);
  EXPECT_FALSE(t.lookup(0, 0x2000).valid());  // a's tag was erased wholesale

  // An invalid context clears without installing.
  t.tag(0, 0x2040, 64, {});
  EXPECT_FALSE(t.lookup(0, 0x2050).valid());
}

TEST(CriticalPathAnalyzer, ClassifiesLossWaitByRerouteWindow) {
  sim::Engine e;
  CausalTracer::Options opt;
  opt.sample = 1.0;
  CausalTracer t(e, 1, opt);

  // Two identical traces 0 -> 1 with a loss.wait stage over [1000, 5000];
  // a reroute window is noted for (0, 1) only, so the matching trace's
  // loss.wait reclassifies from retransmit to reroute.
  TraceContext a, b;
  e.schedule_at(500, [&] {
    a = t.maybe_start("f", 0, 1, 0);
    t.stage(a, "tx.app", "node0");
    b = t.maybe_start("g", 0, 2, 0);
    t.stage(b, "tx.app", "node0");
  });
  e.schedule_at(1000, [&] {
    t.stage(a, "loss.wait", "node0");
    t.stage(b, "loss.wait", "node0");
  });
  e.schedule_at(5000, [&] {
    t.stage(a, "rx.udp", "node1");
    t.stage(b, "rx.udp", "node2");
  });
  e.schedule_at(5100, [&] {
    t.finish(a);
    t.finish(b);
  });
  e.run();
  t.note_reroute(0, 1, 2000, 4000);  // overlaps a's loss.wait; dst matches a only

  CriticalPathAnalyzer cpa(t);
  const CausalTracer::Trace& ta = *t.traces()[0];
  const CausalTracer::Trace& tb = *t.traces()[1];
  EXPECT_STREQ(cpa.classify(ta, ta.stages[1]), "reroute");
  EXPECT_STREQ(cpa.classify(tb, tb.stages[1]), "retransmit");
}

TEST(CriticalPathAnalyzer, ArtifactIsDeterministicAndWellFormed) {
  sim::Engine e;
  auto build = [&e](CausalTracer& t) {
    TraceContext c1, c2;
    e.schedule_at(100, [&] {
      c1 = t.maybe_start("f", 0, 1, 0);
      t.stage(c1, "tx.app", "node0");
      c2 = t.maybe_start("f", 0, 1, 1);
      t.stage(c2, "tx.app", "node0");
    });
    e.schedule_at(700, [&] {
      t.stage(c1, "rx.udp", "node1");
      t.stage(c2, "rx.udp", "node1");
    });
    e.schedule_at(800, [&] { t.finish(c1); });
    e.schedule_at(2000, [&] { t.finish(c2); });
    e.run();
  };
  CausalTracer::Options opt;
  opt.sample = 1.0;
  CausalTracer t(e, 9, opt);
  build(t);

  json::Value art = CriticalPathAnalyzer(t).artifact(10);
  EXPECT_EQ(art.find("schema")->as_string(), "nectar-tailtrace");
  EXPECT_EQ(art.find("version")->as_int(), 1);
  const json::Value* flows = art.find("flows");
  ASSERT_NE(flows, nullptr);
  ASSERT_EQ(flows->size(), 1u);
  const json::Value& f = flows->at(0);
  EXPECT_EQ(f.find("flow")->as_string(), "f");
  EXPECT_EQ(f.find("finished")->as_int(), 2);
  // Slowest-first ordering: the 1900ns trace leads.
  const json::Value& slow = f.find("slowest")->at(0);
  EXPECT_DOUBLE_EQ(slow.find("e2e_us")->as_double(), 1.9);
  // Same inputs, same bytes.
  EXPECT_EQ(art.dump(2), CriticalPathAnalyzer(t).artifact(10).dump(2));

  // report_into emits the aggregate rows without throwing.
  RunReport rep("causal-test");
  CriticalPathAnalyzer(t).report_into(rep);
  json::Value doc = json::Value::parse(rep.to_json_string());
  bool found = false;
  for (const json::Value& row : doc.find("results")->items()) {
    if (row.find("name")->as_string() == "tailtrace.traces.finished") {
      EXPECT_DOUBLE_EQ(row.find("value")->as_double(), 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace nectar::obs
