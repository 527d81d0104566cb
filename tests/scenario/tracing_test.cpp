#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>

#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

// Scenario-level contract for [tracing] (docs/OBSERVABILITY.md): with
// tracing enabled, a full run produces traces whose stage timelines tile the
// end-to-end latency exactly, the artifact and report are deterministic in
// (spec, seed), and with tracing disabled the report is byte-identical to a
// spec with no [tracing] section at all.

ScenarioSpec traced_spec(std::uint64_t seed, const std::string& tracing_section) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = trc
duration = 200ms

[topology]
kind = star
nodes = 4

[workload]
name = udp
proto = udp
mode = open
users = 8
rate = 40
size_min = 64
size_max = 512

[workload]
name = tcp
proto = tcp
mode = closed
users = 2
think = 2ms
size = 256
stride = 2
)" + tracing_section));
  spec.seed = seed;
  return spec;
}

const char* kTracingOn = R"(
[tracing]
enabled = true
sample = 0.5
top_k = 4
)";

TEST(ScenarioTracingTest, InvariantHoldsOverFullScenario) {
  Scenario sc(traced_spec(31, kTracingOn));
  sc.run();
  obs::CausalTracer* t = sc.causal_tracer();
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->started(), 0u);
  EXPECT_GT(t->finished_count(), 0u);
  EXPECT_EQ(t->overflowed(), 0u);
  obs::CriticalPathAnalyzer cpa(*t);
  EXPECT_EQ(cpa.verify(), "") << "stage durations must tile e2e latency exactly";
  // report() routes through report_into, which throws on violation.
  EXPECT_NO_THROW(sc.report());
}

TEST(ScenarioTracingTest, ArtifactAndReportDeterministic) {
  auto run = [](std::uint64_t seed) {
    Scenario sc(traced_spec(seed, kTracingOn));
    sc.run();
    obs::CriticalPathAnalyzer cpa(*sc.causal_tracer());
    return std::make_pair(cpa.artifact(4).dump(2), sc.report().to_json_string());
  };
  auto [art_a, rep_a] = run(31);
  auto [art_b, rep_b] = run(31);
  EXPECT_EQ(art_a, art_b) << "same (spec, seed) must give a byte-identical artifact";
  EXPECT_EQ(rep_a, rep_b);
  auto [art_c, rep_c] = run(32);
  EXPECT_NE(art_a, art_c);
}

// The nine attribution classes the analyzer emits per flow and per report.
const char* const kStageClasses[] = {"queueing", "serialization", "switching", "dma", "mailbox",
                                     "proto",    "retransmit",    "reroute",   "app"};

TEST(ScenarioTracingTest, ReportCarriesAttributionAndHubGauges) {
  Scenario sc(traced_spec(31, kTracingOn));
  sc.run();
  obs::json::Value doc = obs::json::Value::parse(sc.report().to_json_string());
  std::map<std::string, double> rows;
  for (const obs::json::Value& row : doc.find("results")->items()) {
    rows[row.find("name")->as_string()] = row.find("value")->as_double();
  }
  auto has = [&rows](const std::string& n) { return rows.count(n) == 1; };
  EXPECT_TRUE(has("tailtrace.traces.started"));
  EXPECT_TRUE(has("tailtrace.traces.finished"));
  double share = 0.0;
  for (const char* cls : kStageClasses) {
    EXPECT_TRUE(has(std::string("tailtrace.tail.") + cls + "_us")) << cls;
    EXPECT_TRUE(has(std::string("tailtrace.tail.") + cls + "_share")) << cls;
    share += rows[std::string("tailtrace.tail.") + cls + "_share"];
  }
  EXPECT_NEAR(share, 1.0, 1e-9) << "the tail shares must cover the whole tail";
  // Per-port HUB queue gauges export only when tracing is on.
  EXPECT_TRUE(has("hub.hub0.port0.queue_depth"));
  EXPECT_TRUE(has("hub.hub0.port0.queue_highwater"));
  EXPECT_TRUE(has("hub.hub0.port0.blocked"));

  // The artifact agrees with the report and attributes every flow's tail
  // over the same nine classes; each slowest trace's stages tile its e2e.
  obs::json::Value art = obs::CriticalPathAnalyzer(*sc.causal_tracer()).artifact(4);
  const obs::json::Value& traces = *art.find("traces");
  EXPECT_EQ(traces.find("started")->as_int(), traces.find("finished")->as_int() +
                                                   traces.find("unfinished")->as_int() +
                                                   traces.find("overflowed")->as_int());
  EXPECT_EQ(static_cast<double>(traces.find("finished")->as_int()),
            rows["tailtrace.traces.finished"]);
  ASSERT_EQ(art.find("flows")->size(), 2u) << "one flow per workload";
  for (const obs::json::Value& f : art.find("flows")->items()) {
    const std::string flow = f.find("flow")->as_string();
    const obs::json::Value& tail = *f.find("tail");
    EXPECT_EQ(tail.size(), std::size(kStageClasses)) << flow;
    double flow_share = 0.0;
    for (const char* cls : kStageClasses) {
      ASSERT_TRUE(tail.has(cls)) << flow << " " << cls;
      flow_share += tail.find(cls)->find("share")->as_double();
    }
    if (f.find("tail_count")->as_int() > 0) {
      EXPECT_NEAR(flow_share, 1.0, 1e-9) << flow;
    }
    for (const obs::json::Value& t : f.find("slowest")->items()) {
      double stages = 0.0;
      for (const obs::json::Value& st : t.find("stages")->items()) {
        stages += st.find("dur_us")->as_double();
      }
      EXPECT_NEAR(stages, t.find("e2e_us")->as_double(), 1e-6) << flow;
    }
  }
}

TEST(ScenarioTracingTest, DisabledTracingLeavesReportUntouched) {
  Scenario plain(traced_spec(31, ""));
  plain.run();
  Scenario off(traced_spec(31, "\n[tracing]\nenabled = false\nsample = 0.5\n"));
  off.run();
  EXPECT_EQ(off.causal_tracer(), nullptr);
  EXPECT_EQ(plain.report().to_json_string(), off.report().to_json_string())
      << "a disabled [tracing] section must not perturb the run";
  EXPECT_EQ(plain.report().to_json_string().find("tailtrace"), std::string::npos);
}

// The stages a layer's receive upcall opens on the trace it finds for the
// message in hand.
const std::set<std::string> kRxProtoStages = {"rx.ip",  "rx.udp", "rx.tcp", "rx.datagram",
                                              "rx.rmp", "rx.rpc", "rx.coll"};

// The receive stages a trace of `flow` may carry: those of its own stack.
std::set<std::string> own_rx_stages(const ScenarioSpec& spec, const std::string& flow) {
  if (flow.rfind("coll.", 0) == 0) return {"rx.coll"};
  for (const WorkloadSpec& w : spec.workloads) {
    if (w.name != flow) continue;
    switch (w.proto) {
      case Proto::Udp: return {"rx.ip", "rx.udp"};
      case Proto::Tcp: return {"rx.ip", "rx.tcp"};
      case Proto::Datagram: return {"rx.datagram"};
      case Proto::Rmp: return {"rx.rmp"};
      case Proto::ReqResp: return {"rx.rpc"};
    }
  }
  return {};
}

// An 8-CAB fat tree whose 12 KB UDP messages fragment at the 9 KB MTU, so
// reassembly moves a trace to a fresh buffer, beside RMP and a CAB barrier.
const char* kFragmenting = R"(
[scenario]
name = frag8
seed = 11
duration = 200ms

[topology]
kind = fat_tree
nodes = 8
hub_ports = 6
spines = 2

[tracing]
enabled = true
sample = 0.5

[workload]
name = udp-frag
proto = udp
mode = closed
users = 1
think = 10ms
size = 12288
stride = 4

[workload]
name = rmp
proto = rmp
mode = closed
users = 1
think = 1ms
size = 256
stride = 3

[collectives]
enabled = true
mode = cab
op = barrier
interval = 2ms
)";

// Every receive-side protocol stage must sit on the node whose datalink
// received the message just before it (a multicast trace's replicas reach
// their members in parallel, so there it must follow a reception on its own
// node), and belong to the trace's own protocol; and a finished trace must
// carry its protocol's own receive stage. A stage on the wrong trace shifts
// time between attribution classes, and a UDP trace finished by another
// message's delivery is wrong end to end.
TEST(ScenarioTracingTest, ReceiveStagesStayOnTheirOwnTrace) {
  const std::string dir = std::string(NECTAR_SOURCE_DIR) + "/examples/scenarios/";
  const std::pair<const char*, Config> configs[] = {
      {"tailtrace4", Config::parse_file(dir + "tailtrace4.ini")},
      {"tailtrace12", Config::parse_file(dir + "tailtrace12.ini")},
      {"frag8", Config::parse_string(kFragmenting)},
  };
  for (const auto& [name, cfg] : configs) {
    SCOPED_TRACE(name);
    ScenarioSpec spec = ScenarioSpec::from_config(cfg);
    spec.tracing.artifact.clear();  // the report rows are not under test
    Scenario sc(spec);
    sc.run();
    const obs::CausalTracer* t = sc.causal_tracer();
    ASSERT_NE(t, nullptr);

    std::size_t rx_stages = 0, wrong = 0, undelivered = 0;
    std::set<std::uint64_t> wrong_traces;
    std::string first;
    for (const auto& tp : t->traces()) {
      const std::set<std::string> own = own_rx_stages(sc.spec(), tp->flow);
      ASSERT_FALSE(own.empty()) << "flow " << tp->flow << " has no workload";
      const std::string* dl_node = nullptr;  // the latest rx.datalink's
      std::set<std::string> dl_nodes;         // every rx.datalink's so far
      bool delivered = false;  // saw its transport's (not IP's) receive stage
      for (const obs::StageRecord& s : tp->stages) {
        if (s.label == "rx.datalink") {
          dl_node = &s.where;
          dl_nodes.insert(s.where);
        }
        if (kRxProtoStages.count(s.label) == 0) continue;
        ++rx_stages;
        delivered = delivered || (own.count(s.label) == 1 && s.label != "rx.ip");
        bool same_node = tp->dst < 0 ? dl_nodes.count(s.where) == 1
                                     : dl_node != nullptr && s.where == *dl_node;
        if (same_node && own.count(s.label) == 1) continue;
        ++wrong;
        wrong_traces.insert(tp->id);
        if (first.empty()) {
          first = "trace " + std::to_string(tp->id) + " (" + tp->flow + "): " + s.label + " at " +
                  s.where + " after rx.datalink at " + (dl_node != nullptr ? *dl_node : "none");
        }
      }
      if (tp->finished && !delivered) ++undelivered;
    }
    EXPECT_GT(rx_stages, 0u);
    EXPECT_EQ(wrong, 0u) << wrong << " of " << rx_stages << " receive stages in "
                         << wrong_traces.size() << " of " << t->traces().size()
                         << " traces are misattributed; first: " << first;
    EXPECT_EQ(undelivered, 0u) << undelivered << " of " << t->finished_count()
                               << " finished traces lack their protocol's receive stage";
  }
}

TEST(ScenarioTracingTest, ConfigValidation) {
  EXPECT_THROW(traced_spec(1, "\n[tracing]\nenabled = true\nsample = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(traced_spec(1, "\n[tracing]\nenabled = true\ntop_k = -1\n"),
               std::runtime_error);
  EXPECT_THROW(traced_spec(1, "\n[tracing]\nsampel = 0.5\n"), std::runtime_error);
}

}  // namespace
}  // namespace nectar::scenario
