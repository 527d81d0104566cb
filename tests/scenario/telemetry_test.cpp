#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

// Continuous telemetry contract ([telemetry] section, docs/OBSERVABILITY.md):
//   * sampling is pull-based, so a single-shard telemetry-on run executes the
//     same event stream as a telemetry-off run;
//   * the time-series artifact is a pure function of (spec, seed, shards,
//     interval) — byte-identical across runs, including under [parallel];
//   * the conservation auditor holds on a healthy run, fault burst included.

constexpr const char* kBase = R"(
[scenario]
name = telem
duration = 200ms

[topology]
kind = fat_tree
nodes = 8
hub_ports = 6
spines = 2
route_spread = yes

[workload]
name = udp
proto = udp
mode = open
users = 40
rate = 10
size_min = 64
size_max = 512
stride = 3

[workload]
name = rmp
proto = rmp
mode = closed
users = 2
think = 5ms
size = 128
stride = 2

[fault]
kind = link_drop
target = node1.link
at = 60ms
duration = 50ms
rate = 0.5
)";

ScenarioSpec spec_with_telemetry(bool telemetry, int shards = 1,
                                 std::uint64_t seed = 7) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(kBase));
  spec.seed = seed;
  spec.parallel.shards = shards;
  spec.telemetry.enabled = telemetry;
  spec.telemetry.interval = sim::msec(10);
  return spec;
}

TEST(ScenarioTelemetry, ConfigSectionParses) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[telemetry]
enabled = yes
interval = 5ms
artifact = ts.json
audit = no
audit_artifact = audit.json
max_samples = 128
include = sim.parallel, workload
)"));
  EXPECT_TRUE(spec.telemetry.enabled);
  EXPECT_EQ(spec.telemetry.interval, sim::msec(5));
  EXPECT_EQ(spec.telemetry.artifact, "ts.json");
  EXPECT_FALSE(spec.telemetry.audit);
  EXPECT_EQ(spec.telemetry.audit_artifact, "audit.json");
  EXPECT_EQ(spec.telemetry.max_samples, 128);
  ASSERT_EQ(spec.telemetry.include.size(), 2u);
  EXPECT_EQ(spec.telemetry.include[0], "sim.parallel");
  EXPECT_EQ(spec.telemetry.include[1], "workload");
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[telemetry]\ninterval = 0ms\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[telemetry]\ncadence = 1ms\n")),
               std::runtime_error);
}

TEST(ScenarioTelemetry, SamplingIsNeutralToTheRun) {
  Scenario off(spec_with_telemetry(false));
  off.run();
  Scenario on(spec_with_telemetry(true));
  on.run();
  ASSERT_NE(on.sampler(), nullptr);
  ASSERT_NE(on.auditor(), nullptr);
  EXPECT_EQ(off.sampler(), nullptr);
  // Same deliveries, drops, event counts: the sampler never scheduled.
  for (std::size_t i = 0; i < off.workloads().size(); ++i) {
    EXPECT_EQ(off.workloads()[i]->delivered(), on.workloads()[i]->delivered());
    EXPECT_EQ(off.workloads()[i]->sent(), on.workloads()[i]->sent());
  }
  EXPECT_EQ(off.faults().network_drops(), on.faults().network_drops());
  EXPECT_EQ(off.net().engine().events_processed(), on.net().engine().events_processed());
}

TEST(ScenarioTelemetry, ArtifactIsByteIdenticalAcrossRuns) {
  auto artifact = [] {
    Scenario sc(spec_with_telemetry(true));
    sc.run();
    return sc.sampler()->artifact("telem").dump(2);
  };
  std::string a = artifact();
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a, artifact());

  // The schema decodes: every series' delta chain is aligned with the t_ns
  // axis (first value at `start`, one delta per later tick), and windowed
  // marks end after they start.
  obs::json::Value doc = obs::json::Value::parse(a);
  EXPECT_EQ(doc.find("schema")->as_string(), "nectar-timeseries");
  EXPECT_EQ(doc.find("version")->as_int(), 1);
  const std::int64_t ticks = static_cast<std::int64_t>(doc.find("t_ns")->size());
  const std::int64_t samples = doc.find("samples")->as_int();
  EXPECT_GT(ticks, 0);
  EXPECT_EQ(samples, ticks + doc.find("dropped")->as_int());
  ASSERT_GT(doc.find("series")->size(), 0u);
  for (const obs::json::Value& s : doc.find("series")->items()) {
    EXPECT_EQ(s.find("start")->as_int() + 1 + static_cast<std::int64_t>(s.find("deltas")->size()),
              samples)
        << s.find("component")->as_string() << "." << s.find("name")->as_string();
  }
  ASSERT_GT(doc.find("marks")->size(), 0u);
  for (const obs::json::Value& m : doc.find("marks")->items()) {
    if (m.has("end_ns")) {
      EXPECT_GE(m.find("end_ns")->as_int(), m.find("t_ns")->as_int());
    }
  }
}

TEST(ScenarioTelemetry, ArtifactIsByteIdenticalAcrossRunsAtFourShards) {
  auto artifact = [] {
    Scenario sc(spec_with_telemetry(true, 4));
    sc.run();
    // Two leaves and two spines: every shard owns a HUB and runs events.
    for (int i = 0; i < 4; ++i) {
      EXPECT_GT(sc.net().parallel().shard_events(i), 0u) << "shard " << i << " sat idle";
    }
    return sc.sampler()->artifact("telem").dump(2);
  };
  std::string a = artifact();
  // The wall-clock probes (work_ns / barrier_wait_ns) are excluded by
  // default, so even the sharded artifact must reproduce byte-for-byte.
  EXPECT_NE(a.find("sim.parallel"), std::string::npos);
  EXPECT_EQ(a, artifact());
}

TEST(ScenarioTelemetry, AuditorHoldsThroughAFaultBurst) {
  Scenario sc(spec_with_telemetry(true));
  sc.run();  // throws on any conservation violation
  const obs::Auditor& a = *sc.auditor();
  EXPECT_TRUE(a.ok());
  EXPECT_GT(a.invariants(), 0u);
  // 21 ticks (t=0 plus 20 intervals) plus the finalize pass.
  EXPECT_EQ(a.ticks(), 22u);
  EXPECT_GE(a.checks_run(), a.invariants() * 22);
}

TEST(ScenarioTelemetry, FaultWindowsBecomeMarks) {
  Scenario sc(spec_with_telemetry(true));
  sc.run();
  std::vector<const obs::Sampler::Mark*> faults, retransmits;
  for (const obs::Sampler::Mark& m : sc.sampler()->marks()) {
    if (m.kind == "fault") faults.push_back(&m);
    if (m.kind == "rmp.retransmit") retransmits.push_back(&m);
  }
  ASSERT_EQ(faults.size(), 1u);
  const obs::Sampler::Mark& fault = *faults[0];
  EXPECT_NE(fault.label.find("link_drop"), std::string::npos);
  EXPECT_GE(fault.t, sim::msec(60));  // applied_at includes derived jitter
  EXPECT_GT(fault.end, fault.t);
  // The event log rides along: RMP retransmits only once the lossy window
  // opens, and each mark names its node and the message it resent.
  ASSERT_FALSE(retransmits.empty());
  for (const obs::Sampler::Mark* m : retransmits) {
    EXPECT_GE(m->t, fault.t);
    EXPECT_LT(m->end, 0) << "an event-log mark is an instant";
    EXPECT_EQ(m->label.rfind("node", 0), 0u) << m->label;
    EXPECT_NE(m->label.find(" peer="), std::string::npos) << m->label;
  }
}

/// Whether the run's sampler holds a mark of `kind` whose label contains
/// `label`.
bool has_mark(Scenario& sc, const std::string& kind, const std::string& label = "") {
  for (const obs::Sampler::Mark& m : sc.sampler()->marks()) {
    if (m.kind == kind && m.label.find(label) != std::string::npos) return true;
  }
  return false;
}

TEST(ScenarioTelemetry, FailoverDecisionsBecomeMarks) {
  // Leaf 0's uplink to spine 0 goes dark for good: probes mark the spine-0
  // paths dead and the control plane fails flows over to spine 1.
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = telem-failover
duration = 300ms

[topology]
kind = fat_tree
nodes = 12
hub_ports = 8
spines = 2

[routing]
enabled = true
paths = 2
probe_interval = 25ms
probe_timeout = 5ms

[telemetry]
enabled = true
interval = 10ms

[workload]
name = udp
proto = udp
mode = open
users = 4
rate = 125
size = 512
stride = 6

[fault]
kind = hub_blackout
target = hub0.port6
at = 100ms
duration = 0
)"));
  Scenario sc(std::move(spec));
  sc.run();
  EXPECT_TRUE(has_mark(sc, "fault", "hub_blackout"));
  EXPECT_TRUE(has_mark(sc, "route.failover", " dst="));
}

TEST(ScenarioTelemetry, TrunkFailuresBecomeSessionMarks) {
  // Node 1 crashes under live session traffic: every trunk toward it fails
  // loudly, and each failure lands on the timeline.
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = telem-sessions
duration = 200ms

[topology]
kind = star
nodes = 4

[sessions]
enabled = true
trunks = 2
channels = 40
rate = 2000
size = 32
warmup = 20ms

[telemetry]
enabled = true
interval = 10ms

[fault]
kind = cab_crash
target = node1.cab
at = 100ms
)"));
  Scenario sc(std::move(spec));
  sc.run();
  EXPECT_TRUE(has_mark(sc, "session.trunk_failed", "no acknowledgment progress"));
}

TEST(ScenarioTelemetry, ReportCarriesTelemetryRows) {
  Scenario sc(spec_with_telemetry(true));
  sc.run();
  std::string rep = sc.report().to_json_string();
  std::map<std::string, double> rows;
  const obs::json::Value doc = obs::json::Value::parse(rep);
  for (const obs::json::Value& r : doc.find("results")->items()) {
    rows[r.find("name")->as_string()] = r.find("value")->as_double();
  }
  ASSERT_EQ(rows.count("telemetry.samples"), 1u);
  EXPECT_EQ(rows["telemetry.samples"], static_cast<double>(sc.sampler()->samples()));
  ASSERT_EQ(rows.count("audit.violations"), 1u);
  EXPECT_EQ(rows["audit.violations"], 0.0);
  // Telemetry off: no rows, so pre-existing reports stay byte-identical.
  Scenario off(spec_with_telemetry(false));
  off.run();
  EXPECT_EQ(off.report().to_json_string().find("telemetry."), std::string::npos);
}

}  // namespace
}  // namespace nectar::scenario
