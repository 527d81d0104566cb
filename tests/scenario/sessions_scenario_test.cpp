#include <gtest/gtest.h>

#include <string>

#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

double row(const obs::RunReport& rep, const std::string& name) {
  obs::json::Value doc = obs::json::Value::parse(rep.to_json_string());
  const obs::json::Value* results = doc.find("results");
  if (results != nullptr) {
    for (std::size_t i = 0; i < results->size(); ++i) {
      const obs::json::Value& r = results->at(i);
      if (r.find("name")->as_string() == name) return r.find("value")->as_double();
    }
  }
  ADD_FAILURE() << "report row missing: " << name;
  return -1.0;
}

ScenarioSpec base_spec(const std::string& extra = "") {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = sess
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
)" + extra));
  return spec;
}

TEST(SessionsScenarioTest, ChannelsOpenFlowAndReport) {
  Scenario sc(base_spec());
  sc.run();
  ASSERT_NE(sc.sessions(), nullptr);
  obs::RunReport rep = sc.report();
  // Every node opened its full channel complement over 2 trunks.
  EXPECT_EQ(row(rep, "session.opened"), 4 * 40);
  EXPECT_EQ(row(rep, "session.refused"), 0);
  EXPECT_EQ(row(rep, "session.failed"), 0);
  EXPECT_EQ(row(rep, "session.trunk_failures"), 0);
  EXPECT_EQ(row(rep, "session.proto_errors"), 0);
  double sent = row(rep, "session.data.sent");
  double delivered = row(rep, "session.data.delivered");
  EXPECT_GT(sent, 0);
  EXPECT_GT(delivered, 0);
  // Backpressure is shed, never loss: everything delivered was sent, the
  // remainder is in-flight at the horizon, not lost.
  EXPECT_LE(delivered, sent);
  EXPECT_GE(delivered, sent * 0.9);
  // Round-robin over identical channels: Jain's index is essentially 1.
  EXPECT_GT(row(rep, "session.fairness"), 0.95);
  EXPECT_LE(row(rep, "session.fairness"), 1.0 + 1e-9);
  // Frame batching really multiplexes: more frames than trunk messages.
  EXPECT_GE(row(rep, "session.trunk.frames_per_msg"), 1.0);
  EXPECT_GT(row(rep, "session.open.count"), 0);
  EXPECT_GT(row(rep, "session.data.p99"), 0);
}

TEST(SessionsScenarioTest, ChurnStormIsDeterministic) {
  const std::string churn = R"(
churn_rate = 500
churn_start = 30ms
stall_at = 60ms
stall_duration = 20ms
stall_channels = 2
probe_channels = 2
)";
  auto run_once = [&](std::uint64_t seed) {
    ScenarioSpec spec = base_spec(churn);
    spec.seed = seed;
    Scenario sc(spec);
    sc.run();
    return sc.report().to_json_string();
  };
  std::string a = run_once(7);
  std::string b = run_once(7);
  EXPECT_EQ(a, b) << "churn + stall storm must be byte-deterministic";
  std::string c = run_once(8);
  EXPECT_NE(a, c) << "seed must decorrelate the churn stream";
}

TEST(SessionsScenarioTest, ChurnRecyclesIdsWithoutErrors) {
  ScenarioSpec spec = base_spec(R"(
churn_rate = 800
churn_start = 30ms
)");
  Scenario sc(spec);
  sc.run();
  obs::RunReport rep = sc.report();
  EXPECT_GT(row(rep, "session.churn.cycles"), 0);
  EXPECT_GT(row(rep, "session.closed"), 0);
  // Id reuse under live traffic must never corrupt the protocol state:
  // generation tags shield late frames, so no protocol errors surface.
  EXPECT_EQ(row(rep, "session.proto_errors"), 0);
  EXPECT_EQ(row(rep, "session.failed"), 0);
}

TEST(SessionsScenarioTest, StalledChannelDoesNotDragSiblingTail) {
  // One trunk, probe channel 0 frozen mid-run for 60ms: channel 0's tail
  // must absorb the stall while channel 1 (same trunk!) stays unaffected.
  const std::string stall = R"(
stall_at = 80ms
stall_duration = 60ms
stall_channels = 1
probe_channels = 2
)";
  ScenarioSpec stalled = base_spec(stall);
  // Re-parse with trunks=1 so both probes share one trunk, few channels so
  // the round-robin hits the victim often, and a tight initial credit so
  // those sends actually exhaust it while the freeze withholds refresh
  // grants — otherwise the stall never bites and the victim's tail is flat.
  stalled.sessions.trunks = 1;
  stalled.sessions.channels = 8;
  stalled.sessions.initial_credit = 2;
  ScenarioSpec clean = base_spec();
  clean.sessions.trunks = 1;
  clean.sessions.channels = 8;
  clean.sessions.initial_credit = 2;
  clean.sessions.probe_channels = 2;
  Scenario sc1(stalled);
  sc1.run();
  obs::RunReport r1 = sc1.report();
  Scenario sc0(clean);
  sc0.run();
  obs::RunReport r0 = sc0.report();
  EXPECT_GT(row(r1, "session.credit_stalls"), 0) << "the freeze must bite";
  double victim_p99 = row(r1, "session.probe0.p99");
  double sibling_p99 = row(r1, "session.probe1.p99");
  double baseline_p99 = row(r0, "session.probe1.p99");
  // The victim's p99 absorbs tens of milliseconds; the sibling's stays in
  // the same regime as the stall-free run.
  EXPECT_GT(victim_p99, 10'000.0);  // us
  EXPECT_LT(sibling_p99, baseline_p99 * 1.5 + 100.0);
}

TEST(SessionsScenarioTest, CabCrashFailsChannelsLoudly) {
  ScenarioSpec spec = base_spec(R"(
[fault]
kind = cab_crash
target = node1.cab
at = 100ms
)");
  Scenario sc(spec);
  sc.run();
  obs::RunReport rep = sc.report();
  // Node 1 is dead: every trunk toward it fails its channels with
  // attribution instead of hanging.
  EXPECT_GT(row(rep, "session.trunk_failures"), 0);
  EXPECT_GT(row(rep, "session.failed"), 0);
  bool saw = false;
  for (const core::LogEntry& e : sc.net().events()) {
    saw = saw || std::string(e.kind) == "session.trunk_failed";
  }
  EXPECT_TRUE(saw);
}

TEST(SessionsScenarioTest, DisabledSessionsAddNoRowsOrState) {
  ScenarioSpec spec = base_spec();
  spec.sessions.enabled = false;
  Scenario sc(spec);
  sc.run();
  EXPECT_EQ(sc.sessions(), nullptr);
  EXPECT_EQ(sc.report().to_json_string().find("session."), std::string::npos);
}

}  // namespace
}  // namespace nectar::scenario
