#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

// The determinism contract (docs/SCENARIOS.md): a scenario is a pure
// function of (spec, seed). Same seed => byte-identical report and
// identical event count; different seed => decorrelated arrivals, sizes and
// fault timings.

ScenarioSpec mixed_spec(std::uint64_t seed) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = det
duration = 300ms

[topology]
kind = star
nodes = 6

[workload]
name = udp
proto = udp
mode = open
users = 50
rate = 10
size_min = 64
size_max = 512

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
at = 100ms
duration = 80ms
rate = 0.3
jitter = 40ms
)"));
  spec.seed = seed;
  return spec;
}

struct RunResult {
  std::string report;
  std::uint64_t events;
  sim::SimTime fault_at;
  std::uint64_t delivered;
};

RunResult run_once(std::uint64_t seed) {
  Scenario sc(mixed_spec(seed));
  sc.run();
  RunResult r;
  r.report = sc.report().to_json_string();
  r.events = sc.net().engine().events_processed();
  r.fault_at = sc.faults().records().at(0).applied_at;
  r.delivered = 0;
  for (const auto& w : sc.workloads()) r.delivered += w->delivered();
  return r;
}

TEST(ScenarioDeterminismTest, SameSeedSameRun) {
  RunResult a = run_once(11);
  RunResult b = run_once(11);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fault_at, b.fault_at);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.report, b.report) << "same (spec, seed) must be byte-identical";
}

TEST(ScenarioDeterminismTest, DifferentSeedDifferentRun) {
  RunResult a = run_once(11);
  RunResult c = run_once(12);
  EXPECT_NE(a.fault_at, c.fault_at) << "fault jitter must follow the master seed";
  EXPECT_NE(a.report, c.report);
}

TEST(ScenarioDeterminismTest, UnknownConfigKeysRejected) {
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[scenario]\nsede = 4\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[workload]\nprotocol = udp\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[fault]\nkind = link_drop\nwhen = 5ms\n")),
               std::runtime_error);
}

TEST(ScenarioDeterminismTest, SloReportCarriesTailPercentiles) {
  Scenario sc(mixed_spec(21));
  sc.run();
  obs::RunReport rep = sc.report();
  std::string json = rep.to_json_string();
  for (const char* key : {"udp.p50", "udp.p99", "udp.p999", "rmp.goodput", "rmp.fairness",
                          "drops.fault_attributed", "retransmits.rmp", "faults.injected"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing result " << key;
  }
  const auto& wl = *sc.workloads().at(0);
  EXPECT_GT(wl.delivered(), 0u);
  EXPECT_GT(wl.latency().count(), 0u);
  EXPECT_GT(wl.fairness(), 0.5);

  obs::json::Value doc = obs::json::Value::parse(json);
  EXPECT_EQ(doc.find("schema")->as_string(), "nectar-bench-report");
  const obs::json::Value& params = *doc.find("params");
  EXPECT_EQ(params.find("name")->as_string(), "det");
  EXPECT_EQ(params.find("nodes")->as_int(), 6);
  EXPECT_EQ(params.find("topology")->as_string(), "star");
  std::map<std::string, double> rows;
  for (const obs::json::Value& r : doc.find("results")->items()) {
    rows[r.find("name")->as_string()] = r.find("value")->as_double();
  }
  EXPECT_EQ(rows.at("faults.injected"), 1.0);
  EXPECT_GT(rows.at("fault0.drops"), 0.0) << "the scripted drop window never bit";
}

TEST(ScenarioHotPathTest, Soak64SchedulesNoActionOnTheHeap) {
  // Every scheduled action of the reference soak fits the event pool's
  // inline storage; a capture that outgrows it spills to the heap on each
  // packet. Logging schedules nothing, so the event log cannot add one.
  Scenario sc(ScenarioSpec::from_config(
      Config::parse_file(std::string(NECTAR_SOURCE_DIR) + "/examples/scenarios/soak64.ini")));
  sc.run();
  EXPECT_GT(sc.net().engine().events_processed(), 0u);
  EXPECT_EQ(sc.net().engine().heap_actions(), 0u);
}

TEST(ScenarioHotPathTest, Soak64NeverIndexesTheMetricsRegistry) {
  // Registering a probe is an append until the registry's first read builds
  // its key index. Without [telemetry] nothing in a scenario reads it, so
  // set-up never pays for the index: a read added there would undo that.
  const std::string path = std::string(NECTAR_SOURCE_DIR) + "/examples/scenarios/soak64.ini";
  {
    Scenario sc(ScenarioSpec::from_config(Config::parse_file(path)));
    EXPECT_FALSE(sc.net().metrics().indexed());
    sc.run();
    sc.report();
    EXPECT_FALSE(sc.net().metrics().indexed());
  }
  // The sampler reads it at t = 0, so a short run shows the index built.
  Config cfg = Config::parse_file(path);
  cfg.set("telemetry", "enabled", "true");
  cfg.set("scenario", "duration", "10ms");
  Scenario sc(ScenarioSpec::from_config(cfg));
  sc.run();
  EXPECT_TRUE(sc.net().metrics().indexed());
}

}  // namespace
}  // namespace nectar::scenario
