#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

// Scenario-level contract for [parallel] (docs/SCENARIOS.md): the section
// parses and validates; shards > 1 rejects the process-global observability
// features; and the simulated results — deliveries, latencies, fault
// attribution — are invariant across shard counts, with full byte-level
// determinism at any fixed shard count.

constexpr const char* kFatTree = R"(
[scenario]
name = par-test
seed = 5
duration = 200ms

[topology]
kind = fat_tree
nodes = 8
hub_ports = 6
spines = 2
trunk_propagation = 2us
route_spread = yes

[workload]
name = udp
proto = udp
mode = open
users = 40
rate = 5
size_min = 64
size_max = 512
stride = 4

[workload]
name = rmp
proto = rmp
mode = closed
users = 2
think = 5ms
size = 128
stride = 4

[fault]
kind = link_drop
target = node5.link
at = 80ms
duration = 40ms
rate = 0.3
jitter = 10ms
)";

ScenarioSpec fat_tree_spec(int shards) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(kFatTree));
  spec.parallel.shards = shards;
  return spec;
}

TEST(ParallelScenarioTest, ParallelSectionParses) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(
      "[parallel]\nshards = 4\npartition = block\n"));
  EXPECT_EQ(spec.parallel.shards, 4);
  EXPECT_EQ(spec.parallel.partition, Partition::Block);

  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[parallel]\nshards = 0\n")),
               std::runtime_error);
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[parallel]\npartition = striped\n")),
      std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[parallel]\nshard = 4\n")),
               std::runtime_error)
      << "unknown keys must be rejected";
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[topology]\ntrunk_propagation = 0\n")),
      std::runtime_error);
}

TEST(ParallelScenarioTest, ShardsRejectProcessGlobalFeatures) {
  ScenarioSpec with_tracing = fat_tree_spec(2);
  with_tracing.tracing.enabled = true;
  EXPECT_THROW(Scenario sc(std::move(with_tracing)), std::invalid_argument);

  ScenarioSpec with_routing = fat_tree_spec(2);
  with_routing.routing.enabled = true;
  EXPECT_THROW(Scenario sc(std::move(with_routing)), std::invalid_argument);

  // Single shard keeps both available.
  ScenarioSpec seq = fat_tree_spec(1);
  seq.tracing.enabled = true;
  EXPECT_NO_THROW(Scenario sc(std::move(seq)));
}

TEST(ParallelScenarioTest, ZeroTrunkPropagationRejectedAcrossShards) {
  // The wiring's own guard. A Scenario never reaches it: the [topology] row
  // rejects a zero flight time first (ConfigTest.SpecsBuiltInCodeMeetTheSameBounds).
  auto wire = [](int shards) {
    ScenarioSpec spec = fat_tree_spec(shards);
    spec.topology.trunk_propagation = 0;
    net::Network net(shards);
    build_topology(net, spec.topology, spec.seed, spec.parallel);
  };
  // With 2 shards the leaf<->spine trunks cross shards, so wiring must
  // refuse a zero flight time (it would zero the lookahead).
  EXPECT_THROW(wire(2), std::invalid_argument);
  EXPECT_NO_THROW(wire(1));  // one shard: purely local wiring
}

struct Outcome {
  std::vector<std::uint64_t> delivered, shed, errors;
  std::vector<sim::SimTime> p50, p99;
  sim::SimTime fault_at;
  std::uint64_t fault_drops, net_drops;
  std::string report;
};

Outcome run_fat_tree(int shards, Partition partition = Partition::Modulo) {
  ScenarioSpec spec = fat_tree_spec(shards);
  spec.parallel.partition = partition;
  Scenario sc(std::move(spec));
  sc.run();
  Outcome o;
  for (const auto& w : sc.workloads()) {
    o.delivered.push_back(w->delivered());
    o.shed.push_back(w->shed());
    o.errors.push_back(w->errors());
    o.p50.push_back(w->latency().p50());
    o.p99.push_back(w->latency().p99());
  }
  o.fault_at = sc.faults().records().at(0).applied_at;
  o.fault_drops = sc.faults().total_attributed_drops();
  o.net_drops = sc.faults().network_drops();
  o.report = sc.report().to_json_string();
  return o;
}

/// The report without its sharding bookkeeping (the shards and partition
/// params, the parallel.* rows): what no shard count may change.
std::string simulated_part(const std::string& report) {
  obs::json::Value doc = obs::json::Value::parse(report);
  obs::json::Value out = obs::json::Value::object();
  for (const auto& [key, value] : doc.members()) {
    if (key == "params") {
      obs::json::Value params = obs::json::Value::object();
      for (const auto& [k, v] : value.members()) {
        if (k != "shards" && k != "partition") params.set(k, v);
      }
      out.set(key, std::move(params));
    } else if (key == "results") {
      obs::json::Value rows = obs::json::Value::array();
      for (const obs::json::Value& r : value.items()) {
        if (r.find("name")->as_string().rfind("parallel.", 0) != 0) rows.push(r);
      }
      out.set(key, std::move(rows));
    } else {
      out.set(key, value);
    }
  }
  return out.dump(2);
}

TEST(ParallelScenarioTest, CrossShardTrafficFlows) {
  ScenarioSpec spec = fat_tree_spec(2);
  Scenario sc(std::move(spec));
  EXPECT_EQ(sc.net().shard_count(), 2);
  EXPECT_EQ(sc.net().lookahead(), sim::usec(2));
  sc.run();
  EXPECT_GT(sc.workloads().at(0)->delivered(), 0u);
  EXPECT_GT(sc.workloads().at(1)->delivered(), 0u);
  // stride 4 == cabs_per_leaf, so every message crosses a trunk; with the
  // leaves on different shards that traffic must ride the mailboxes.
  EXPECT_GT(sc.net().parallel().cross_events(), 0u);
  EXPECT_GT(sc.net().parallel().windows(), 0u);
  std::string json = sc.report().to_json_string();
  for (const char* key : {"parallel.shards", "parallel.lookahead", "parallel.windows",
                          "parallel.cross_events", "parallel.ideal_speedup"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing result " << key;
  }
  // The partition finds parallelism, and no shard sits idle.
  sim::ParallelEngine& par = sc.net().parallel();
  EXPECT_GT(par.total_events(), par.critical_path_events()) << "ideal speedup must exceed 1";
  for (int i = 0; i < sc.net().shard_count(); ++i) {
    EXPECT_GT(par.shard_events(i), 0u) << "shard " << i << " sat idle";
  }
}

TEST(ParallelScenarioTest, ResultsInvariantAcrossShardCounts) {
  Outcome s1 = run_fat_tree(1);
  Outcome s2 = run_fat_tree(2);
  Outcome s2b = run_fat_tree(2, Partition::Block);
  Outcome s4 = run_fat_tree(4);
  for (const Outcome* o : {&s2, &s2b, &s4}) {
    EXPECT_EQ(simulated_part(s1.report), simulated_part(o->report));
    EXPECT_EQ(s1.delivered, o->delivered);
    EXPECT_EQ(s1.shed, o->shed);
    EXPECT_EQ(s1.errors, o->errors);
    EXPECT_EQ(s1.p50, o->p50);
    EXPECT_EQ(s1.p99, o->p99);
    EXPECT_EQ(s1.fault_at, o->fault_at);
    EXPECT_EQ(s1.fault_drops, o->fault_drops);
    EXPECT_EQ(s1.net_drops, o->net_drops);
  }
}

TEST(ParallelScenarioTest, FixedShardCountIsByteDeterministic) {
  for (int shards : {2, 4}) {
    Outcome a = run_fat_tree(shards);
    Outcome b = run_fat_tree(shards);
    EXPECT_EQ(a.report, b.report) << "same (spec, seed, shards) must be byte-identical at "
                                  << shards << " shards";
  }
}

}  // namespace
}  // namespace nectar::scenario
