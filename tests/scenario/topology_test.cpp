#include "scenario/topology.hpp"

#include <gtest/gtest.h>

#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

TEST(ScenarioTopologyTest, StarBuildsOneHub) {
  net::Network net;
  EXPECT_EQ(build_topology(net, {TopologyKind::Star, 8}, 1), 8);
  EXPECT_EQ(net.hub_count(), 1);
  EXPECT_EQ(net.cab_count(), 8);
  // Routes are installed: every pair reachable in one hop.
  EXPECT_EQ(net.route(0, 7).size(), 1u);
}

TEST(ScenarioTopologyTest, StarRejectsMoreNodesThanPorts) {
  net::Network net;
  TopologySpec s;
  s.kind = TopologyKind::Star;
  s.nodes = 17;
  s.hub_ports = 16;
  EXPECT_THROW(build_topology(net, s, 1), std::invalid_argument);
}

TEST(ScenarioTopologyTest, FatTreeScalesPastOneHubRadix) {
  net::Network net;
  TopologySpec s;
  s.kind = TopologyKind::FatTree;
  s.nodes = 64;
  s.hub_ports = 16;
  s.spines = 2;
  EXPECT_EQ(build_topology(net, s, 1), 64);
  // 14 CABs per leaf -> 5 leaves, plus 2 spines.
  EXPECT_EQ(net.hub_count(), 7);
  // Same leaf: one hop. Different leaves: leaf -> spine -> leaf.
  EXPECT_EQ(net.route(0, 1).size(), 1u);
  EXPECT_EQ(net.route(0, 63).size(), 3u);
}

TEST(ScenarioTopologyTest, RequiresEmptyNetwork) {
  net::Network net;
  net.add_hub();
  EXPECT_THROW(build_topology(net, {TopologyKind::Star, 2}, 1), std::invalid_argument);
}

TEST(ScenarioTopologyTest, ParseKind) {
  auto kind = [](const std::string& name) {
    return ScenarioSpec::from_config(Config::parse_string("[topology]\nkind = " + name + "\n"))
        .topology.kind;
  };
  EXPECT_EQ(kind("star"), TopologyKind::Star);
  EXPECT_EQ(kind("fat_tree"), TopologyKind::FatTree);
  EXPECT_THROW(kind("torus"), std::invalid_argument);
}

TEST(ScenarioTopologyTest, FatTreeCarriesTrafficEndToEnd) {
  // A small closed-loop scenario across leaves proves the built fabric
  // actually switches: every flow delivers.
  ScenarioSpec spec;
  spec.topology.kind = TopologyKind::FatTree;
  spec.topology.nodes = 20;
  spec.topology.hub_ports = 8;
  spec.topology.spines = 2;
  spec.duration = sim::msec(50);
  WorkloadSpec w;
  w.name = "dg";
  w.proto = Proto::Datagram;
  w.mode = Mode::Closed;
  w.think = sim::msec(1);
  w.stride = 7;  // crosses leaf boundaries (6 CABs per leaf)
  spec.workloads.push_back(w);
  Scenario sc(std::move(spec));
  sc.run();
  const auto& wl = *sc.workloads().at(0);
  EXPECT_GT(wl.delivered(), 0u);
  for (const FlowStats& f : wl.flows()) {
    EXPECT_GT(f.delivered, 0u) << "flow " << f.src << "->" << f.dst;
  }
}

}  // namespace
}  // namespace nectar::scenario
