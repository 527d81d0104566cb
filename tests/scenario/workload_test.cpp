#include <gtest/gtest.h>

#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

// A TCP receive chunk is one segment, so a 12 KB message reaches the server
// in pieces. It must still count as one delivery carrying all its bytes,
// with one latency sample taken when its last byte arrives.
TEST(ScenarioWorkloadTest, TcpCountsWholeMessagesNotSegments) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = tcp12k
duration = 300ms

[topology]
kind = star
nodes = 4

[workload]
name = tcp
proto = tcp
mode = closed
users = 1
size = 12288
)"));
  Scenario sc(std::move(spec));
  sc.run();
  const Workload& wl = *sc.workloads().at(0);
  ASSERT_GT(wl.delivered(), 0u);
  EXPECT_LE(wl.delivered(), wl.sent());
  EXPECT_EQ(wl.delivered_bytes(), wl.delivered() * 12288);
  EXPECT_EQ(wl.latency().count(), wl.delivered());
}

// An open-loop RPC runs on a thread of its own, and its flow sheds while the
// call is outstanding; the client-side round trip is the latency sample.
TEST(ScenarioWorkloadTest, OpenLoopRpcShedsWhileACallIsOutstanding) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = rpc-open
seed = 3
duration = 200ms

[topology]
kind = star
nodes = 4

[workload]
name = rpc
proto = reqresp
mode = open
users = 2
rate = 200
)"));
  Scenario sc(std::move(spec));
  sc.run();
  const Workload& wl = *sc.workloads().at(0);
  ASSERT_GT(wl.delivered(), 0u);
  EXPECT_LE(wl.delivered(), wl.sent());
  EXPECT_EQ(wl.latency().count(), wl.delivered());
  EXPECT_GT(wl.shed(), 0u);
}

}  // namespace
}  // namespace nectar::scenario
