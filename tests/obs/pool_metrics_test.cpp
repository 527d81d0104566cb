#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/mailbox.hpp"
#include "net/system.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace nectar {
namespace {

/// One 64-byte datagram echo round trip between two CABs. When `churn` is
/// set, heavy schedule+cancel noise is injected into the event pool before
/// and during the run; it must be invisible to every simulated outcome.
struct ScenarioResult {
  std::string report_json;
  std::string trace_json;
  sim::SimTime reply_at = 0;
};

ScenarioResult run_echo_scenario(bool churn) {
  net::NectarSystem sys(2);
  sys.tracer().set_enabled(true);
  auto& svc = sys.runtime(1).create_mailbox("echo");
  auto& reply = sys.runtime(0).create_mailbox("reply");
  sim::SimTime reply_at = 0;
  sys.runtime(1).fork_system("echo", [&] {
    core::Message m = svc.begin_get();
    auto info = sys.stack(1).datagram.last_sender(svc);
    sys.stack(1).datagram.send({info.src_node, info.src_mailbox}, m);
  });
  sys.runtime(0).fork_system("client", [&] {
    auto& s = sys.runtime(0).create_mailbox("s");
    core::Message m = s.begin_put(64);
    sys.stack(0).datagram.send(svc.address(), m, true, reply.address().index);
    core::Message r = reply.begin_get();
    reply_at = sys.engine().now();
    reply.end_get(r);
  });
  sim::Engine& e = sys.engine();
  if (churn) {
    std::vector<sim::Engine::EventId> junk;
    for (int i = 0; i < 300; ++i) junk.push_back(e.schedule_at(900000000 + i, [] {}));
    for (auto id : junk) e.cancel(id);
    // More churn mid-run, from inside the simulation.
    e.schedule_at(100, [&e] {
      for (int i = 0; i < 100; ++i) e.cancel(e.schedule_at(910000000 + i, [] {}));
    });
  }
  e.run();

  obs::RunReport report("pool-metrics-determinism");
  report.param("message_bytes", 64);
  report.add("reply_latency_ns", static_cast<double>(reply_at), "ns");
  ScenarioResult res;
  res.report_json = report.to_json_string();
  res.trace_json = sys.tracer().chrome_json();
  res.reply_at = reply_at;
  return res;
}

TEST(PoolMetrics, SubstrateProbesAreRegistered) {
  net::NectarSystem sys(2);
  sys.net().register_substrate_metrics();
  obs::Snapshot snap = sys.metrics().snapshot();
  for (const char* name :
       {"events_processed", "pending_events", "pool_slots", "pool_free", "pool_reuses",
        "heap_actions"}) {
    EXPECT_NE(snap.find(-1, "sim.engine", name), nullptr) << name;
  }
  for (const char* component : {"hw.framepool", "proto.hdrpool"}) {
    for (const char* name : {"acquires", "reuses", "pooled"}) {
      EXPECT_NE(snap.find(-1, component, name), nullptr) << component << "/" << name;
    }
  }
}

TEST(PoolMetrics, ProbesMoveWithTraffic) {
  obs::Snapshot before;
  obs::Snapshot after;
  {
    net::NectarSystem sys(2);
    sys.net().register_substrate_metrics();
    before = sys.metrics().snapshot();
    auto& svc = sys.runtime(1).create_mailbox("echo");
    auto& reply = sys.runtime(0).create_mailbox("reply");
    sys.runtime(1).fork_system("echo", [&] {
      core::Message m = svc.begin_get();
      auto info = sys.stack(1).datagram.last_sender(svc);
      sys.stack(1).datagram.send({info.src_node, info.src_mailbox}, m);
    });
    sys.runtime(0).fork_system("client", [&] {
      auto& s = sys.runtime(0).create_mailbox("s");
      core::Message m = s.begin_put(64);
      sys.stack(0).datagram.send(svc.address(), m, true, reply.address().index);
      core::Message r = reply.begin_get();
      reply.end_get(r);
    });
    sys.engine().run();
    after = sys.metrics().snapshot();
  }
  obs::Snapshot delta = after.delta(before);
  EXPECT_GT(delta.value_of(-1, "sim.engine", "events_processed"), 0);
  // Both frames of the round trip drew their payload buffers from the pool,
  // and every packet composed its headers in a pooled HeaderBuf.
  EXPECT_GT(delta.value_of(-1, "hw.framepool", "acquires"), 0);
  EXPECT_GT(delta.value_of(-1, "proto.hdrpool", "acquires"), 0);
}

TEST(PoolMetrics, CancelChurnLeavesReportsAndTracesByteIdentical) {
  ScenarioResult plain = run_echo_scenario(false);
  ScenarioResult churned = run_echo_scenario(true);
  EXPECT_GT(plain.reply_at, 0);
  EXPECT_EQ(plain.reply_at, churned.reply_at);
  EXPECT_EQ(plain.report_json, churned.report_json);
  EXPECT_EQ(plain.trace_json, churned.trace_json);
}

}  // namespace
}  // namespace nectar
