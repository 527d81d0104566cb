// Collective reliability under injected faults: seeded link loss must be
// absorbed by retransmission (barrier semantics intact, no early exit), and
// a crashed member must surface as a loud, attributable group failure —
// never a hang.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coll/engine.hpp"
#include "net/system.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace nectar::coll {
namespace {

GroupSpec group_of(int n, Algorithm alg = Algorithm::Tree) {
  GroupSpec g;
  g.id = 1;
  g.members.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) g.members[static_cast<std::size_t>(i)] = i;
  g.algorithm = alg;
  g.retransmit = sim::usec(500);
  return g;
}

struct Fixture {
  net::NectarSystem sys;
  std::vector<std::unique_ptr<CollectiveEngine>> eng;

  Fixture(int n, Algorithm alg, bool multicast) : sys(n) {
    GroupSpec g = group_of(n, alg);
    if (multicast) g.mcast = sys.net().mcast_ref(g.members[0], g.members);
    for (int i = 0; i < n; ++i) {
      eng.push_back(std::make_unique<CollectiveEngine>(sys.net().datalink(i)));
      eng.back()->join_group(g);
    }
  }
};

TEST(CollFaults, TreeBarrierSurvivesSeededLinkDrop) {
  const int n = 4, iters = 5;
  Fixture fx(n, Algorithm::Tree, /*multicast=*/true);
  // Lossy member and lossy root: drops eat Arrives, Releases and their
  // multicast replicas; retransmission must recover all of them.
  fx.sys.net().cab(2).out_link().set_drop_rate(0.4, 99);
  fx.sys.net().cab(0).out_link().set_drop_rate(0.2, 7);

  std::vector<std::vector<sim::SimTime>> entered(iters, std::vector<sim::SimTime>(n, -1));
  std::vector<std::vector<sim::SimTime>> exited(iters, std::vector<sim::SimTime>(n, -1));
  int ok_count = 0;
  for (int i = 0; i < n; ++i) {
    fx.sys.runtime(i).fork_app("w", [&, i] {
      core::Cpu& cpu = fx.sys.runtime(i).cpu();
      for (int it = 0; it < iters; ++it) {
        cpu.sleep_for(sim::usec(30) * static_cast<sim::SimTime>((i * 3 + it) % n));
        entered[static_cast<std::size_t>(it)][static_cast<std::size_t>(i)] =
            cpu.engine().now();
        if (fx.eng[static_cast<std::size_t>(i)]->barrier(1)) ++ok_count;
        exited[static_cast<std::size_t>(it)][static_cast<std::size_t>(i)] =
            cpu.engine().now();
      }
    });
  }
  fx.sys.engine().run();

  EXPECT_EQ(ok_count, n * iters);
  std::uint64_t retx = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fx.eng[static_cast<std::size_t>(i)]->ops_failed(), 0u) << "node " << i;
    retx += fx.eng[static_cast<std::size_t>(i)]->retransmits();
  }
  EXPECT_GT(retx, 0u);  // the loss was real; recovery did the work
  for (int it = 0; it < iters; ++it) {
    sim::SimTime last_entry = -1, first_exit = -1;
    for (int i = 0; i < n; ++i) {
      last_entry = std::max(
          last_entry, entered[static_cast<std::size_t>(it)][static_cast<std::size_t>(i)]);
      sim::SimTime e = exited[static_cast<std::size_t>(it)][static_cast<std::size_t>(i)];
      first_exit = first_exit < 0 ? e : std::min(first_exit, e);
    }
    // The barrier contract held through the loss: nobody left round `it`
    // before the last member entered it.
    EXPECT_GE(first_exit, last_entry) << "iteration " << it;
  }
}

TEST(CollFaults, DisseminationRecoversThroughNacks) {
  const int n = 4, iters = 3;
  Fixture fx(n, Algorithm::Dissemination, /*multicast=*/false);
  fx.sys.net().cab(1).out_link().set_drop_rate(0.4, 21);

  int ok_count = 0;
  for (int i = 0; i < n; ++i) {
    fx.sys.runtime(i).fork_app("w", [&, i] {
      for (int it = 0; it < iters; ++it) {
        if (fx.eng[static_cast<std::size_t>(i)]->barrier(1)) ++ok_count;
      }
    });
  }
  fx.sys.engine().run();
  EXPECT_EQ(ok_count, n * iters);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fx.eng[static_cast<std::size_t>(i)]->ops_failed(), 0u) << "node " << i;
  }
}

TEST(CollFaults, CabCrashFailsGroupLoudlyNotHang) {
  // Scenario-level: a cab_crash takes node 3 off the network mid-run. The
  // barrier loop must convert the silence into a timed-out group failure on
  // the survivors (the run ending at all proves no hang; duration bounds it).
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::from_config(
      scenario::Config::parse_string(R"(
[scenario]
name = coll-crash
seed = 7
duration = 80ms

[topology]
kind = star
nodes = 4

[collectives]
enabled = true
mode = cab
op = barrier
iterations = 0
interval = 1ms
timeout = 5ms
retransmit = 500us

[fault]
kind = cab_crash
target = node3.cab
at = 20ms
duration = 50ms
)"));
  scenario::Scenario sc(std::move(spec));
  sc.run();

  scenario::CollectiveDriver* drv = sc.collectives();
  ASSERT_NE(drv, nullptr);
  // Plenty of rounds completed before the crash, then a loud failure.
  EXPECT_GT(drv->rounds_completed(), 5u);
  EXPECT_EQ(drv->data_errors(), 0u);
  std::uint64_t failed = 0;
  bool named = false;
  for (int i = 0; i < 3; ++i) {
    CollectiveEngine* e = drv->engine(i);
    ASSERT_NE(e, nullptr);
    failed += e->ops_failed();
    if (e->last_error().find("timed out") != std::string::npos &&
        e->last_error().find("rank 3") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_TRUE(named) << "no survivor named the crashed rank in its error";

  obs::RunReport rep = sc.report();
  std::string json = rep.to_json_string();
  EXPECT_NE(json.find("coll.ops_failed"), std::string::npos);
}

TEST(CollFaults, ScenarioCollectivesDeterministicAcrossRuns) {
  // A reduce under seeded link loss, and a broadcast on an 8-node fat tree on
  // the CAB engine and on the host baseline (which needs a VME bus per node).
  // The driver checks every reduced value and every broadcast payload byte.
  const std::string reduce = R"(
[scenario]
name = coll-det
seed = 11
duration = 40ms

[topology]
kind = star
nodes = 6

[collectives]
enabled = true
mode = cab
op = reduce
reduce = sum
iterations = 0
interval = 500us

[fault]
kind = link_drop
target = node2.link
at = 5ms
duration = 20ms
rate = 0.3
)";
  const std::string bcast = R"(
[scenario]
name = coll-bcast
seed = 3
duration = 100ms

[topology]
kind = fat_tree
nodes = 8
hub_ports = 6
spines = 2
with_vme = yes

[collectives]
enabled = true
op = bcast
iterations = 10
)";
  for (const std::string& config : {reduce, bcast + "mode = cab\n", bcast + "mode = host\n"}) {
    auto run_once = [&] {
      scenario::Scenario sc(
          scenario::ScenarioSpec::from_config(scenario::Config::parse_string(config)));
      sc.run();
      return sc.report().to_json_string();
    };
    std::string a = run_once();
    std::string b = run_once();
    EXPECT_EQ(a, b) << config;
    std::map<std::string, double> rows;
    obs::json::Value doc = obs::json::Value::parse(a);
    for (const obs::json::Value& r : doc.find("results")->items()) {
      rows[r.find("name")->as_string()] = r.find("value")->as_double();
    }
    EXPECT_GT(rows.at("coll.rounds"), 0.0) << config;
    EXPECT_GT(rows.at("coll.ops_completed"), 0.0) << config;
    EXPECT_EQ(rows.at("coll.data_errors"), 0.0) << config;
  }
}

}  // namespace
}  // namespace nectar::coll
