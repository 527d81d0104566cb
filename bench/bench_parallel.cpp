// Parallel-engine scaling curve: one 512-node fat-tree soak run at shard
// counts 1/2/4/8 under the conservative-parallel engine (sim::ParallelEngine,
// docs/ARCHITECTURE.md "Sharded parallel simulation").
//
// The report holds simulated-execution rows only, so BENCH_parallel.json is
// a golden report (ctest golden_parallel). Per shard count:
//   * ideal_speedup — total events / critical-path events, where the
//     critical path sums the busiest shard's event count over every
//     synchronization window. This is the speedup a K-core host cannot
//     exceed with this partition and lookahead, and it is a pure function
//     of (spec, seed, shards). The bench exits non-zero unless it is
//     exactly 1 at one shard and >= 3 at 8 shards.
//   * wall ms — host wall-clock for the run, printed to stdout only. The
//     engine's real speedup is measured by perfbench
//     (sim.parallel.real_speedup), in a Release build with machine context.
//
// The traffic pattern strides messages exactly one leaf over, so every
// message crosses the spine (the hardest case for a sharded simulator: all
// traffic rides the cross-shard mailboxes).

#include <chrono>

#include "common.hpp"
#include "scenario/engine.hpp"

namespace nectar::bench {
namespace {

constexpr const char* kConfig = R"(
[scenario]
name = parallel512
seed = 1990
duration = 200ms

[topology]
kind = fat_tree
nodes = 512
hub_ports = 16
spines = 4
trunk_propagation = 5us
# Spread cross-leaf routes across all 4 spines (hash of the hub pair).
# Without it every pair tie-breaks to spine 0, whose shard becomes the
# critical path and caps ideal speedup near 2.8x at 8 shards.
route_spread = yes

[parallel]
shards = 1
partition = block

# Open-loop UDP, destinations one leaf over (stride 12 = the leaf width):
# every message transits leaf -> spine -> leaf, so shard boundaries see the
# full offered load.
[workload]
name = udp-cross
proto = udp
mode = open
users = 50
rate = 2
size_min = 64
size_max = 1024
stride = 12

# A closed-loop RMP population two leaves over: request and ACK both cross
# the spine, adding lockstep request/response traffic to the aggregate.
[workload]
name = rmp-cross
proto = rmp
mode = closed
users = 1
think = 10ms
size = 256
stride = 24
)";

struct Point {
  int shards;
  double wall_ms;
  std::uint64_t total, critical, windows, cross;
  std::uint64_t delivered;
};

Point run_at(int shards) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_config(scenario::Config::parse_string(kConfig));
  spec.parallel.shards = shards;
  scenario::Scenario sc(std::move(spec));
  auto t0 = std::chrono::steady_clock::now();
  sc.run();
  auto t1 = std::chrono::steady_clock::now();

  Point p;
  p.shards = shards;
  p.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const sim::ParallelEngine& par = sc.net().parallel();
  p.total = par.total_events();
  p.critical = par.critical_path_events();
  p.windows = par.windows();
  p.cross = par.cross_events();
  p.delivered = 0;
  for (const auto& w : sc.workloads()) p.delivered += w->delivered();
  return p;
}

int run(const BenchOptions& options) {
  print_header("parallel engine scaling, 512-node fat-tree");
  std::printf("%7s %12s %14s %16s %8s %12s %10s %9s\n", "shards", "events", "critical-path",
              "ideal-speedup", "windows", "cross-events", "delivered", "wall ms");

  obs::RunReport report("parallel");
  report.param("topology", "fat_tree");
  report.param("nodes", 512);
  report.param("duration_ms", 200);
  report.param("partition", "block");

  std::uint64_t base_delivered = 0;
  for (int shards : {1, 2, 4, 8}) {
    Point p = run_at(shards);
    double ideal = static_cast<double>(p.total) / static_cast<double>(p.critical);
    std::printf("%7d %12llu %14llu %15.2fx %8llu %12llu %10llu %9.0f\n", p.shards,
                static_cast<unsigned long long>(p.total),
                static_cast<unsigned long long>(p.critical), ideal,
                static_cast<unsigned long long>(p.windows),
                static_cast<unsigned long long>(p.cross),
                static_cast<unsigned long long>(p.delivered), p.wall_ms);
    if (shards == 1) {
      base_delivered = p.delivered;
    } else if (p.delivered != base_delivered) {
      std::fprintf(stderr, "error: delivered count changed with shard count (%llu vs %llu)\n",
                   static_cast<unsigned long long>(p.delivered),
                   static_cast<unsigned long long>(base_delivered));
      return 1;
    }
    std::string k = "parallel.s" + std::to_string(shards);
    report.add(k + ".total_events", static_cast<double>(p.total), "events");
    report.add(k + ".critical_path_events", static_cast<double>(p.critical), "events");
    report.add(k + ".ideal_speedup", ideal, "ratio");
    report.add(k + ".windows", static_cast<double>(p.windows), "count");
    report.add(k + ".cross_events", static_cast<double>(p.cross), "events");
    report.add(k + ".delivered", static_cast<double>(p.delivered), "msgs");
    // The curve's two anchors: one shard is the sequential run, and the
    // 512-node partition must leave room for 3x at 8 shards.
    if (shards == 1 && ideal != 1.0) {
      std::fprintf(stderr, "error: ideal speedup %.3fx at 1 shard (want exactly 1)\n", ideal);
      return 1;
    }
    if (shards == 8 && ideal < 3.0) {
      std::fprintf(stderr, "error: ideal speedup %.2fx at 8 shards (want >= 3)\n", ideal);
      return 1;
    }
  }

  if (!options.telemetry_path.empty()) {
    // One extra telemetered run at 8 shards, separate from the curve above
    // so the committed BENCH_parallel.json rows (and the delivered-invariance
    // check) are untouched. The artifact is restricted to the sim.parallel
    // series — shard<i>.events per window IS the shard-imbalance trace; at
    // 512 nodes the unfiltered registry would be ~60k series. The
    // conservation auditor rides along and fails the run loudly on any
    // violated invariant.
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::from_config(scenario::Config::parse_string(kConfig));
    spec.parallel.shards = 8;
    spec.telemetry.enabled = true;
    spec.telemetry.artifact = options.telemetry_path;
    spec.telemetry.include = {"sim.parallel"};
    scenario::Scenario sc(std::move(spec));
    try {
      sc.run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("\ntelemetry (8 shards): %zu samples, %zu series -> %s\n",
                sc.sampler()->samples(), sc.sampler()->series_count(),
                options.telemetry_path.c_str());
  }

  finish_report(options, report);
  return 0;
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  return run(parse_options(argc, argv, kTelemetry));
}
