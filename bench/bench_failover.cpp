// Failover bench: a two-leaf/two-spine fat tree carrying an open-loop UDP
// aggregate loses one spine uplink mid-run — permanently — and the routing
// control plane (docs/ROUTING.md) must detect the dead paths by probe loss
// and move every affected pair onto the surviving spine. The bench samples
// goodput in fixed windows across the fault and reports the pre-fault rate,
// the depth of the dip, how long recovery took, and the reroute-latency
// percentiles measured from the first missed probe to the route switch.
//
// There is no paper figure for this; the 1990 Nectar ran a single HUB. It is
// the acceptance experiment for the multipath control plane: recovered
// goodput must come back to >= 90% of the pre-fault rate. The run is
// deterministic: the committed BENCH_failover.json must reproduce
// byte-for-byte from `bench_failover --json`.

#include <vector>

#include "common.hpp"
#include "scenario/engine.hpp"

namespace nectar::bench {
namespace {

// 12 CABs, 6 per leaf, two spine HUBs reached over leaf ports 6 and 7.
// stride = 6 makes every one of the 12 flows cross-leaf, so the seeded ECMP
// preference splits them across both spines and the blackout bites a real
// subset of live traffic.
constexpr const char* kConfig = R"(
[scenario]
name = failover
seed = 1990
duration = 1500ms

[topology]
kind = fat_tree
nodes = 12
hub_ports = 8
spines = 2

# 25 ms probes keep the control plane's CPU cost to a few percent per CAB
# (each node probes every (dst, path) pair; 4 ms probing at this fan-out
# would saturate the CABs and make goodput probe-bound). Worst-case
# detection+switch: (dead_after-1) * 25ms + 5ms = 55 ms, about one window.
[routing]
enabled = true
paths = 2
probe_interval = 25ms
probe_timeout = 5ms
dead_after = 3
recover_after = 2

# ~2 Mbit/s per flow, ~25 Mbit/s aggregate: comfortably inside one spine's
# capacity, so post-failover goodput is limited by detection, not bandwidth.
[workload]
name = udp-open
proto = udp
mode = open
users = 4
rate = 125
size = 512
stride = 6

# Leaf 0's uplink to spine 0 goes dark at 500 ms and never comes back
# (duration 0 = until end of run). Requests from leaf 0 over spine 0 die at
# the port; so do leaf-0 replies to leaf-1 probes that arrived over spine 0,
# so both sides mark their spine-0 paths dead.
[fault]
kind = hub_blackout
target = hub0.port6
at = 500ms
duration = 0
)";

constexpr sim::SimTime kWindow = sim::msec(50);
constexpr sim::SimTime kFaultAt = sim::msec(500);
constexpr sim::SimTime kWarmup = sim::msec(100);
constexpr double kRecoverTarget = 0.9;
// Detection plus switch is bounded near 55 ms by the [routing] settings above.
constexpr sim::SimTime kMaxRerouteP99 = sim::msec(100);

int run(const BenchOptions& options) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_config(scenario::Config::parse_string(kConfig));
  sim::SimTime duration = spec.duration;
  scenario::Scenario sc(std::move(spec));
  if (!options.trace_path.empty()) sc.net().tracer().set_enabled(true);
  start_profile(options, sc.net().profiler());
  std::printf("failover: %d nodes, fault at %.0f ms, %.0f ms simulated\n",
              sc.spec().topology.nodes, sim::to_msec(kFaultAt), sim::to_msec(duration));

  // Sample cumulative delivered bytes on the sim clock; scheduled before
  // run() so the sampling events interleave deterministically with the load.
  const scenario::Workload& wl = *sc.workloads().at(0);
  std::vector<std::uint64_t> samples;
  for (sim::SimTime t = kWindow; t <= duration; t += kWindow) {
    sc.net().engine().schedule_at(
        t, [&samples, &wl] { samples.push_back(wl.delivered_bytes()); });
  }
  sc.run();

  // Per-window deliveries, and the window index the fault lands in.
  std::vector<double> window_mbps;
  std::uint64_t prev = 0;
  for (std::uint64_t s : samples) {
    window_mbps.push_back(mbit_per_sec(s - prev, kWindow));
    prev = s;
  }
  std::size_t fault_win = static_cast<std::size_t>(kFaultAt / kWindow);
  std::size_t warm_win = static_cast<std::size_t>(kWarmup / kWindow);

  double prefault = 0;
  for (std::size_t i = warm_win; i < fault_win; ++i) prefault += window_mbps[i];
  prefault /= static_cast<double>(fault_win - warm_win);

  double dip = window_mbps[fault_win];
  std::size_t recover_win = window_mbps.size();
  for (std::size_t i = fault_win; i < window_mbps.size(); ++i) {
    dip = std::min(dip, window_mbps[i]);
    if (recover_win == window_mbps.size() && window_mbps[i] >= kRecoverTarget * prefault) {
      recover_win = i;
    }
  }
  double recovery_ms =
      recover_win == window_mbps.size()
          ? -1.0
          : sim::to_msec(static_cast<sim::SimTime>(recover_win + 1) * kWindow - kFaultAt);

  // Steady recovered rate: the last 400 ms of the run.
  std::size_t tail = 8;
  double recovered = 0;
  for (std::size_t i = window_mbps.size() - tail; i < window_mbps.size(); ++i) {
    recovered += window_mbps[i];
  }
  recovered /= static_cast<double>(tail);

  std::printf("\n%8s %10s\n", "t(ms)", "Mbit/s");
  for (std::size_t i = 0; i < window_mbps.size(); ++i) {
    std::printf("%8.0f %10.2f%s\n", sim::to_msec(static_cast<sim::SimTime>(i + 1) * kWindow),
                window_mbps[i], i == fault_win ? "   <- fault" : "");
  }

  const route::RouteManager& rm = *sc.routing();
  std::printf("\nprefault %.2f Mbit/s, dip %.2f, recovered %.2f (%.1f%%), recovery %.0f ms\n",
              prefault, dip, recovered, 100.0 * recovered / prefault, recovery_ms);
  std::printf("failovers %llu, probes %llu (%llu timeouts), reroute p50 %.1f us p99 %.1f us\n",
              static_cast<unsigned long long>(rm.failovers()),
              static_cast<unsigned long long>(rm.probes_sent()),
              static_cast<unsigned long long>(rm.probe_timeouts()),
              rm.reroute_latency().p50() / sim::kMicrosecond,
              rm.reroute_latency().p99() / sim::kMicrosecond);

  obs::RunReport report = sc.report();
  report.add("failover.goodput_prefault", prefault, "mbps");
  report.add("failover.goodput_dip", dip, "mbps");
  report.add("failover.goodput_recovered", recovered, "mbps");
  report.add("failover.recovered_ratio", recovered / prefault, "ratio");
  report.add("failover.recovery_ms", recovery_ms, "ms");
  finish_report(options, report);
  finish_trace(options.trace_path, sc.net().tracer());
  finish_profile(options, sc.net().profiler());

  if (rm.failovers() == 0) {
    std::fprintf(stderr, "FAIL: the fault never triggered a failover\n");
    return 1;
  }
  if (recovered < kRecoverTarget * prefault) {
    std::fprintf(stderr, "FAIL: recovered goodput %.2f below %.0f%% of pre-fault %.2f\n",
                 recovered, 100.0 * kRecoverTarget, prefault);
    return 1;
  }
  const double reroute_p99 = rm.reroute_latency().p99();
  if (reroute_p99 <= 0 || reroute_p99 > static_cast<double>(kMaxRerouteP99)) {
    std::fprintf(stderr, "FAIL: reroute p99 %.1f us outside (0, %.0f ms]\n",
                 reroute_p99 / sim::kMicrosecond, sim::to_msec(kMaxRerouteP99));
    return 1;
  }
  if (recovery_ms <= 0) {
    std::fprintf(stderr, "FAIL: goodput never recovered after the fault\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  return run(parse_options(argc, argv, kTrace | kProfile));
}
