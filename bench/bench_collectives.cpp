// Collective-latency curve: barrier on the CAB-resident engine (src/coll,
// multicast release over the HUB crossbar) vs the host-level baseline (every
// message pays a driver interrupt, a process wakeup and VME programmed I/O),
// swept over group sizes 8 -> 512 on the same fat-tree fabric.
//
// There is no paper figure for this; it is the acceptance experiment for the
// collective subsystem (docs/COLLECTIVES.md): the nproto argument — protocol
// processing belongs on the CAB — extended from point-to-point datagrams to
// group operations. The bench exits non-zero unless the CAB engine beats the
// host baseline at every size with the gap widening as the group grows.
//
// Everything reported is a function of simulated execution only (no wall
// clock), so the committed BENCH_collectives.json must reproduce
// byte-for-byte from `bench_collectives --json`. The 512-node CAB point is
// re-run under the conservative-parallel engine (4 shards) and must agree
// with the sequential run on every count — the same cross-check
// bench_parallel applies to its soak traffic.
//
//   --trace <path>   re-runs one 8-node CAB barrier with the causal tracer
//                    sampling every message (shards=1 only), prints each
//                    stage timeline, and writes a Chrome trace of the run.
//   --profile <path> profiles the 512-node CAB run (cycle attribution;
//                    charges no simulated time, reported numbers unchanged).

#include "common.hpp"
#include "obs/causal.hpp"
#include "scenario/collectives.hpp"
#include "scenario/engine.hpp"

namespace nectar::bench {
namespace {

constexpr const char* kConfig = R"(
[scenario]
name = collectives
seed = 1990
duration = 4s

# VME backplanes exist at every size so both modes run the same fabric; the
# CAB mode simply never touches them.
[topology]
kind = fat_tree
nodes = 8
hub_ports = 16
spines = 4
trunk_propagation = 5us
route_spread = yes
with_vme = yes

[collectives]
enabled = true
mode = cab
op = barrier
algorithm = tree
iterations = 12
interval = 100us
)";

struct Point {
  std::uint64_t rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t data_errors = 0;
  std::uint64_t mcast_out = 0;
  std::uint64_t lat_count = 0;
  double mean_us = 0.0, p50_us = 0.0, p99_us = 0.0;
};

using Mode = scenario::CollectivesSpec::Mode;

scenario::ScenarioSpec spec_at(Mode mode, int nodes, int shards) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_config(scenario::Config::parse_string(kConfig));
  spec.topology.nodes = nodes;
  spec.collectives.mode = mode;
  spec.parallel.shards = shards;
  return spec;
}

Point run_point(Mode mode, int nodes, int shards, const BenchOptions* profile_opts) {
  scenario::Scenario sc(spec_at(mode, nodes, shards));
  if (profile_opts != nullptr) start_profile(*profile_opts, sc.net().profiler());
  sc.run();

  scenario::CollectiveDriver& drv = *sc.collectives();
  Point p;
  p.rounds = drv.rounds_completed();
  p.data_errors = drv.data_errors();
  obs::LatencyHistogram lat;
  for (int i = 0; i < nodes; ++i) {
    if (coll::CollectiveEngine* e = drv.engine(i)) {
      p.msgs += e->msgs_sent();
      lat.merge(e->barrier_latency());
    }
    if (coll::HostCollective* h = drv.host(i)) {
      p.msgs += h->msgs_sent();
      lat.merge(h->barrier_latency());
    }
  }
  for (int h = 0; h < sc.net().hub_count(); ++h) p.mcast_out += sc.net().hub(h).mcast_out();
  p.lat_count = lat.count();
  p.mean_us = lat.mean() / sim::kMicrosecond;
  p.p50_us = lat.p50() / sim::kMicrosecond;
  p.p99_us = lat.p99() / sim::kMicrosecond;
  if (profile_opts != nullptr) finish_profile(*profile_opts, sc.net().profiler());
  return p;
}

/// Satellite: one fully-sampled 8-node CAB barrier through the causal
/// tracer, so a single barrier's stage timeline (tx.coll -> hub/link hops ->
/// rx.coll) is inspectable. Tracing is process-global state, hence shards=1.
int run_trace(const BenchOptions& options) {
  scenario::ScenarioSpec spec = spec_at(Mode::Cab, 8, /*shards=*/1);
  spec.collectives.iterations = 1;
  spec.tracing.enabled = true;
  spec.tracing.sample = 1.0;
  spec.tracing.top_k = 8;
  scenario::Scenario sc(std::move(spec));
  sc.net().tracer().set_enabled(true);
  sc.run();

  const obs::CausalTracer& ct = *sc.causal_tracer();
  obs::CriticalPathAnalyzer cpa(ct);
  std::string violation = cpa.verify();
  if (!violation.empty()) {
    std::fprintf(stderr, "FAIL: cut-point invariant violated: %s\n", violation.c_str());
    return 1;
  }
  std::printf("\n--- one 8-node barrier, every message traced ---\n");
  std::uint64_t finished = 0;
  for (const auto& t : ct.traces()) {
    if (!t->finished) continue;
    ++finished;
    std::printf("%-14s node%d -> %-6s %7.1f us:", t->flow.c_str(), t->src,
                t->dst < 0 ? "mcast" : ("node" + std::to_string(t->dst)).c_str(),
                static_cast<double>(t->e2e()) / sim::kMicrosecond);
    for (const obs::StageRecord& s : t->stages) {
      std::printf("  %s@%s %.1fus", s.label.c_str(), s.where.c_str(),
                  static_cast<double>(s.duration()) / sim::kMicrosecond);
    }
    std::printf("\n");
  }
  if (finished == 0) {
    std::fprintf(stderr, "FAIL: no collective traces finished\n");
    return 1;
  }
  finish_trace(options.trace_path, sc.net().tracer());
  return 0;
}

int run(const BenchOptions& options) {
  print_header("collective barrier latency, CAB engine vs host baseline");
  std::printf("%5s %6s | %9s %9s %9s | %9s %9s %9s | %7s\n", "nodes", "iters", "cab mean",
              "cab p50", "cab p99", "host mean", "host p50", "host p99", "ratio");

  obs::RunReport report("collectives");
  report.param("topology", "fat_tree");
  report.param("op", "barrier");
  report.param("algorithm", "tree");
  report.param("iterations", 12);

  const std::vector<int> kSizes = {8, 32, 128, 512};
  std::vector<double> ratios;
  int rc = 0;
  for (int nodes : kSizes) {
    // Profile the heaviest CAB run when asked; profiling charges no
    // simulated time, so the reported rows are unchanged.
    const BenchOptions* prof = nodes == 512 ? &options : nullptr;
    Point cab = run_point(Mode::Cab, nodes, /*shards=*/1, prof);
    Point host = run_point(Mode::Host, nodes, /*shards=*/1, nullptr);
    double ratio = host.mean_us / cab.mean_us;
    ratios.push_back(ratio);
    std::printf("%5d %6llu | %8.1fu %8.1fu %8.1fu | %8.1fu %8.1fu %8.1fu | %6.1fx\n", nodes,
                static_cast<unsigned long long>(cab.rounds), cab.mean_us, cab.p50_us,
                cab.p99_us, host.mean_us, host.p50_us, host.p99_us, ratio);

    for (const auto& [tag, p] : {std::pair<const char*, const Point&>{"cab", cab},
                                 std::pair<const char*, const Point&>{"host", host}}) {
      std::string k = "coll." + std::string(tag) + ".n" + std::to_string(nodes);
      report.add(k + ".mean_us", p.mean_us, "us");
      report.add(k + ".p50_us", p.p50_us, "us");
      report.add(k + ".p99_us", p.p99_us, "us");
      report.add(k + ".rounds", static_cast<double>(p.rounds), "count");
      report.add(k + ".msgs", static_cast<double>(p.msgs), "count");
      report.add(k + ".hub_mcast_out", static_cast<double>(p.mcast_out), "frames");
    }
    report.add("coll.n" + std::to_string(nodes) + ".host_over_cab", ratio, "ratio");

    for (const auto& [tag, p] : {std::pair<const char*, const Point&>{"cab", cab},
                                 std::pair<const char*, const Point&>{"host", host}}) {
      if (p.rounds != 12) {
        std::fprintf(stderr, "error: %s n=%d completed %llu/12 rounds\n", tag, nodes,
                     static_cast<unsigned long long>(p.rounds));
        rc = 1;
      }
      if (p.data_errors != 0) {
        std::fprintf(stderr, "error: %s n=%d saw %llu data errors\n", tag, nodes,
                     static_cast<unsigned long long>(p.data_errors));
        rc = 1;
      }
    }
    if (cab.mean_us >= host.mean_us) {
      std::fprintf(stderr, "error: CAB engine not faster than host baseline at n=%d\n", nodes);
      rc = 1;
    }
    if (cab.mcast_out == 0) {
      std::fprintf(stderr, "error: CAB release never used HUB multicast at n=%d\n", nodes);
      rc = 1;
    }
  }
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    if (ratios[i] <= ratios[i - 1]) {
      std::fprintf(stderr, "error: host/CAB gap did not widen from n=%d to n=%d (%.2f vs %.2f)\n",
                   kSizes[i - 1], kSizes[i], ratios[i - 1], ratios[i]);
      rc = 1;
    }
  }

  // The same 512-node CAB run under the conservative-parallel engine: every
  // count (rounds, messages, latency samples) must agree with the sequential
  // engine exactly — the cross-check bench_parallel applies to delivered
  // counts. Timestamps may differ by tie-break order at shard boundaries, so
  // the mean only has to agree within 1%.
  Point seq = run_point(Mode::Cab, 512, /*shards=*/1, nullptr);
  Point par = run_point(Mode::Cab, 512, /*shards=*/4, nullptr);
  std::printf("\nparallel cross-check (512 nodes, cab, 4 shards): "
              "rounds %llu/%llu  mean %.1fus/%.1fus\n",
              static_cast<unsigned long long>(par.rounds),
              static_cast<unsigned long long>(seq.rounds), par.mean_us, seq.mean_us);
  bool par_ok = par.rounds == seq.rounds && par.lat_count == seq.lat_count &&
                par.msgs == seq.msgs &&
                std::abs(par.mean_us - seq.mean_us) <= 0.01 * seq.mean_us;
  if (!par_ok) {
    std::fprintf(stderr, "error: parallel engine diverged from sequential run\n");
    rc = 1;
  }
  report.add("coll.par4.n512.rounds", static_cast<double>(par.rounds), "count");
  report.add("coll.par4.n512.mean_us", par.mean_us, "us");
  report.add("coll.par4.n512.matches_sequential", par_ok ? 1.0 : 0.0, "bool");

  finish_report(options, report);
  if (!options.trace_path.empty()) {
    int trc = run_trace(options);
    if (trc != 0) return trc;
  }
  return rc;
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  return run(parse_options(argc, argv, kTrace | kProfile));
}
