// scenario_runner: load a scenario description (INI format, see
// docs/SCENARIOS.md), run it on the simulated network, and print an
// SLO-style summary — per-workload tail latency, goodput, fairness, and
// fault-attributed loss. The run is a pure function of (config, seed): two
// invocations with the same inputs produce byte-identical --json reports.
//
//   scenario_runner <config.ini> [--seed N] [--duration D] [--shards N]
//                   [--json <path>] [--trace <path>] [--profile <path>]
//                   [--telemetry <path>] [--audit <path>]
//
// Six flags set INI keys on the parsed file before it is bound, so the key's
// row parses and checks a flag's value exactly as it would the file's (a
// malformed one exits 1, naming the key): --seed N and --duration D set
// [scenario] seed and duration, --shards N sets [parallel] shards (one
// config at several shard counts), --profile sets [profile] folded (the
// cycle-attribution profiler's folded stacks), --telemetry sets [telemetry]
// enabled and artifact (continuous sampling + the conservation auditor),
// and --audit sets [telemetry] enabled, audit and audit_artifact. An
// invariant violation exits 1 after the audit report is written.
// --trace matches the bench binaries' flag: it writes a Chrome trace-event
// timeline of the run (single-shard only).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "scenario/engine.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config.ini> [--seed N] [--duration D] [--shards N]\n"
               "       [--json <path>] [--trace <path>] [--profile <path>]\n"
               "       [--telemetry <path>] [--audit <path>]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nectar;

  std::string config_path;
  std::string json_path;
  std::string trace_path;
  struct Override {
    const char* section;
    const char* key;
    std::string value;
  };
  std::vector<Override> overrides;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--telemetry" && i + 1 < argc) {
      overrides.push_back({"telemetry", "enabled", "yes"});
      overrides.push_back({"telemetry", "artifact", argv[++i]});
    } else if (a == "--audit" && i + 1 < argc) {
      overrides.push_back({"telemetry", "enabled", "yes"});
      overrides.push_back({"telemetry", "audit", "yes"});
      overrides.push_back({"telemetry", "audit_artifact", argv[++i]});
    } else if (a == "--seed" && i + 1 < argc) {
      overrides.push_back({"scenario", "seed", argv[++i]});
    } else if (a == "--duration" && i + 1 < argc) {
      overrides.push_back({"scenario", "duration", argv[++i]});
    } else if (a == "--shards" && i + 1 < argc) {
      overrides.push_back({"parallel", "shards", argv[++i]});
    } else if (a == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (a == "--profile" && i + 1 < argc) {
      overrides.push_back({"profile", "folded", argv[++i]});
    } else if (!a.empty() && a[0] != '-' && config_path.empty()) {
      config_path = a;
    } else {
      usage(argv[0]);
    }
  }
  if (config_path.empty()) usage(argv[0]);

  try {
    scenario::Config cfg = scenario::Config::parse_file(config_path);
    for (Override& o : overrides) cfg.set(o.section, o.key, std::move(o.value));
    scenario::ScenarioSpec spec = scenario::ScenarioSpec::from_config(cfg);
    if (!trace_path.empty() && spec.parallel.shards > 1) {
      std::fprintf(stderr, "error: --trace needs a single-shard run (the Chrome-trace "
                           "tracer records into one shared event list)\n");
      return 2;
    }

    std::printf("scenario %s: %d nodes (%s), %zu workload(s), %zu fault(s), seed %llu\n",
                spec.name.c_str(), spec.topology.nodes,
                scenario::name_of(scenario::kTopologyKinds, spec.topology.kind),
                spec.workloads.size(), spec.faults.size(),
                static_cast<unsigned long long>(spec.seed));

    scenario::Scenario sc(std::move(spec));
    if (!trace_path.empty()) sc.net().tracer().set_enabled(true);
    sc.run();

    std::printf("ran %.1f ms of simulated time\n\n", sim::to_msec(sc.spec().duration));
    std::printf("%-12s %10s %10s %8s %8s %10s %9s %9s %9s\n", "workload", "delivered", "shed",
                "errors", "fair", "Mbit/s", "p50 us", "p99 us", "p999 us");
    for (const auto& w : sc.workloads()) {
      const auto& h = w->latency();
      std::printf("%-12s %10llu %10llu %8llu %8.3f %10.2f %9.1f %9.1f %9.1f\n",
                  w->spec().name.c_str(), static_cast<unsigned long long>(w->delivered()),
                  static_cast<unsigned long long>(w->shed()),
                  static_cast<unsigned long long>(w->errors()), w->fairness(),
                  w->goodput_mbps(sc.spec().duration), h.p50() / sim::kMicrosecond,
                  h.p99() / sim::kMicrosecond, h.p999() / sim::kMicrosecond);
    }
    std::printf("\ndrops: %llu total, %llu attributed to %zu injected fault(s)\n",
                static_cast<unsigned long long>(sc.faults().network_drops()),
                static_cast<unsigned long long>(sc.faults().total_attributed_drops()),
                sc.faults().faults_injected());
    for (std::size_t i = 0; i < sc.faults().records().size(); ++i) {
      const auto& r = sc.faults().records()[i];
      std::printf("  fault%zu %s at %.1f ms: %llu drops\n", i, r.spec.describe().c_str(),
                  sim::to_msec(r.applied_at), static_cast<unsigned long long>(r.attributed_drops));
    }

    for (std::size_t i = 0; i < sc.spec().captures.size(); ++i) {
      const auto& c = sc.spec().captures[i];
      std::printf("capture %s (%s): %llu packet(s) -> %s\n", c.element.c_str(),
                  scenario::name_of(scenario::kCaptureFormats, c.format),
                  static_cast<unsigned long long>(sc.captures()[i]->packets_written()),
                  c.file.c_str());
    }
    if (!sc.spec().profile.folded.empty()) {
      std::printf("profile: folded stacks -> %s\n", sc.spec().profile.folded.c_str());
    }
    if (!sc.spec().profile.timeline.empty()) {
      std::printf("profile: event log -> %s\n", sc.spec().profile.timeline.c_str());
    }
    if (!trace_path.empty()) {
      if (!sc.net().tracer().write_chrome(trace_path)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("trace: %zu event(s) -> %s\n", sc.net().tracer().events().size(),
                  trace_path.c_str());
    }
    if (sc.sampler() != nullptr) {
      std::printf("telemetry: %zu sample(s), %zu series, %zu mark(s)%s%s\n",
                  sc.sampler()->samples(), sc.sampler()->series_count(),
                  sc.sampler()->marks().size(),
                  sc.spec().telemetry.artifact.empty() ? "" : " -> ",
                  sc.spec().telemetry.artifact.c_str());
    }
    if (sc.auditor() != nullptr) {
      std::printf("audit: %zu invariant(s), %llu check(s), %zu violation(s)\n",
                  sc.auditor()->invariants(),
                  static_cast<unsigned long long>(sc.auditor()->checks_run()),
                  sc.auditor()->violations().size());
    }
    if (sc.spec().tracing.enabled && !sc.spec().tracing.artifact.empty()) {
      std::printf("tracing: %llu trace(s) -> %s\n",
                  static_cast<unsigned long long>(sc.causal_tracer()->finished_count()),
                  sc.spec().tracing.artifact.c_str());
    }

    if (!json_path.empty()) {
      obs::RunReport rep = sc.report();
      if (!rep.write(json_path)) {
        std::fprintf(stderr, "error: cannot write report to %s\n", json_path.c_str());
        return 1;
      }
      std::printf("\nwrote %s\n", json_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
