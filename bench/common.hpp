#pragma once

// Shared helpers for the paper-reproduction benchmark binaries.
//
// These harnesses measure *simulated* time on the deterministic clock, so a
// run is reproducible bit for bit; wall-clock benchmarking frameworks do not
// apply. Each binary prints the rows/series of one table or figure from
// Cooper et al., SIGCOMM 1990, alongside the paper's reported values.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "host/node.hpp"
#include "net/system.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"

namespace nectar::bench {

/// Output flags. Every bench takes --json; the others only where the bench
/// implements them (it passes them to parse_options):
///   --json <path>       write a machine-readable run report (obs::RunReport)
///   --trace <path>      export a Chrome trace-event timeline of (part of) the run
///   --profile <path>    enable the cycle-attribution profiler and write its
///                       folded-stack output (flamegraph.pl / speedscope input).
///                       Profiling charges no simulated time, so --profile does
///                       not change any reported numbers.
///   --telemetry <path>  sample every metric every 10 ms of simulated time
///                       and write the "nectar-timeseries" artifact (see
///                       docs/OBSERVABILITY.md). Sampling is pull-based, so a
///                       single-shard run's event stream is unchanged.
enum Flag : unsigned { kTrace = 1, kProfile = 2, kTelemetry = 4 };

struct BenchOptions {
  std::string json_path;
  std::string trace_path;
  std::string profile_path;
  std::string telemetry_path;
};

/// Parse --json plus the `flags` this bench implements. Any other argument,
/// or a flag without its path, prints usage and exits 2.
inline BenchOptions parse_options(int argc, char** argv, unsigned flags = 0) {
  BenchOptions o;
  const struct {
    unsigned flag;
    const char* name;
    std::string* path;
  } known[] = {{0, "--json", &o.json_path},
               {kTrace, "--trace", &o.trace_path},
               {kProfile, "--profile", &o.profile_path},
               {kTelemetry, "--telemetry", &o.telemetry_path}};
  auto offered = [flags](unsigned flag) { return flag == 0 || (flags & flag) != 0; };
  for (int i = 1; i < argc; ++i) {
    std::string* path = nullptr;
    for (const auto& k : known) {
      if (offered(k.flag) && argv[i] == std::string(k.name)) path = k.path;
    }
    if (path == nullptr || i + 1 >= argc) {
      std::string usage;
      for (const auto& k : known) {
        if (offered(k.flag)) usage += std::string(" [") + k.name + " <path>]";
      }
      std::fprintf(stderr, "usage: %s%s\n", argv[0], usage.c_str());
      std::exit(2);
    }
    *path = argv[++i];
  }
  return o;
}

/// Enable profiling if --profile was given. Call right after building the
/// system, before any traffic runs.
inline void start_profile(const BenchOptions& o, obs::Profiler& profiler) {
  if (o.profile_path.empty()) return;
  profiler.set_enabled(true);
}

/// Write the report if --json was given; exits non-zero on I/O failure so CI
/// catches a silently missing report.
inline void finish_report(const BenchOptions& o, const obs::RunReport& report) {
  if (o.json_path.empty()) return;
  if (!report.write(o.json_path)) {
    std::fprintf(stderr, "error: cannot write report to %s\n", o.json_path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s\n", o.json_path.c_str());
}

/// Write the folded-stack profile if --profile was given (no-op on an empty
/// path).
inline void finish_profile(const BenchOptions& o, const obs::Profiler& profiler) {
  if (o.profile_path.empty()) return;
  if (!profiler.write_folded(o.profile_path)) {
    std::fprintf(stderr, "error: cannot write profile to %s\n", o.profile_path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%llu samples)\n", o.profile_path.c_str(),
              static_cast<unsigned long long>(profiler.samples()));
}

/// Write the Chrome trace if --trace was given (no-op on an empty path).
inline void finish_trace(const std::string& path, const obs::Tracer& tracer) {
  if (path.empty()) return;
  if (!tracer.write_chrome(path)) {
    std::fprintf(stderr, "error: cannot write trace to %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu events)\n", path.c_str(), tracer.events().size());
}

inline std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return v;
}

inline double median_usec(std::vector<sim::SimTime> samples) {
  std::sort(samples.begin(), samples.end());
  return sim::to_usec(samples[samples.size() / 2]);
}

inline double mbit_per_sec(std::uint64_t bytes, sim::SimTime elapsed) {
  return static_cast<double>(bytes) * 8.0 / (static_cast<double>(elapsed) / sim::kSecond) / 1e6;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("(simulated Nectar system; see DESIGN.md for the substitution model)\n\n");
}

}  // namespace nectar::bench
