#pragma once

// Machine-readable run reports for the bench/ binaries.
//
// Every benchmark keeps printing its human-readable table and additionally
// (with --json <path>) emits one of these: a versioned JSON document of the
// run's measurements. Committed reports (BENCH_*.json at the repo root) form
// the performance trajectory future PRs diff against — the simulation is
// deterministic, so any change in a committed number is a real behavioral
// change, not noise.
//
// Schema (docs/OBSERVABILITY.md has the full description):
//   {
//     "schema": "nectar-bench-report", "version": 1,
//     "bench": "<binary name>", "clock": "simulated",
//     "params":  { "<key>": <string|number>, ... },
//     "results": [ {"name": "...", "value": <number>, "unit": "..."}, ... ],
//     "metrics": <optional metrics snapshot document>
//   }

#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace nectar::obs {

class RunReport {
 public:
  static constexpr int kVersion = 1;

  explicit RunReport(std::string bench);

  /// Run parameters (message size, rounds, ...) — context, not results.
  void param(const std::string& key, std::int64_t value);
  void param(const std::string& key, const std::string& value);

  /// One measurement. Units are free-form but conventional: "us", "Mbit/s",
  /// "ratio", "count". Names use dots for structure ("tcp.host_host").
  void add(const std::string& name, double value, const std::string& unit);

  /// Attach a metrics snapshot (rendered under "metrics").
  void attach_metrics(const Snapshot& snap);

  /// Attach an extra top-level section (e.g. "profile"), rendered after
  /// "metrics" in insertion order. Attach each key once.
  void extra(const std::string& key, json::Value value);

  std::size_t result_count() const { return results_.size(); }
  std::string to_json_string() const;
  /// Write to `path`; returns false if the file could not be written.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  json::Value params_ = json::Value::object();
  json::Value results_ = json::Value::array();
  json::Value metrics_;  // null until attached
  json::Value extras_ = json::Value::object();
};

}  // namespace nectar::obs
