#pragma once

// Continuous telemetry: sim-time sampling of the metrics registry.
//
// An obs::Sampler snapshots every MetricsRegistry counter/gauge/probe on a
// fixed sim-clock cadence and keeps the history delta-encoded in per-series
// ring buffers, so a long soak costs O(series * window) host memory no
// matter how long it runs. The artifact it writes ("nectar-timeseries") is
// byte-deterministic for a fixed (seed, cadence, shard count): series are
// key-sorted, values are integers, and host-side series (the parallel
// engine's work_ns / barrier_wait_ns wall-clock probes, the thread-local
// byte-pool caches) are excluded by default.
//
// The sampler is pull-based: it never schedules events on the engine, so a
// telemetry-on single-shard run executes exactly the same event stream as a
// telemetry-off run. The caller (scenario::Scenario, bench harnesses) steps
// the clock `run_until(tick); sampler.sample(tick)` — between steps no
// worker thread is running, so reading the registry is race-free even under
// [parallel] shards > 1.
//
// Fault windows and event-log instants are overlaid as *marks* so plots line
// up with injected events without joining a second artifact.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace nectar::obs {

class Sampler {
 public:
  struct Options {
    /// Nominal sampling cadence; recorded in the artifact. The sampler does
    /// not enforce it — ticks are whatever the caller passes to sample().
    sim::SimTime interval = sim::msec(10);
    /// Ring capacity: oldest ticks are folded away past this many samples.
    std::size_t max_samples = 4096;
    /// Series whose "component.name", and marks whose kind, contain any of
    /// these substrings are skipped. Defaults drop the host-side probes that
    /// would make the artifact nondeterministic: the parallel engine's
    /// wall-clock timers, and the thread-local byte-pool caches whose
    /// counters accumulate across Networks in one process.
    std::vector<std::string> exclude{"work_ns", "barrier_wait_ns", "framepool", "hdrpool"};
    /// When non-empty, ONLY series whose "component.name", and marks whose
    /// kind, contain one of these substrings are kept (exclude still applies
    /// on top). Lets a big topology record a focused artifact — e.g.
    /// {"sim.parallel"} for the per-window shard-imbalance series.
    std::vector<std::string> include;
  };

  /// One annotated window (end >= 0) or instant (end < 0) on the timeline.
  struct Mark {
    sim::SimTime t = 0;
    sim::SimTime end = -1;
    std::string kind;   // "fault", or an event-log kind ("rmp.retransmit", ...)
    std::string label;  // element / event description
  };

  Sampler(MetricsRegistry& registry, Options options);

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Record one sample tick at simulated time `t` (must be >= the previous
  /// tick). Takes a registry snapshot; each scalar metric appends one delta
  /// to its series, each histogram appends to its ".count" / ".sum"
  /// sub-series. A series first seen mid-run starts at this tick; a series
  /// that vanished for a stretch (probe unregistered) is zero-padded so
  /// every retained series stays tick-aligned.
  void sample(sim::SimTime t);

  /// Annotate the timeline. `end` < 0 marks an instant, otherwise a window.
  /// A `kind` the include/exclude filters reject is dropped.
  void mark(sim::SimTime t, std::string kind, std::string label, sim::SimTime end = -1);

  std::size_t samples() const { return total_samples_; }
  std::size_t retained() const { return ticks_.size(); }
  /// Ticks folded out of the ring (history beyond Options::max_samples).
  std::size_t dropped() const { return dropped_; }
  std::size_t series_count() const { return series_.size(); }
  const std::vector<Mark>& marks() const { return marks_; }

  /// The "nectar-timeseries" artifact document (see docs/OBSERVABILITY.md).
  json::Value artifact(const std::string& name) const;

 private:
  /// A scalar sub-stream of one metric: `field` is "" for counters/gauges/
  /// probes, "count"/"sum" for a histogram's two streams.
  struct SeriesKey {
    MetricKey key;
    std::string field;
    auto operator<=>(const SeriesKey&) const = default;
  };
  struct Series {
    SnapshotEntry::Kind kind = SnapshotEntry::Kind::Counter;
    std::size_t start = 0;  ///< global tick index of `first`
    std::int64_t first = 0;
    std::int64_t last = 0;  ///< most recent value (delta base)
    std::deque<std::int64_t> deltas;
    std::size_t last_tick = 0;  ///< global tick index of the latest value
  };

  /// Whether include/exclude drop a series ("component.name") or mark kind.
  bool excluded(const std::string& name) const;
  void record(const SeriesKey& key, SnapshotEntry::Kind kind, std::int64_t value,
              std::size_t tick);
  void evict_oldest();

  MetricsRegistry& registry_;
  Options options_;
  std::deque<sim::SimTime> ticks_;
  std::size_t total_samples_ = 0;
  std::size_t dropped_ = 0;
  std::map<SeriesKey, Series> series_;  // sorted => deterministic artifact
  std::vector<Mark> marks_;
};

}  // namespace nectar::obs
