#pragma once

// Structured tracing on the simulated clock.
//
// A Tracer is the per-Engine event sink the whole system reports into:
// typed events (span begin/end, instant, counter sample) attributed to
// *tracks*. A track is one timeline row — "node0 / cab.cpu", "node0 / vme",
// "node1 / wire" — mapped onto the Chrome trace-event pid/tid plane so a
// host→CAB→wire→CAB→host exchange renders as parallel swimlanes in
// chrome://tracing or ui.perfetto.dev.
//
// Cost model: disabled (the default) every hook is a pointer/flag check;
// enabled, one vector push per event, *zero* simulated time either way —
// tracing never perturbs measured results.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nectar::obs {

class Tracer {
 public:
  enum class EventType { Begin, End, Instant, Counter };

  struct Event {
    EventType type;
    int track;
    sim::SimTime ts;
    std::string name;
    std::int64_t value = 0;  // Counter events only
  };

  struct Track {
    std::string process;  ///< timeline group (maps to Chrome pid)
    std::string thread;   ///< row within the group (maps to Chrome tid)
    int pid;
    int tid;
  };

  explicit Tracer(sim::Engine& engine) : engine_(engine) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Register (or look up) the track for (process, thread). Ids are assigned
  /// in registration order, so identical runs get identical pid/tid layouts.
  int track(const std::string& process, const std::string& thread);
  const std::vector<Track>& tracks() const { return tracks_; }

  // --- emission (no-ops while disabled) -----------------------------------------
  // The *_at variants take an explicit timestamp for hardware models that
  // know an interval's bounds up front (e.g. a VME bus grant computed as
  // [start, completion] before the simulated clock reaches either).

  void begin(int track, std::string name) { begin_at(track, std::move(name), engine_.now()); }
  void begin_at(int track, std::string name, sim::SimTime ts) {
    push(EventType::Begin, track, std::move(name), ts, 0);
  }
  void end(int track, std::string name) { end_at(track, std::move(name), engine_.now()); }
  void end_at(int track, std::string name, sim::SimTime ts) {
    push(EventType::End, track, std::move(name), ts, 0);
  }
  void instant(int track, std::string name) { instant_at(track, std::move(name), engine_.now()); }
  void instant_at(int track, std::string name, sim::SimTime ts) {
    push(EventType::Instant, track, std::move(name), ts, 0);
  }
  void counter(int track, std::string name, std::int64_t value) {
    push(EventType::Counter, track, std::move(name), engine_.now(), value);
  }

  // --- inspection ------------------------------------------------------------------

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// First event with this name, or nullptr.
  const Event* find(std::string_view name) const;

  // --- export ----------------------------------------------------------------------

  /// Chrome trace-event JSON ("JSON object format" with a traceEvents
  /// array): loads in chrome://tracing and ui.perfetto.dev. Timestamps are
  /// microseconds with nanosecond fraction; output is byte-deterministic.
  void export_chrome(std::ostream& os) const;
  std::string chrome_json() const;
  /// Returns false (and writes nothing else) if the file cannot be opened.
  bool write_chrome(const std::string& path) const;

 private:
  void push(EventType type, int track, std::string name, sim::SimTime ts, std::int64_t value) {
    if (!enabled_) return;
    events_.push_back(Event{type, track, ts, std::move(name), value});
  }

  sim::Engine& engine_;
  bool enabled_ = false;
  std::vector<Track> tracks_;
  std::map<std::pair<std::string, std::string>, int> track_ids_;
  std::map<std::string, int> pids_;
  std::vector<Event> events_;
};

/// Guard used at instrumentation sites: `if (tracing(t)) t->instant(...)`.
inline bool tracing(const Tracer* t) { return t != nullptr && t->enabled(); }

}  // namespace nectar::obs
