#include "obs/timeseries.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace nectar::obs {

namespace {

const char* kind_name(SnapshotEntry::Kind k) {
  switch (k) {
    case SnapshotEntry::Kind::Counter: return "counter";
    case SnapshotEntry::Kind::Gauge: return "gauge";
    case SnapshotEntry::Kind::Probe: return "probe";
    case SnapshotEntry::Kind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

Sampler::Sampler(MetricsRegistry& registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.max_samples == 0) {
    throw std::invalid_argument("Sampler: max_samples must be >= 1");
  }
}

bool Sampler::excluded(const std::string& name) const {
  for (const std::string& pat : options_.exclude) {
    if (name.find(pat) != std::string::npos) return true;
  }
  if (!options_.include.empty()) {
    for (const std::string& pat : options_.include) {
      if (name.find(pat) != std::string::npos) return false;
    }
    return true;
  }
  return false;
}

void Sampler::sample(sim::SimTime t) {
  if (!ticks_.empty() && t < ticks_.back()) {
    throw std::logic_error("Sampler: sample times must be non-decreasing");
  }
  const std::size_t tick = total_samples_;  // global index of this tick
  ticks_.push_back(t);
  ++total_samples_;

  Snapshot snap = registry_.snapshot();
  for (const SnapshotEntry& e : snap.entries()) {
    if (excluded(e.key.component + "." + e.key.name)) continue;
    if (e.kind == SnapshotEntry::Kind::Histogram) {
      record(SeriesKey{e.key, "count"}, e.kind, static_cast<std::int64_t>(e.count), tick);
      record(SeriesKey{e.key, "sum"}, e.kind, e.sum, tick);
    } else {
      record(SeriesKey{e.key, ""}, e.kind, e.value, tick);
    }
  }
  while (ticks_.size() > options_.max_samples) evict_oldest();
}

void Sampler::record(const SeriesKey& key, SnapshotEntry::Kind kind, std::int64_t value,
                     std::size_t tick) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series s;
    s.kind = kind;
    s.start = tick;
    s.first = value;
    s.last = value;
    s.last_tick = tick;
    series_.emplace(key, std::move(s));
    return;
  }
  Series& s = it->second;
  // A probe that unregistered and came back leaves a gap; hold the last
  // value flat across it so every series stays tick-aligned.
  for (std::size_t missed = s.last_tick + 1; missed < tick; ++missed) s.deltas.push_back(0);
  s.deltas.push_back(value - s.last);
  s.last = value;
  s.last_tick = tick;
}

void Sampler::evict_oldest() {
  const std::size_t g = dropped_;  // global index of the tick being folded
  ticks_.pop_front();
  ++dropped_;
  for (auto it = series_.begin(); it != series_.end();) {
    Series& s = it->second;
    if (s.start > g) {
      ++it;
      continue;
    }
    if (s.deltas.empty()) {
      // Single retained value, and it just aged out.
      it = series_.erase(it);
      continue;
    }
    s.first += s.deltas.front();
    s.deltas.pop_front();
    ++s.start;
    ++it;
  }
}

void Sampler::mark(sim::SimTime t, std::string kind, std::string label, sim::SimTime end) {
  if (excluded(kind)) return;
  marks_.push_back(Mark{t, end, std::move(kind), std::move(label)});
}

json::Value Sampler::artifact(const std::string& name) const {
  json::Value doc = json::Value::object();
  doc.set("schema", "nectar-timeseries");
  doc.set("version", std::int64_t{1});
  doc.set("name", name);
  doc.set("interval_ns", options_.interval);
  doc.set("samples", static_cast<std::int64_t>(total_samples_));
  doc.set("dropped", static_cast<std::int64_t>(dropped_));
  json::Value ticks = json::Value::array();
  for (sim::SimTime t : ticks_) ticks.push(t);
  doc.set("t_ns", std::move(ticks));

  json::Value series = json::Value::array();
  for (const auto& [key, s] : series_) {  // std::map: key-sorted, deterministic
    json::Value v = json::Value::object();
    v.set("node", std::int64_t{key.key.node});
    v.set("component", key.key.component);
    v.set("name", key.key.name);
    if (!key.field.empty()) v.set("field", key.field);
    v.set("kind", kind_name(s.kind));
    // Index into t_ns of this series' first value; reconstruct with
    // v[i] = first + sum(deltas[0..i-1]).
    v.set("start", static_cast<std::int64_t>(s.start - dropped_));
    v.set("first", s.first);
    json::Value deltas = json::Value::array();
    for (std::int64_t d : s.deltas) deltas.push(d);
    v.set("deltas", std::move(deltas));
    series.push(std::move(v));
  }
  doc.set("series", std::move(series));

  std::vector<Mark> sorted = marks_;
  std::sort(sorted.begin(), sorted.end(), [](const Mark& a, const Mark& b) {
    return std::tie(a.t, a.kind, a.label, a.end) < std::tie(b.t, b.kind, b.label, b.end);
  });
  json::Value marks = json::Value::array();
  for (const Mark& m : sorted) {
    json::Value v = json::Value::object();
    v.set("t_ns", m.t);
    if (m.end >= 0) v.set("end_ns", m.end);
    v.set("kind", m.kind);
    v.set("label", m.label);
    marks.push(std::move(v));
  }
  doc.set("marks", std::move(marks));
  return doc;
}

}  // namespace nectar::obs
