#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/json.hpp"

namespace nectar::obs {

// --- Histogram -----------------------------------------------------------------

Histogram::Histogram(std::vector<std::int64_t> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("Histogram: bucket bounds must be ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);  // +1: overflow bucket
}

void Histogram::observe(std::int64_t v) {
  std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

// --- MetricsRegistry -----------------------------------------------------------

namespace {

const char* cell_kind_name(SnapshotEntry::Kind k) {
  switch (k) {
    case SnapshotEntry::Kind::Counter: return "counter";
    case SnapshotEntry::Kind::Gauge: return "gauge";
    case SnapshotEntry::Kind::Histogram: return "histogram";
    case SnapshotEntry::Kind::Probe: return "probe";
  }
  return "?";
}

[[noreturn]] void throw_kind_conflict(const MetricKey& key, SnapshotEntry::Kind want,
                                      SnapshotEntry::Kind have) {
  throw std::logic_error("MetricsRegistry: " + key.str() + " already registered as " +
                         cell_kind_name(have) + ", cannot re-register as " +
                         cell_kind_name(want));
}

}  // namespace

Counter& MetricsRegistry::counter(int node, std::string component, std::string name) {
  std::lock_guard<std::mutex> lk(mutex_);
  return owned_cell(MetricKey{node, std::move(component), std::move(name)},
                    SnapshotEntry::Kind::Counter)
      .first->second.counter;
}

Gauge& MetricsRegistry::gauge(int node, std::string component, std::string name) {
  std::lock_guard<std::mutex> lk(mutex_);
  return owned_cell(MetricKey{node, std::move(component), std::move(name)},
                    SnapshotEntry::Kind::Gauge)
      .first->second.gauge;
}

Histogram& MetricsRegistry::histogram(int node, std::string component, std::string name,
                                      std::vector<std::int64_t> bounds) {
  // Built before the cell exists: bounds that are not ascending throw here
  // and leave no histogram cell without a Histogram.
  auto h = std::make_unique<Histogram>(std::move(bounds));
  std::lock_guard<std::mutex> lk(mutex_);
  auto [it, created] = owned_cell(MetricKey{node, std::move(component), std::move(name)},
                                  SnapshotEntry::Kind::Histogram);
  if (created) {
    it->second.histogram = std::move(h);
  } else if (it->second.histogram->bounds() != h->bounds()) {
    throw std::logic_error("MetricsRegistry: " + it->first.str() +
                           " re-registered with different histogram bounds");
  }
  return *it->second.histogram;
}

std::pair<MetricsRegistry::Cells::iterator, bool> MetricsRegistry::owned_cell(
    MetricKey key, SnapshotEntry::Kind kind) {
  index_before_owned(key);
  auto [it, created] = cells_.try_emplace(std::move(key));  // key is kept when it exists
  if (created) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    // Same-kind re-access is a lookup (modules share cells deliberately);
    // a kind mismatch is a silent-clobber bug and fails loudly instead.
    throw_kind_conflict(it->first, kind, it->second.kind);
  }
  return {it, created};
}

std::size_t MetricsRegistry::size() {
  std::lock_guard<std::mutex> lk(mutex_);
  index();
  return cells_.size();
}

bool MetricsRegistry::contains(int node, std::string_view component, std::string_view name) {
  std::lock_guard<std::mutex> lk(mutex_);
  index();
  return cells_.count(MetricKey{node, std::string(component), std::string(name)}) > 0;
}

// Key actually used after de-duplication ("name", "name#2", ...): a second
// registrant under the same key gets a deterministic suffix instead of
// clobbering the first.
MetricKey MetricsRegistry::unique_key(MetricKey key) const {
  if (cells_.count(key) == 0) return key;
  std::string base = key.name;
  for (int i = 2;; ++i) {
    key.name = base + "#" + std::to_string(i);
    if (cells_.count(key) == 0) return key;
  }
}

namespace {

/// A registration builds the index once its node's log holds more released
/// probes than live ones plus this slack, so churn before the first read keeps
/// the logs bounded; from then on a release frees its record.
constexpr std::uint32_t kChurnSlack = 64;

}  // namespace

MetricsRegistry::Cells::iterator MetricsRegistry::insert_probe(MetricKey key, Probe fn) {
  auto it = cells_.try_emplace(unique_key(std::move(key))).first;
  it->second.kind = SnapshotEntry::Kind::Probe;
  it->second.probe = std::move(fn);
  return it;
}

std::uint32_t MetricsRegistry::add_probe(MetricKey key, Probe fn) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!indexed_) {
    PendingNode& n = pending_[key.node];
    if (n.released <= n.live + kChurnSlack) {
      const std::uint32_t id = new_record();
      Record& r = records_[id];
      r.key = std::move(key);
      r.fn = std::move(fn);
      n.log.push_back(id);
      ++n.live;
      return id;
    }
    index();
  }
  const std::uint32_t id = new_record();
  records_[id].cell = insert_probe(std::move(key), std::move(fn));
  return id;
}

void MetricsRegistry::release(const std::vector<std::uint32_t>& ids) {
  std::lock_guard<std::mutex> lk(mutex_);
  for (std::uint32_t id : ids) {
    Record& r = records_[id];
    if (indexed_) {
      cells_.erase(r.cell);
      free_record(id);
      continue;
    }
    // Still logged: the release takes its place in the log, since a probe
    // registered in between got its suffix while this one held its key.
    r.fn = nullptr;
    PendingNode& n = pending_[r.key.node];
    assert(n.live > 0);
    n.log.push_back(id | kReleaseOp);
    --n.live;
    ++n.released;
  }
}

// An owned cell replays the log first when a logged probe on its node was
// registered under its key, or when its '#' name could be a probe's suffix.
void MetricsRegistry::index_before_owned(const MetricKey& key) {
  if (indexed_) return;
  auto n = pending_.find(key.node);
  if (n == pending_.end()) return;
  const std::vector<std::uint32_t>& log = n->second.log;
  const bool held =
      !log.empty() && (key.name.find('#') != std::string::npos ||
                       std::any_of(log.begin(), log.end(), [&](std::uint32_t op) {
                         return (op & kReleaseOp) == 0 && records_[op].key == key;
                       }));
  if (held) index();
}

void MetricsRegistry::index() {
  if (indexed_) return;
  indexed_ = true;
  // Nodes replay in any order: a key, and so its suffix, belongs to one node.
  for (auto& [node, n] : pending_) {
    for (std::uint32_t op : n.log) {
      const std::uint32_t id = op & ~kReleaseOp;
      Record& r = records_[id];
      if ((op & kReleaseOp) != 0) {
        cells_.erase(r.cell);
        free_record(id);
      } else {
        r.cell = insert_probe(std::move(r.key), std::move(r.fn));
      }
    }
  }
  pending_.clear();
}

std::uint32_t MetricsRegistry::new_record() {
  if (free_records_.empty()) {
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
  }
  const std::uint32_t id = free_records_.back();
  free_records_.pop_back();
  return id;
}

void MetricsRegistry::free_record(std::uint32_t id) {
  records_[id] = Record{};
  free_records_.push_back(id);
}

Snapshot MetricsRegistry::snapshot() {
  std::lock_guard<std::mutex> lk(mutex_);
  index();
  std::vector<SnapshotEntry> entries;
  entries.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {  // std::map: already key-sorted
    SnapshotEntry e;
    e.key = key;
    e.kind = cell.kind;
    switch (cell.kind) {
      case SnapshotEntry::Kind::Counter:
        e.value = static_cast<std::int64_t>(cell.counter.value());
        break;
      case SnapshotEntry::Kind::Gauge:
        e.value = cell.gauge.value();
        break;
      case SnapshotEntry::Kind::Probe:
        e.value = cell.probe ? cell.probe() : 0;
        break;
      case SnapshotEntry::Kind::Histogram:
        e.count = cell.histogram->count();
        e.sum = cell.histogram->sum();
        e.bounds = cell.histogram->bounds();
        e.buckets = cell.histogram->buckets();
        break;
    }
    entries.push_back(std::move(e));
  }
  return Snapshot(std::move(entries));
}

// --- Snapshot -----------------------------------------------------------------

const SnapshotEntry* Snapshot::find(int node, std::string_view component,
                                    std::string_view name) const {
  for (const SnapshotEntry& e : entries_) {
    if (e.key.node == node && e.key.component == component && e.key.name == name) return &e;
  }
  return nullptr;
}

std::int64_t Snapshot::value_of(int node, std::string_view component, std::string_view name,
                                std::int64_t fallback) const {
  const SnapshotEntry* e = find(node, component, name);
  return e == nullptr ? fallback : e->value;
}

Snapshot Snapshot::delta(const Snapshot& base) const {
  std::vector<SnapshotEntry> out;
  for (const SnapshotEntry& e : entries_) {
    const SnapshotEntry* b = base.find(e.key.node, e.key.component, e.key.name);
    SnapshotEntry d = e;
    if (b != nullptr) {
      d.value -= b->value;
      d.count -= b->count;
      d.sum -= b->sum;
      if (b->buckets.size() == d.buckets.size()) {
        for (std::size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= b->buckets[i];
      }
    }
    bool changed = d.value != 0 || d.count != 0 || d.sum != 0;
    if (changed) out.push_back(std::move(d));
  }
  return Snapshot(std::move(out));
}

std::string Snapshot::to_json(int indent) const {
  json::Value doc = json::Value::object();
  doc.set("schema", "nectar-metrics-snapshot");
  doc.set("version", std::int64_t{1});
  json::Value metrics = json::Value::array();
  for (const SnapshotEntry& e : entries_) {
    json::Value m = json::Value::object();
    m.set("node", std::int64_t{e.key.node});
    m.set("component", e.key.component);
    m.set("name", e.key.name);
    switch (e.kind) {
      case SnapshotEntry::Kind::Counter: m.set("kind", "counter"); break;
      case SnapshotEntry::Kind::Gauge: m.set("kind", "gauge"); break;
      case SnapshotEntry::Kind::Probe: m.set("kind", "probe"); break;
      case SnapshotEntry::Kind::Histogram: m.set("kind", "histogram"); break;
    }
    if (e.kind == SnapshotEntry::Kind::Histogram) {
      m.set("count", e.count);
      m.set("sum", e.sum);
      json::Value bounds = json::Value::array();
      for (std::int64_t b : e.bounds) bounds.push(b);
      m.set("bounds", std::move(bounds));
      json::Value buckets = json::Value::array();
      for (std::uint64_t b : e.buckets) buckets.push(b);
      m.set("buckets", std::move(buckets));
    } else {
      m.set("value", e.value);
    }
    metrics.push(std::move(m));
  }
  doc.set("metrics", std::move(metrics));
  return doc.dump(indent);
}

// --- Registration ---------------------------------------------------------------

void Registration::probe(int node, std::string component, std::string name,
                         MetricsRegistry::Probe fn) {
  if (reg_ == nullptr) return;
  probes_.push_back(
      reg_->add_probe(MetricKey{node, std::move(component), std::move(name)}, std::move(fn)));
}

void Registration::release() {
  if (reg_ != nullptr && !probes_.empty()) reg_->release(probes_);
  probes_.clear();
  reg_ = nullptr;
}

}  // namespace nectar::obs
