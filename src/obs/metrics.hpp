#pragma once

// Metrics registry for the Nectar reproduction.
//
// Every instrumented value in the system is keyed by (node, component, name)
// — e.g. (1, "tcp", "segments_sent") — and lives in exactly one registry
// (one per Network; standalone CabRuntimes fall back to a private one).
// Because the simulation is deterministic, a Snapshot taken at the same
// simulated point of two identical runs is byte-identical when serialized,
// which is what makes snapshots diffable across code changes.
//
// Two registration styles:
//  - owned cells (counter/gauge/histogram): the registry owns the storage,
//    callers hold a stable reference and push updates on the hot path;
//  - probes: a callback reads a module's existing plain counter at snapshot
//    time. This is how the legacy per-module `stats` members (proto::Tcp,
//    proto::Ip, core::Cpu, hw::VmeBus, ...) report through the registry
//    without changing their accessors or adding hot-path work. Probes are
//    registered through a Registration (RAII) so a module that dies before
//    the registry unhooks itself.
//
// Registering a probe is an append. Until the registry is first read
// (snapshot(), contains() or size()), a new probe goes into a per-node
// registration log, with no key index, no de-duplication and no key copy:
// a fabric's CABs register tens of thousands of probes that most runs never
// read. The first read replays every node's log, adds and releases in
// registration order, into the key index; from then on each probe is indexed
// when it registers. The replay gives every probe the key, "#n" suffix
// included, that indexing it at registration would have given, because two
// cases replay early:
//  - an owned cell whose key a logged probe on its node was registered under
//    (released ones included), so a kind conflict still throws from that call;
//  - an owned cell with a '#' in its name on a node with logged probes, since
//    a suffixed probe could hold that key.
// A Registration holds handles to the registry's probe records, not keys.
// Releasing a logged probe drops its callback at once, and the release joins
// the log. Churn builds the index early: a probe registered on a node whose
// log holds more than 64 releases beyond its live probes indexes everything,
// and from then on a release frees its record, so memory stays bounded.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace nectar::obs {

struct MetricKey {
  int node = -1;
  std::string component;
  std::string name;
  auto operator<=>(const MetricKey&) const = default;
  std::string str() const {
    return "node" + std::to_string(node) + "/" + component + "/" + name;
  }
};

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  Counter& operator++() {
    ++v_;
    return *this;
  }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
/// order; one implicit overflow bucket catches everything above the last
/// bound. Bucket counts are non-cumulative.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t v);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]: the last index is the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const { return buckets_.at(i); }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

struct SnapshotEntry {
  enum class Kind { Counter, Gauge, Histogram, Probe };

  MetricKey key;
  Kind kind = Kind::Counter;
  std::int64_t value = 0;                 // counter/gauge/probe
  std::uint64_t count = 0;                // histogram
  std::int64_t sum = 0;                   // histogram
  std::vector<std::int64_t> bounds;       // histogram
  std::vector<std::uint64_t> buckets;     // histogram

  bool operator==(const SnapshotEntry&) const = default;
};

/// A deterministic, diffable point-in-time view of a registry: entries are
/// sorted by key, and to_json() is byte-stable for a given set of values.
class Snapshot {
 public:
  explicit Snapshot(std::vector<SnapshotEntry> entries) : entries_(std::move(entries)) {}
  Snapshot() = default;

  const std::vector<SnapshotEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  const SnapshotEntry* find(int node, std::string_view component, std::string_view name) const;
  /// Value of a scalar metric (counter/gauge/probe); `fallback` if absent.
  std::int64_t value_of(int node, std::string_view component, std::string_view name,
                        std::int64_t fallback = 0) const;

  bool operator==(const Snapshot&) const = default;

  /// Scalar entries whose value changed vs `base` (new minus old); entries
  /// absent from `base` count from zero. Histograms diff count and sum.
  Snapshot delta(const Snapshot& base) const;

  std::string to_json(int indent = 2) const;

 private:
  std::vector<SnapshotEntry> entries_;
};

class Registration;

class MetricsRegistry {
 public:
  using Probe = std::function<std::int64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned cells: created on first use, returned thereafter. References stay
  /// valid for the registry's lifetime. Re-accessing an existing key with the
  /// same kind (and, for histograms, the same bounds) is a lookup; asking for
  /// a different kind under an existing key throws std::logic_error — a
  /// duplicate registration never silently clobbers a cell. (Probes instead
  /// de-duplicate with a "#2" suffix: they are additive read-only taps.)
  ///
  /// Registration (cell/probe creation and release) is mutex-guarded because
  /// shard worker threads register mid-run (e.g. a mailbox created by a fiber
  /// adds depth probes). Updates through the returned references are NOT
  /// locked: each cell belongs to one node, a node to one shard, so cells
  /// are single-writer by construction. cells_ is a std::map, so snapshots
  /// stay key-sorted and byte-deterministic regardless of which thread
  /// registered first.
  Counter& counter(int node, std::string component, std::string name);
  Gauge& gauge(int node, std::string component, std::string name);
  Histogram& histogram(int node, std::string component, std::string name,
                       std::vector<std::int64_t> bounds);

  /// Reads. The first one builds the key index from the registration log,
  /// which is why they are not const.
  std::size_t size();
  bool contains(int node, std::string_view component, std::string_view name);
  Snapshot snapshot();

  /// Whether the key index has been built. Never builds it.
  bool indexed() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return indexed_;
  }

 private:
  friend class Registration;
  friend struct MetricsRegistryTestAccess;

  struct Cell {
    SnapshotEntry::Kind kind = SnapshotEntry::Kind::Counter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
    Probe probe;
  };
  using Cells = std::map<MetricKey, Cell>;

  /// One registered probe; a Registration holds its index into records_.
  /// Before indexing it holds the key the probe was registered under and the
  /// callback; once indexed, the cell both moved into.
  struct Record {
    MetricKey key;
    Probe fn;
    Cells::iterator cell{};
  };
  /// A node's registration log: record ids in registration order, and a
  /// release as the id with kReleaseOp set.
  struct PendingNode {
    std::vector<std::uint32_t> log;
    std::uint32_t live = 0;
    std::uint32_t released = 0;
  };
  static constexpr std::uint32_t kReleaseOp = 1u << 31;

  std::uint32_t add_probe(MetricKey key, Probe fn);
  void release(const std::vector<std::uint32_t>& ids);

  // The caller holds mutex_ in each of these.
  std::pair<Cells::iterator, bool> owned_cell(MetricKey key, SnapshotEntry::Kind kind);
  void index_before_owned(const MetricKey& key);
  void index();
  Cells::iterator insert_probe(MetricKey key, Probe fn);
  MetricKey unique_key(MetricKey key) const;
  std::uint32_t new_record();
  void free_record(std::uint32_t id);

  mutable std::mutex mutex_;
  Cells cells_;
  bool indexed_ = false;
  std::vector<Record> records_;
  std::vector<std::uint32_t> free_records_;
  std::unordered_map<int, PendingNode> pending_;
};

/// RAII group of probe registrations: destroying (or releasing) it removes
/// every probe it added, so modules can register callbacks that read their
/// own members without risking dangling reads after they are destroyed. It
/// holds the registry's record handles, not keys.
class Registration {
 public:
  Registration() = default;
  explicit Registration(MetricsRegistry& reg) : reg_(&reg) {}
  Registration(Registration&& o) noexcept : reg_(o.reg_), probes_(std::move(o.probes_)) {
    o.reg_ = nullptr;
    o.probes_.clear();
  }
  Registration& operator=(Registration&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = o.reg_;
      probes_ = std::move(o.probes_);
      o.reg_ = nullptr;
      o.probes_.clear();
    }
    return *this;
  }
  ~Registration() { release(); }

  MetricsRegistry* registry() const { return reg_; }

  /// Register a probe; no-op when this Registration is empty (no registry).
  void probe(int node, std::string component, std::string name, MetricsRegistry::Probe fn);

  void release();

 private:
  MetricsRegistry* reg_ = nullptr;
  std::vector<std::uint32_t> probes_;
};

}  // namespace nectar::obs
