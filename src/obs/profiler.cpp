#include "obs/profiler.hpp"

#include <fstream>

namespace nectar::obs {

namespace {

// Context bookkeeping. `g_enabled` counts enabled Profiler instances:
// CostScope maintains domain stacks only while at least one profiler in the
// process is recording, keeping the disabled cost to one integer compare.
// It is toggled before the simulation runs (thread creation orders the
// write ahead of every worker's reads), so it stays a plain int. The
// context pointer and the domain stacks are thread_local: a context is a
// fiber, a fiber lives on exactly one shard's worker thread, and the
// announce/push/pop traffic on the hot path must not take a lock.
int g_enabled = 0;
thread_local const void* g_context = nullptr;
std::map<const void*, std::vector<const char*>>& stacks() {
  static thread_local std::map<const void*, std::vector<const char*>> s;
  return s;
}

}  // namespace

Profiler::~Profiler() {
  if (enabled_) --g_enabled;
}

void Profiler::set_enabled(bool on) {
  if (on == enabled_) return;
  enabled_ = on;
  if (on) {
    ++g_enabled;
    // Drop stale domain stacks left by contexts torn down mid-scope in an
    // earlier run (a fiber address may be reused; its old stack must not
    // pollute this profile).
    if (g_enabled == 1) stacks().clear();
  } else {
    --g_enabled;
  }
}

void Profiler::set_context(const void* key) { g_context = key; }

void Profiler::record(const std::string& cpu, const std::string& context, sim::SimTime ns) {
  // Build the key from this thread's domain stack before taking the lock.
  std::string key = cpu;
  key += ';';
  key += context;
  auto it = stacks().find(g_context);
  if (it != stacks().end()) {
    for (const char* d : it->second) {
      key += ';';
      key += d;
    }
  }
  std::lock_guard<std::mutex> lk(mutex_);
  ++samples_;
  folded_[key] += ns;
  cpus_[cpu][context] += ns;
}

void Profiler::sample_queue_depth(const std::string& key, std::size_t depth) {
  std::lock_guard<std::mutex> lk(mutex_);
  QueueGauge& g = queue_depth_[key];
  ++g.samples;
  if (depth > g.max) g.max = depth;
}

void Profiler::add_queue_wait(const std::string& cpu, const std::string& thread,
                              sim::SimTime ns) {
  std::lock_guard<std::mutex> lk(mutex_);
  WaitStat& w = queue_wait_[cpu][thread];
  ++w.count;
  w.total += ns;
}

void Profiler::record_occupancy(const std::string& resource, const char* what,
                                sim::SimTime ns) {
  std::lock_guard<std::mutex> lk(mutex_);
  OccStat& o = occupancy_[resource][what];
  ++o.count;
  o.total += ns;
}

sim::SimTime Profiler::attributed_ns() const {
  sim::SimTime total = 0;
  for (const auto& [key, ns] : folded_) total += ns;
  return total;
}

sim::SimTime Profiler::attributed_ns(const std::string& cpu) const {
  sim::SimTime total = 0;
  auto it = cpus_.find(cpu);
  if (it == cpus_.end()) return 0;
  for (const auto& [ctx, ns] : it->second) total += ns;
  return total;
}

std::map<std::string, sim::SimTime> Profiler::domain_totals() const {
  std::map<std::string, sim::SimTime> out;
  for (const auto& [key, ns] : folded_) {
    // Strip "<cpu>;<context>" — the domain path starts at the third field.
    std::size_t first = key.find(';');
    std::size_t second = first == std::string::npos ? first : key.find(';', first + 1);
    if (second == std::string::npos) {
      out["(unattributed)"] += ns;
    } else {
      out[key.substr(second + 1)] += ns;
    }
  }
  return out;
}

std::string Profiler::folded() const {
  std::string out;
  for (const auto& [key, ns] : folded_) {
    out += key;
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

bool Profiler::write_folded(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << folded();
  return static_cast<bool>(f);
}

json::Value Profiler::summary() const {
  json::Value doc = json::Value::object();
  doc.set("samples", static_cast<std::int64_t>(samples_));
  doc.set("attributed_ns", static_cast<std::int64_t>(attributed_ns()));

  json::Value cpus = json::Value::object();
  for (const auto& [cpu, contexts] : cpus_) {
    json::Value c = json::Value::object();
    sim::SimTime busy = 0;
    json::Value ctxs = json::Value::object();
    for (const auto& [ctx, ns] : contexts) {
      busy += ns;
      ctxs.set(ctx, static_cast<std::int64_t>(ns));
    }
    c.set("busy_ns", static_cast<std::int64_t>(busy));
    c.set("contexts", std::move(ctxs));
    cpus.set(cpu, std::move(c));
  }
  doc.set("cpus", std::move(cpus));

  json::Value waits = json::Value::object();
  for (const auto& [cpu, threads] : queue_wait_) {
    json::Value t = json::Value::object();
    for (const auto& [name, w] : threads) {
      json::Value s = json::Value::object();
      s.set("count", static_cast<std::int64_t>(w.count));
      s.set("total_ns", static_cast<std::int64_t>(w.total));
      t.set(name, std::move(s));
    }
    waits.set(cpu, std::move(t));
  }
  doc.set("run_queue_wait", std::move(waits));

  json::Value depth = json::Value::object();
  for (const auto& [key, g] : queue_depth_) {
    json::Value s = json::Value::object();
    s.set("samples", static_cast<std::int64_t>(g.samples));
    s.set("max", static_cast<std::int64_t>(g.max));
    depth.set(key, std::move(s));
  }
  doc.set("queue_depth", std::move(depth));

  json::Value occ = json::Value::object();
  for (const auto& [resource, whats] : occupancy_) {
    json::Value r = json::Value::object();
    for (const auto& [what, o] : whats) {
      json::Value s = json::Value::object();
      s.set("count", static_cast<std::int64_t>(o.count));
      s.set("busy_ns", static_cast<std::int64_t>(o.total));
      r.set(what, std::move(s));
    }
    occ.set(resource, std::move(r));
  }
  doc.set("occupancy", std::move(occ));
  return doc;
}

CostScope::CostScope(const char* domain) {
  if (g_enabled == 0) return;
  key_ = g_context;
  stacks()[key_].push_back(domain);
  pushed_ = true;
}

CostScope::~CostScope() {
  if (!pushed_) return;
  auto& s = stacks();
  auto it = s.find(key_);
  if (it == s.end() || it->second.empty()) return;  // stacks cleared by a re-enable
  it->second.pop_back();
  if (it->second.empty()) s.erase(it);  // no stale entries for reused fiber addresses
}

}  // namespace nectar::obs
