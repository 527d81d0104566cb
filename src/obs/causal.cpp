#include "obs/causal.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "sim/engine.hpp"

namespace nectar::obs {

CausalTracer* CausalTracer::active_ = nullptr;

namespace {

constexpr std::uint64_t tag_key(int node, std::uint64_t addr) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 40) | addr;
}

/// Fixed emission order for attribution classes (deterministic artifacts).
constexpr const char* kClasses[] = {"queueing", "serialization", "switching",
                                    "dma",      "mailbox",       "proto",
                                    "retransmit", "reroute",     "app"};

}  // namespace

CausalTracer::CausalTracer(sim::Engine& engine, std::uint64_t seed, Options opt)
    : engine_(engine), seed_(seed), opt_(opt), sample_rng_(seed) {}

CausalTracer::~CausalTracer() {
  if (active_ == this) active_ = nullptr;
}

void CausalTracer::activate() { active_ = this; }

void CausalTracer::deactivate() {
  if (active_ == this) active_ = nullptr;
}

TraceContext CausalTracer::maybe_start(const std::string& flow, int src, int dst,
                                       std::uint64_t seq) {
  if (!sample_rng_.chance(opt_.sample)) {
    ++sampled_out_;
    return {};
  }
  if (traces_.size() >= opt_.max_traces) {
    ++capped_;
    return {};
  }
  auto t = std::make_unique<Trace>();
  t->id = next_id_++;
  t->flow = flow;
  t->src = src;
  t->dst = dst;
  t->seq = seq;
  t->start = engine_.now();
  Trace* raw = t.get();
  traces_.push_back(std::move(t));
  by_id_.emplace(raw->id, raw);
  ++started_;
  return TraceContext{raw->id, 0, 0};
}

CausalTracer::Trace* CausalTracer::find(const TraceContext& ctx) {
  if (!ctx.valid()) return nullptr;
  auto it = by_id_.find(ctx.trace_id);
  if (it == by_id_.end()) return nullptr;
  Trace* t = it->second;
  if (t->finished || t->overflowed) return nullptr;
  return t;
}

void CausalTracer::close_open_stage(Trace& t) {
  if (!t.stages.empty() && t.stages.back().end < 0) t.stages.back().end = engine_.now();
}

void CausalTracer::stage(const TraceContext& ctx, const char* label, std::string where) {
  Trace* t = find(ctx);
  if (t == nullptr) return;
  if (t->stages.size() >= opt_.max_stages) {
    t->overflowed = true;
    ++overflowed_;
    return;
  }
  close_open_stage(*t);
  StageRecord s;
  s.label = label;
  s.where = std::move(where);
  s.start = engine_.now();
  s.end = -1;
  s.span_id = ++t->next_span;
  s.hop = ctx.hop;
  t->stages.push_back(std::move(s));
}

void CausalTracer::annotate(const TraceContext& ctx, const char* label) {
  Trace* t = find(ctx);
  if (t == nullptr) return;
  t->notes.push_back({label, engine_.now()});
}

void CausalTracer::finish(const TraceContext& ctx) {
  Trace* t = find(ctx);
  if (t == nullptr) return;
  close_open_stage(*t);
  t->end = engine_.now();
  t->finished = true;
  ++finished_;
  for (std::uint64_t k : t->tag_keys) {
    auto it = tags_.find(k);
    if (it != tags_.end() && it->second.trace_id == t->id) tags_.erase(it);
  }
  t->tag_keys.clear();
}

// --- address tags -------------------------------------------------------------

void CausalTracer::erase_tags_overlapping(std::uint64_t key, std::size_t len) {
  if (tags_.empty() || len == 0) return;
  // Predecessor may extend into [key, key+len).
  auto it = tags_.lower_bound(key);
  if (it != tags_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > key) tags_.erase(prev);
  }
  while (true) {
    it = tags_.lower_bound(key);
    if (it == tags_.end() || it->first >= key + len) break;
    tags_.erase(it);
  }
}

void CausalTracer::tag(int node, std::uint64_t addr, std::size_t len, const TraceContext& ctx) {
  std::uint64_t key = tag_key(node, addr);
  erase_tags_overlapping(key, len);
  if (!ctx.valid()) return;
  Trace* t = find(ctx);
  if (t == nullptr) return;
  tags_[key] = {len, ctx.trace_id};
  t->tag_keys.push_back(key);
}

TraceContext CausalTracer::lookup(int node, std::uint64_t addr) const {
  if (tags_.empty()) return {};
  std::uint64_t key = tag_key(node, addr);
  auto it = tags_.upper_bound(key);
  if (it == tags_.begin()) return {};
  --it;
  if (key >= it->first + it->second.len) return {};
  auto tit = by_id_.find(it->second.trace_id);
  if (tit == by_id_.end()) return {};
  const Trace* t = tit->second;
  if (t->finished || t->overflowed) return {};
  std::uint8_t hop = t->stages.empty() ? 0 : t->stages.back().hop;
  std::uint32_t span = t->stages.empty() ? 0 : t->stages.back().span_id;
  return TraceContext{t->id, span, hop};
}

void CausalTracer::note_reroute(int node, int dst, sim::SimTime t0, sim::SimTime t1) {
  windows_.push_back({node, dst, t0, t1});
}

// --- CriticalPathAnalyzer -----------------------------------------------------

std::string CriticalPathAnalyzer::verify() const {
  for (const auto& tp : tracer_.traces()) {
    const CausalTracer::Trace& t = *tp;
    if (!t.finished || t.overflowed) continue;
    std::string id = "trace " + std::to_string(t.id) + " (" + t.flow + ")";
    if (t.stages.empty()) return id + ": finished with no stages";
    if (t.stages.front().start != t.start) return id + ": first stage does not start at trace start";
    sim::SimTime sum = 0;
    for (std::size_t i = 0; i < t.stages.size(); ++i) {
      const StageRecord& s = t.stages[i];
      if (s.end < s.start) return id + ": stage " + s.label + " has negative duration";
      if (i > 0 && s.start != t.stages[i - 1].end) {
        return id + ": gap/overlap between " + t.stages[i - 1].label + " and " + s.label;
      }
      sum += s.duration();
    }
    if (t.stages.back().end != t.end) return id + ": last stage does not end at trace end";
    if (sum != t.e2e()) return id + ": stage durations do not sum to end-to-end latency";
  }
  return {};
}

const char* CriticalPathAnalyzer::classify(const CausalTracer::Trace& t,
                                           const StageRecord& s) const {
  const std::string& l = s.label;
  if (l == "hub.queue" || l == "rx.fifo" || l == "link.queue") return "queueing";
  if (l == "hub.fwd") return "switching";
  if (l == "link.tx") return "serialization";
  if (l == "tx.dma" || l == "rx.dma" || l == "vme.dma") return "dma";
  if (l == "mbox.wait") return "mailbox";
  if (l == "tx.app") return "app";
  if (l == "loss.wait") {
    for (const auto& w : tracer_.reroute_windows()) {
      if (w.node == t.src && w.dst == t.dst && s.start < w.t1 && s.end > w.t0) return "reroute";
    }
    return "retransmit";
  }
  return "proto";
}

std::map<std::string, CriticalPathAnalyzer::FlowGroup> CriticalPathAnalyzer::group_flows() const {
  std::map<std::string, FlowGroup> flows;
  for (const auto& tp : tracer_.traces()) {
    if (!tp->finished || tp->overflowed) continue;
    flows[tp->flow].finished.push_back(tp.get());
  }
  for (auto& [name, g] : flows) {
    std::sort(g.finished.begin(), g.finished.end(),
              [](const CausalTracer::Trace* a, const CausalTracer::Trace* b) {
                if (a->e2e() != b->e2e()) return a->e2e() < b->e2e();
                return a->id < b->id;
              });
    std::size_t n = g.finished.size();
    g.p99 = g.finished[(n - 1) * 99 / 100]->e2e();
  }
  return flows;
}

json::Value CriticalPathAnalyzer::artifact(std::size_t top_k) const {
  json::Value doc = json::Value::object();
  doc.set("schema", "nectar-tailtrace");
  doc.set("version", 1);
  doc.set("seed", tracer_.seed());
  doc.set("sample", tracer_.sample_rate());

  json::Value counts = json::Value::object();
  counts.set("started", tracer_.started());
  counts.set("finished", tracer_.finished_count());
  counts.set("unfinished", tracer_.started() - tracer_.finished_count() - tracer_.overflowed());
  counts.set("overflowed", tracer_.overflowed());
  doc.set("traces", std::move(counts));

  json::Value flows = json::Value::array();
  for (const auto& [name, g] : group_flows()) {
    json::Value f = json::Value::object();
    f.set("flow", name);
    f.set("finished", static_cast<std::uint64_t>(g.finished.size()));
    f.set("e2e_p99_us", sim::to_usec(g.p99));

    // Aggregate class attribution over the tail set (e2e >= p99).
    std::map<std::string, sim::SimTime> by_class;
    sim::SimTime tail_total = 0;
    std::size_t tail_count = 0;
    for (const CausalTracer::Trace* t : g.finished) {
      if (t->e2e() < g.p99) continue;
      ++tail_count;
      tail_total += t->e2e();
      for (const StageRecord& s : t->stages) by_class[classify(*t, s)] += s.duration();
    }
    f.set("tail_count", static_cast<std::uint64_t>(tail_count));
    json::Value tail = json::Value::object();
    for (const char* cls : kClasses) {
      auto it = by_class.find(cls);
      sim::SimTime v = it == by_class.end() ? 0 : it->second;
      json::Value e = json::Value::object();
      e.set("us", sim::to_usec(v));
      e.set("share", tail_total > 0 ? static_cast<double>(v) / static_cast<double>(tail_total)
                                    : 0.0);
      tail.set(cls, std::move(e));
    }
    f.set("tail", std::move(tail));

    json::Value slowest = json::Value::array();
    std::size_t n = g.finished.size();
    for (std::size_t i = 0; i < top_k && i < n; ++i) {
      const CausalTracer::Trace* t = g.finished[n - 1 - i];
      json::Value tv = json::Value::object();
      tv.set("trace_id", t->id);
      tv.set("src", t->src);
      tv.set("dst", t->dst);
      tv.set("seq", t->seq);
      tv.set("start_us", sim::to_usec(t->start));
      tv.set("e2e_us", sim::to_usec(t->e2e()));
      tv.set("hops", static_cast<std::int64_t>(t->stages.empty() ? 0 : t->stages.back().hop));
      json::Value stages = json::Value::array();
      for (const StageRecord& s : t->stages) {
        json::Value sv = json::Value::object();
        sv.set("label", s.label);
        if (!s.where.empty()) sv.set("where", s.where);
        sv.set("class", classify(*t, s));
        sv.set("start_us", sim::to_usec(s.start));
        sv.set("dur_us", sim::to_usec(s.duration()));
        sv.set("hop", static_cast<std::int64_t>(s.hop));
        stages.push(std::move(sv));
      }
      tv.set("stages", std::move(stages));
      if (!t->notes.empty()) {
        json::Value notes = json::Value::array();
        for (const auto& nte : t->notes) {
          json::Value nv = json::Value::object();
          nv.set("label", nte.label);
          nv.set("t_us", sim::to_usec(nte.t));
          notes.push(std::move(nv));
        }
        tv.set("notes", std::move(notes));
      }
      slowest.push(std::move(tv));
    }
    f.set("slowest", std::move(slowest));
    flows.push(std::move(f));
  }
  doc.set("flows", std::move(flows));
  return doc;
}

void CriticalPathAnalyzer::report_into(RunReport& r) const {
  std::string violation = verify();
  if (!violation.empty()) {
    throw std::logic_error("CriticalPathAnalyzer: span-tree invariant violated: " + violation);
  }
  r.add("tailtrace.traces.started", static_cast<double>(tracer_.started()), "count");
  r.add("tailtrace.traces.finished", static_cast<double>(tracer_.finished_count()), "count");
  r.add("tailtrace.traces.unfinished",
        static_cast<double>(tracer_.started() - tracer_.finished_count() - tracer_.overflowed()),
        "count");

  // Global tail attribution: union of every flow's tail set.
  std::map<std::string, sim::SimTime> by_class;
  sim::SimTime tail_total = 0;
  for (const auto& [name, g] : group_flows()) {
    for (const CausalTracer::Trace* t : g.finished) {
      if (t->e2e() < g.p99) continue;
      tail_total += t->e2e();
      for (const StageRecord& s : t->stages) by_class[classify(*t, s)] += s.duration();
    }
  }
  for (const char* cls : kClasses) {
    auto it = by_class.find(cls);
    sim::SimTime v = it == by_class.end() ? 0 : it->second;
    r.add(std::string("tailtrace.tail.") + cls + "_us", sim::to_usec(v), "us");
    r.add(std::string("tailtrace.tail.") + cls + "_share",
          tail_total > 0 ? static_cast<double>(v) / static_cast<double>(tail_total) : 0.0,
          "ratio");
  }
}

}  // namespace nectar::obs
