#pragma once

// Causal message tracing with tail-latency attribution.
//
// CausalTracer samples messages at the sender (seeded head sampling, so the
// decision is made once and rides the wire with the message), then records a
// *cut-point* timeline per sampled message: every instrumentation site calls
// stage(ctx, label) when the message enters a new stage, which closes the
// previously open stage at the current sim time and opens the next. Because
// consecutive stages tile the trace's lifetime, the sum of stage durations
// equals the end-to-end latency exactly — the invariant the paper-style
// tail attribution rests on, re-checked by CriticalPathAnalyzer::verify().
//
// Instrumentation sites never charge simulated CPU time, and each is one
// call to the cut-point functions below the class (obs::stage, annotate,
// finish, tag, trace_at): a disabled tracer costs one pointer load per site
// (CausalTracer::active() == nullptr), so scenarios without a [tracing]
// section are byte-identical to builds without the feature. Note the *wire*
// is not free for traced messages: the 16-byte stamp (obs/span.hpp) is real
// header bytes, serialized and CRC'd like any other, so a traced run's
// latencies honestly include the stamp overhead.
//
// Context travels two ways:
//  - on the wire, via the HeaderBuf stamp (tx path) and hw::Frame::trace
//    (the in-flight mirror links/HUBs/FIFOs attribute against);
//  - on the receiving CAB, via address tags: the datalink tags the receive
//    buffer's address range, and every receive site — each layer's upcall,
//    or whichever fiber later dequeues a message whose bytes live in that
//    range (headers may have been stripped with adjust_prefix, which never
//    moves the data pointer backwards) — recovers the context with
//    trace_at(node, data). The tag belongs to the buffer, so a fiber switch
//    inside an upcall (a Cpu::charge) cannot hand the stage to another
//    message's trace; IP reassembly tags the reassembled buffer with the
//    completing fragment's trace.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/span.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace nectar::sim {
class Engine;
}

namespace nectar::obs {

class RunReport;
namespace json {
class Value;
}

class CausalTracer {
 public:
  struct Options {
    double sample = 0.01;          ///< head-sampling probability per message
    std::size_t max_traces = 4096; ///< stop starting new traces past this
    std::size_t max_stages = 512;  ///< per-trace stage cap (overflow = discard)
  };

  CausalTracer(sim::Engine& engine, std::uint64_t seed, Options opt);
  CausalTracer(sim::Engine& engine, std::uint64_t seed) : CausalTracer(engine, seed, Options()) {}
  ~CausalTracer();

  CausalTracer(const CausalTracer&) = delete;
  CausalTracer& operator=(const CausalTracer&) = delete;

  /// The process-global active tracer, or nullptr (the common case: every
  /// instrumentation site is a single pointer test when tracing is off).
  static CausalTracer* active() { return active_; }
  void activate();
  void deactivate();

  // --- trace lifecycle ------------------------------------------------------

  /// Head-sampling decision for one message about to be sent. Returns an
  /// invalid context when the message is not sampled (or the trace budget is
  /// exhausted). On success the trace exists with zero stages; the caller
  /// opens the first stage immediately (same sim instant, so the first
  /// stage's start coincides with the trace start).
  TraceContext maybe_start(const std::string& flow, int src, int dst, std::uint64_t seq);

  /// Enter a new stage: closes the open stage at now, opens `label`.
  /// Ignored for invalid contexts and finished/overflowed traces.
  void stage(const TraceContext& ctx, const char* label, std::string where = {});

  /// Attach an instantaneous event ("tcp.retx", "drop.blackout", ...).
  void annotate(const TraceContext& ctx, const char* label);

  /// Delivery observed: closes the open stage and the trace at now.
  void finish(const TraceContext& ctx);

  // --- address tags ---------------------------------------------------------

  /// Associate [addr, addr+len) on `node` with `ctx` (erasing any stale tags
  /// overlapping the range first — receive buffers are pool-recycled). An
  /// invalid ctx only clears the range.
  void tag(int node, std::uint64_t addr, std::size_t len, const TraceContext& ctx);
  /// Context of the live trace whose tagged range contains `addr`, or an
  /// invalid context.
  TraceContext lookup(int node, std::uint64_t addr) const;

  // --- reroute windows ------------------------------------------------------

  /// RouteManager reports a completed failover: traffic from `node` to `dst`
  /// had no working route between `t0` (first missed probe send) and `t1`
  /// (route switch). Loss-wait stages of matching traces overlapping the
  /// window are attributed to rerouting rather than retransmission.
  struct RerouteWindow {
    int node, dst;
    sim::SimTime t0, t1;
  };
  void note_reroute(int node, int dst, sim::SimTime t0, sim::SimTime t1);
  const std::vector<RerouteWindow>& reroute_windows() const { return windows_; }

  // --- introspection --------------------------------------------------------

  struct Trace {
    std::uint64_t id = 0;
    std::string flow;
    int src = -1, dst = -1;
    std::uint64_t seq = 0;
    sim::SimTime start = 0;
    sim::SimTime end = -1;
    bool finished = false;
    bool overflowed = false;
    std::vector<StageRecord> stages;  ///< closed stages + at most one open (end == -1)
    struct Note {
      std::string label;
      sim::SimTime t;
    };
    std::vector<Note> notes;
    std::uint32_t next_span = 0;
    std::vector<std::uint64_t> tag_keys;

    sim::SimTime e2e() const { return end - start; }
  };

  const std::vector<std::unique_ptr<Trace>>& traces() const { return traces_; }
  std::uint64_t started() const { return started_; }
  std::uint64_t finished_count() const { return finished_; }
  std::uint64_t sampled_out() const { return sampled_out_; }
  std::uint64_t capped() const { return capped_; }
  std::uint64_t overflowed() const { return overflowed_; }
  double sample_rate() const { return opt_.sample; }
  std::uint64_t seed() const { return seed_; }

 private:
  Trace* find(const TraceContext& ctx);
  void close_open_stage(Trace& t);
  void erase_tags_overlapping(std::uint64_t key, std::size_t len);

  static CausalTracer* active_;

  sim::Engine& engine_;
  std::uint64_t seed_;
  Options opt_;
  sim::Random sample_rng_;
  std::uint64_t next_id_ = 1;

  std::vector<std::unique_ptr<Trace>> traces_;  // start order (deterministic)
  std::unordered_map<std::uint64_t, Trace*> by_id_;

  struct TagEntry {
    std::size_t len;
    std::uint64_t trace_id;
  };
  std::map<std::uint64_t, TagEntry> tags_;  // key = node<<40 | addr

  std::vector<RerouteWindow> windows_;

  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t capped_ = 0;
  std::uint64_t overflowed_ = 0;
};

// --- cut points ---------------------------------------------------------------
//
// One call per instrumentation site. Each does nothing unless a tracer is
// active and the context is valid, and builds the element's name only after
// both checks pass, so an untraced message costs a pointer test and never
// allocates.

namespace detail {
inline CausalTracer* tracer_for(const TraceContext& ctx) {
  return ctx.valid() ? CausalTracer::active() : nullptr;
}
}  // namespace detail

/// Enter stage `label` at element `where` (a link's name; may be empty).
inline void stage(const TraceContext& ctx, const char* label, std::string_view where = {}) {
  if (CausalTracer* t = detail::tracer_for(ctx)) t->stage(ctx, label, std::string(where));
}
/// Enter stage `label` at CAB `node` ("node<id>").
inline void stage(const TraceContext& ctx, const char* label, int node) {
  if (CausalTracer* t = detail::tracer_for(ctx)) {
    t->stage(ctx, label, "node" + std::to_string(node));
  }
}
/// Enter stage `label` at output `port` of HUB `hub` ("<hub>.port<n>").
inline void stage(const TraceContext& ctx, const char* label, std::string_view hub, int port) {
  if (CausalTracer* t = detail::tracer_for(ctx)) {
    t->stage(ctx, label, std::string(hub) + ".port" + std::to_string(port));
  }
}
inline void annotate(const TraceContext& ctx, const char* label) {
  if (CausalTracer* t = detail::tracer_for(ctx)) t->annotate(ctx, label);
}
inline void finish(const TraceContext& ctx) {
  if (CausalTracer* t = detail::tracer_for(ctx)) t->finish(ctx);
}
/// CausalTracer::tag while tracing. An invalid `ctx` still clears the range:
/// the datalink calls this on every recycled receive buffer.
inline void tag(int node, std::uint64_t addr, std::size_t len, const TraceContext& ctx) {
  if (CausalTracer* t = CausalTracer::active()) t->tag(node, addr, len, ctx);
}
/// The trace whose tagged buffer on `node` holds `addr`: how every receive
/// site finds the message's trace. Invalid when not tracing.
inline TraceContext trace_at(int node, std::uint64_t addr) {
  CausalTracer* t = CausalTracer::active();
  return t != nullptr ? t->lookup(node, addr) : TraceContext{};
}

/// Reconstructs per-message critical paths from a (finished) CausalTracer,
/// checks the tiling invariant, and renders the two consumers: the
/// deterministic top-K tail-trace artifact and the aggregate per-stage tail
/// attribution rows merged into a scenario RunReport.
class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(const CausalTracer& tracer) : tracer_(tracer) {}

  /// Re-check the cut-point invariant on every finished trace: stages tile
  /// [start, end] with no gaps, overlaps, or negative durations, so
  /// sum(stage durations) == end-to-end latency exactly. Returns an empty
  /// string on success, else a description of the first violation.
  std::string verify() const;

  /// Stage class for attribution: "queueing", "serialization", "switching",
  /// "dma", "mailbox", "proto", "retransmit", "reroute", "app".
  /// Loss-wait stages flip from "retransmit" to "reroute" when they overlap
  /// a reroute window matching the trace's (src, dst).
  const char* classify(const CausalTracer::Trace& t, const StageRecord& s) const;

  /// The tail-trace artifact ("nectar-tailtrace" schema, see
  /// docs/OBSERVABILITY.md): per flow, the p99 threshold, aggregate class
  /// shares over the tail set, and the `top_k` slowest deliveries with full
  /// stage breakdowns.
  json::Value artifact(std::size_t top_k) const;

  /// Aggregate rows (tailtrace.*) into a scenario report: trace counts and
  /// the per-class share of time across all tail (>= per-flow p99)
  /// deliveries. Throws std::logic_error if verify() fails.
  void report_into(RunReport& r) const;

 private:
  struct FlowGroup {
    std::vector<const CausalTracer::Trace*> finished;  // ascending e2e
    sim::SimTime p99 = 0;
  };
  std::map<std::string, FlowGroup> group_flows() const;

  const CausalTracer& tracer_;
};

}  // namespace nectar::obs
