#pragma once

// Cycle-attribution profiler: where do the simulated CPU cycles go?
//
// The cost model (sim/costs.hpp) charges every protocol action to a CPU via
// core::Cpu::begin_busy — the single point where busy time accrues. A
// Profiler attached to a Cpu records each of those charges under a key
//
//   <cpu>;<context>;<domain>;<sub-domain>...
//
// where <context> is the running thread's name ("irq" for interrupt
// context, "switch" for the context-switch cost the dispatcher charges) and
// the domain path is whatever CostScope instrumentation was active at the
// charge site ("tcp/output", "udp/checksum", "mailbox/begin_put", ...).
// Because attribution happens at the one accrual point, the totals obey an
// exact invariant: the sum of a CPU's folded-stack entries equals that CPU's
// busy_time() (tested by tests/obs/profiler_test.cpp).
//
// Output is the standard folded-stack format ("k1;k2;k3 <count>" per line,
// counts in nanoseconds) consumed by flamegraph.pl / speedscope / inferno,
// plus a JSON summary with per-thread busy totals, run-queue wait, mailbox
// queue-depth gauges, and bus-occupancy records (VME grants, CAB DMA).
//
// Cost model mirrors obs::Tracer: disabled (the default) every hook is a
// pointer/flag check and *zero* simulated time is ever charged — profiling
// cannot perturb measured results, so committed bench reports are unchanged
// whether or not a profile is taken.
//
// Domain stacks live per execution context (fiber), keyed opaquely: the
// execution substrate announces the running context via set_context(), so a
// charge that suspends mid-scope (charges are sliced) never sees another
// fiber's domains. The obs layer sits below sim in the link order, which is
// why the context is an opaque pointer installed from above rather than a
// direct sim::Fiber::current() call.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sim/time.hpp"

namespace nectar::obs {

class Profiler {
 public:
  Profiler() = default;
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_; }
  /// Enable/disable recording. Enabling clears any stale per-context domain
  /// stacks, so enable before the instrumented run starts.
  void set_enabled(bool on);

  // --- context plumbing (execution substrate only) ---------------------------

  /// Announce the execution context about to run (an opaque fiber pointer;
  /// nullptr = the engine's main context). core::Cpu calls this around every
  /// fiber resume; CostScope pushes onto the announced context's stack.
  static void set_context(const void* key);

  // --- attribution (called by core::Cpu::begin_busy) -------------------------

  /// Charge `ns` to (cpu, context, current domain stack).
  void record(const std::string& cpu, const std::string& context, sim::SimTime ns);

  // --- gauges / resources ----------------------------------------------------

  /// Sample a mailbox (or other queue) depth at a publish point.
  void sample_queue_depth(const std::string& key, std::size_t depth);

  /// A thread spent `ns` on the run queue before being dispatched.
  void add_queue_wait(const std::string& cpu, const std::string& thread, sim::SimTime ns);

  /// A shared resource (VME bus grant, CAB DMA channel) was occupied for
  /// `ns`. Reported separately from CPU attribution — bus time is not CPU
  /// time, and folding it in would break the busy-cycles invariant.
  void record_occupancy(const std::string& resource, const char* what, sim::SimTime ns);

  // --- results ---------------------------------------------------------------

  std::uint64_t samples() const { return samples_; }
  /// Total attributed ns (equals the sum of attached CPUs' busy_time()).
  sim::SimTime attributed_ns() const;
  /// Attributed ns for one CPU (prefix match on the folded key).
  sim::SimTime attributed_ns(const std::string& cpu) const;

  /// Totals by domain path alone (cpu and context stripped); charges outside
  /// any CostScope aggregate under "(unattributed)".
  std::map<std::string, sim::SimTime> domain_totals() const;

  /// Folded-stack text: one "key ns" line per stack, sorted by key —
  /// byte-deterministic, renderable by standard flamegraph tools.
  std::string folded() const;
  /// Returns false (writing nothing) if the file cannot be opened.
  bool write_folded(const std::string& path) const;

  /// JSON summary: samples, per-CPU/per-context busy totals, run-queue
  /// wait, queue-depth gauges, resource occupancy. Deterministic.
  json::Value summary() const;

 private:
  struct QueueGauge {
    std::uint64_t samples = 0;
    std::size_t max = 0;
  };
  struct WaitStat {
    std::uint64_t count = 0;
    sim::SimTime total = 0;
  };
  struct OccStat {
    std::uint64_t count = 0;
    sim::SimTime total = 0;
  };

  bool enabled_ = false;
  /// Serializes the mutators, which shard worker threads call concurrently
  /// under the parallel engine. All accumulation is commutative (+=, max)
  /// into sorted maps, so totals — and the rendered output — are identical
  /// no matter how the threads interleave. Readers (folded, summary, ...)
  /// run after the simulation has quiesced at a window barrier.
  std::mutex mutex_;
  std::uint64_t samples_ = 0;
  std::map<std::string, sim::SimTime> folded_;                       // full key -> ns
  std::map<std::string, std::map<std::string, sim::SimTime>> cpus_;  // cpu -> context -> ns
  std::map<std::string, QueueGauge> queue_depth_;
  std::map<std::string, std::map<std::string, WaitStat>> queue_wait_;  // cpu -> thread
  std::map<std::string, std::map<std::string, OccStat>> occupancy_;   // resource -> what
};

/// RAII cost-domain scope: while alive, charges on the current execution
/// context attribute under `domain` (nested scopes build a path). `domain`
/// must be a string literal / static string. Free when no profiler is
/// enabled anywhere in the process.
class CostScope {
 public:
  explicit CostScope(const char* domain);
  ~CostScope();

  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

 private:
  const void* key_ = nullptr;
  bool pushed_ = false;
};

}  // namespace nectar::obs
