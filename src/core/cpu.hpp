#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/thread.hpp"
#include "sim/costs.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace nectar::obs {
class Tracer;
class Registration;
class Profiler;
}

namespace nectar::core {

/// A simulated processor (the CAB's SPARC, or a host CPU) executing threads
/// with the paper's runtime semantics:
///
///  - CPU work is modeled by `charge(ns)`: the running context occupies the
///    CPU for that long. Interrupts and preemption are delivered at slice
///    boundaries (a charge is cut into kChargeSlice slices, matching the
///    paper's interrupt-latency requirement of "a few tens of microseconds",
///    §3.1).
///  - Interrupt handlers run in a dedicated interrupt context with priority
///    over all threads; they may charge time but must not block. Further
///    interrupts queue until the current handler finishes (the paper did not
///    use nested interrupts, §3.1).
///  - Scheduling is preemptive and priority-based; a context switch costs
///    20 us on the CAB (§3.1: SPARC register-window save/restore).
///
/// The whole simulation is single-OS-threaded; "concurrency" between CPUs is
/// interleaving on the event queue, which makes every run deterministic.
class Cpu {
 public:
  /// Interrupt handlers and timer callbacks are small-buffer callables: the
  /// hardware completion paths post them per packet, so they must not heap-
  /// allocate for ordinary captures.
  using IrqHandler = sim::InplaceAction;
  using TimerId = std::uint64_t;

  Cpu(sim::Engine& engine, std::string name,
      sim::SimTime context_switch_cost = sim::costs::kContextSwitch);
  ~Cpu();

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  sim::Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }

  /// The Cpu whose execution context (thread or interrupt) is currently
  /// running, or nullptr outside any context. Runtime primitives use this to
  /// charge costs to whichever processor invoked them (a CAB SPARC or a host
  /// CPU operating on shared CAB memory).
  static Cpu* current();

  // --- thread management --------------------------------------------------

  /// Create a thread; it becomes runnable immediately. The Cpu owns it.
  Thread* fork(std::string name, int priority, std::function<void()> body);

  /// Block until `t` finishes. Must be called from a thread on this Cpu.
  void join(Thread* t);

  /// The thread currently owning the CPU (nullptr in interrupt context or
  /// when idle).
  Thread* current_thread() const { return current_; }

  /// True while executing in the interrupt context.
  bool in_interrupt() const { return irq_active_; }

  // --- called from the running context (thread or interrupt) ---------------

  /// Consume `ns` of CPU time. Only this Cpu's running thread or its
  /// interrupt context may charge it. The charge is cut into kChargeSlice
  /// slices, and each boundary lets interrupts and preemption in; the
  /// dispatcher begins each later slice itself, so the fiber suspends once
  /// and resumes when the whole charge has elapsed.
  void charge(sim::SimTime ns);

  /// Stall until absolute simulated time `t` (e.g. the hardware FIFO
  /// delivering header bytes still in flight). No-op if `t` is in the past.
  void charge_until(sim::SimTime t);

  /// Voluntarily offer the CPU to an equal-or-higher-priority ready thread.
  void yield();

  /// Block the current thread (its waker holds it in some wait queue).
  /// Must not be called from interrupt context.
  void block();

  /// Atomically re-enable interrupts (one level) and block. Callers hold the
  /// interrupt mask while inspecting state shared with interrupt handlers
  /// (paper §3.1); this is the sleep half of that critical-section pattern.
  /// Returns with the mask re-acquired.
  void block_unmasked();

  /// Make a blocked thread runnable. Callable from anywhere (interrupt
  /// context, another CPU's thread, or plain engine callbacks).
  void wake(Thread* t);

  /// Block the current thread until simulated time `t` / for `ns`.
  void sleep_until(sim::SimTime t);
  void sleep_for(sim::SimTime ns) { sleep_until(engine_.now() + ns); }

  // --- interrupts ----------------------------------------------------------

  /// Queue `handler` to run in interrupt context (hardware completion paths
  /// call this). Delivered at the next charge boundary, or immediately if
  /// the CPU is idle.
  void post_interrupt(IrqHandler handler);

  /// Mask / unmask interrupt delivery (paper §3.1: critical sections shared
  /// with interrupt handlers are protected by masking). Nests.
  void disable_interrupts();
  void enable_interrupts();
  bool interrupts_enabled() const { return irq_disable_depth_ == 0; }

  /// One-shot timer: at time `t`, run `fn` in interrupt context.
  TimerId set_timer(sim::SimTime t, sim::InplaceAction fn);
  void cancel_timer(TimerId id);

  // --- stats ---------------------------------------------------------------

  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t interrupts_taken() const { return interrupts_taken_; }
  sim::SimTime busy_time() const { return busy_time_; }
  std::size_t threads_alive() const;
  sim::SimTime context_switch_cost() const { return switch_cost_; }

  // --- observability ---------------------------------------------------------

  /// Emit scheduler events (thread occupancy spans, preemptions, interrupt
  /// service spans) onto `track` of `tracer`. nullptr detaches.
  void attach_tracer(obs::Tracer* tracer, int track);
  obs::Tracer* tracer() const { return tracer_; }
  int trace_track() const { return trace_track_; }

  /// Attribute every busy interval (charges, context-switch costs) to
  /// `profiler` under (cpu name, running context, CostScope domain stack).
  /// Also enables run-queue wait accounting. nullptr detaches. Like the
  /// tracer, an attached-but-disabled profiler costs one flag check and
  /// never charges simulated time.
  void attach_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

  /// Expose this CPU's stats through a metrics registry as probes under
  /// (node, component): context_switches, interrupts_taken, busy_ns,
  /// threads_alive. Component distinguishes CAB SPARCs ("cab.cpu") from
  /// host processors ("host.cpu").
  void register_metrics(obs::Registration& reg, int node, const std::string& component) const;

 private:
  friend class Thread;

  void kick();
  void dispatch();
  void irq_loop();
  void resume_fiber(sim::Fiber& f);
  void continue_context(sim::Fiber& f, sim::SimTime& charge_left);
  void begin_busy(sim::SimTime ns);
  void begin_slice(sim::SimTime& charge_left);
  bool profiling() const;
  const std::string& busy_context() const;
  void thread_trampoline(Thread* t, const std::function<void()>& body);
  void trace_thread_in(Thread* t);
  void trace_thread_out();
  void trace_instant(const char* label);

  sim::Engine& engine_;
  std::string name_;
  sim::SimTime switch_cost_;

  std::vector<std::unique_ptr<Thread>> threads_;
  RunQueue run_queue_;
  Thread* current_ = nullptr;       // thread owning the CPU (may be mid-charge)
  Thread* switch_target_ = nullptr; // context switch in progress toward this

  std::unique_ptr<sim::Fiber> irq_fiber_;
  bool irq_active_ = false;         // interrupt context is live (running or mid-charge)
  sim::SimTime irq_charge_left_ = 0;  // the interrupt context's Thread::charge_left_
  std::deque<IrqHandler> irq_queue_;
  int irq_disable_depth_ = 0;

  sim::SimTime busy_until_ = 0;
  bool dispatch_scheduled_ = false;
  // The two events every charge and wakeup schedule, slot-free: the end of
  // a busy interval (begin_busy) and a kick's dispatch.
  sim::Engine::Target slice_end_;
  sim::Engine::Target kick_;

  struct Timer {
    sim::Engine::EventId event = 0;
    sim::InplaceAction fn;  // moved out (and the entry erased) when it fires
  };
  std::uint64_t next_timer_ = 1;
  std::map<TimerId, Timer> timers_;

  std::uint64_t context_switches_ = 0;
  std::uint64_t interrupts_taken_ = 0;
  sim::SimTime busy_time_ = 0;

  obs::Tracer* tracer_ = nullptr;
  int trace_track_ = -1;
  bool thread_span_open_ = false;  // a thread-occupancy span is open on the track

  obs::Profiler* profiler_ = nullptr;
};

/// RAII interrupt mask.
class InterruptGuard {
 public:
  explicit InterruptGuard(Cpu& cpu) : cpu_(cpu) { cpu_.disable_interrupts(); }
  ~InterruptGuard() { cpu_.enable_interrupts(); }
  InterruptGuard(const InterruptGuard&) = delete;
  InterruptGuard& operator=(const InterruptGuard&) = delete;

 private:
  Cpu& cpu_;
};

}  // namespace nectar::core
