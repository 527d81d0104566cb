#include "core/cpu.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace nectar::core {

namespace {
thread_local Cpu* g_current_cpu = nullptr;

// Execution-context labels for profiler attribution (see busy_context()).
const std::string kCtxIrq = "irq";
const std::string kCtxSwitch = "switch";
const std::string kCtxEngine = "engine";
}

Cpu* Cpu::current() { return g_current_cpu; }

Cpu::Cpu(sim::Engine& engine, std::string name, sim::SimTime context_switch_cost)
    : engine_(engine),
      name_(std::move(name)),
      switch_cost_(context_switch_cost),
      slice_end_(engine, [](void* cpu) { static_cast<Cpu*>(cpu)->dispatch(); }, this),
      kick_(engine,
            [](void* self) {
              Cpu* cpu = static_cast<Cpu*>(self);
              cpu->dispatch_scheduled_ = false;
              cpu->dispatch();
            },
            this) {
  irq_fiber_ = std::make_unique<sim::Fiber>([this] { irq_loop(); }, name_ + ".irq");
}

Cpu::~Cpu() = default;

// --- thread management -------------------------------------------------------

Thread* Cpu::fork(std::string name, int priority, std::function<void()> body) {
  auto t = std::make_unique<Thread>(*this, std::move(name), priority, std::move(body));
  Thread* raw = t.get();
  threads_.push_back(std::move(t));
  if (profiling()) raw->ready_at_ = engine_.now();
  run_queue_.push(raw);
  kick();
  return raw;
}

Thread::Thread(Cpu& cpu, std::string name, int priority, std::function<void()> body)
    : cpu_(cpu),
      name_(std::move(name)),
      priority_(priority),
      fiber_([this, body = std::move(body)] { cpu_.thread_trampoline(this, body); }, name_) {}

void Cpu::thread_trampoline(Thread* t, const std::function<void()>& body) {
  body();
  t->state_ = Thread::State::Finished;
  for (Thread* j : t->joiners_) wake(j);
  t->joiners_.clear();
  trace_thread_out();
  current_ = nullptr;
  // Returning ends the fiber; dispatch() continues with the next thread.
}

void Cpu::join(Thread* t) {
  Thread* self = current_;
  if (self == nullptr || in_interrupt()) {
    throw std::logic_error("Cpu::join must be called from a thread");
  }
  if (t->finished()) return;
  t->joiners_.push_back(self);
  block();
}

std::size_t Cpu::threads_alive() const {
  return static_cast<std::size_t>(
      std::count_if(threads_.begin(), threads_.end(),
                    [](const auto& t) { return !t->finished(); }));
}

// --- execution ----------------------------------------------------------------

bool Cpu::profiling() const { return profiler_ != nullptr && profiler_->enabled(); }

/// What execution context is consuming the busy interval begin_busy opens?
/// Order matters: an interrupt can run while a thread is still mid-charge
/// (current_ set), so the irq context is checked first.
const std::string& Cpu::busy_context() const {
  if (irq_active_) return kCtxIrq;
  if (switch_target_ != nullptr) return kCtxSwitch;
  if (current_ != nullptr) return current_->name();
  return kCtxEngine;
}

// The single point where busy time accrues — charges (sliced) and the
// dispatcher's context-switch cost both land here, which is what makes the
// profiler's invariant exact: sum(folded entries of this CPU) == busy_time().
void Cpu::begin_busy(sim::SimTime ns) {
  busy_until_ = engine_.now() + ns;
  busy_time_ += ns;
  if (profiling()) profiler_->record(name_, busy_context(), ns);
  engine_.schedule_at(busy_until_, slice_end_);
}

/// Begin the next slice of a charge, at most kChargeSlice of what is left.
void Cpu::begin_slice(sim::SimTime& charge_left) {
  const sim::SimTime slice = std::min(charge_left, sim::costs::kChargeSlice);
  charge_left -= slice;
  begin_busy(slice);
}

void Cpu::charge(sim::SimTime ns) {
  const sim::Fiber* self = sim::Fiber::current();
  const bool in_irq = self == irq_fiber_.get();
  assert((in_irq || (current_ != nullptr && self == &current_->fiber_)) &&
         "charge() outside this Cpu's thread or interrupt context");
  if (ns <= 0) return;
  sim::SimTime& left = in_irq ? irq_charge_left_ : current_->charge_left_;
  left = ns;
  begin_slice(left);
  // dispatch() begins the later slices and resumes us after the last one.
  sim::Fiber::suspend();
}

void Cpu::charge_until(sim::SimTime t) {
  sim::SimTime now = engine_.now();
  if (t > now) charge(t - now);
}

void Cpu::yield() {
  Thread* self = current_;
  assert(self != nullptr && !in_interrupt() && "yield() must be called from a thread");
  Thread* best = run_queue_.peek_best();
  if (best == nullptr || best->priority() < self->priority()) return;
  self->state_ = Thread::State::Ready;
  if (profiling()) self->ready_at_ = engine_.now();
  run_queue_.push(self);
  trace_thread_out();
  current_ = nullptr;
  sim::Fiber::suspend();
}

void Cpu::block() {
  Thread* self = current_;
  if (self == nullptr || in_interrupt()) {
    throw std::logic_error(name_ + ": block() outside thread context");
  }
  // Every new blocking episode invalidates sleep timers armed for earlier
  // ones: a sleeper woken early must not be re-woken from a later block by
  // its stale timer.
  ++self->sleep_gen_;
  self->state_ = Thread::State::Blocked;
  trace_thread_out();
  current_ = nullptr;
  sim::Fiber::suspend();
}

void Cpu::block_unmasked() {
  Thread* self = current_;
  if (self == nullptr || in_interrupt()) {
    throw std::logic_error(name_ + ": block_unmasked() outside thread context");
  }
  assert(irq_disable_depth_ > 0 && "block_unmasked requires the interrupt mask held");
  ++self->sleep_gen_;  // see block(): invalidates stale sleep timers
  self->state_ = Thread::State::Blocked;
  trace_thread_out();
  current_ = nullptr;
  // Drop the mask *after* marking ourselves blocked: a pending interrupt
  // delivered once we suspend can therefore wake us without a lost-wakeup
  // window.
  --irq_disable_depth_;
  if (irq_disable_depth_ == 0 && !irq_queue_.empty()) kick();
  sim::Fiber::suspend();
  ++irq_disable_depth_;
}

void Cpu::wake(Thread* t) {
  if (t->state_ != Thread::State::Blocked) return;
  t->state_ = Thread::State::Ready;
  if (profiling()) t->ready_at_ = engine_.now();
  run_queue_.push(t);
  kick();
}

void Cpu::sleep_until(sim::SimTime t) {
  Thread* self = current_;
  if (self == nullptr || in_interrupt()) {
    throw std::logic_error(name_ + ": sleep outside thread context");
  }
  // The timer is valid only for the blocking episode block() is about to
  // begin (block() increments the generation as it parks us).
  std::uint64_t gen = self->sleep_gen_ + 1;
  engine_.schedule_at(t, [this, self, gen] {
    if (self->sleep_gen_ == gen) wake(self);
  });
  block();
}

// --- interrupts ----------------------------------------------------------------

void Cpu::post_interrupt(IrqHandler handler) {
  irq_queue_.push_back(std::move(handler));
  kick();
}

void Cpu::disable_interrupts() { ++irq_disable_depth_; }

void Cpu::enable_interrupts() {
  assert(irq_disable_depth_ > 0);
  if (--irq_disable_depth_ == 0 && !irq_queue_.empty()) kick();
}

void Cpu::irq_loop() {
  for (;;) {
    while (!irq_queue_.empty() && irq_disable_depth_ == 0) {
      IrqHandler h = std::move(irq_queue_.front());
      irq_queue_.pop_front();
      ++interrupts_taken_;
      if (obs::tracing(tracer_)) tracer_->begin(trace_track_, "irq");
      {
        obs::CostScope scope("irq/dispatch");
        charge(sim::costs::kInterruptEntry);
      }
      h();
      {
        obs::CostScope scope("irq/dispatch");
        charge(sim::costs::kInterruptExit);
      }
      if (obs::tracing(tracer_)) tracer_->end(trace_track_, "irq");
    }
    irq_active_ = false;
    sim::Fiber::suspend();
    irq_active_ = true;
  }
}

Cpu::TimerId Cpu::set_timer(sim::SimTime t, sim::InplaceAction fn) {
  TimerId id = next_timer_++;
  // The callback lives in the timer table, not the event capture, so the
  // scheduled event stays two words and always fits the engine's inline slot.
  Timer& timer = timers_[id];
  timer.fn = std::move(fn);
  timer.event = engine_.schedule_at(t, [this, id] {
    auto it = timers_.find(id);
    if (it == timers_.end()) return;  // cancelled after the event fired
    sim::InplaceAction cb = std::move(it->second.fn);
    timers_.erase(it);
    post_interrupt(std::move(cb));
  });
  return id;
}

void Cpu::cancel_timer(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return;
  engine_.cancel(it->second.event);
  timers_.erase(it);
}

// --- dispatcher ------------------------------------------------------------------

// Mid-slice, the slice's own completion event dispatches, and nothing can
// begin a charge on this CPU before it fires, so a dispatch scheduled now
// would return at its first line.
void Cpu::kick() {
  if (dispatch_scheduled_ || engine_.now() < busy_until_) return;
  dispatch_scheduled_ = true;
  engine_.schedule_at(engine_.now(), kick_);
}

void Cpu::resume_fiber(sim::Fiber& f) {
  assert(sim::Fiber::current() == nullptr);
  g_current_cpu = this;
  // Announce the context so CostScope domains open inside this fiber stay
  // with it across suspends (charges are sliced; other fibers interleave).
  obs::Profiler::set_context(&f);
  f.resume();
  obs::Profiler::set_context(nullptr);
  g_current_cpu = nullptr;
}

/// Run `f`'s context on. In the middle of a charge that means its next
/// slice, begun here on the fiber's behalf at the boundary where the fiber
/// would have begun it, so event order is as if it had; the fiber resumes
/// only once its whole charge has elapsed.
void Cpu::continue_context(sim::Fiber& f, sim::SimTime& charge_left) {
  if (charge_left == 0) {
    resume_fiber(f);
    return;
  }
  // begin_busy records under the running context's cost-scope stack:
  // announce the fiber, as resuming it would.
  if (profiling()) obs::Profiler::set_context(&f);
  begin_slice(charge_left);
  if (profiling()) obs::Profiler::set_context(nullptr);
}

// Runs at every busy interval's end and on every kick. The context it picks
// gets its next slice instead of its fiber while in the middle of a charge
// (continue_context), so interrupts and preemption land on slice boundaries.
void Cpu::dispatch() {
  if (engine_.now() < busy_until_) return;  // mid-slice; its completion event redispatches
  for (;;) {
    if (switch_target_ != nullptr) {
      // The context-switch charge has elapsed: hand the CPU over.
      Thread* t = switch_target_;
      switch_target_ = nullptr;
      current_ = t;
      t->state_ = Thread::State::Running;
      // Run-queue wait = ready-stamp to actually-running (includes the
      // switch cost). ready_at_ < 0 means the profiler was enabled after
      // the thread was queued; skip rather than misattribute.
      if (profiling() && t->ready_at_ >= 0) {
        profiler_->add_queue_wait(name_, t->name(), engine_.now() - t->ready_at_);
      }
      t->ready_at_ = -1;
      trace_thread_in(t);
      continue_context(t->fiber_, t->charge_left_);
    } else if (irq_active_ || (!irq_queue_.empty() && irq_disable_depth_ == 0)) {
      irq_active_ = true;
      continue_context(*irq_fiber_, irq_charge_left_);
    } else {
      Thread* best = run_queue_.peek_best();
      if (current_ != nullptr && current_->state_ == Thread::State::Running) {
        if (best != nullptr && best->priority() > current_->priority()) {
          // Preempt: with preemption, "a context switch occurs as soon as a
          // higher-priority thread is awakened" (§3.1).
          Thread* prev = current_;
          prev->state_ = Thread::State::Ready;
          if (profiling()) prev->ready_at_ = engine_.now();
          run_queue_.push(prev);
          trace_instant("cpu.preempt");
          trace_thread_out();
          current_ = nullptr;
          ++context_switches_;
          switch_target_ = run_queue_.pop_best();
          begin_busy(switch_cost_);
        } else {
          continue_context(current_->fiber_, current_->charge_left_);
        }
      } else if (best != nullptr) {
        ++context_switches_;
        switch_target_ = run_queue_.pop_best();
        begin_busy(switch_cost_);
      } else {
        return;  // idle: wait for a wakeup or interrupt
      }
    }
    if (engine_.now() < busy_until_) return;  // a charge, a slice or a switch began
  }
}

// --- observability ------------------------------------------------------------------

void Cpu::attach_tracer(obs::Tracer* tracer, int track) {
  tracer_ = tracer;
  trace_track_ = track;
  thread_span_open_ = false;
}

void Cpu::trace_thread_in(Thread* t) {
  if (!obs::tracing(tracer_)) return;
  tracer_->begin(trace_track_, t->name());
  thread_span_open_ = true;
}

void Cpu::trace_thread_out() {
  // thread_span_open_ guards against a tracer enabled mid-run: the first
  // scheduling-out after enable has no matching begin to close.
  if (!obs::tracing(tracer_) || !thread_span_open_ || current_ == nullptr) return;
  tracer_->end(trace_track_, current_->name());
  thread_span_open_ = false;
}

void Cpu::trace_instant(const char* label) {
  if (obs::tracing(tracer_)) tracer_->instant(trace_track_, label);
}

void Cpu::register_metrics(obs::Registration& reg, int node, const std::string& component) const {
  reg.probe(node, component, "context_switches",
            [this] { return static_cast<std::int64_t>(context_switches_); });
  reg.probe(node, component, "interrupts_taken",
            [this] { return static_cast<std::int64_t>(interrupts_taken_); });
  reg.probe(node, component, "busy_ns", [this] { return static_cast<std::int64_t>(busy_time_); });
  reg.probe(node, component, "threads_alive",
            [this] { return static_cast<std::int64_t>(threads_alive()); });
}

}  // namespace nectar::core
