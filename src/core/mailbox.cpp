#include "core/mailbox.hpp"

#include <cassert>
#include <stdexcept>

#include "core/cpu.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "sim/costs.hpp"

namespace nectar::core {

namespace costs = sim::costs;

namespace {
/// The processor invoking the current mailbox operation (CAB SPARC for CAB
/// threads and interrupt handlers; a host CPU when a host process operates
/// on the shared-memory mailbox directly, §3.3).
Cpu& caller() {
  Cpu* c = Cpu::current();
  if (c == nullptr) throw std::logic_error("mailbox op outside any execution context");
  return *c;
}
}  // namespace

Mailbox::Mailbox(Cpu& home_cpu, BufferHeap& heap, std::string name, MailboxAddr addr)
    : cpu_(home_cpu), heap_(heap), name_(std::move(name)), addr_(addr) {}

// Mailbox events land on the track of whichever CPU performs the operation,
// so a host-side End_Put and the CAB-side Begin_Get show up as separate
// swimlane rows of the same exchange.
void Mailbox::trace_op(Cpu& c, const char* op) const {
  obs::Tracer* t = c.tracer();
  if (obs::tracing(t)) t->instant(c.trace_track(), name_ + "." + op);
}

void Mailbox::register_metrics(obs::Registration& reg, int node) const {
  reg.probe(node, "mailbox", name_ + ".puts",
            [this] { return static_cast<std::int64_t>(puts_); });
  reg.probe(node, "mailbox", name_ + ".gets",
            [this] { return static_cast<std::int64_t>(gets_); });
  reg.probe(node, "mailbox", name_ + ".enqueues",
            [this] { return static_cast<std::int64_t>(enqueues_); });
  reg.probe(node, "mailbox", name_ + ".cache_hits",
            [this] { return static_cast<std::int64_t>(cache_hits_); });
  reg.probe(node, "mailbox", name_ + ".queued",
            [this] { return static_cast<std::int64_t>(queue_.size()); });
}

std::optional<Message> Mailbox::alloc_message(std::uint32_t size) {
  if (size <= kSmallBufSize) {
    if (cache_buf_ == 0) {
      // Lazily create the cached small buffer.
      hw::CabAddr b = heap_.alloc(kSmallBufSize);
      if (b != 0) {
        cache_buf_ = b;
        cache_free_ = true;
      }
    }
    if (cache_free_) {
      cache_free_ = false;
      ++cache_hits_;
      Message m;
      m.data = cache_buf_;
      m.len = size;
      m.block = cache_buf_;
      m.block_len = kSmallBufSize;
      m.from_cache = true;
      m.cache_owner = this;
      return m;
    }
  }
  hw::CabAddr b = heap_.alloc(size);
  if (b == 0) return std::nullopt;
  Message m;
  m.data = b;
  m.len = size;
  m.block = b;
  m.block_len = size;
  return m;
}

Message Mailbox::begin_put(std::uint32_t size) {
  Cpu& c = caller();
  if (c.in_interrupt()) throw std::logic_error("begin_put in interrupt context: use begin_put_try");
  trace_op(c, "begin_put");
  obs::CostScope scope("mailbox/begin_put");
  bool small = size <= kSmallBufSize;
  c.charge(small ? costs::kMailboxBeginPutCached : costs::kMailboxBeginPut);
  InterruptGuard g(c);
  for (;;) {
    std::optional<Message> m = alloc_message(size);
    if (m.has_value()) {
      if (!m->from_cache && small) {
        // Cache miss on a small message: the heap path costs the difference.
        c.charge(costs::kMailboxBeginPut - costs::kMailboxBeginPutCached);
      }
      return *m;
    }
    // §3.3: "Begin_Put ... blocks if no space ... rescheduled when space
    // becomes available."
    heap_.wait_for_space(c);
  }
}

std::optional<Message> Mailbox::begin_put_try(std::uint32_t size) {
  Cpu& c = caller();
  obs::CostScope scope("mailbox/begin_put");
  c.charge(size <= kSmallBufSize ? costs::kMailboxBeginPutCached : costs::kMailboxBeginPut);
  return alloc_message(size);
}

void Mailbox::publish(Message m, Cpu& c) {
  queue_.push_back(m);
  queued_bytes_ += m.len;
  ++puts_;
  if (obs::Profiler* p = c.profiler(); p != nullptr && p->enabled()) {
    p->sample_queue_depth(cpu_.name() + "/" + name_, queue_.size());
  }
  if (!readers_.empty()) {
    Thread* t = readers_.front();
    readers_.pop_front();
    c.charge(costs::kThreadWakeup);
    t->cpu().wake(t);
  }
  if (notify_hook_) notify_hook_();
  if (upcall_) {
    // §3.3: the upcall runs as a side effect of End_Put, in the publisher's
    // own context — "this effectively converts a cross-thread procedure
    // call into a local one."
    c.charge(costs::kUpcall);
    upcall_(*this);
  }
}

void Mailbox::end_put(Message m) {
  if (!m.valid()) throw std::logic_error("end_put: invalid message");
  Cpu& c = caller();
  trace_op(c, "end_put");
  obs::CostScope scope("mailbox/end_put");
  c.charge(costs::kMailboxEndPut);
  publish(m, c);
}

Message Mailbox::begin_get() {
  Cpu& c = caller();
  if (c.in_interrupt()) throw std::logic_error("begin_get in interrupt context: use begin_get_try");
  trace_op(c, "begin_get");
  obs::CostScope scope("mailbox/begin_get");
  c.charge(costs::kMailboxBeginGet);
  InterruptGuard g(c);
  while (queue_.empty()) {
    Thread* self = c.current_thread();
    if (self == nullptr) throw std::logic_error("begin_get: blocking outside a thread");
    readers_.push_back(self);
    c.block_unmasked();
  }
  Message m = queue_.front();
  queue_.pop_front();
  queued_bytes_ -= m.len;
  ++gets_;
  if (consume_hook_) consume_hook_();
  return m;
}

std::optional<Message> Mailbox::begin_get_try() {
  Cpu& c = caller();
  obs::CostScope scope("mailbox/begin_get");
  c.charge(costs::kMailboxBeginGet);
  if (queue_.empty()) return std::nullopt;
  Message m = queue_.front();
  queue_.pop_front();
  queued_bytes_ -= m.len;
  ++gets_;
  if (consume_hook_) consume_hook_();
  return m;
}

void Mailbox::release_storage(const Message& m) {
  if (m.from_cache) {
    assert(m.cache_owner != nullptr);
    m.cache_owner->cache_free_ = true;
    return;
  }
  heap_.free(m.block);
  heap_.notify_space();
}

void Mailbox::end_get(Message m) {
  if (!m.valid()) throw std::logic_error("end_get: invalid message");
  Cpu& c = caller();
  trace_op(c, "end_get");
  obs::CostScope scope("mailbox/end_get");
  c.charge(costs::kMailboxEndGet);
  release_storage(m);
}

void Mailbox::enqueue(Message m, Mailbox& dst) {
  if (!m.valid()) throw std::logic_error("enqueue: invalid message");
  Cpu& c = caller();
  trace_op(c, "enqueue");
  obs::CostScope scope("mailbox/enqueue");
  // §3.3: Enqueue "moves the message without copying the data ... by simply
  // moving pointers."
  c.charge(costs::kMailboxEnqueue);
  ++enqueues_;
  dst.publish(m, c);
}

Message Mailbox::adjust_prefix(Message m, std::uint32_t n) {
  if (n > m.len) throw std::logic_error("adjust_prefix: longer than message");
  obs::CostScope scope("mailbox/adjust");
  caller().charge(costs::kMailboxAdjust);
  m.data += n;
  m.len -= n;
  return m;
}

Message Mailbox::adjust_suffix(Message m, std::uint32_t n) {
  if (n > m.len) throw std::logic_error("adjust_suffix: longer than message");
  obs::CostScope scope("mailbox/adjust");
  caller().charge(costs::kMailboxAdjust);
  m.len -= n;
  return m;
}

}  // namespace nectar::core
