#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace nectar::obs {
class Registration;
}

namespace nectar::sim {

class ParallelEngine;

/// Deterministic discrete-event engine.
///
/// Single-threaded: events fire in (time, insertion-order) order, so every
/// run of a given scenario is bit-for-bit reproducible. All hardware models
/// and the CAB/host CPU schedulers are driven from this queue. Under a
/// ParallelEngine each shard owns one Engine; an Engine is then confined to
/// its shard's worker thread and talks to other shards only through
/// send_cross().
///
/// Most events live in a slab of pooled slots (free-list recycled) holding
/// their callables inline; an EventId is a generation-checked handle into the
/// slab, so cancel() is O(1) and stale handles (fired, cancelled, or recycled
/// events) are rejected without any map lookup. Cancelled entries stay queued
/// and are skipped when they surface. An event its owner fires again and
/// again (a CPU's slice end and kick) can instead be a Target: the owner keeps
/// the callback, and the queue entry's id names it, so scheduling one takes
/// no slot and moves no callable. Targets cannot be cancelled.
///
/// The queue is a monotone radix heap of (time, handle) entries. Bucket k > 0
/// holds entries whose time first differs from the queue's base at bit k-1;
/// bucket 0 holds the entries at the base, consumed from the front. When
/// bucket 0 runs dry, the lowest non-empty bucket's earliest time becomes the
/// base and that bucket is redistributed, in order, into lower buckets. Equal
/// times always share a bucket and every move keeps their order, so ties fire
/// in schedule order without a sequence number. Only a pop refills bucket 0,
/// and run_until refills only for an entry due by its horizon, so the base
/// never passes now() and every schedule lands at or above it; peeks
/// (next_event_time()) read the buckets without changing them.
class Engine {
 public:
  using EventId = std::uint64_t;
  using Action = InplaceAction;

  /// A long-lived, slot-free event: `fire(self)` runs each time it comes
  /// due. The owner keeps it (for as long as it can be pending, and at one
  /// address: the engine names it by its enrolment) and may have it pending
  /// any number of times at once.
  class Target {
   public:
    Target(Engine& engine, void (*fire)(void*), void* self);
    Target(const Target&) = delete;
    Target& operator=(const Target&) = delete;

   private:
    friend class Engine;
    void (*fire_)(void*);
    void* self_;
    EventId id_;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Action fn);

  /// Schedule `target` (enrolled with this engine) at absolute time `t`
  /// (must be >= now()). It fires in the same (time, schedule order) as any
  /// other event and counts in pending_events() and events_processed(); the
  /// returned id never names a slot, so cancel() rejects it.
  EventId schedule_at(SimTime t, const Target& target);

  /// Schedule `fn` `delay` nanoseconds from now.
  EventId schedule_in(SimTime delay, Action fn) { return schedule_at(now_ + delay, std::move(fn)); }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before (stale handles are detected by generation).
  bool cancel(EventId id);

  /// Process a single event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty.
  void run();

  /// Run until simulated time `t` (events at exactly `t` are processed),
  /// then advance the clock to `t` unless it is already past it. Returns true
  /// iff a live (uncancelled) event remains after `t`.
  bool run_until(SimTime t);

  /// Run until `pred()` becomes true or the queue drains.
  /// Returns true if the predicate was satisfied.
  bool run_while(const std::function<bool()>& pending);

  std::uint64_t events_processed() const { return processed_; }
  bool empty() const { return live_ == 0; }
  std::size_t pending_events() const { return live_; }
  /// Pending events that are Targets (they hold no slot).
  std::size_t pending_targets() const { return pending_targets_; }

  // --- event-pool statistics (observability probes) -------------------------

  /// Slots ever allocated in the slab (high-water of concurrently live events).
  std::size_t pool_slots() const { return slots_.size(); }
  /// Slots currently on the free list.
  std::size_t pool_free() const { return free_.size(); }
  /// Events that reused a recycled slot instead of growing the slab.
  std::uint64_t pool_reuses() const { return pool_reuses_; }
  /// Scheduled actions whose captures spilled to the heap (SBO miss).
  std::uint64_t heap_actions() const { return heap_actions_; }

  /// Report queue/pool statistics as probes under (node, "sim.engine").
  /// The engine is network-wide, so callers conventionally pass node -1.
  void register_metrics(obs::Registration& reg, int node = -1) const;

  // --- shard membership (conservative parallel simulation) ------------------

  /// Attach this engine to `coordinator` as shard `shard_id`. Called once by
  /// ParallelEngine's constructor.
  void set_shard(ParallelEngine* coordinator, int shard_id) {
    coordinator_ = coordinator;
    shard_id_ = shard_id;
  }
  int shard_id() const { return shard_id_; }

  /// Earliest live event time, or -1 if the queue is empty. Scans the
  /// queue without changing it.
  SimTime next_event_time();

  /// Schedule `fn` at time `t` on `dst`, which may live on another shard.
  /// Same-engine sends collapse to schedule_at (zero overhead, identical
  /// semantics at shards=1); cross-shard sends go through the coordinator's
  /// mailbox and land at the next window barrier. `key` names the sending
  /// element (stable across runs) and `seq` is its per-key counter; the pair
  /// makes the mailbox drain order — and therefore the simulation —
  /// deterministic. Must only be called from this shard's worker thread.
  void send_cross(Engine& dst, SimTime t, Action fn, std::uint64_t key, std::uint64_t seq);

  /// Events this shard posted to other shards via send_cross().
  std::uint64_t cross_posts() const { return cross_posts_; }

 private:
  // Lets a test leak a slot, to show the pool-balance audit catches it.
  friend struct EngineTestAccess;

  struct Slot {
    std::uint32_t gen = 0;
    bool armed = false;
    Action action;
  };

  struct QueueEntry {
    SimTime time;
    EventId id;
  };

  // EventId layout: a slot's is (slot index + 1) << 32 | generation, and a
  // target's is its enrolment index + 1, below 2^32, so the two never meet.
  // The +1s keep 0 free as a "no event" sentinel for callers.
  static EventId make_id(std::size_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot + 1) << 32) | gen;
  }
  static bool is_target(EventId id) { return id >> 32 == 0; }
  /// The slot an id refers to iff the id is live; nullptr for stale handles
  /// and target ids.
  Slot* live_slot(EventId id);
  /// Queued entries are live unless they name a cancelled slot event.
  bool live(EventId id) { return is_target(id) || live_slot(id) != nullptr; }
  void release_slot(std::size_t slot_index);
  /// Fire the popped entry `e` unless it is cancelled; false if it was.
  bool fire(QueueEntry e);

  /// Append `e` to the bucket its time falls in relative to base_.
  void place(const QueueEntry& e) {
    auto k = std::bit_width(static_cast<std::uint64_t>(e.time ^ base_));
    buckets_[k].push_back(e);
    occupied_ |= std::uint64_t{1} << k;
  }
  /// Make the earliest entry (possibly cancelled) bucket 0's front, at
  /// buckets_[0][head_]. Only called while a live event is queued.
  void settle() {
    if (head_ == buckets_[0].size()) refill(lowest_time());
  }
  /// Earliest time (possibly cancelled) in the lowest non-empty bucket above
  /// 0. Only called while bucket 0 is spent and a live event is queued.
  SimTime lowest_time() const;
  /// Bucket 0 is spent: `base`, the lowest non-empty bucket's earliest time,
  /// becomes the base, and that bucket is redistributed into lower ones.
  void refill(SimTime base);

  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  // SimTime is non-negative, so times differ from the base in bits 0..62
  // and 64 buckets cover them.
  std::array<std::vector<QueueEntry>, 64> buckets_;
  std::size_t head_ = 0;        // bucket 0's entries before head_ have popped
  std::uint64_t occupied_ = 0;  // bit k set iff bucket k may hold entries
  SimTime base_ = 0;            // every queued entry's time is >= base_
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<const Target*> targets_;  // by enrolment; a target's id is its index + 1
  std::size_t pending_targets_ = 0;

  std::uint64_t pool_reuses_ = 0;
  std::uint64_t heap_actions_ = 0;

  ParallelEngine* coordinator_ = nullptr;
  int shard_id_ = 0;
  std::uint64_t cross_posts_ = 0;
};

}  // namespace nectar::sim
