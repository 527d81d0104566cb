#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sim/parallel.hpp"

namespace nectar::sim {

Engine::Target::Target(Engine& engine, void (*fire)(void*), void* self)
    : fire_(fire), self_(self), id_(engine.targets_.size() + 1) {
  if (!is_target(id_)) throw std::length_error("Engine::Target: too many targets");
  engine.targets_.push_back(this);
}

SimTime Engine::next_event_time() {
  if (live_ == 0) return -1;
  for (std::size_t i = head_; i < buckets_[0].size(); ++i) {
    if (live(buckets_[0][i].id)) return buckets_[0][i].time;
  }
  // Buckets above 0 are ordered, so the first one holding a live entry
  // holds the earliest.
  for (std::uint64_t occ = occupied_ & ~std::uint64_t{1}; occ != 0; occ &= occ - 1) {
    SimTime t = -1;
    for (const QueueEntry& e : buckets_[std::countr_zero(occ)]) {
      if (live(e.id) && (t < 0 || e.time < t)) t = e.time;
    }
    if (t >= 0) return t;
  }
  return -1;
}

SimTime Engine::lowest_time() const {
  const std::vector<QueueEntry>& lowest =
      buckets_[std::countr_zero(occupied_ & ~std::uint64_t{1})];
  SimTime t = lowest.front().time;
  for (const QueueEntry& e : lowest) t = std::min(t, e.time);
  return t;
}

void Engine::refill(SimTime base) {
  buckets_[0].clear();
  head_ = 0;
  occupied_ &= ~std::uint64_t{1};
  assert(occupied_ != 0);
  std::vector<QueueEntry>& lowest = buckets_[std::countr_zero(occupied_)];
  occupied_ &= occupied_ - 1;
  // Every entry of `lowest` agrees with the new base above the bit that put
  // it there, so each lands in a lower bucket, bucket 0 included.
  base_ = base;
  for (const QueueEntry& e : lowest) place(e);
  lowest.clear();
}

void Engine::send_cross(Engine& dst, SimTime t, Action fn, std::uint64_t key, std::uint64_t seq) {
  if (&dst == this) {
    schedule_at(t, std::move(fn));
    return;
  }
  if (coordinator_ == nullptr || coordinator_ != dst.coordinator_)
    throw std::logic_error("Engine::send_cross: engines do not share a ParallelEngine");
  ++cross_posts_;
  coordinator_->post(shard_id_, dst.shard_id_, t, key, seq, std::move(fn));
}

Engine::Slot* Engine::live_slot(EventId id) {
  std::size_t index = static_cast<std::size_t>(id >> 32);
  if (index == 0 || index > slots_.size()) return nullptr;
  Slot& s = slots_[index - 1];
  if (!s.armed || s.gen != static_cast<std::uint32_t>(id)) return nullptr;
  return &s;
}

void Engine::release_slot(std::size_t slot_index) {
  Slot& s = slots_[slot_index];
  s.armed = false;
  ++s.gen;  // invalidates the fired/cancelled handle and any queue entry
  free_.push_back(static_cast<std::uint32_t>(slot_index));
  --live_;
}

Engine::EventId Engine::schedule_at(SimTime t, Action fn) {
  if (t < now_) throw std::logic_error("Engine::schedule_at: time in the past");
  if (fn.heap_allocated()) ++heap_actions_;
  std::size_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
    ++pool_reuses_;
  } else {
    index = slots_.size();
    slots_.emplace_back();
  }
  Slot& s = slots_[index];
  s.armed = true;
  s.action = std::move(fn);
  EventId id = make_id(index, s.gen);
  assert(t >= base_);  // the base never passes now()
  place(QueueEntry{t, id});
  ++live_;
  return id;
}

Engine::EventId Engine::schedule_at(SimTime t, const Target& target) {
  if (t < now_) throw std::logic_error("Engine::schedule_at: time in the past");
  assert(target.id_ <= targets_.size() && targets_[target.id_ - 1] == &target &&
         "target enrolled with another engine");
  assert(t >= base_);  // the base never passes now()
  place(QueueEntry{t, target.id_});
  ++live_;
  ++pending_targets_;
  return target.id_;
}

bool Engine::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  s->action.reset();
  release_slot(static_cast<std::size_t>(s - slots_.data()));
  return true;
}

bool Engine::fire(QueueEntry e) {
  if (is_target(e.id)) {
    const Target& target = *targets_[e.id - 1];
    --live_;
    --pending_targets_;
    assert(e.time >= now_);
    now_ = e.time;
    ++processed_;
    target.fire_(target.self_);
    return true;
  }
  Slot* s = live_slot(e.id);
  if (s == nullptr) return false;
  // Move the action out before running it: the callback may schedule new
  // events, which can recycle this slot or grow the slab.
  Action fn = std::move(s->action);
  release_slot(static_cast<std::size_t>(s - slots_.data()));
  assert(e.time >= now_);  // a cancelled entry may lie below now()
  now_ = e.time;
  ++processed_;
  fn();
  return true;
}

bool Engine::step() {
  while (live_ > 0) {
    settle();
    if (fire(buckets_[0][head_++])) return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

bool Engine::run_until(SimTime t) {
  while (live_ > 0) {
    if (head_ == buckets_[0].size()) {
      // Refill only for an entry due by t: the refill moves the base to it.
      SimTime next = lowest_time();
      if (next > t) break;
      refill(next);
    }
    // Bucket 0's entries share one time, and every later bucket's are later.
    if (buckets_[0][head_].time > t) break;
    fire(buckets_[0][head_++]);  // or skip a cancelled entry
  }
  now_ = std::max(now_, t);
  return live_ > 0;
}

bool Engine::run_while(const std::function<bool()>& pending) {
  while (pending()) {
    if (!step()) return false;
  }
  return true;
}

void Engine::register_metrics(obs::Registration& reg, int node) const {
  reg.probe(node, "sim.engine", "events_processed",
            [this] { return static_cast<std::int64_t>(events_processed()); });
  reg.probe(node, "sim.engine", "pending_events",
            [this] { return static_cast<std::int64_t>(pending_events()); });
  reg.probe(node, "sim.engine", "pool_slots",
            [this] { return static_cast<std::int64_t>(pool_slots()); });
  reg.probe(node, "sim.engine", "pool_free",
            [this] { return static_cast<std::int64_t>(pool_free()); });
  reg.probe(node, "sim.engine", "pool_reuses",
            [this] { return static_cast<std::int64_t>(pool_reuses()); });
  reg.probe(node, "sim.engine", "heap_actions",
            [this] { return static_cast<std::int64_t>(heap_actions()); });
}

}  // namespace nectar::sim
