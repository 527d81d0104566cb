#include "core/scheduler.hpp"

#include "core/thread.hpp"

namespace nectar::core {

void RunQueue::push(Thread* t) {
  levels_[-t->priority()].push_back(t);
  ++size_;
}

Thread* RunQueue::pop_best() {
  for (auto& [negprio, dq] : levels_) {
    if (dq.empty()) continue;
    Thread* t = dq.front();
    dq.pop_front();
    --size_;
    return t;
  }
  return nullptr;
}

Thread* RunQueue::peek_best() const {
  if (size_ == 0) return nullptr;  // the common case: Cpu::dispatch with nothing ready
  for (const auto& [negprio, dq] : levels_) {
    if (!dq.empty()) return dq.front();
  }
  return nullptr;
}

}  // namespace nectar::core
