#include "core/scheduler.hpp"

#include "core/thread.hpp"

namespace nectar::core {

void RunQueue::push(Thread* t) {
  levels_[-t->priority()].push_back(t);
  ++size_;
}

Thread* RunQueue::pop_best() {
  while (!levels_.empty()) {
    auto it = levels_.begin();
    if (it->second.empty()) {
      levels_.erase(it);
      continue;
    }
    Thread* t = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) levels_.erase(it);
    --size_;
    return t;
  }
  return nullptr;
}

Thread* RunQueue::peek_best() const {
  for (const auto& [negprio, dq] : levels_) {
    if (!dq.empty()) return dq.front();
  }
  return nullptr;
}

}  // namespace nectar::core
