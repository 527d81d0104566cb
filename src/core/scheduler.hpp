#pragma once

#include <cstddef>
#include <deque>
#include <map>

namespace nectar::core {

class Thread;

/// Ready queue: highest priority first, FIFO within a priority level
/// (paper §3.1: preemptive, priority-based scheduling).
class RunQueue {
 public:
  void push(Thread* t);
  Thread* pop_best();
  Thread* peek_best() const;
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  // Key is -priority so begin() is the best level. A level stays once made
  // (in practice there are two: system and application), so a context
  // switch builds no map node or deque.
  std::map<int, std::deque<Thread*>> levels_;
  std::size_t size_ = 0;
};

}  // namespace nectar::core
