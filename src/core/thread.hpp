#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace nectar::core {

class Cpu;

/// A CAB thread (or, on a host CPU, a UNIX process).
///
/// Modeled after the Mach C Threads package the paper derived its threads
/// from (§3.1): forking/joining, mutual exclusion with locks, and
/// synchronization by means of condition variables. All threads on a CAB
/// share the single physical address space.
class Thread {
 public:
  enum class State : std::uint8_t { Ready, Running, Blocked, Finished };

  Thread(Cpu& cpu, std::string name, int priority, std::function<void()> body);

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  State state() const { return state_; }
  bool finished() const { return state_ == State::Finished; }
  Cpu& cpu() { return cpu_; }

 private:
  friend class Cpu;

  Cpu& cpu_;
  std::string name_;
  int priority_;
  State state_ = State::Ready;
  sim::Fiber fiber_;
  std::uint64_t sleep_gen_ = 0;       // invalidates stale sleep timers
  sim::SimTime ready_at_ = -1;        // run-queue entry time (profiler; -1 = unstamped)
  sim::SimTime charge_left_ = 0;      // ns of its charge whose slices have not begun
  std::vector<Thread*> joiners_;      // threads blocked in join() on us
};

/// Mutual-exclusion lock (paper §3.1). FIFO hand-off to waiters.
class Mutex {
 public:
  explicit Mutex(Cpu& cpu) : cpu_(cpu) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock();
  void unlock();
  bool try_lock();
  bool held() const { return owner_ != nullptr; }
  Thread* owner() const { return owner_; }

 private:
  Cpu& cpu_;
  Thread* owner_ = nullptr;
  std::deque<Thread*> waiters_;
};

/// Condition variable (paper §3.1).
class CondVar {
 public:
  explicit CondVar(Cpu& cpu) : cpu_(cpu) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `m`, block, and reacquire `m` when woken.
  void wait(Mutex& m);
  void signal();
  void broadcast();
  std::size_t waiters() const { return waiters_.size(); }

 private:
  Cpu& cpu_;
  std::deque<Thread*> waiters_;
};

/// RAII lock guard.
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

}  // namespace nectar::core
