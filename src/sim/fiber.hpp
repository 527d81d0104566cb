#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <string>

namespace nectar::sim {

/// Cooperative green thread.
///
/// Fibers are the execution substrate for simulated CAB threads, interrupt
/// contexts, and host processes. Each fiber belongs to exactly one OS
/// thread — under a sharded simulation that is its shard's worker thread,
/// which owns all of the shard's fibers via thread-local bookkeeping: a
/// fiber runs until it calls `suspend()` (directly or via a blocking
/// runtime primitive), at which point control returns to whoever called
/// `resume()` — always the event engine's main context on the same thread.
///
/// On x86-64 a switch is a plain function call (`sim/fiber_switch.S`): it
/// pushes the callee-saved registers and the floating-point control words,
/// swaps the stack pointer and pops the other side's, with no system call.
/// Other targets switch with ucontext. Each fiber runs on its own mapping of
/// `kStackSize` bytes above an inaccessible guard page: pages are committed
/// only when the fiber touches them, and an overflow faults on the guard
/// page instead of overwriting whatever lies below.
///
/// Under ThreadSanitizer and AddressSanitizer the stack switches are
/// annotated with each sanitizer's fiber API, so race detection and stack
/// bookkeeping follow the fiber instead of false-alarming on every switch.
class Fiber {
 public:
  /// Usable stack bytes per fiber.
  static constexpr std::size_t kStackSize = 256 * 1024;

  /// Create a fiber that will run `body` when first resumed.
  explicit Fiber(std::function<void()> body, std::string name = "fiber");
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the main context into this fiber. Must not be called from
  /// inside another fiber. Returns when the fiber suspends or finishes.
  void resume();

  /// Called from inside a fiber: switch back to the main context.
  static void suspend();

  /// The fiber currently executing, or nullptr when on the main context.
  static Fiber* current();

  bool finished() const { return finished_; }
  bool started() const { return started_; }
  const std::string& name() const { return name_; }

 private:
#if defined(__x86_64__)
  /// The stack pointer a switched-out side was left at; its registers sit
  /// on the stack above it.
  using Context = void*;
#else
  using Context = ucontext_t;
#endif

  [[noreturn]] static void trampoline();
  /// From inside the fiber: switch back to its resumer.
  void switch_out();

  std::function<void()> body_;
  std::string name_;
  unsigned char* stack_ = nullptr;  // lowest usable byte; the guard page is below
  Context context_{};               // the fiber, while it is switched out
  Context return_context_{};        // its resumer, while the fiber runs
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;  // TSan fiber handle (TSan builds only)
};

}  // namespace nectar::sim
