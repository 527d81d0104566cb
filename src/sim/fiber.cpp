#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <system_error>

// Neither sanitizer can follow a stack switch on its own. TSan would see one
// thread magically jumping stacks, with shadow state from one fiber's frames
// bleeding into the next; its fiber API (__tsan_create_fiber /
// __tsan_switch_to_fiber) tells it each Fiber is a separate logical
// execution context. ASan must be told which stack is live
// (__sanitizer_start/finish_switch_fiber), or an exception unwinding a
// fiber's frames reads as a stack-buffer-overflow.
#if defined(__SANITIZE_THREAD__)
#define NECTAR_TSAN_FIBERS 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define NECTAR_ASAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NECTAR_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer)
#define NECTAR_ASAN_FIBERS 1
#endif
#endif

#ifdef NECTAR_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#ifdef NECTAR_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif

#if defined(__x86_64__)
// sim/fiber_switch.S
extern "C" void nectar_fiber_switch(void** save_sp, void* load_sp);
#endif

namespace nectar::sim {

namespace {
/// The fiber currently executing on this OS thread (nullptr = main context).
thread_local Fiber* g_current = nullptr;
#ifdef NECTAR_TSAN_FIBERS
/// TSan handle of the main context that last resumed a fiber on this
/// thread; suspend/finish switch TSan back to it before the stack switch.
thread_local void* g_tsan_return = nullptr;
#endif
#ifdef NECTAR_ASAN_FIBERS
/// Bounds of the stack that last resumed a fiber on this thread, which ASan
/// is told about when the fiber switches back to it.
thread_local const void* g_asan_return_bottom = nullptr;
thread_local std::size_t g_asan_return_size = 0;
#endif

std::size_t guard_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Save the running side into `from` and continue from `to`.
#if defined(__x86_64__)
void jump(void*& from, void* to) { nectar_fiber_switch(&from, to); }
#else
void jump(ucontext_t& from, ucontext_t& to) { swapcontext(&from, &to); }
#endif
}  // namespace

Fiber::Fiber(std::function<void()> body, std::string name)
    : body_(std::move(body)), name_(std::move(name)) {
  // Reserve the guard page and the stack as one mapping; MAP_NORESERVE and
  // first-touch faulting commit only the pages the fiber uses.
  void* map = mmap(nullptr, guard_size() + kStackSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::system_error(errno, std::generic_category(), "fiber stack");
  if (mprotect(map, guard_size(), PROT_NONE) != 0) {
    const int err = errno;
    munmap(map, guard_size() + kStackSize);
    throw std::system_error(err, std::generic_category(), "fiber guard page");
  }
  stack_ = static_cast<unsigned char*>(map) + guard_size();
#ifdef NECTAR_ASAN_FIBERS
  // The mapping may reuse the addresses of an abandoned fiber's stack, whose
  // frames' redzones are still poisoned.
  __asan_unpoison_memory_region(stack_, kStackSize);
#endif

#if defined(__x86_64__)
  // The frame nectar_fiber_switch pops on the first resume: the ABI's
  // initial floating-point control (round to nearest, exceptions masked),
  // six zeroed callee-saved registers (a null rbp ends frame-pointer walks)
  // and trampoline as the return address, with a null return address for
  // trampoline above it where a call would have left one.
  struct FirstFrame {
    std::uint32_t mxcsr = 0x1F80;
    std::uint16_t x87_control = 0x037F;
    std::uint16_t unused = 0;
    std::uint64_t registers[6] = {};  // r15, r14, r13, r12, rbx, rbp
    void (*entry)() = &Fiber::trampoline;
    void (*entry_return)() = nullptr;
  };
  static_assert(sizeof(FirstFrame) == 72, "the layout nectar_fiber_switch pops");
  context_ = new (stack_ + kStackSize - sizeof(FirstFrame)) FirstFrame;
#else
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = kStackSize;
  makecontext(&context_, &Fiber::trampoline, 0);
#endif
}

Fiber::~Fiber() {
  // Destroying a suspended-but-unfinished fiber abandons its stack frame;
  // that is fine for simulation teardown (no RAII cleanup runs on it), and
  // runtime code only destroys fibers it knows are finished or parked.
#ifdef NECTAR_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(stack_ - guard_size(), guard_size() + kStackSize);
}

void Fiber::trampoline() {
  Fiber* self = g_current;  // resume() set it before switching here
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &g_asan_return_bottom, &g_asan_return_size);
#endif
  try {
    self->body_();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: uncaught exception in fiber '%s': %s\n",
                 self->name_.c_str(), e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr, "fatal: uncaught exception in fiber '%s'\n", self->name_.c_str());
    std::abort();
  }
  self->finished_ = true;
  self->switch_out();
  std::abort();  // a finished fiber is never resumed
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from the main context");
  assert(!finished_ && "cannot resume a finished fiber");
  g_current = this;
  started_ = true;
#ifdef NECTAR_TSAN_FIBERS
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  g_tsan_return = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef NECTAR_ASAN_FIBERS
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_, kStackSize);
#endif
  jump(return_context_, context_);
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  g_current = nullptr;
}

void Fiber::switch_out() {
#ifdef NECTAR_TSAN_FIBERS
  __tsan_switch_to_fiber(g_tsan_return, 0);
#endif
#ifdef NECTAR_ASAN_FIBERS
  // A finished fiber's stack is never entered again, so ASan keeps no fake
  // stack for it.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack, g_asan_return_bottom,
                                 g_asan_return_size);
#endif
  jump(context_, return_context_);
#ifdef NECTAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, &g_asan_return_bottom, &g_asan_return_size);
#endif
}

void Fiber::suspend() {
  assert(g_current != nullptr && "suspend() called outside any fiber");
  g_current->switch_out();
}

Fiber* Fiber::current() { return g_current; }

}  // namespace nectar::sim
