#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace nectar::sim {
namespace {

TEST(Fiber, RunsBodyOnResume) {
  bool ran = false;
  Fiber f([&] { ran = true; });
  EXPECT_FALSE(f.started());
  f.resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, SuspendReturnsControlToResumer) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::suspend();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* inside = nullptr;
  Fiber f([&] { inside = Fiber::current(); });
  f.resume();
  EXPECT_EQ(inside, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManySuspendResumeCycles) {
  int counter = 0;
  Fiber f([&] {
    for (int i = 0; i < 1000; ++i) {
      ++counter;
      Fiber::suspend();
    }
  });
  for (int i = 1; i <= 1000; ++i) {
    f.resume();
    EXPECT_EQ(counter, i);
  }
  f.resume();  // let the loop exit
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, TwoFibersInterleave) {
  std::vector<std::string> log;
  Fiber a([&] {
    log.push_back("a1");
    Fiber::suspend();
    log.push_back("a2");
  });
  Fiber b([&] {
    log.push_back("b1");
    Fiber::suspend();
    log.push_back("b2");
  });
  a.resume();
  b.resume();
  a.resume();
  b.resume();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(Fiber, LocalStateSurvivesSuspension) {
  int out = 0;
  Fiber f([&] {
    int local = 10;
    Fiber::suspend();
    local += 32;
    out = local;
  });
  f.resume();
  f.resume();
  EXPECT_EQ(out, 42);
}

TEST(Fiber, NameIsPreserved) {
  Fiber f([] {}, "protocol-input");
  EXPECT_EQ(f.name(), "protocol-input");
}

TEST(Fiber, DestroyUnstartedAndUnfinishedFibersIsSafe) {
  {
    Fiber f([] {});
  }  // never started
  {
    Fiber f([] { Fiber::suspend(); });
    f.resume();
  }  // suspended, destroyed without finishing
  SUCCEED();
}

// --- guard page ------------------------------------------------------------------

// Bounds of the guard page below the overflowing fiber's stack, for the
// SIGSEGV handler (the death test's child process only).
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;

void on_segv(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const char* msg = addr >= g_guard_lo && addr < g_guard_hi
                        ? "fault in the fiber's guard page\n"
                        : "fault outside the fiber's guard page\n";
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
  _exit(1);
}

constexpr std::size_t kFrameBytes = 512;

/// Non-tail recursion: each frame keeps a buffer live across the call.
__attribute__((noinline)) int recurse(std::size_t depth, std::size_t limit) {
  volatile char frame[kFrameBytes];
  frame[0] = static_cast<char>(depth);
  if (depth == limit) return frame[0];
  return recurse(depth + 1, limit) + frame[0];
}

void overflow_a_fiber() {
  // The handler runs on a stack of its own: the fiber's is exhausted.
  static char alt[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt;
  ss.ss_size = sizeof alt;
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = on_segv;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);

  Fiber f([] {
    // The stack's top is page-aligned, a few frames above this one.
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto here = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    const std::uintptr_t top = (here + page - 1) / page * page;
    g_guard_hi = top - Fiber::kStackSize;
    g_guard_lo = g_guard_hi - page;
    recurse(0, 4 * Fiber::kStackSize / kFrameBytes);  // four stacks' worth
  });
  f.resume();
}

TEST(Fiber, StackOverflowHitsTheGuardPage) {
  // The handler replaces ASan's and TSan's own SEGV reports, so the same
  // message matches with and without them.
  EXPECT_DEATH(overflow_a_fiber(), "fault in the fiber's guard page");
}

// --- floating-point control ------------------------------------------------------

TEST(Fiber, FloatingPointControlStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;

  int inside_after_suspend = -1;
  double third_after_suspend = 0.0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    Fiber::suspend();
    inside_after_suspend = std::fegetround();  // x87 control word
    third_after_suspend = one / three;         // MXCSR
  });
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, nearest);

  std::fesetround(FE_TOWARDZERO);
  f.resume();
  EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
  std::fesetround(FE_TONEAREST);

  EXPECT_TRUE(f.finished());
  EXPECT_EQ(inside_after_suspend, FE_UPWARD);
  EXPECT_GT(third_after_suspend, nearest);
}

// --- exceptions ------------------------------------------------------------------

__attribute__((noinline)) void throw_runtime_error(const char* what) {
  throw std::runtime_error(what);
}

TEST(Fiber, ExceptionAfterSuspendIsCaughtInsideTheFiber) {
  std::string caught;
  Fiber f([&] {
    Fiber::suspend();
    try {
      throw_runtime_error("after suspend");
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    Fiber::suspend();
  });
  f.resume();
  EXPECT_TRUE(caught.empty());
  f.resume();
  EXPECT_EQ(caught, "after suspend");
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
}

}  // namespace
}  // namespace nectar::sim
