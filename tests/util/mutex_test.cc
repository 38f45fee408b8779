// Tests for the annotated Mutex wrapper (util/mutex.h): mutual
// exclusion, deadline (TryLockFor) behavior, and the RAII guard. Every
// lock in the library goes through it (tools/lint.py bans the raw std
// types), so its semantics are load-bearing for everything in
// docs/CONCURRENCY.md.

#include "util/mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace trinit {
namespace {

using std::chrono::milliseconds;

TEST(MutexTest, ExclusionUnderContention) {
  Mutex mu;
  int counter = 0;  // deliberately unsynchronized except via mu
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockFailsWhileHeldAndSucceedsAfter) {
  Mutex mu;
  mu.Lock();
  std::thread other([&] {
    EXPECT_FALSE(mu.TryLock());
    // Zero/negative deadlines degenerate to TryLock, not a wait.
    EXPECT_FALSE(mu.TryLockFor(milliseconds(0)));
    EXPECT_FALSE(mu.TryLockFor(milliseconds(-5)));
  });
  other.join();
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, TryLockForTimesOutThenAcquires) {
  Mutex mu;
  mu.Lock();
  std::thread other([&] {
    auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(mu.TryLockFor(milliseconds(30)));
    auto waited = std::chrono::steady_clock::now() - start;
    // The deadline must actually have been honored (allowing scheduler
    // slop below the nominal 30ms, but not an instant bail).
    EXPECT_GE(waited, milliseconds(20));
  });
  other.join();
  mu.Unlock();
  std::thread acquirer([&] {
    EXPECT_TRUE(mu.TryLockFor(milliseconds(1000)));
    mu.Unlock();
  });
  acquirer.join();
}

}  // namespace
}  // namespace trinit
