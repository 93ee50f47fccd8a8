// Tests for the worker pool and the deterministic parallel loop helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace irp {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(5), 5);
  // 0 (and any non-positive request) resolves to the hardware, >= 1.
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-3), 1);
}

TEST(ThreadPool, ConstructionAndTeardown) {
  // Pools of several sizes come up and wind down cleanly, including an
  // idle pool that never ran a loop and repeated construction.
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool{threads};
    EXPECT_EQ(pool.thread_count(), threads);
  }
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool{4};
    pool.parallel_for(0, 16, [](std::size_t) {});
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) {
    ASSERT_LT(i, kN);
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // Non-zero first index and an empty range.
  std::atomic<int> covered{0};
  pool.parallel_for(100, 200, [&](std::size_t i) {
    EXPECT_GE(i, 100u);
    EXPECT_LT(i, 200u);
    covered.fetch_add(1);
  });
  EXPECT_EQ(covered.load(), 100);
  pool.parallel_for(7, 7, [&](std::size_t) { FAIL() << "empty range ran"; });
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [](std::size_t i) {
                          if (i == 137) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool survives a failed loop and runs subsequent ones normally.
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  // Every outer iteration starts a full inner loop on the same pool; with
  // caller participation this completes even though the pool is saturated.
  ThreadPool pool{4};
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SingleThreadDegeneratesToInlineExecution) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  pool.parallel_for(0, 100, [&](std::size_t) {
    // Inline execution: no synchronization needed to mutate `seen`.
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPool, FirstIndexRunsOnTheCallingThread) {
  // The loop's first index always runs on the thread that called
  // parallel_for, also when that thread is itself a worker (nested loops).
  ThreadPool pool{4};
  for (int round = 0; round < 50; ++round) {
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> first_on_caller{false};
    pool.parallel_for(3, 40, [&](std::size_t i) {
      if (i == 3) first_on_caller = std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(first_on_caller.load()) << "round " << round;
  }
  std::atomic<int> nested_on_caller{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(0, 8, [&](std::size_t i) {
      if (i == 0 && std::this_thread::get_id() == outer)
        nested_on_caller.fetch_add(1);
    });
  });
  EXPECT_EQ(nested_on_caller.load(), 8);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  ThreadPool pool{4};
  const std::vector<std::size_t> out =
      pool.parallel_map(std::size_t{257}, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);

  // Vector overload, with a non-trivially-copyable result type.
  const std::vector<std::string> words{"alpha", "beta", "gamma", "delta"};
  const auto sizes =
      pool.parallel_map(words, [](const std::string& w) { return w + "!"; });
  ASSERT_EQ(sizes.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(sizes[i], words[i] + "!");
}

TEST(ThreadPool, ManyMoreTasksThanThreadsAndViceVersa) {
  ThreadPool big{8};
  std::atomic<int> count{0};
  big.parallel_for(0, 3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);

  ThreadPool two{2};
  count = 0;
  two.parallel_for(0, 5000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5000);
}

}  // namespace
}  // namespace irp
