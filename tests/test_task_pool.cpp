// Unit + stress tests of util::TaskPool: the work-stealing substrate under
// every parallel region. Structure-level properties only — the bit-exact
// determinism of the tree pipeline built on top is test_parallel.cpp's job.
// The whole file runs under -DHOTLIB_SANITIZE=thread via the `tsan` ctest
// label (scripts/tsan.sh).
#include "util/task_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using hotlib::util::TaskPool;

TEST(TaskPool, SingleLanePoolRunsInline) {
  TaskPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1);
  std::thread::id spawn_thread;
  TaskPool::Group g(pool);
  g.spawn([&] { spawn_thread = std::this_thread::get_id(); });
  // Inline execution: the task already ran inside spawn, on this thread.
  EXPECT_EQ(spawn_thread, std::this_thread::get_id());
  g.wait();
}

TEST(TaskPool, ConcurrencyClampsToOne) {
  TaskPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1);
  TaskPool pool2(-7);
  EXPECT_EQ(pool2.concurrency(), 1);
}

TEST(TaskPool, EmptyGroupWaitReturns) {
  TaskPool pool(4);
  TaskPool::Group g(pool);
  g.wait();  // nothing spawned: must not hang
}

TEST(TaskPool, EmptyParallelFor) {
  TaskPool pool(4);
  bool ran = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(TaskPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int lanes : {1, 2, 3, 8}) {
    TaskPool pool(lanes);
    for (std::size_t n : {1u, 7u, 64u, 1000u}) {
      for (std::size_t grain : {1u, 3u, 64u, 2000u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, grain, [&](std::size_t lo, std::size_t hi) {
          ASSERT_LE(lo, hi);
          ASSERT_LE(hi, n);
          for (std::size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1) << "lanes=" << lanes << " n=" << n
                                       << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(TaskPool, ChunkBoundariesIndependentOfLaneCount) {
  // The determinism contract leans on parallel_for splitting by (n, grain)
  // only. Record the chunk set at several lane counts and compare.
  const std::size_t n = 1003, grain = 17;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> per_lanes;
  for (int lanes : {1, 2, 5}) {
    TaskPool pool(lanes);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(n, grain, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    per_lanes.push_back(std::move(chunks));
  }
  EXPECT_EQ(per_lanes[0], per_lanes[1]);
  EXPECT_EQ(per_lanes[0], per_lanes[2]);
}

// Recursive divide-and-conquer with a Group per node: every level spawns two
// halves and waits on its own group only.
std::uint64_t recursive_sum(TaskPool& p, std::uint64_t lo, std::uint64_t hi) {
  if (hi - lo <= 64) {
    std::uint64_t s = 0;
    for (std::uint64_t i = lo; i < hi; ++i) s += i;
    return s;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  std::uint64_t left = 0, right = 0;
  TaskPool::Group g(p);
  g.spawn([&] { left = recursive_sum(p, lo, mid); });
  g.spawn([&] { right = recursive_sum(p, mid, hi); });
  g.wait();
  return left + right;
}

TEST(TaskPool, NestedSpawnRecursiveSum) {
  // Exercises workers waiting on groups while running their tasks (the
  // nested-wait path).
  TaskPool pool(4);
  const std::uint64_t n = 100000;
  EXPECT_EQ(recursive_sum(pool, 0, n), n * (n - 1) / 2);
}

TEST(TaskPool, NestedWaitsFromSeveralCallersFinish) {
  // Four recursive trees share one 4-lane pool, so every deque holds other
  // trees' tasks. Each wait still runs only its own group's tasks and still
  // finishes: a task of its group that is not queued is running on some
  // thread, and that thread finishes it.
  TaskPool pool(4);
  const std::uint64_t n = 50000;
  std::vector<std::uint64_t> sums(4, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 1; c < sums.size(); ++c)
    callers.emplace_back([&, c] { sums[c] = recursive_sum(pool, 0, n); });
  sums[0] = recursive_sum(pool, 0, n);
  for (std::thread& t : callers) t.join();
  for (const std::uint64_t s : sums) EXPECT_EQ(s, n * (n - 1) / 2);
}

TEST(TaskPool, WaitNeverRunsAnotherGroupsTask) {
  // One worker: group A's first task holds it on a latch, and A's second
  // task is queued ahead of B's. B's wait must run B's task on this thread
  // and return without running A's.
  TaskPool pool(2);
  std::latch a_running(1), release(1);
  std::atomic<bool> a_second_ran{false};
  TaskPool::Group a(pool);
  a.spawn([&] {
    a_running.count_down();
    release.wait();
  });
  a_running.wait();
  a.spawn([&] { a_second_ran.store(true); });
  std::thread::id b_ran_on;
  TaskPool::Group b(pool);
  b.spawn([&] { b_ran_on = std::this_thread::get_id(); });
  b.wait();
  EXPECT_FALSE(a_second_ran.load());
  EXPECT_EQ(b_ran_on, std::this_thread::get_id());
  release.count_down();
  a.wait();
  EXPECT_TRUE(a_second_ran.load());
}

TEST(TaskPool, RunOneRunsAQueuedTaskOfAnyGroup) {
  TaskPool inline_pool(1);
  EXPECT_FALSE(inline_pool.run_one());
  TaskPool::Group inline_group(inline_pool);
  inline_group.spawn([] {});  // ran inline: nothing is ever queued
  EXPECT_FALSE(inline_pool.run_one());
  inline_group.wait();

  TaskPool pool(2);
  EXPECT_FALSE(pool.run_one());  // idle pool
  std::latch running(1), release(1);
  TaskPool::Group g(pool);
  g.spawn([&] {
    running.count_down();
    release.wait();
  });
  running.wait();
  std::thread::id ran_on;
  g.spawn([&] { ran_on = std::this_thread::get_id(); });
  // This thread does not wait on g, yet run_one lends it to g's queued task.
  EXPECT_TRUE(pool.run_one());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_FALSE(pool.run_one());
  release.count_down();
  g.wait();
  const TaskPool::Stats st = pool.stats();
  EXPECT_EQ(st.lent_tasks, 1u);
  EXPECT_GE(st.lent_seconds, 0.0);
}

TEST(TaskPool, ExceptionPropagatesFromWait) {
  TaskPool pool(3);
  TaskPool::Group g(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    g.spawn([&ran, i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(g.wait(), std::runtime_error);
  // Sibling tasks still ran to completion; the pool survives.
  EXPECT_EQ(ran.load(), 15);
  TaskPool::Group g2(pool);
  g2.spawn([] {});
  g2.wait();  // usable after an exception
}

TEST(TaskPool, ExceptionFirstOneWins) {
  TaskPool pool(4);
  TaskPool::Group g(pool);
  for (int i = 0; i < 8; ++i)
    g.spawn([] { throw std::runtime_error("boom"); });
  // Exactly one is rethrown, the rest are dropped; wait must not terminate.
  EXPECT_THROW(g.wait(), std::runtime_error);
}

TEST(TaskPool, ExceptionInsideParallelFor) {
  TaskPool pool(2);
  EXPECT_THROW(pool.parallel_for(100, 10,
                                 [](std::size_t lo, std::size_t) {
                                   if (lo == 50) throw std::logic_error("chunk");
                                 }),
               std::logic_error);
}

TEST(TaskPool, GroupDestructorDrainsWithoutWait) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskPool::Group g(pool);
    for (int i = 0; i < 32; ++i)
      g.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): the destructor must drain (and would swallow errors).
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskPool, Oversubscription) {
  // Far more lanes than this machine has cores: everything still completes
  // and the stats add up. (The sleep/wake path gets heavy traffic here.)
  TaskPool pool(32);
  EXPECT_EQ(pool.concurrency(), 32);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(10000, 7, [&](std::size_t lo, std::size_t hi) {
    std::uint64_t s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += i;
    sum.fetch_add(s, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

TEST(TaskPool, StatsAccumulate) {
  TaskPool pool(4);
  const TaskPool::Stats before = pool.stats();
  pool.parallel_for(1000, 10, [](std::size_t, std::size_t) {});
  const TaskPool::Stats after = pool.stats();
  // The waiting caller runs queued chunks of its own group too, so workers
  // need not have run all 100 — but the totals never go backwards and busy
  // time is finite.
  EXPECT_GE(after.tasks_executed, before.tasks_executed);
  EXPECT_GE(after.steals, before.steals);
  EXPECT_GE(after.busy_seconds, before.busy_seconds);
}

TEST(TaskPool, CurrentWorkerIdsAreSaneAndStable) {
  TaskPool pool(4);
  // Caller is never a worker.
  EXPECT_EQ(TaskPool::current_worker(), -1);
  std::mutex mu;
  std::vector<int> seen;
  pool.parallel_for(256, 1, [&](std::size_t, std::size_t) {
    const int w = TaskPool::current_worker();
    std::lock_guard lock(mu);
    seen.push_back(w);
  });
  for (int w : seen) {
    EXPECT_GE(w, -1);
    EXPECT_LT(w, pool.concurrency() - 1);
  }
}

TEST(TaskPool, RandomizedWorkStealingStress) {
  // Randomized DAG of nested spawns with per-slot results: under TSan this
  // is the main race hunt over the deques, the injector and Group state.
  // The *work* is randomized; the checked invariant (every slot written
  // exactly once with its own value) is not.
  std::mt19937 rng(12345);
  for (int round = 0; round < 10; ++round) {
    TaskPool pool(2 + static_cast<int>(rng() % 6));
    const std::size_t ntasks = 64 + rng() % 512;
    std::vector<std::uint32_t> slot(ntasks, 0);
    std::vector<std::uint32_t> expect(ntasks);
    for (std::size_t i = 0; i < ntasks; ++i) expect[i] = rng();
    TaskPool::Group g(pool);
    for (std::size_t i = 0; i < ntasks; ++i) {
      const bool nested = (expect[i] % 3) == 0;
      g.spawn([&, i, nested] {
        if (nested) {
          TaskPool::Group inner(pool);
          inner.spawn([&, i] { slot[i] = expect[i]; });
          inner.wait();
        } else {
          slot[i] = expect[i];
        }
      });
    }
    g.wait();
    EXPECT_EQ(slot, expect) << "round " << round;
  }
}

TEST(TaskPool, EnvConcurrencyParsing) {
  const char* old = std::getenv("HOTLIB_THREADS");
  const std::string saved = old != nullptr ? old : "";
  setenv("HOTLIB_THREADS", "3", 1);
  EXPECT_EQ(TaskPool::env_concurrency(), 3);
  setenv("HOTLIB_THREADS", "0", 1);  // invalid: fall back to hardware
  EXPECT_GE(TaskPool::env_concurrency(), 1);
  setenv("HOTLIB_THREADS", "garbage", 1);
  EXPECT_GE(TaskPool::env_concurrency(), 1);
  setenv("HOTLIB_THREADS", "99999", 1);  // clamped
  EXPECT_EQ(TaskPool::env_concurrency(), 512);
  if (old != nullptr)
    setenv("HOTLIB_THREADS", saved.c_str(), 1);
  else
    unsetenv("HOTLIB_THREADS");
}

TEST(TaskPool, SetGlobalConcurrencySwapsPool) {
  hotlib::util::TaskPool::set_global_concurrency(2);
  EXPECT_EQ(TaskPool::global().concurrency(), 2);
  EXPECT_EQ(TaskPool::global_if_created(), &TaskPool::global());
  hotlib::util::TaskPool::set_global_concurrency(1);
  EXPECT_EQ(TaskPool::global().concurrency(), 1);
}

}  // namespace
