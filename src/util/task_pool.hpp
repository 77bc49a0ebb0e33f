// task_pool.hpp — shared-memory task parallelism with work-stealing deques.
//
// One pool owns `concurrency - 1` worker threads; the thread that submits
// work is the remaining lane, so TaskPool(1) runs everything inline and the
// serial build stays the serial build. Each worker keeps a deque: the owner
// pushes and pops at the back (LIFO, so nested spawns run depth-first and
// stay cache-hot), thieves take from the front (FIFO, so a thief grabs the
// biggest remaining subtree). Deques are mutex-guarded rather than lock-free
// — contention is one uncontended lock per task at the grain sizes the tree
// code uses, and every handoff is a visible happens-before edge under
// ThreadSanitizer instead of a proof obligation.
//
// Determinism contract (what lets HOTLIB_THREADS vary without changing a
// single bit of output): the pool never decides *what* work exists or *how*
// it is split — callers partition by data (key ranges, sink groups) — it
// only decides *where* each task runs. Tasks therefore must write to
// disjoint outputs and accumulate order-sensitive values (floating-point
// sums) only within their own partition; cross-task reductions are done by
// the caller in partition order after wait(). Steal order affects timing
// only.
//
// The pool is telemetry-free by construction (util sits below telemetry in
// the link order); consumers attach worker channels from inside their task
// bodies via telemetry::ensure_worker().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hotlib::util {

class TaskPool {
 public:
  // Lifetime totals across all workers (relaxed counters; exact once the
  // pool is quiescent, e.g. after a Group::wait).
  struct Stats {
    std::uint64_t tasks_executed = 0;  // tasks run on worker threads
    std::uint64_t steals = 0;          // tasks taken from another lane's deque
    double busy_seconds = 0.0;         // summed worker time spent inside tasks
    std::uint64_t lent_tasks = 0;      // tasks run by run_one() callers
    double lent_seconds = 0.0;         // summed time of those tasks
  };

  // `concurrency` lanes total: concurrency-1 worker threads plus the caller.
  // Values < 1 clamp to 1 (no threads, everything inline).
  explicit TaskPool(int concurrency);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int concurrency() const { return static_cast<int>(workers_.size()) + 1; }
  Stats stats() const;

  // A join scope: spawn any number of tasks, then wait() once. wait() runs
  // the group's own queued tasks on the calling thread instead of blocking,
  // and never another group's: a 4-point query's wait cannot end up running
  // a simulation step's chunks. Nested groups (a task that spawns and waits
  // on subtasks) still cannot deadlock the pool: a task of the waited group
  // that is not queued is running on some thread, which finishes it — its
  // own nested waits bottom out the same way. The first exception thrown by
  // any task is captured and rethrown from wait(); remaining tasks still run
  // to completion. The destructor waits (and swallows the exception) if
  // wait() was never called.
  class Group {
   public:
    explicit Group(TaskPool& pool) : pool_(pool) {}
    ~Group();
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    void spawn(std::function<void()> fn);
    void wait();

   private:
    friend class TaskPool;
    TaskPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex done_mu_;
    std::condition_variable done_cv_;
    std::mutex err_mu_;
    std::exception_ptr err_;
    bool waited_ = false;
  };

  // Split [0, n) into `grain`-sized chunks and run f(lo, hi) on each. Runs
  // inline when the pool has one lane or only one chunk results. The chunk
  // boundaries depend only on (n, grain) — never on the thread count — so a
  // caller that keeps per-chunk state deterministic gets bit-identical
  // results at every HOTLIB_THREADS.
  template <class F>
  void parallel_for(std::size_t n, std::size_t grain, F&& f) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t nchunks = (n + grain - 1) / grain;
    if (nchunks <= 1) {
      f(std::size_t{0}, n);
      return;
    }
    // Chunk boundaries depend on (n, grain) ONLY — never on lane count.
    // The serial path below walks the exact same chunks the parallel path
    // spawns, so callbacks that care about chunk extents (none should, but
    // the determinism tests check it) see identical splits at any size pool.
    if (concurrency() == 1) {
      for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t lo = c * grain;
        const std::size_t hi = lo + grain < n ? lo + grain : n;
        f(lo, hi);
      }
      return;
    }
    Group g(*this);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * grain;
      const std::size_t hi = lo + grain < n ? lo + grain : n;
      g.spawn([&f, lo, hi] { f(lo, hi); });
    }
    g.wait();
  }

  // Run one queued task of any group on the calling thread; false when
  // nothing is queued (always, on a one-lane pool, which runs tasks inline).
  // This is how a thread with nothing of its own to do lends itself to the
  // pool — the serve pump calls it when idle — and the only way a thread
  // outside the worker loop runs another group's task. Lent tasks count in
  // Stats::lent_tasks / lent_seconds, not in the worker totals.
  bool run_one();

  // Worker index of the calling thread in its pool: 0..concurrency-2 for
  // pool workers, -1 for every other thread (including the submitting
  // caller). Stable per thread for the pool's lifetime.
  static int current_worker();

  // Process-wide pool, sized from HOTLIB_THREADS (default: hardware
  // concurrency) on first use. global_if_created() peeks without creating —
  // telemetry sampling uses it so a serial run never spawns threads as a
  // side effect of being observed.
  static TaskPool& global();
  static TaskPool* global_if_created();
  // Replace the global pool (waits for the old one's workers to finish).
  // `concurrency` < 1 re-reads HOTLIB_THREADS. Callers must be quiescent —
  // this exists for the determinism sweep in tests and the bench --threads
  // sweep, both of which own the whole process. A running
  // serve::SimulationService is never quiescent: its idle pump lends itself
  // to the global pool, so stop the service first.
  static void set_global_concurrency(int concurrency);
  // HOTLIB_THREADS parsed and clamped to [1, 512]; hardware concurrency
  // when unset or unparsable.
  static int env_concurrency();

 private:
  struct Lane;
  // A queued task remembers its group, so a wait can pick out its own.
  struct Task {
    Group* group = nullptr;
    std::function<void()> fn;
  };

  void worker_loop(int index);
  // Take a queued task: the back of the caller's own deque, then the front
  // of the injector, then the front of the other lanes. `only` restricts
  // the search to one group's tasks; nullptr takes any. self = -1 for
  // external threads.
  bool try_pop(int self, const Group* only, Task& out);
  void submit(Task t);
  void help_while(Group& g);

  std::vector<std::unique_ptr<Lane>> workers_;
  std::vector<std::thread> threads_;

  std::deque<Task> inject_;  // submissions from non-worker threads
  mutable std::mutex inject_mu_;

  std::condition_variable wake_cv_;
  std::mutex wake_mu_;
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> lent_run_{0};
  std::atomic<std::uint64_t> lent_ns_{0};
};

}  // namespace hotlib::util
