#include "util/task_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>

namespace hotlib::util {

namespace {

// Identity of the calling thread: which pool's worker it is (if any). Set
// once per worker thread at spawn and never changed, so current_worker() is
// a plain thread-local read.
thread_local TaskPool* t_pool = nullptr;
thread_local int t_worker = -1;

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

}  // namespace

// One worker's deque. The owner pushes/pops at the back under the lane
// mutex; thieves (other workers, run_one() callers, or a waiter looking for
// its own group's tasks) take from the front. A mutex per lane keeps the
// handoff a locked edge that ThreadSanitizer can verify, and at tree-code
// grain sizes the lock is almost always uncontended.
struct TaskPool::Lane {
  std::mutex mu;
  std::deque<Task> dq;
};

TaskPool::TaskPool(int concurrency) {
  const int lanes = std::max(1, concurrency);
  const int nworkers = lanes - 1;
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int i = 0; i < nworkers; ++i) workers_.push_back(std::make_unique<Lane>());
  threads_.reserve(static_cast<std::size_t>(nworkers));
  for (int i = 0; i < nworkers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Pair with the workers' locked wait so the stop flag cannot slip into
    // the window between their predicate check and their sleep.
    std::lock_guard lock(wake_mu_);
  }
  wake_cv_.notify_all();
  for (std::thread& th : threads_) th.join();
}

TaskPool::Stats TaskPool::stats() const {
  Stats s;
  s.tasks_executed = tasks_run_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  s.lent_tasks = lent_run_.load(std::memory_order_relaxed);
  s.lent_seconds =
      static_cast<double>(lent_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

int TaskPool::current_worker() { return t_worker; }

void TaskPool::submit(Task t) {
  if (workers_.empty()) {
    // Single-lane pool: run inline. The Group wrapper around every task
    // still does its bookkeeping, so spawn/wait semantics are unchanged.
    t.fn();
    return;
  }
  if (t_pool == this && t_worker >= 0) {
    Lane& lane = *workers_[static_cast<std::size_t>(t_worker)];
    std::lock_guard lock(lane.mu);
    lane.dq.push_back(std::move(t));
  } else {
    std::lock_guard lock(inject_mu_);
    inject_.push_back(std::move(t));
  }
  wake_cv_.notify_one();
}

bool TaskPool::try_pop(int self, const Group* only, Task& out) {
  const auto wanted = [only](const Task& t) { return only == nullptr || t.group == only; };
  const auto take_back = [&](std::deque<Task>& dq) {
    const auto it = std::find_if(dq.rbegin(), dq.rend(), wanted);
    if (it == dq.rend()) return false;
    out = std::move(*it);
    dq.erase(std::next(it).base());
    return true;
  };
  const auto take_front = [&](std::deque<Task>& dq) {
    const auto it = std::find_if(dq.begin(), dq.end(), wanted);
    if (it == dq.end()) return false;
    out = std::move(*it);
    dq.erase(it);
    return true;
  };
  const int nworkers = static_cast<int>(workers_.size());
  if (self >= 0) {
    Lane& lane = *workers_[static_cast<std::size_t>(self)];
    std::lock_guard lock(lane.mu);
    if (take_back(lane.dq)) return true;
  }
  {
    std::lock_guard lock(inject_mu_);
    if (take_front(inject_)) return true;
  }
  for (int k = 0; k < nworkers; ++k) {
    const int victim = self >= 0 ? (self + 1 + k) % nworkers : k;
    if (victim == self) continue;
    Lane& lane = *workers_[static_cast<std::size_t>(victim)];
    std::lock_guard lock(lane.mu);
    if (take_front(lane.dq)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void TaskPool::worker_loop(int index) {
  t_pool = this;
  t_worker = index;
  Task t;
  int idle_spins = 0;
  while (true) {
    if (try_pop(index, nullptr, t)) {
      idle_spins = 0;
      const auto t0 = std::chrono::steady_clock::now();
      t.fn();  // exceptions are caught by the Group wrapper around every task
      t.fn = nullptr;
      busy_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock lock(wake_mu_);
    if (stop_.load(std::memory_order_acquire)) break;
    // Bounded wait instead of a bare wait: a notify that raced past the
    // predicate check costs at most one period, never a hang.
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void TaskPool::help_while(Group& g) {
  const int self = (t_pool == this) ? t_worker : -1;
  Task t;
  while (g.pending_.load(std::memory_order_acquire) != 0) {
    // Only g's own tasks: a wait never runs work it is not waiting for.
    // When none is queued, every unfinished task of g is running on some
    // thread that will finish it, so sleeping here cannot deadlock.
    if (try_pop(self, &g, t)) {
      t.fn();
      t.fn = nullptr;
      continue;
    }
    std::unique_lock lock(g.done_mu_);
    g.done_cv_.wait_for(lock, std::chrono::microseconds(200), [&] {
      return g.pending_.load(std::memory_order_acquire) == 0;
    });
  }
  // The last task decrements pending and notifies while holding done_mu_.
  // Taking the lock once more after seeing zero guarantees that task has
  // released the mutex — only then may the caller destroy the Group.
  std::lock_guard lock(g.done_mu_);
}

bool TaskPool::run_one() {
  Task t;
  if (!try_pop(t_pool == this ? t_worker : -1, nullptr, t)) return false;
  const auto t0 = std::chrono::steady_clock::now();
  t.fn();
  lent_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
  lent_run_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

TaskPool::Group::~Group() {
  if (!waited_) pool_.help_while(*this);  // drain; any stored error is dropped
}

void TaskPool::Group::spawn(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit({this, [this, fn = std::move(fn)]() mutable {
    try {
      fn();
    } catch (...) {
      std::lock_guard lock(err_mu_);
      if (!err_) err_ = std::current_exception();
    }
    // Decrement-to-zero happens under done_mu_, and help_while re-acquires
    // done_mu_ once after observing zero: the waiter cannot destroy the
    // Group until this wrapper has released the mutex, so the notify never
    // touches a dead condition variable.
    std::lock_guard lock(done_mu_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      done_cv_.notify_all();
  }});
}

void TaskPool::Group::wait() {
  waited_ = true;
  pool_.help_while(*this);
  std::exception_ptr e;
  {
    std::lock_guard lock(err_mu_);
    e = err_;
    err_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<TaskPool> g_global_owner;
std::atomic<TaskPool*> g_global{nullptr};

}  // namespace

int TaskPool::env_concurrency() {
  if (const char* v = std::getenv("HOTLIB_THREADS"); v != nullptr && v[0] != '\0') {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end != v && *end == '\0' && n >= 1)
      return static_cast<int>(std::min(n, 512L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 512u));
}

TaskPool& TaskPool::global() {
  if (TaskPool* p = g_global.load(std::memory_order_acquire); p != nullptr)
    return *p;
  std::lock_guard lock(g_global_mu);
  if (g_global_owner == nullptr) {
    g_global_owner = std::make_unique<TaskPool>(env_concurrency());
    g_global.store(g_global_owner.get(), std::memory_order_release);
  }
  return *g_global_owner;
}

TaskPool* TaskPool::global_if_created() {
  return g_global.load(std::memory_order_acquire);
}

void TaskPool::set_global_concurrency(int concurrency) {
  std::lock_guard lock(g_global_mu);
  g_global.store(nullptr, std::memory_order_release);
  g_global_owner.reset();  // joins the old workers
  g_global_owner =
      std::make_unique<TaskPool>(concurrency < 1 ? env_concurrency() : concurrency);
  g_global.store(g_global_owner.get(), std::memory_order_release);
}

}  // namespace hotlib::util
