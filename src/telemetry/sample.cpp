#include "telemetry/sample.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#include "util/task_pool.hpp"

#if __has_include(<malloc.h>)
#include <malloc.h>
#define HOTLIB_HAVE_MALLOC_USABLE_SIZE 1
#endif

namespace hotlib::telemetry {

namespace {

// Process-wide memory accounting, maintained by the replaced operator
// new/delete below. Signed: after mem_gauge_reset() a free of a block
// allocated before the reset drives `live` below zero; the gauge clamps.
std::atomic<std::int64_t> g_mem_live{0};
std::atomic<std::int64_t> g_mem_peak{0};

inline void mem_track(std::int64_t bytes) {
  const std::int64_t live =
      g_mem_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (bytes <= 0) return;
  std::int64_t peak = g_mem_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_mem_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

inline std::int64_t block_size(void* p, std::size_t requested) {
#ifdef HOTLIB_HAVE_MALLOC_USABLE_SIZE
  // Usable size is recoverable from the pointer alone, so unsized deletes
  // stay exact; the requested size is only a fallback.
  (void)requested;
  return static_cast<std::int64_t>(malloc_usable_size(p));
#else
  (void)p;
  return static_cast<std::int64_t>(requested);
#endif
}

// The process-global gauges — heap bytes and task-pool utilization — read
// from their live sources; each is passed to store(gauge, value). The pool
// gauges only if a pool exists: peeking must not spawn worker threads as a
// side effect of being sampled.
template <class Store>
void read_process_gauges(Store&& store) {
  store(Gauge::kMemLiveBytes, static_cast<double>(mem_live_bytes()));
  store(Gauge::kMemPeakBytes, static_cast<double>(mem_peak_bytes()));
  if (const util::TaskPool* pool = util::TaskPool::global_if_created()) {
    const util::TaskPool::Stats ps = pool->stats();
    store(Gauge::kPoolWorkers, static_cast<double>(pool->concurrency() - 1));
    store(Gauge::kPoolTasksRun, static_cast<double>(ps.tasks_executed));
    store(Gauge::kPoolSteals, static_cast<double>(ps.steals));
    store(Gauge::kPoolBusySeconds, ps.busy_seconds);
    store(Gauge::kPoolLentTasks, static_cast<double>(ps.lent_tasks));
    store(Gauge::kPoolLentSeconds, ps.lent_seconds);
  }
}

}  // namespace

// Gauge writes follow a seqlock protocol: the channel's gauge_seq_ is odd
// while the owning thread is mid-update, and every value store is a relaxed
// atomic so a concurrent gauges_snapshot() (the live metrics scrape) is
// well-defined and TSan-clean. Only the owner writes, so gauge_add's
// read-modify needs no atomicity of its own.

void gauge_set(Gauge g, double v) {
  RankChannel* ch = channel();
  if (ch == nullptr) return;
  ch->gauge_seq_.fetch_add(1, std::memory_order_release);
  std::atomic_ref<double>(ch->gauges_[static_cast<std::size_t>(static_cast<int>(g))])
      .store(v, std::memory_order_relaxed);
  ch->gauge_seq_.fetch_add(1, std::memory_order_release);
}

void gauge_add(Gauge g, double dv) {
  RankChannel* ch = channel();
  if (ch == nullptr) return;
  const double v = ch->gauge(g) + dv;
  ch->gauge_seq_.fetch_add(1, std::memory_order_release);
  std::atomic_ref<double>(ch->gauges_[static_cast<std::size_t>(static_cast<int>(g))])
      .store(v, std::memory_order_relaxed);
  ch->gauge_seq_.fetch_add(1, std::memory_order_release);
}

bool sample_tick() {
  if (!enabled()) return false;
  RankChannel* ch = channel();
  if (ch == nullptr) return false;
  ++ch->tick_;
  return ch->tick_ % ch->sample_stride_ == 0;
}

void sample_now() {
  if (!enabled()) return;
  RankChannel* ch = channel();
  if (ch == nullptr) return;
  // One seqlock write section covers every gauge refreshed here, so a
  // concurrent scrape sees either the whole refresh or none of it.
  const auto store = [ch](Gauge g, double v) {
    std::atomic_ref<double>(
        ch->gauges_[static_cast<std::size_t>(static_cast<int>(g))])
        .store(v, std::memory_order_relaxed);
  };
  ch->gauge_seq_.fetch_add(1, std::memory_order_release);
  read_process_gauges(store);
  ch->gauge_seq_.fetch_add(1, std::memory_order_release);
  HealthSample s;
  s.tick = ch->tick_;
  s.wall = Registry::instance().now();
  s.virt = ch->vclock();
  s.gauges = ch->gauges_;
  if (ch->samples_.size() >= ch->sample_capacity_ && ch->sample_capacity_ >= 2) {
    // Ring full: decimate (keep every other sample) and double the stride so
    // the remaining budget still covers the rest of the run uniformly.
    std::size_t w = 0;
    for (std::size_t r = 0; r < ch->samples_.size(); r += 2)
      ch->samples_[w++] = ch->samples_[r];
    ch->samples_.resize(w);
    ch->sample_stride_ *= 2;
  }
  ch->samples_.push_back(s);
}

std::array<double, kGaugeCount> global_gauges_snapshot() {
  std::array<double, kGaugeCount> total{};
  for (const RankChannel* ch : Registry::instance().channels()) {
    std::array<double, kGaugeCount> one{};
    ch->gauges_snapshot(one);
    for (int g = 0; g < kGaugeCount; ++g)
      total[static_cast<std::size_t>(g)] += one[static_cast<std::size_t>(g)];
  }
  // Process-global slots: every channel mirrors these via sample_now(), so a
  // sum would double-count and a per-channel read could be stale. Overwrite
  // them from the live sources instead.
  read_process_gauges([&total](Gauge g, double v) {
    total[static_cast<std::size_t>(static_cast<int>(g))] = v;
  });
  return total;
}

void mem_gauge_reset() {
  g_mem_live.store(0, std::memory_order_relaxed);
  g_mem_peak.store(0, std::memory_order_relaxed);
}

std::uint64_t mem_live_bytes() {
  const std::int64_t v = g_mem_live.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

std::uint64_t mem_peak_bytes() {
  const std::int64_t v = g_mem_peak.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace hotlib::telemetry

// ---- replaced global allocation functions ----------------------------------
//
// Linked into every binary that uses the telemetry library. The accounting
// is two relaxed atomic adds on top of the allocator's own cost; the
// alignment-taking overloads are left to the default implementation (their
// traffic goes uncounted, which a health gauge can afford).

namespace {

void* counted_new(std::size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  hotlib::telemetry::mem_track(hotlib::telemetry::block_size(p, n));
  return p;
}

void* counted_new_nothrow(std::size_t n) noexcept {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p != nullptr)
    hotlib::telemetry::mem_track(hotlib::telemetry::block_size(p, n));
  return p;
}

void counted_delete(void* p, std::size_t requested) noexcept {
  if (p == nullptr) return;
  hotlib::telemetry::mem_track(-hotlib::telemetry::block_size(p, requested));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n);
}
void operator delete(void* p) noexcept { counted_delete(p, 0); }
void operator delete[](void* p) noexcept { counted_delete(p, 0); }
void operator delete(void* p, std::size_t n) noexcept { counted_delete(p, n); }
void operator delete[](void* p, std::size_t n) noexcept { counted_delete(p, n); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p, 0); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p, 0); }
