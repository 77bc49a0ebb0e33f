// bench_kernels — google-benchmark microbenchmarks of the computational
// kernels the paper's rates rest on: the Karp reciprocal square root
// ("table lookup, Chebychev polynomial interpolation, and Newton-Raphson
// iteration ... 38 floating point operations per interaction"), the
// particle-particle and particle-cell interactions, Morton key generation,
// the key -> cell hash table, and tree construction. Also carries the design
// ablations: monopole vs quadrupole cell kernels, hash table sizes and
// tree bucket sizes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "gravity/batch.hpp"
#include "gravity/evaluator.hpp"
#include "gravity/kernels.hpp"
#include "gravity/models.hpp"
#include "hot/key_hash_table.hpp"
#include "hot/tree.hpp"
#include "morton/key.hpp"
#include "telemetry/report.hpp"
#include "telemetry/sample.hpp"
#include "util/rng.hpp"

using namespace hotlib;

namespace {

void BM_KarpRsqrt(benchmark::State& state) {
  Xoshiro256ss rng(1);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = std::exp(rng.uniform(-10, 10));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gravity::karp_rsqrt(xs[i++ & 4095]));
  }
}
BENCHMARK(BM_KarpRsqrt);

void BM_KarpRsqrtTable(benchmark::State& state) {
  static const gravity::KarpRsqrtTable table;
  Xoshiro256ss rng(1);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = std::exp(rng.uniform(-10, 10));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table(xs[i++ & 4095]));
  }
}
BENCHMARK(BM_KarpRsqrtTable);

void BM_HardwareRsqrt(benchmark::State& state) {
  Xoshiro256ss rng(1);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = std::exp(rng.uniform(-10, 10));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(1.0 / std::sqrt(xs[i++ & 4095]));
  }
}
BENCHMARK(BM_HardwareRsqrt);

void BM_PPInteraction(benchmark::State& state) {
  Xoshiro256ss rng(2);
  const Vec3d xi = rng.in_cube();
  std::vector<Vec3d> sources(1024);
  for (auto& s : sources) s = rng.in_cube();
  Vec3d acc{};
  double pot = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    gravity::pp_accumulate(xi, sources[i++ & 1023], 0.001, 1e-4, acc, pot);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops/s"] = benchmark::Counter(
      38.0 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PPInteraction);

void BM_PCInteraction(benchmark::State& state) {
  const bool quad = state.range(0) != 0;
  Xoshiro256ss rng(3);
  hot::Cell c;
  c.com = {0.5, 0.5, 0.5};
  c.mass = 1.0;
  c.quad = {0.1, 0.02, -0.01, -0.05, 0.03, -0.05};
  std::vector<Vec3d> sinks(1024);
  for (auto& s : sinks) s = rng.in_cube() + Vec3d{2, 2, 2};
  Vec3d acc{};
  double pot = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    gravity::pc_accumulate(sinks[i++ & 1023], c, quad, 1e-4, acc, pot);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PCInteraction)->Arg(0)->Arg(1)->ArgName("quad");

// Whole-list evaluation, one sink against n sources: mode 0 is the per-pair
// kernel called source by source (the pre-batch shape), mode 1 the batched
// scalar kernel, mode 2 the batched AVX2 kernel. All three perform the same
// tallied work (n interactions, 38 flops each); the flops/s column is the
// scalar-vs-batched-vs-SIMD comparison.
void BM_BatchPP(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  if (mode == 2 && !gravity::batch_avx2_available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  Xoshiro256ss rng(2);
  const Vec3d xi = rng.in_cube() + Vec3d{2, 2, 2};
  gravity::InteractionBatch batch;
  batch.resize(n, 0, false);
  std::vector<Vec3d> pos(n);
  std::vector<double> mass(n);
  for (std::size_t j = 0; j < n; ++j) {
    pos[j] = rng.in_cube();
    mass[j] = 0.001;
    batch.set_body(j, pos[j], mass[j]);
  }
  const double eps2 = 1e-4;
  const gravity::BatchPath prev = gravity::batch_path();
  if (mode == 1) gravity::force_batch_path(gravity::BatchPath::kScalar);
  if (mode == 2) gravity::force_batch_path(gravity::BatchPath::kAvx2);
  for (auto _ : state) {
    Vec3d acc{};
    double pot = 0;
    if (mode == 0) {
      for (std::size_t j = 0; j < n; ++j)
        gravity::pp_accumulate(xi, pos[j], mass[j], eps2, acc, pot);
    } else {
      gravity::batch_pp(batch, xi, eps2, gravity::kNoSelf, acc, pot);
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(pot);
  }
  gravity::force_batch_path(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["interactions"] = static_cast<double>(n);
  state.counters["flops/s"] = benchmark::Counter(
      38.0 * static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchPP)
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Args({2, 1024})
    ->Args({0, 16384})
    ->Args({1, 16384})
    ->Args({2, 16384})
    ->ArgNames({"mode", "n"});

void BM_BatchPC(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const bool quad = state.range(1) != 0;
  const std::size_t n = 1024;
  if (mode == 2 && !gravity::batch_avx2_available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  Xoshiro256ss rng(3);
  const Vec3d xi = rng.in_cube() + Vec3d{2, 2, 2};
  gravity::InteractionBatch batch;
  batch.resize(0, n, quad);
  std::vector<Vec3d> com(n);
  std::vector<double> mass(n);
  std::vector<std::array<double, 6>> quads(n);
  for (std::size_t j = 0; j < n; ++j) {
    com[j] = rng.in_cube();
    mass[j] = 1.0;
    quads[j] = {0.1, 0.02, -0.01, -0.05, 0.03, -0.05};
    batch.set_cell(j, com[j], mass[j], quads[j]);
  }
  const double eps2 = 1e-4;
  const gravity::BatchPath prev = gravity::batch_path();
  if (mode == 1) gravity::force_batch_path(gravity::BatchPath::kScalar);
  if (mode == 2) gravity::force_batch_path(gravity::BatchPath::kAvx2);
  for (auto _ : state) {
    Vec3d acc{};
    double pot = 0;
    if (mode == 0) {
      for (std::size_t j = 0; j < n; ++j)
        gravity::pc_accumulate(xi, com[j], mass[j], quads[j], quad, eps2, acc, pot);
    } else {
      gravity::batch_pc(batch, xi, eps2, acc, pot);
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(pot);
  }
  gravity::force_batch_path(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchPC)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->ArgNames({"mode", "quad"});

void BM_MortonKey(benchmark::State& state) {
  Xoshiro256ss rng(4);
  std::vector<Vec3d> pts(4096);
  for (auto& p : pts) p = rng.in_cube();
  const morton::Domain d{};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(morton::key_from_position(pts[i++ & 4095], d));
  }
}
BENCHMARK(BM_MortonKey);

void BM_HashInsertFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(5);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next() | 1;
  for (auto _ : state) {
    const hot::KeyHashTable h(n, [&](std::size_t i) { return keys[i]; });
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc ^= h.find(keys[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_HashInsertFind)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_TreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int bucket = static_cast<int>(state.range(1));
  auto b = gravity::plummer_sphere(n, 11);
  const auto domain = gravity::fit_domain(b);
  for (auto _ : state) {
    hot::Tree tree;
    tree.build(b.pos, b.mass, domain, {.bucket_size = bucket});
    benchmark::DoNotOptimize(tree.cells().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TreeBuild)
    ->Args({10000, 8})
    ->Args({10000, 16})
    ->Args({10000, 64})
    ->Args({50000, 16})
    ->ArgNames({"n", "bucket"});

void BM_TreeForces(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double theta = static_cast<double>(state.range(1)) / 100.0;
  auto b = gravity::plummer_sphere(n, 12);
  const auto domain = gravity::fit_domain(b);
  hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});
  gravity::TreeForceConfig cfg{.mac = hot::Mac{.theta = theta}, .softening = 0.02};
  InteractionTally last;
  for (auto _ : state) {
    b.clear_forces();
    last = gravity::tree_forces(tree, b.pos, b.mass, cfg, b.acc, b.pot);
    benchmark::DoNotOptimize(b.acc.data());
  }
  state.counters["interactions"] =
      static_cast<double>(last.interactions());
  state.counters["flops/s"] = benchmark::Counter(
      last.flops() * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TreeForces)
    ->Args({10000, 35})
    ->Args({10000, 60})
    ->ArgNames({"n", "theta_x100"});

}  // namespace

// Expanded BENCHMARK_MAIN() so a telemetry::Session wraps the run (writing
// BENCH_kernels.json) and HOTLIB_BENCH_TINY can restrict the suite to two
// fast kernels, timed briefly, for the perf gate.
int main(int argc, char** argv) {
  // --print-kernel-path: report the dispatch decision (after HOTLIB_SIMD and
  // CPUID) and exit; update_baselines.sh stamps this into the baselines.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-kernel-path") == 0) {
      std::puts(gravity::batch_path_name());
      return 0;
    }
  }
  telemetry::Session session("kernels");
  // A tiny run times each kernel for 10 ms instead of the default 0.5 s.
  std::vector<char*> args(argv, argv + argc);
  char brief[] = "--benchmark_min_time=0.01";
  if (telemetry::tiny_run()) args.push_back(brief);
  argc = static_cast<int>(args.size());
  benchmark::Initialize(&argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc, args.data())) return 1;
  if (telemetry::tiny_run())
    benchmark::RunSpecifiedBenchmarks("BM_KarpRsqrt$|BM_MortonKey$");
  else
    benchmark::RunSpecifiedBenchmarks();
  telemetry::sample_now();  // snapshot peak memory / tree gauges of the suite
  benchmark::Shutdown();
  return 0;
}
