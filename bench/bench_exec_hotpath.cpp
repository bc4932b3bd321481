// HOT — the executor hot-path microbench. Prints the "hot" artifact
// (dense flat-staging executor, its SIMD-kernel variant, and the
// retained hash-map baseline, with every deterministic field asserted
// equal), serializes the measured throughputs as metrics_hot.json,
// then runs google-benchmark kernels for the same full-volume
// executions — scalar and SIMD side by side, plus the SIMD build with
// the vector path forced off (the `simd_off` kernels) so one report
// separates "concrete kernel instead of std::function" from "vector
// row kernel" gains. A Release run's --benchmark_out is committed as
// bench/BENCH_exec_hotpath.json — the perf trajectory baseline; the
// acceptance bars are dense >= 3x hashmap and simd >= 2x dense
// vertices/sec on exec_d1_w512 (doc/PERF.md).
#include "bench_common.hpp"
#include "sep/simd.hpp"
#include "tables/hotpath.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

namespace {

/// The mix guest, carrying its sep::MixKernel.
template <int D>
sep::Guest<D> hot_guest(std::array<std::int64_t, D> extent,
                        std::int64_t horizon, std::int64_t m) {
  return workload::make_mix_guest<D>(extent, horizon, m, 7);
}

/// The same guest with its rule behind a sep::FunctionKernel: the
/// type-erased scalar path (one std::function call per vertex) that
/// the dense and hashmap kernels measure.
template <int D>
sep::Guest<D> erased_guest(std::array<std::int64_t, D> extent,
                           std::int64_t horizon, std::int64_t m) {
  auto g = hot_guest<D>(extent, horizon, m);
  g.rule = sep::type_erased(g.rule);
  return g;
}

template <int D>
void bm_dense(benchmark::State& state, std::array<std::int64_t, D> extent,
              std::int64_t horizon, std::int64_t m) {
  auto g = erased_guest<D>(extent, horizon, m);
  std::int64_t vertices = 0;
  for (auto _ : state) {
    sep::StagingStore<D> staging(&g.stencil);
    auto s = tables::hotpath::run_dense<D>(g, staging);
    vertices = s.vertices;
    benchmark::DoNotOptimize(s.total_cost);
  }
  state.counters["vertices_per_sec"] =
      benchmark::Counter(static_cast<double>(vertices),
                         benchmark::Counter::kIsIterationInvariantRate);
}

template <int D>
void bm_hashmap(benchmark::State& state, std::array<std::int64_t, D> extent,
                std::int64_t horizon, std::int64_t m) {
  auto g = erased_guest<D>(extent, horizon, m);
  std::int64_t vertices = 0;
  for (auto _ : state) {
    sep::ValueMap<D> staging;
    auto s = tables::hotpath::run_hashmap<D>(g, staging);
    vertices = s.vertices;
    benchmark::DoNotOptimize(s.total_cost);
  }
  state.counters["vertices_per_sec"] =
      benchmark::Counter(static_cast<double>(vertices),
                         benchmark::Counter::kIsIterationInvariantRate);
}

/// The kernel run: run_dense on the guest carrying its MixKernel, the
/// vector leaf path forced on or off around the timed loop (saved and
/// restored so bench order cannot leak state).
template <int D>
void bm_simd(benchmark::State& state, std::array<std::int64_t, D> extent,
             std::int64_t horizon, std::int64_t m, bool vector_path) {
  auto g = hot_guest<D>(extent, horizon, m);
  const bool saved = sep::simd::enabled();
  sep::simd::set_enabled(vector_path);
  std::int64_t vertices = 0;
  std::int64_t row_leaves = 0;
  for (auto _ : state) {
    sep::StagingStore<D> staging(&g.stencil);
    auto s = tables::hotpath::run_dense<D>(g, staging);
    vertices = s.vertices;
    row_leaves = s.row_leaves;
    benchmark::DoNotOptimize(s.total_cost);
  }
  // Labelled as the "hot" emitter reports it: the row path's ISA, or
  // "scalar" when no leaf took the row path.
  state.SetLabel(row_leaves > 0 ? sep::simd::active_isa() : "scalar");
  sep::simd::set_enabled(saved);
  state.counters["vertices_per_sec"] =
      benchmark::Counter(static_cast<double>(vertices),
                         benchmark::Counter::kIsIterationInvariantRate);
}

// The d1_w512 kernels run the 512x512 volume at message delay m = 128
// (leaf_width = m keeps Theorem-3 executable diamonds): wide leaf rows
// are where the row kernel earns its keep, and the simd >= 2x dense
// bar is set on this config. The conformance "hot" emitter keeps its
// own m = 8 config — same volume, byte-identity assertions only.
void BM_exec_d1_w512_dense(benchmark::State& state) {
  bm_dense<1>(state, {512}, 512, 128);
}
void BM_exec_d1_w512_simd(benchmark::State& state) {
  bm_simd<1>(state, {512}, 512, 128, true);
}
void BM_exec_d1_w512_simd_off(benchmark::State& state) {
  bm_simd<1>(state, {512}, 512, 128, false);
}
void BM_exec_d1_w512_hashmap(benchmark::State& state) {
  bm_hashmap<1>(state, {512}, 512, 128);
}
void BM_exec_d2_w48_dense(benchmark::State& state) {
  bm_dense<2>(state, {48, 48}, 48, 4);
}
void BM_exec_d2_w48_simd(benchmark::State& state) {
  bm_simd<2>(state, {48, 48}, 48, 4, true);
}
void BM_exec_d2_w48_simd_off(benchmark::State& state) {
  bm_simd<2>(state, {48, 48}, 48, 4, false);
}
void BM_exec_d2_w48_hashmap(benchmark::State& state) {
  bm_hashmap<2>(state, {48, 48}, 48, 4);
}

BENCHMARK(BM_exec_d1_w512_dense);
BENCHMARK(BM_exec_d1_w512_simd);
BENCHMARK(BM_exec_d1_w512_simd_off);
BENCHMARK(BM_exec_d1_w512_hashmap);
BENCHMARK(BM_exec_d2_w48_dense);
BENCHMARK(BM_exec_d2_w48_simd);
BENCHMARK(BM_exec_d2_w48_simd_off);
BENCHMARK(BM_exec_d2_w48_hashmap);

}  // namespace

BSMP_BENCH_MAIN("hot")
