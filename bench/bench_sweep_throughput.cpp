// SWPT — the arena sweep-throughput bench. No table emitter (custom
// main, like PARX): the subject is the steady-state allocation path of
// a repeated-point sweep — the pattern every E-series emitter runs —
// not a paper table.
//
// One "point" is a full dense-store execution of a fixed d=1 volume
// with forks on (tables::hotpath::run_dense_kernel under a
// hardware-concurrency pool): each point materializes level slabs as
// its wavefront advances, retires them at every prune, and each fork
// checks out shard-local stores, charge logs and leaf scratch. With
// the arena on (BSMP_ARENA default) all of that traffic is served from
// pools after the first point; off, every slab is a cold fully-zeroed
// allocation and every fork constructs its scratch from nothing — the
// seed behavior.
//
// What it does, in order:
//
//   1. conformance gate: runs one point arena-on and arena-off, serial
//      and pool-bound, and aborts unless vertices, charged total, peak
//      staging, level-slab allocs and every final staging value are
//      identical across all four — the byte-identity contract the
//      arena is built on;
//   2. serializes the gate passes (wall clock + "mem" arena deltas) as
//      metrics_sweep_throughput.json;
//   3. runs google-benchmark kernels: sweep_point_arena_on and
//      sweep_point_arena_off, each reporting points_per_sec and
//      allocs_per_point (arena cold slab allocations per point;
//      scratch_cold_per_point counts cold scratch constructions). The
//      arena-on kernel additionally reports cold_allocs_first_point —
//      the same point's allocation bill on empty pools — so the
//      steady-state reuse win (first/warm >= 10x) is a recorded,
//      CI-gated fact, as is the throughput win (on/off >= 1.3x). A
//      Release run's --benchmark_out is committed as
//      bench/BENCH_sweep_throughput.json.
#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "engine/arena.hpp"
#include "tables/hotpath.hpp"

using namespace bsmp;

namespace {

// Tall-and-narrow on purpose: 64 nodes x 2048 levels keeps each slab
// small and the wavefront pruning busy, so slab materialization and
// fork scratch — not the leaf arithmetic (concrete MixKernel, SIMD
// rows) — dominate the per-point cost. m=8 diamonds, forks above
// 16-wide regions.
constexpr std::int64_t kWidth = 64;
constexpr std::int64_t kHorizon = 2048;
constexpr std::int64_t kM = 8;
constexpr std::int64_t kGrain = 16;

int pool_threads() {
  return std::max(2, engine::Pool::hardware_threads());
}

sep::Guest<1> sweep_guest() {
  return workload::make_mix_guest<1>({kWidth}, kHorizon, kM, 11);
}

struct PointOut {
  tables::hotpath::ExecStats stats;
  std::vector<std::pair<geom::Point<1>, sep::Word>> fin;
};

/// One sweep point: a fresh dense store, the full volume, the sorted
/// final values (the byte-identity witness).
PointOut run_point(const sep::Guest<1>& g) {
  sep::StagingStore<1> staging(&g.stencil);
  PointOut out;
  out.stats = tables::hotpath::run_dense_kernel<1>(g, staging,
                                                   workload::MixKernel<1>{});
  staging.for_each([&](const geom::Point<1>& q, sep::Word v) {
    out.fin.emplace_back(q, v);
  });
  std::sort(out.fin.begin(), out.fin.end(),
            [](const auto& a, const auto& b) {
              if (a.first.t != b.first.t) return a.first.t < b.first.t;
              return a.first.x < b.first.x;
            });
  return out;
}

void check_identical(const char* what, const PointOut& a, const PointOut& b) {
  if (a.stats.vertices != b.stats.vertices ||
      a.stats.total_cost != b.stats.total_cost ||
      a.stats.peak_staging_words != b.stats.peak_staging_words ||
      a.stats.staging_allocs != b.stats.staging_allocs || a.fin != b.fin) {
    std::cerr << "FATAL: " << what
              << " differs from the arena-off serial reference — arena "
                 "byte-identity broken\n";
    std::abort();
  }
}

/// The arena-matrix gate + metrics_sweep_throughput.json: the same
/// point, {arena off, arena on} x {serial, pool-bound}, all four
/// byte-identical.
void conformance_gate(int threads) {
  engine::MetricsReport report;
  report.name = "sweep_throughput";
  auto g = sweep_guest();

  const bool arena_saved = engine::arena_enabled();
  PointOut ref;
  auto pass = [&](bool arena, bool forked, const char* what) {
    engine::set_arena_enabled(arena);
    sep::set_default_parallel_grain(forked ? kGrain : 0);
    engine::MetricsPass p;
    p.threads = forked ? threads : 1;
    const engine::ArenaStats mem0 = engine::Arena::instance().stats();
    auto t0 = std::chrono::steady_clock::now();
    PointOut out;
    if (forked) {
      engine::Pool pool(threads);
      auto bind = pool.bind_caller();
      out = run_point(g);
      p.tasks = pool.task_stats();
    } else {
      out = run_point(g);
    }
    p.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    p.mem = engine::Arena::instance().stats() - mem0;
    if (ref.fin.empty())
      ref = std::move(out);
    else
      check_identical(what, out, ref);
    std::printf("# %s: %.3fs (%lld vertices, %llu cold slabs, "
                "%llu reused)\n",
                what, p.seconds,
                static_cast<long long>(ref.stats.vertices),
                static_cast<unsigned long long>(p.mem.cold_allocs),
                static_cast<unsigned long long>(p.mem.slab_reuses));
    report.passes.push_back(std::move(p));
  };

  pass(false, false, "arena_off_serial");  // the seed-faithful reference
  pass(false, true, "arena_off_forked");
  pass(true, false, "arena_on_serial");
  pass(true, true, "arena_on_forked");

  engine::set_arena_enabled(arena_saved);
  sep::set_default_parallel_grain(0);

  report.manifest = engine::trace::make_run_manifest(report.name);
  const auto path = engine::metrics_output_path(report.name);
  if (report.write_json_file(path))
    std::printf("# metrics: %s\n\n", path.c_str());
  else
    std::printf("# metrics: could not write %s\n\n", path.c_str());
}

// --- google-benchmark kernels -------------------------------------

void bm_sweep_point(benchmark::State& state, bool arena) {
  engine::set_arena_enabled(arena);
  sep::set_default_parallel_grain(kGrain);
  auto g = sweep_guest();
  engine::Pool pool(pool_threads());
  engine::Arena& a = engine::Arena::instance();

  // The allocation bill of one point on empty pools (fresh pool
  // workers, trimmed arena): what every point pays with the arena off,
  // and only the first pays with it on.
  a.trim();
  const engine::ArenaStats s_cold = a.stats();
  {
    auto bind = pool.bind_caller();
    auto out = run_point(g);
    benchmark::DoNotOptimize(out.stats.total_cost);
  }
  const engine::ArenaStats s_warm = a.stats();
  const double first_point_allocs =
      static_cast<double>(s_warm.cold_allocs - s_cold.cold_allocs);

  {
    auto bind = pool.bind_caller();
    for (auto _ : state) {
      auto out = run_point(g);
      benchmark::DoNotOptimize(out.stats.total_cost);
    }
  }
  const engine::ArenaStats s_end = a.stats();

  const double points = std::max<double>(1.0, state.iterations());
  state.counters["points_per_sec"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["allocs_per_point"] =
      static_cast<double>(s_end.cold_allocs - s_warm.cold_allocs) / points;
  state.counters["scratch_cold_per_point"] =
      static_cast<double>(s_end.scratch_cold - s_warm.scratch_cold) / points;
  state.counters["cold_allocs_first_point"] = first_point_allocs;

  sep::set_default_parallel_grain(0);
  engine::set_arena_enabled(true);
}

void BM_sweep_point_arena_on(benchmark::State& state) {
  bm_sweep_point(state, true);
}
void BM_sweep_point_arena_off(benchmark::State& state) {
  bm_sweep_point(state, false);
}

BENCHMARK(BM_sweep_point_arena_on)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_sweep_point_arena_off)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  conformance_gate(pool_threads());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
