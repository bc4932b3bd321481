// PARX — the fork-join executor bench. No table emitter: the subject
// is sep::Executor's parallel recursion itself, so this binary uses a
// custom main instead of BSMP_BENCH_MAIN (the emitter registry stays
// at its thirteen conformance-checked entries).
//
// What it does, in order:
//
//   1. conformance gate: runs the full dense space-time volume
//      (tables::hotpath::run_dense) serially (no ambient scheduler,
//      grain active -> every fork inlines) and again with the caller
//      bound to a hardware_concurrency engine::Pool, and aborts unless
//      vertices, charged total, peak staging, level-slab allocs, and
//      every final staging value are identical — the same oracle the
//      tier-2 suite enforces, exercised through the nested path;
//   2. serializes both gate passes (wall clock + task counters) as
//      metrics_exec_parallel.json;
//   3. runs google-benchmark kernels for the same volumes:
//      serial (grain off — PR 3's hot path, comparable against
//      BENCH_exec_hotpath.json dense), forkjoin_t1 (grain on, no
//      scheduler: measures pure fork-bookkeeping overhead; the
//      acceptance bar is within 10% of serial), and forkjoin_tN
//      (caller bound to a Pool: the actual speedup). A Release run's
//      --benchmark_out is committed as bench/BENCH_exec_parallel.json.
#include <algorithm>
#include <cstdlib>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "tables/hotpath.hpp"

using namespace bsmp;

namespace {

// Fork above 64-wide regions in d=1 (three forking recursion levels
// on w512) and above 16-wide regions in d=2 (the w48 volume tops out
// at width 48); leaves stay serial in both.
constexpr std::int64_t kGrainD1 = 64;
constexpr std::int64_t kGrainD2 = 16;

// At least two slots even on a single-core host, so the scheduler is
// parallel() and the gate/tN kernels really exercise push + steal
// (oversubscribed on one core, but determinism is the point).
int pool_threads() {
  return std::max(2, engine::Pool::hardware_threads());
}

template <int D>
sep::Guest<D> par_guest(std::array<std::int64_t, D> extent,
                        std::int64_t horizon, std::int64_t m) {
  return workload::make_mix_guest<D>(extent, horizon, m, 7);
}

template <int D>
struct RunOut {
  tables::hotpath::ExecStats stats;
  std::vector<std::pair<geom::Point<D>, sep::Word>> fin;
};

template <int D>
RunOut<D> run_once(const sep::Guest<D>& g) {
  sep::StagingStore<D> staging(&g.stencil);
  RunOut<D> out;
  out.stats = tables::hotpath::run_dense<D>(g, staging);
  staging.for_each([&](const geom::Point<D>& q, sep::Word v) {
    out.fin.emplace_back(q, v);
  });
  std::sort(out.fin.begin(), out.fin.end(),
            [](const auto& a, const auto& b) {
              if (a.first.t != b.first.t) return a.first.t < b.first.t;
              return a.first.x < b.first.x;
            });
  return out;
}

template <int D>
void check_identical(const char* what, const RunOut<D>& seq,
                     const RunOut<D>& par) {
  const auto& a = seq.stats;
  const auto& b = par.stats;
  if (a.vertices != b.vertices || a.total_cost != b.total_cost ||
      a.peak_staging_words != b.peak_staging_words ||
      a.staging_allocs != b.staging_allocs || seq.fin != par.fin) {
    std::cerr << "FATAL: " << what
              << " differs between serial and pool-bound fork-join "
                 "execution — parallel recursion determinism broken\n";
    std::abort();
  }
}

/// The dual-pass determinism gate + metrics_exec_parallel.json.
void conformance_gate(int threads) {
  engine::MetricsReport report;
  report.name = "exec_parallel";

  auto gate = [&](auto tag, auto extent, std::int64_t horizon,
                  std::int64_t m, std::int64_t grain, const char* what) {
    constexpr int D = decltype(tag)::value;
    sep::set_default_parallel_grain(grain);
    auto g = par_guest<D>(extent, horizon, m);

    engine::MetricsPass seq_pass;
    seq_pass.threads = 1;
    auto t0 = std::chrono::steady_clock::now();
    auto seq = run_once<D>(g);  // no ambient scheduler: forks inline
    seq_pass.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    engine::Pool pool(threads);
    engine::MetricsPass par_pass;
    par_pass.threads = threads;
    t0 = std::chrono::steady_clock::now();
    RunOut<D> par;
    {
      auto bind = pool.bind_caller();
      par = run_once<D>(g);
    }
    par_pass.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    par_pass.tasks = pool.task_stats();

    check_identical(what, seq, par);
    report.passes.push_back(std::move(seq_pass));
    report.passes.push_back(std::move(par_pass));
    std::printf("# %s: serial %.3fs, threads=%d %.3fs (%lld vertices, "
                "%llu tasks spawned, %llu stolen)\n",
                what, report.passes[report.passes.size() - 2].seconds,
                threads, par_pass.seconds,
                static_cast<long long>(par.stats.vertices),
                static_cast<unsigned long long>(par_pass.tasks.spawned),
                static_cast<unsigned long long>(par_pass.tasks.stolen));
  };

  gate(std::integral_constant<int, 1>{}, std::array<std::int64_t, 1>{512},
       std::int64_t{512}, std::int64_t{8}, kGrainD1, "exec_d1_w512");
  gate(std::integral_constant<int, 2>{}, std::array<std::int64_t, 2>{48, 48},
       std::int64_t{48}, std::int64_t{4}, kGrainD2, "exec_d2_w48");
  sep::set_default_parallel_grain(0);

  report.manifest = engine::trace::make_run_manifest(report.name);
  const auto path = engine::metrics_output_path(report.name);
  if (report.write_json_file(path))
    std::printf("# metrics: %s\n\n", path.c_str());
  else
    std::printf("# metrics: could not write %s\n\n", path.c_str());
}

// --- google-benchmark kernels -------------------------------------

template <int D>
void bm_volume(benchmark::State& state,
               std::array<std::int64_t, D> extent, std::int64_t horizon,
               std::int64_t m, std::int64_t grain, int threads) {
  sep::set_default_parallel_grain(grain);
  auto g = par_guest<D>(extent, horizon, m);
  std::optional<engine::Pool> pool;
  if (threads > 1) {
    pool.emplace(threads);
    pool->reset_task_stats();
  }
  std::int64_t vertices = 0;
  auto loop = [&] {
    for (auto _ : state) {
      sep::StagingStore<D> staging(&g.stencil);
      auto s = tables::hotpath::run_dense<D>(g, staging);
      vertices = s.vertices;
      benchmark::DoNotOptimize(s.total_cost);
    }
  };
  if (pool) {
    auto bind = pool->bind_caller();  // Bind is scoped, not movable
    loop();
  } else {
    loop();
  }
  state.counters["vertices_per_sec"] =
      benchmark::Counter(static_cast<double>(vertices),
                         benchmark::Counter::kIsIterationInvariantRate);
  if (pool) {
    auto ts = pool->task_stats();
    state.counters["tasks_spawned"] = static_cast<double>(ts.spawned);
    state.counters["tasks_stolen"] = static_cast<double>(ts.stolen);
    state.counters["steal_ops"] = static_cast<double>(ts.steal_ops);
    state.counters["join_waits"] = static_cast<double>(ts.join_waits);
  }
  sep::set_default_parallel_grain(0);
}

void BM_exec_d1_w512_serial(benchmark::State& state) {
  bm_volume<1>(state, {512}, 512, 8, 0, 1);
}
void BM_exec_d1_w512_forkjoin_t1(benchmark::State& state) {
  bm_volume<1>(state, {512}, 512, 8, kGrainD1, 1);
}
void BM_exec_d1_w512_forkjoin_tN(benchmark::State& state) {
  bm_volume<1>(state, {512}, 512, 8, kGrainD1,
               pool_threads());
}
void BM_exec_d2_w48_serial(benchmark::State& state) {
  bm_volume<2>(state, {48, 48}, 48, 4, 0, 1);
}
void BM_exec_d2_w48_forkjoin_t1(benchmark::State& state) {
  bm_volume<2>(state, {48, 48}, 48, 4, kGrainD2, 1);
}
void BM_exec_d2_w48_forkjoin_tN(benchmark::State& state) {
  bm_volume<2>(state, {48, 48}, 48, 4, kGrainD2,
               pool_threads());
}

BENCHMARK(BM_exec_d1_w512_serial);
BENCHMARK(BM_exec_d1_w512_forkjoin_t1);
BENCHMARK(BM_exec_d1_w512_forkjoin_tN);
BENCHMARK(BM_exec_d2_w48_serial);
BENCHMARK(BM_exec_d2_w48_forkjoin_t1);
BENCHMARK(BM_exec_d2_w48_forkjoin_tN);

}  // namespace

int main(int argc, char** argv) {
  conformance_gate(pool_threads());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
