// SIMS — multi-core scaling of the full two-regime multiprocessor
// simulator (sim::multiproc). No table emitter: the subject is the
// simulator's own fork points — top-level machine-tile waves and
// regime-1 relocation runs; regime-2 subtile wavefronts and subtile
// bodies run in order inside them — so this binary uses a custom main
// instead of BSMP_BENCH_MAIN.
//
// What it does, in order:
//
//   1. conformance gate: runs each workload three ways — serial (all
//      fork grains off, no ambient scheduler: the reference path),
//      forkjoin_t1 (grains on, no scheduler: every fork gate sees a
//      non-parallel world and must take the serial path, so grain-on
//      without a pool costs nothing), and forkjoin_tN (caller bound to
//      a multi-slot engine::Pool: the forked paths with StagingShard
//      overlays and canonical-order ChargeLog replay) — and aborts
//      unless virtual time, guest time, preprocess, every per-kind
//      ledger total and event count, vertex count, utilization, peak
//      staging, slab allocs, and every final guest value are
//      bit-identical across all three;
//   2. serializes the three passes per workload (wall clock, fork-join
//      task counters split by mechanism via tasks.phases, executor
//      hot-path records, per-phase span-histogram deltas when tracing
//      is live) as metrics_sim_scaling.json — the bsmp-metrics-v2
//      artifact CI uploads;
//   3. runs google-benchmark kernels for the same workloads: serial,
//      forkjoin_t1 (the <=10%-overhead bar) and forkjoin_tN (the
//      multi-core speedup; the CI bar on >=4-thread runners is >=2x
//      over forkjoin_t1). A Release run's --benchmark_out is committed
//      as bench/BENCH_sim_scaling.json next to the manifest's
//      hardware_threads so the numbers are read against the hardware
//      that produced them.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "bench_common.hpp"

using namespace bsmp;

namespace {

// Fork every machine-tile wavefront with at least two tiles; fork
// relocation levels above 64-wide (d=1) / 4-wide (d=2) regions.
constexpr std::int64_t kWaveGrain = 2;
constexpr std::int64_t kRelocGrainD1 = 64;
constexpr std::int64_t kRelocGrainD2 = 4;

// At least two slots even on a single-core host, so the scheduler is
// parallel() and the tN kernels really exercise the forked paths
// (oversubscribed on one core, but determinism is the point there;
// the speedup bar only applies on >=4-thread hardware).
int pool_threads() {
  return std::max(2, engine::Pool::hardware_threads());
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  return b;
}

template <int D>
struct SimCase {
  const char* what;
  std::array<std::int64_t, D> extent;
  std::int64_t horizon;
  std::int64_t m;
  std::int64_t p;
  std::int64_t s;
  std::int64_t reloc_grain;
};

// d=1: 1024 nodes x 1024 steps on p=16 hosts, s=32 => macro strips of
// width 512 (two machine tiles), 16 subtiles per regime-2 wavefront.
constexpr SimCase<1> kCaseD1{"sim_d1_n1024", {1024}, 1024, 2, 16, 32,
                             kRelocGrainD1};
// d=2: 32x32 nodes x 32 steps on a 4x4 host grid, s=4 => 16x16 macro
// tiles, anti-diagonal wavefronts of up to 4 subtiles.
constexpr SimCase<2> kCaseD2{"sim_d2_n1024", {32, 32}, 32, 1, 16, 4,
                             kRelocGrainD2};

template <int D>
machine::MachineSpec host_of(const SimCase<D>& c) {
  std::int64_t n = 1;
  for (auto e : c.extent) n *= e;
  return bench::spec(D, n, c.p, c.m);
}

template <int D>
struct SimOut {
  sim::SimResult<D> res;
  std::size_t peak = 0;
  std::size_t allocs = 0;
};

/// One full two-regime simulation. grains_on routes the run through
/// both fork points (machine-tile, regime1-relocate) — whether anything
/// actually forks is then up to the ambient scheduler.
template <int D>
SimOut<D> run_sim(const sep::Guest<D>& g, const SimCase<D>& c,
                  bool grains_on, engine::Metrics* sink = nullptr) {
  sim::MultiprocConfig cfg;
  cfg.s = c.s;
  cfg.reloc_grain = grains_on ? c.reloc_grain : 0;
  cfg.wave_grain = grains_on ? kWaveGrain : 0;
  engine::Metrics local;
  cfg.metrics = sink != nullptr ? sink : &local;
  cfg.hot_label = c.what;
  SimOut<D> out;
  out.res = sim::simulate_multiproc<D>(g, host_of(c), cfg);
  auto hot = cfg.metrics->hot_snapshot();
  if (!hot.empty()) {
    out.peak = hot.back().peak_staging_words;
    out.allocs = hot.back().staging_allocs;
  }
  return out;
}

template <int D>
void check_identical(const char* what, const char* mode,
                     const SimOut<D>& ref, const SimOut<D>& got) {
  bool ok = bits_of(ref.res.time) == bits_of(got.res.time) &&
            bits_of(ref.res.guest_time) == bits_of(got.res.guest_time) &&
            bits_of(ref.res.preprocess) == bits_of(got.res.preprocess) &&
            bits_of(ref.res.utilization) == bits_of(got.res.utilization) &&
            ref.res.vertices == got.res.vertices && ref.peak == got.peak &&
            ref.allocs == got.allocs &&
            ref.res.final_values == got.res.final_values;
  for (std::size_t k = 0; k < core::CostLedger::kNumKinds; ++k) {
    auto kind = static_cast<core::CostKind>(k);
    ok = ok &&
         bits_of(ref.res.ledger.cost(kind)) ==
             bits_of(got.res.ledger.cost(kind)) &&
         ref.res.ledger.events(kind) == got.res.ledger.events(kind);
  }
  if (!ok) {
    std::cerr << "FATAL: " << what << " " << mode
              << " differs from the serial reference — forked two-regime "
                 "simulation determinism broken\n";
    std::abort();
  }
}

/// One timed pass for the metrics report: wall clock, task counters
/// (with the per-mechanism phases split) and hot records.
template <class Fn>
engine::MetricsPass timed_pass(int threads, engine::Metrics& sink,
                               engine::Pool* pool, Fn&& body) {
  if (pool != nullptr) pool->reset_task_stats();
  engine::MetricsPass pass;
  pass.threads = threads;
  auto t0 = std::chrono::steady_clock::now();
  body();
  pass.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (pool != nullptr) pass.tasks = pool->task_stats();
  pass.hot = sink.hot_snapshot();
  sink.clear();
  return pass;
}

/// The three-way determinism gate + metrics_sim_scaling.json.
void conformance_gate(int threads) {
  engine::MetricsReport report;
  report.name = "sim_scaling";

  auto gate = [&](const auto& c) {
    constexpr int D =
        std::tuple_size_v<decltype(c.extent)> == 1 ? 1 : 2;
    auto g = workload::make_mix_guest<D>(c.extent, c.horizon, c.m, 7);
    engine::Metrics sink;

    SimOut<D> serial, t1, tn;
    auto serial_pass = timed_pass(1, sink, nullptr, [&] {
      serial = run_sim<D>(g, c, /*grains_on=*/false, &sink);
    });
    auto t1_pass = timed_pass(1, sink, nullptr, [&] {
      t1 = run_sim<D>(g, c, /*grains_on=*/true, &sink);
    });
    engine::Pool pool(threads);
    auto tn_pass = timed_pass(threads, sink, &pool, [&] {
      auto bind = pool.bind_caller();
      tn = run_sim<D>(g, c, /*grains_on=*/true, &sink);
    });

    check_identical(c.what, "forkjoin_t1", serial, t1);
    check_identical(c.what, "forkjoin_tN", serial, tn);

    std::printf("# %s: serial %.3fs, t1 %.3fs, threads=%d %.3fs "
                "(%lld vertices)\n",
                c.what, serial_pass.seconds, t1_pass.seconds, threads,
                tn_pass.seconds, static_cast<long long>(tn.res.vertices));
    for (std::size_t i = 0; i < engine::kNumForkPhases; ++i) {
      const auto& ph = tn_pass.tasks.phase[i];
      if (ph.spawned == 0 && ph.inlined == 0) continue;
      std::printf("#   %-17s %llu spawned, %llu inlined, %llu join waits\n",
                  engine::fork_phase_name(static_cast<engine::ForkPhase>(i)),
                  static_cast<unsigned long long>(ph.spawned),
                  static_cast<unsigned long long>(ph.inlined),
                  static_cast<unsigned long long>(ph.join_waits));
    }
    report.passes.push_back(std::move(serial_pass));
    report.passes.push_back(std::move(t1_pass));
    report.passes.push_back(std::move(tn_pass));
  };

  gate(kCaseD1);
  gate(kCaseD2);

  report.manifest = engine::trace::make_run_manifest(report.name);
  const auto path = engine::metrics_output_path(report.name);
  if (report.write_json_file(path))
    std::printf("# metrics: %s\n\n", path.c_str());
  else
    std::printf("# metrics: could not write %s\n\n", path.c_str());
}

// --- google-benchmark kernels -------------------------------------

template <int D>
void bm_sim(benchmark::State& state, const SimCase<D>& c, bool grains_on,
            int threads) {
  auto g = workload::make_mix_guest<D>(c.extent, c.horizon, c.m, 7);
  std::optional<engine::Pool> pool;
  if (threads > 1) {
    pool.emplace(threads);
    pool->reset_task_stats();
  }
  std::int64_t vertices = 0;
  auto loop = [&] {
    for (auto _ : state) {
      auto out = run_sim<D>(g, c, grains_on);
      vertices = out.res.vertices;
      benchmark::DoNotOptimize(out.res.time);
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
    state.counters["join_waits"] = static_cast<double>(ts.join_waits);
  }
}

void BM_sim_d1_serial(benchmark::State& state) {
  bm_sim<1>(state, kCaseD1, false, 1);
}
void BM_sim_d1_forkjoin_t1(benchmark::State& state) {
  bm_sim<1>(state, kCaseD1, true, 1);
}
void BM_sim_d1_forkjoin_tN(benchmark::State& state) {
  bm_sim<1>(state, kCaseD1, true, pool_threads());
}
void BM_sim_d2_serial(benchmark::State& state) {
  bm_sim<2>(state, kCaseD2, false, 1);
}
void BM_sim_d2_forkjoin_t1(benchmark::State& state) {
  bm_sim<2>(state, kCaseD2, true, 1);
}
void BM_sim_d2_forkjoin_tN(benchmark::State& state) {
  bm_sim<2>(state, kCaseD2, true, pool_threads());
}

// Real time throughout: with a pool bound, the main thread's CPU time
// undercounts parked joins, which would inflate the tN rate — the >=2x
// bar is a wall-clock claim, so every kernel reports wall-clock rates.
BENCHMARK(BM_sim_d1_serial)->UseRealTime();
BENCHMARK(BM_sim_d1_forkjoin_t1)->UseRealTime();
BENCHMARK(BM_sim_d1_forkjoin_tN)->UseRealTime();
BENCHMARK(BM_sim_d2_serial)->UseRealTime();
BENCHMARK(BM_sim_d2_forkjoin_t1)->UseRealTime();
BENCHMARK(BM_sim_d2_forkjoin_tN)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  conformance_gate(pool_threads());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
