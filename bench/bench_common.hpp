// Shared harness for the reproduction benches. Every bench binary:
//
//   1. runs its table emitter (src/tables) twice — once on a 1-thread
//      engine::Pool and once on a hardware_concurrency pool, each with
//      a fresh PlanCache — and aborts if the two passes disagree on a
//      single table (the same check the tier-2 conformance suite
//      enforces under ctest);
//   2. prints the tables of the parallel pass, then an `# engine:` line
//      reporting the wall-clock speedup of pass 2 over pass 1 and the
//      PlanCache hit rate;
//   3. serializes both passes' engine metrics (per-point wall clock and
//      queue wait, per-sweep occupancy, cache hits/misses/builds,
//      calibration points, run manifest) as
//      `metrics_<emitter>.json` under $BSMP_METRICS_DIR (default
//      ./metrics/) — the recorded threads=1 vs threads=N story CI
//      uploads as an artifact. With tracing on (BSMP_TRACE=1) each
//      emitter additionally flushes its span timeline as
//      `trace_<emitter>.json` (Chrome trace-event format, loadable in
//      ui.perfetto.dev) and the recorder is cleared between emitters so
//      each trace is attributable;
//   4. runs the registered google-benchmark kernels.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <iostream>

#include "analytic/tradeoff.hpp"
#include "core/table.hpp"
#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"
#include "engine/trace.hpp"
#include "machine/spec.hpp"
#include "sep/simd.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "sim/naive.hpp"
#include "sim/reference.hpp"
#include "tables/emitters.hpp"
#include "workload/rules.hpp"

namespace bsmp::bench {

inline machine::MachineSpec spec(int d, std::int64_t n, std::int64_t p,
                                 std::int64_t m) {
  machine::MachineSpec s;
  s.d = d;
  s.n = n;
  s.p = p;
  s.m = m;
  return s;
}

struct EmitterPass {
  std::vector<tables::Emitted> artifacts;
  engine::MetricsPass metrics;  ///< threads, wall clock, cache, sweeps
};

inline EmitterPass run_pass(const tables::Emitter& emitter, int threads) {
  engine::Pool pool(threads);
  engine::PlanCache plans;
  engine::Metrics metrics;
  tables::EngineCtx ctx{&pool, &plans, &metrics};
  auto t0 = std::chrono::steady_clock::now();
  EmitterPass pass;
  pass.artifacts = emitter.fn(ctx);
  pass.metrics.threads = threads;
  pass.metrics.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  pass.metrics.cache = plans.stats();
  pass.metrics.sweeps = metrics.snapshot();
  pass.metrics.hot = metrics.hot_snapshot();
  pass.metrics.tasks = pool.task_stats();
  pass.metrics.calibration = metrics.calibration_snapshot();
  return pass;
}

/// Emit the named tables with the dual-pass determinism check, print
/// the parallel pass, report speedup + cache hit rate, and serialize
/// both passes as metrics_<emitter>.json.
inline void emit_tables(const char* emitter_name) {
  const auto& emitter = tables::find_emitter(emitter_name);
  auto seq = run_pass(emitter, 1);
  int threads = engine::Pool::hardware_threads();
  auto par = run_pass(emitter, threads);

  if (seq.artifacts.size() != par.artifacts.size()) {
    std::cerr << "FATAL: " << emitter.name
              << " emitted a different table count at threads=1 vs threads="
              << threads << "\n";
    std::abort();
  }
  for (std::size_t i = 0; i < seq.artifacts.size(); ++i) {
    if (!(seq.artifacts[i].table == par.artifacts[i].table)) {
      std::cerr << "FATAL: table '" << par.artifacts[i].table.title()
                << "' differs between threads=1 and threads=" << threads
                << " — engine determinism broken\n";
      std::abort();
    }
  }

  for (const auto& a : par.artifacts) {
    a.table.print(std::cout);
    if (!a.note.empty()) std::cout << a.note << "\n";
  }

  engine::MetricsReport report;
  report.name = emitter.name;
  report.passes = {std::move(seq.metrics), std::move(par.metrics)};
  // The manifest reads the recorder's live state (event/drop counts,
  // digest), so build it before the per-emitter clear() below. The
  // SIMD ISA is stamped here because engine cannot call into sep
  // (layering).
  report.manifest = engine::trace::make_run_manifest(report.name);
  report.manifest.simd_isa = sep::simd::active_isa();
  std::string trace_path;
  bool trace_wrote = false;
  if (engine::trace::compiled() && engine::trace::enabled()) {
    trace_path = engine::trace_output_path(report.name);
    report.manifest.trace_file = trace_path;
    trace_wrote = engine::trace::write_chrome_json(trace_path,
                                                   report.manifest);
    // Reset so the next emitter's trace holds only its own spans.
    engine::trace::clear();
  }
  const auto path = engine::metrics_output_path(report.name);
  const bool wrote = report.write_json_file(path);

  std::printf(
      "# engine: threads=1 %.3fs, threads=%d %.3fs, speedup %.2fx; "
      "plan cache: %llu hits / %llu lookups (hit rate %.0f%%, "
      "%llu builds)\n",
      report.passes[0].seconds, threads, report.passes[1].seconds,
      report.speedup(),
      static_cast<unsigned long long>(report.passes[1].cache.hits),
      static_cast<unsigned long long>(report.passes[1].cache.lookups()),
      100.0 * report.passes[1].cache.hit_rate(),
      static_cast<unsigned long long>(report.passes[1].cache.builds));
  if (wrote)
    std::printf("# metrics: %s (%zu + %zu sweeps recorded)\n", path.c_str(),
                report.passes[0].sweeps.size(),
                report.passes[1].sweeps.size());
  else
    std::printf("# metrics: could not write %s\n", path.c_str());
  if (!trace_path.empty()) {
    if (trace_wrote)
      std::printf("# trace: %s (%llu events, %llu dropped)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(
                      report.manifest.trace_events),
                  static_cast<unsigned long long>(
                      report.manifest.trace_dropped));
    else
      std::printf("# trace: could not write %s\n", trace_path.c_str());
  }
  std::printf("\n");
}

inline int run_bench_main(int argc, char** argv,
                          std::initializer_list<const char*> emitters) {
  for (const char* name : emitters) emit_tables(name);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bsmp::bench

/// The arguments are the registry names of this bench's table
/// emitters, in print order ("e6", "e6d", "cal").
#define BSMP_BENCH_MAIN(...)                                       \
  int main(int argc, char** argv) {                                \
    return ::bsmp::bench::run_bench_main(argc, argv,               \
                                         {__VA_ARGS__});           \
  }
