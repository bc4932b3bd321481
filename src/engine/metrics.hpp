// engine::Metrics — the observability layer under the sweep engine.
//
// The determinism contract (sweep.hpp) makes every table a pure
// function of its parameters; this sink records what the engine *did*
// to produce it — per-point wall clock and queue wait, whole-sweep
// wall clock, pool occupancy, and PlanCache hit/miss/build accounting
// — so the threads=1 vs threads=N speedup and hit-rate story is a
// serialized artifact (`metrics_<name>.json`) next to the tables, not
// a printout. Timing values are observational and vary run to run;
// only the *schema* and the structural fields (labels, point counts,
// pass layout) are stable, and those are what the conformance suite
// pins.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "engine/plan_cache.hpp"
#include "engine/task.hpp"
#include "engine/trace.hpp"

namespace bsmp::engine {

/// One sweep point's execution record, stored at the point's index so
/// the vector is in point order regardless of which thread ran what.
struct PointMetric {
  std::size_t index = 0;    ///< the point's position in the sweep
  double queue_wait_s = 0;  ///< sweep submission → point start
  double run_s = 0;         ///< point start → point finish
};

/// Aggregate record of one Sweep::run() call.
struct SweepMetric {
  std::string label;        ///< caller-supplied sweep label (may be empty)
  std::size_t points = 0;   ///< number of sweep points
  int pool_threads = 1;     ///< executors of the pool that ran the sweep
  double wall_s = 0;        ///< whole-sweep wall clock
  /// Fork-join counters attributable to *this* sweep: the scheduler
  /// delta from sweep start to sweep end. Every point is one fork, so
  /// spawned + inlined is at least `points`; forks made inside the
  /// points add to it. Exact when sweeps on one pool do not overlap
  /// (they never do in the emitters); concurrent sweeps would each
  /// absorb the other's forks.
  TaskStats tasks;
  std::vector<PointMetric> per_point;  ///< in point order

  /// Total compute time across points (sum of run_s).
  double busy_s() const;
  /// Fraction of the pool's capacity the sweep kept busy:
  /// busy_s / (wall_s * pool_threads). 1.0 is a perfectly packed pool;
  /// timing noise can push it slightly above.
  double occupancy() const;
};

/// One executor hot-path section: what a simulator's inner loop did —
/// vertices and throughput, peak live staging words, staging slab
/// allocations. Recorded by the simulators (sim/dc_uniproc,
/// sim/multiproc, sim/naive) when handed a Metrics sink; timing fields
/// are observational, the structural fields (label, vertices, words)
/// are deterministic.
struct HotPathMetric {
  std::string label;               ///< caller-supplied section label
  std::int64_t vertices = 0;       ///< dag vertices executed
  double seconds = 0;              ///< wall clock of the section
  std::size_t peak_staging_words = 0;  ///< high-water live staging words
  std::size_t staging_allocs = 0;  ///< staging slab allocations
  /// Scenario lanes carried per charged vertex: sep::kLanes for a
  /// batched guest (bit-sliced or SoA), 1 for a scalar run.
  int lanes = 1;
  /// SIMD leaf-kernel dispatch of the section: the ISA name from
  /// sep::simd::active_isa() ("avx512"/"avx2"/"sse2"/"neon"), or
  /// "scalar" when the section ran the per-vertex loop (no row kernel,
  /// or BSMP_SIMD off). Observational, like the timing fields.
  std::string simd_isa = "scalar";
  /// 64-bit lanes per vector op of simd_isa (sep::simd::lane_width());
  /// 1 for scalar sections. Distinct from `lanes`, which counts
  /// *scenarios* per charged vertex, not words per instruction.
  int simd_lanes = 1;

  /// Throughput; 0 when the section was too fast to time.
  double vertices_per_sec() const {
    return seconds > 0 ? static_cast<double>(vertices) / seconds : 0.0;
  }

  /// Scenario throughput: lanes independent scenarios ride every
  /// charged vertex, so this is lanes * vertices_per_sec.
  double scenarios_per_sec() const {
    return static_cast<double>(lanes) * vertices_per_sec();
  }
};

/// One calibration-grid point's measured per-mechanism decomposition,
/// recorded by tables::calibration and serialized into the per-pass
/// `calibration_points` array (metrics-v4) so `bsmp-stat fit` can
/// derive per-mechanism constants from the artifact alone. The slow_*
/// fields split the measured slowdown by the virtual-time cost ledger
/// (slow_k = slowdown * cost_k / sum of mechanism costs); the term_*
/// fields are the advisor model's per-mechanism predictor terms at the
/// same (n, m, p). The `range` string names the analytic tradeoff
/// range the point falls in (analytic::classify_range), kept as text
/// so engine stays independent of analytic. Deterministic: the values
/// come from the simulator's cost ledger, not the wall clock.
struct CalibrationSample {
  int n = 0, m = 0, p = 0;  ///< grid point
  double s = 0;             ///< feasible window length the model chose
  std::string range;        ///< analytic tradeoff range ("1".."4")
  bool holdout = false;     ///< excluded from training fits
  double slowdown = 0;      ///< measured time / guest_time
  double slow_reloc = 0;    ///< relocation share of the slowdown
  double slow_exec = 0;     ///< execution (compute+local) share
  double slow_comm = 0;     ///< communication share
  double term_reloc = 0;    ///< model term: (n/p)*A_relocation
  double term_exec = 0;     ///< model term: (n/p)*A_execution
  double term_comm = 0;     ///< model term: (n/p)*A_communication
};

/// Thread-safe sink the engine reports into. Hand one to
/// SweepOptions::metrics (or tables::EngineCtx::metrics) and every
/// sweep that runs appends one SweepMetric; snapshot() hands them back
/// for serialization into a MetricsReport. Simulators additionally
/// append HotPathMetric records via record_hot.
class Metrics {
 public:
  /// Append one sweep record (called by Sweep::run on completion).
  void record(SweepMetric m);

  /// Copy of all records so far, in recording order.
  std::vector<SweepMetric> snapshot() const;

  /// Number of sweeps recorded so far.
  std::size_t num_sweeps() const;

  /// Append one executor hot-path record (called by the simulators).
  void record_hot(HotPathMetric m);

  /// Copy of all hot-path records so far, in recording order.
  std::vector<HotPathMetric> hot_snapshot() const;

  /// Append one calibration-grid decomposition (tables::calibration;
  /// called from the emitter thread after the sweep, in point order,
  /// so the serialized array is deterministic).
  void record_calibration(CalibrationSample s);

  /// Copy of all calibration samples so far, in recording order.
  std::vector<CalibrationSample> calibration_snapshot() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<SweepMetric> sweeps_;
  std::vector<HotPathMetric> hot_;
  std::vector<CalibrationSample> calibration_;
};

/// One emitter pass (one thread count, one fresh PlanCache) inside a
/// MetricsReport.
struct MetricsPass {
  int threads = 1;          ///< pool size of the pass
  double seconds = 0;       ///< whole-pass wall clock
  PlanCache::Stats cache;   ///< hit/miss/build accounting of the pass
  TaskStats tasks;          ///< fork-join scheduler counters of the pass
  std::vector<SweepMetric> sweeps;  ///< every sweep the pass ran
  std::vector<HotPathMetric> hot;   ///< executor hot-path sections
  /// Calibration-grid per-mechanism decompositions recorded during the
  /// pass (`calibration_points`); empty for non-calibration emitters.
  std::vector<CalibrationSample> calibration;
};

/// The `metrics_<name>.json` artifact: a named sequence of passes
/// (conventionally threads=1 then threads=N) with derived speedup.
/// Schema (stable, versioned by the "schema" field):
///
/// {
///   "schema": "bsmp-metrics-v6",
///   "name": "e6d",
///   "speedup": 1.02,
///   "manifest": { "name": "e6d", "git_sha": "6bd49c5...",
///                 "build_type": "Release", "compiler": "...",
///                 "hardware_threads": 8, "num_cpus": 8,
///                 "hostname": "ci-runner-3", "simd_isa": "avx2",
///                 "trace_compiled": 1,
///                 "trace_enabled": 0, "BSMP_TRACE": "unset", ... },
///   "passes": [
///     { "threads": 1, "seconds": 2.31,
///       "cache": {"hits": 93, "misses": 3, "builds": 3,
///                 "hit_rate": 0.968},
///       "tasks": {"spawned": 0, "inlined": 32, "stolen": 0,
///                 "steal_ops": 0, "join_waits": 0, "park_ns": 0},
///       "sweeps": [
///         { "label": "e6d m=1", "points": 32, "pool_threads": 1,
///           "wall_s": 0.71, "busy_s": 0.70, "occupancy": 0.99,
///           "tasks": {"spawned": 0, "inlined": 32, "stolen": 0,
///                     "steal_ops": 0, "join_waits": 0, "park_ns": 0},
///           "per_point": [ {"index": 0, "queue_wait_s": 0.0,
///                           "run_s": 0.02}, ... ] } ],
///       "hot": [
///         { "label": "dense d=1 w=512", "vertices": 262144,
///           "seconds": 0.05, "vertices_per_sec": 5242880,
///           "peak_staging_words": 1536, "staging_allocs": 514,
///           "lanes": 1, "scenarios_per_sec": 5242880,
///           "simd_isa": "scalar", "simd_lanes": 1 } ],
///       "calibration_points": [
///         { "n": 64, "m": 4, "p": 4, "s": 16, "range": "2",
///           "holdout": 0, "slowdown": 81.2, "slow_reloc": 11.0,
///           "slow_exec": 66.1, "slow_comm": 4.1,
///           "term_reloc": 0.12, "term_exec": 0.88,
///           "term_comm": 0.04 } ] } ]
/// }
///
/// Every field below keeps the name, position and meaning it had in
/// the version that introduced it (pinned by tests/test_metrics.cpp).
/// v6 changes over v5:
///   * per-tasks "park_ns" — wall time that joins spent parked waiting
///     for other threads' tasks.
///   * dropped: the per-tasks "phases" split. Sweep points are the only
///     tasks, so it could only repeat the totals under "none".
/// v5 changes over v4:
///   * dropped: the per-pass "mem" block (the slab-arena and scratch-
///     pool counters; staging levels and fork bookkeeping are now
///     plainly owned memory, so there is no pool to report) and the
///     two per-cache residency fields v2 added (the PlanCache has no
///     LRU byte budget any more; entries live until it is cleared).
/// v4 changes over v3:
///   * per-pass "calibration_points" — the calibration-grid samples
///     (the `cal` emitter) that v3 nested inside its span-fold block,
///     now a sibling of "hot" ([] for every other emitter): the
///     per-grid-point per-mechanism slowdown decomposition
///     `bsmp-stat fit` trains on. Ledger-derived, so deterministic.
///   * dropped: the two span-derived per-pass blocks — v2's
///     "histograms" (span durations per trace category and the steal
///     latency) and v3's per-mechanism wall-clock fold of the trace
///     spans with its critical path (doc/ENGINE.md lists both). They
///     existed only under BSMP_TRACE=1; the trace file keeps the
///     timeline, and the manifest's "trace_dropped" still flags
///     truncation.
/// v3 additions:
///   * manifest "num_cpus", "hostname", "simd_isa" — the hardware
///     identity of the producing host ("num_cpus" mirrors
///     "hardware_threads" under google-benchmark's name for it), so
///     `bsmp-stat diff` refuses cross-hardware comparisons.
/// v2 additions over v1:
///   * "manifest" — the run's provenance (engine::trace::RunManifest):
///     git SHA, build type, compiler, hardware threads, the tracing
///     state, and every BSMP_* env knob that shaped the run.
///   * per-sweep "tasks" — the fork-join counter delta of that sweep
///     alone, so a multi-sweep pass attributes its forks.
///   * per-hot "lanes" and "scenarios_per_sec" — the scenario lanes a
///     batched guest carried per charged vertex (1 for scalar runs)
///     and the derived lanes * vertices_per_sec throughput.
///   * per-hot "simd_isa" and "simd_lanes" — which SIMD dispatch the
///     section's leaf kernels took ("scalar" when the per-vertex loop
///     ran) and the 64-bit lanes per vector op of that ISA.
///   * per-tasks "phases" — the same fork-join counters split by the
///     forking mechanism ("machine-tile", "regime1-relocate",
///     "executor-leaf", "regime2-*", "none"), each with "spawned",
///     "inlined", "join_waits" and "park_ns"; omitted when no phase
///     saw activity, and dropped again in v6.
///   * per-cache LRU residency fields and a per-pass "mem" block of
///     arena counters — both dropped again in v5.
/// The "hot" array carries the executor hot-path sections recorded via
/// Metrics::record_hot; it is empty for passes that ran no simulator
/// with a hot-metrics sink. The pass-level "tasks" object carries the
/// pass's fork-join scheduler counters (engine::TaskStats): tasks
/// pushed to worker deques, tasks executed inline, tasks taken by
/// steals, steal batches, joins that had to sleep and the time they
/// slept. Sweep points are tasks (Pool::parallel_for forks one per
/// point), so every sweep counts its points: spawned on a multi-slot
/// pool, inlined on Pool(1). All zero only when nothing
/// swept or forked — the counters are observational, like the timing
/// fields.
struct MetricsReport {
  std::string name;                 ///< emitter / bench name ("e6d")
  std::vector<MetricsPass> passes;  ///< in run order
  trace::RunManifest manifest;      ///< run provenance (v2)

  /// Wall-clock speedup of the last pass over the first (1.0 when
  /// fewer than two passes were recorded).
  double speedup() const;

  /// Serialize the report in the schema above.
  void write_json(std::ostream& os) const;

  /// write_json to `path`; false (no throw) when the file cannot be
  /// opened — metrics must never fail the measurement they observe.
  bool write_json_file(const std::string& path) const;
};

/// The canonical artifact filename for a report: "metrics_<name>.json".
std::string metrics_filename(const std::string& name);

/// Directory every metrics/trace artifact lands in: the BSMP_METRICS_DIR
/// env knob, default "metrics" (relative to the CWD).
std::string metrics_dir();

/// Create metrics_dir() if missing; false (no throw) on failure.
bool ensure_metrics_dir();

/// "<metrics_dir()>/metrics_<name>.json", creating the directory.
std::string metrics_output_path(const std::string& name);

/// "<metrics_dir()>/trace_<name>.json", creating the directory.
std::string trace_output_path(const std::string& name);

}  // namespace bsmp::engine
