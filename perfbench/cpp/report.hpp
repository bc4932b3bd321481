// What a perfbench run measures and prints: timing helpers, the
// operation tally, the timed rounds, the engine- and simulator-layer
// observations of traced runs, and the result JSON.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/task.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured at static initialization: the start of set-up.
extern const Clock::time_point g_process_start;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// "median M (n=K)", plus the highest percentile that still has ten
/// samples above it when there are enough samples for one, else every
/// sample in run order.
std::string describe(const std::vector<double>& v);

/// Operations attempted and failed over the whole run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// The result's metrics, in print order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> list;
  void add(const std::string& name, double value, const char* unit) {
    list.push_back({name, {value, unit}});
  }
};

/// Spreads one threads=1 pass over every CPU the process may use: while
/// alive, a helper thread moves the constructing thread to the next CPU
/// every 20 ms, and the destructor restores the full CPU set. On a
/// shared VM each vCPU runs at its own, drifting speed, and a single
/// thread left to the scheduler mostly stays on one of them for a whole
/// run, so runs would time one vCPU each instead of the host. Create
/// pools outside the scope: their workers inherit the creator's CPU set.
class RotateCpus {
 public:
  RotateCpus();
  ~RotateCpus();
  RotateCpus(const RotateCpus&) = delete;
  RotateCpus& operator=(const RotateCpus&) = delete;

 private:
  int tid_ = 0;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(const Tally& t, const Metrics& m);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------
// Timed rounds.
// ---------------------------------------------------------------------

/// Pass times of every round; tN and the traced/bare split only in
/// traced runs, ref only in untraced ones.
struct RoundTimes {
  std::vector<double> t1, tN;
  std::vector<double> t1_traced, tN_traced, t1_bare, tN_bare;
  std::vector<double> ref;  ///< kernel times: before t1[0], after each t1[i]
};

/// The unit of the normalized times: seconds on a host where one run of
/// the reference kernel takes this long (it takes 0.08-0.10 s on the
/// 4-vCPU x86-64 VM the benchmark was sized on).
inline constexpr double kReferenceSeconds = 0.1;

/// The reference kernel's (ref.hpp) time at the mean speed of the CPUs
/// this process may use: one run pinned to each CPU in turn, repeated
/// until `min_seconds` have passed, combined as the harmonic mean of the
/// run times. A rotating threads=1 pass spends equal time on every CPU,
/// so this is the kernel time such a pass would see. Throws if the
/// kernel's checksum changes.
double reference_pass(double min_seconds);

/// The share of the previous pass's time that a reference_pass between
/// two passes lasts at least: a long pass averages the host's speed over
/// seconds, so one cycle of kernel runs after it would be the noisier
/// side of the ratio.
inline constexpr double kReferenceShare = 0.15;

/// Median over the untraced rounds of t1[i] / mean(ref[i], ref[i+1]),
/// times kReferenceSeconds: the threads=1 pass time on a host running
/// at the reference speed.
double normalized_t1(const RoundTimes& rt);

/// median(setup) / median(rt.ref), times kReferenceSeconds: the set-up
/// time on a host running at the reference speed. The kernel runs after
/// set-up, in the rounds; the host's speed drifts over minutes, not
/// over the seconds of one run.
double normalized_setup(const std::vector<double>& setup,
                        const RoundTimes& rt);

/// Runs rounds until `seconds` have passed, at least two; a round that
/// starts before the deadline runs to its end.
/// Untraced runs time threads=1 passes only, each followed by the
/// reference kernel (and the first also preceded by it): suite_t1_norm_s
/// is the gated end-to-end metric, and on a shared host the threads=N
/// wall clock spreads too widely from run to run to gate (NOTES.md).
/// Traced runs make each round one threads=1 and one threads=N pass, in
/// alternating order; even rounds record spans and attach the engine
/// sinks (`pass(true)`) and odd rounds run bare, so the difference of
/// their medians is the tracing overhead.
template <class Pass1, class PassN>
RoundTimes run_rounds(double seconds, bool traced, Pass1&& pass1,
                      PassN&& passN) {
  RoundTimes rt;
  const auto t_start = Clock::now();
  if (!traced) rt.ref.push_back(reference_pass(0));
  for (int r = 0; r < 2 || since(t_start) < seconds; ++r) {
    if (!traced) {
      rt.t1.push_back(pass1(false));
      rt.ref.push_back(reference_pass(kReferenceShare * rt.t1.back()));
      continue;
    }
    const bool observe = r % 2 == 0;
    spans_enable(observe);
    double a = 0, b = 0;
    if (observe) {
      a = pass1(true);
      b = passN(true);
    } else {
      b = passN(false);
      a = pass1(false);
    }
    spans_enable(false);
    rt.t1.push_back(a);
    rt.tN.push_back(b);
    (observe ? rt.t1_traced : rt.t1_bare).push_back(a);
    (observe ? rt.tN_traced : rt.tN_bare).push_back(b);
  }
  return rt;
}

/// The "# setup_s" / "# suite_*" lines every run prints.
void print_timings(const std::vector<double>& setup, const RoundTimes& rt);

/// The end-to-end metrics of an untraced run.
void add_end_to_end(Metrics& out, const std::vector<double>& setup,
                    const RoundTimes& rt);

// ---------------------------------------------------------------------
// Per-layer observations of traced runs.
// ---------------------------------------------------------------------

/// The emitters of the repro workload, in registry order.
inline constexpr const char* kReproEmitters[] = {
    "e1", "e2", "e3", "e4",  "e5",  "e6",  "e7",
    "e8", "e9", "e10", "e6d", "cal", "hot", "ens"};

/// Median per-emitter pass times (zero off repro).
struct TableLayer {
  std::vector<double> t1_s, tN_s;  // indexed like kReproEmitters
};

/// Engine sink totals over the traced passes of one thread count.
struct EngineObs {
  double passes = 0;
  double points = 0, busy_s = 0, wait_s = 0;
  double capacity_s = 0;   ///< sum of sweep wall * pool threads
  double max_point_s = 0;  ///< sum over sweeps of the longest point
  double sweep_wall_s = 0;
  double lookups = 0, hits = 0, builds = 0;

  void add_sweeps(const std::vector<bsmp::engine::SweepMetric>& sweeps);
  void add_cache(const bsmp::engine::PlanCache::Stats& c);
  double per_pass(double v) const { return passes > 0 ? v / passes : 0.0; }
};

/// Fork-join counters of the N-thread pool, totalled over traced passes.
struct TaskObs {
  double passes = 0;
  bsmp::engine::TaskStats sum;

  void add(const bsmp::engine::TaskStats& s);
  double per_pass(double v) const { return passes > 0 ? v / passes : 0.0; }
};

struct EngineLayer {
  EngineObs t1, tN;
  TaskObs tasks;
  double fork_efficiency = 0;  ///< sim_forked only
};

/// Host time of the separator layers, from replaying a mix's calls
/// through the program's public sep and geom entry points, plus the
/// naive simulator on the same guests.
struct LayerWalk {
  double sep_s = 0, split_s = 0, count_s = 0, naive_s = 0;
  double sep_calls = 0, sep_vertices = 0, peak_staging = 0,
         staging_allocs = 0;
  double nodes = 0, leaves = 0, boundary_words = 0;

  void add(const LayerWalk& o);
};

/// Simulator-layer observations of one threads=1 pass of a mix.
struct SimLayer {
  double dc_s = 0, mp_s = 0;  ///< time in dc_uniproc / multiproc calls
  double reference_s = 0;     ///< reference runs of the last set-up
  double calls = 0, vertices = 0;
  LayerWalk walk;
  std::array<double, bsmp::core::CostLedger::kNumKinds> events{};

  /// (geom.split_s + geom.count_s) / simulator time.
  double geom_share() const;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them.
void add_per_layer(Metrics& out, const TableLayer& tables,
                   const EngineLayer& engine, const SimLayer& sim,
                   const RoundTimes& rt);

}  // namespace perfbench
