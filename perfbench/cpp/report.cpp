#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "engine/arena.hpp"
#include "ref.hpp"

namespace perfbench {

using namespace bsmp;

const Clock::time_point g_process_start = Clock::now();

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string describe(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  std::ostringstream os;
  os.precision(6);
  os << "median " << median(s) << " (n=" << s.size() << ")";
  if (s.size() >= 20) {
    const std::size_t idx = s.size() - 11;  // ten samples above it
    const int pct = static_cast<int>(100.0 * static_cast<double>(idx + 1) /
                                     static_cast<double>(s.size()));
    os << ", p" << pct << " " << s[idx];
  } else {
    os << ", samples";
    for (double x : v) os << " " << x;
  }
  return os.str();
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

namespace {

void pin(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof set, &set);
}

/// The CPUs this thread may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

}  // namespace

RotateCpus::RotateCpus()
    : tid_(static_cast<int>(syscall(SYS_gettid))), cpus_(allowed_cpus()) {
  if (cpus_.size() < 2) return;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    for (std::size_t k = 0; !stop_; ++k) {
      pin(tid_, {cpus_[k % cpus_.size()]});
      cv_.wait_for(lk, std::chrono::milliseconds(20), [this] { return stop_; });
    }
    pin(tid_, cpus_);
  });
}

RotateCpus::~RotateCpus() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void print_result(const Tally& t, const Metrics& m) {
  std::ostringstream os;
  os << "{\"correct\": "
     << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.list.size(); ++i) {
    os << (i ? ", " : "") << "\"" << m.list[i].first
       << "\": {\"value\": " << json_number(m.list[i].second.first)
       << ", \"unit\": \"" << m.list[i].second.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_pass(double min_seconds) {
  static bool have_first = false;
  static std::uint64_t first = 0;
  const int tid = static_cast<int>(syscall(SYS_gettid));
  const std::vector<int> cpus = allowed_cpus();
  double runs = 0, rate = 0;  // rate: kernel runs per second, summed
  const auto start = Clock::now();
  do {
    for (int c : cpus) {
      pin(tid, {c});
      const auto t0 = Clock::now();
      const std::uint64_t sum = reference_work();
      rate += 1.0 / since(t0);
      runs += 1;
      if (!have_first) {
        have_first = true;
        first = sum;
      }
      if (sum != first) {
        pin(tid, cpus);
        throw std::runtime_error("reference kernel checksum changed");
      }
    }
  } while (since(start) < min_seconds);
  pin(tid, cpus);
  return runs / rate;
}

namespace {

/// t1[i] / mean(ref[i], ref[i+1]) for every untraced round.
std::vector<double> t1_ratios(const RoundTimes& rt) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < rt.t1.size() && i + 1 < rt.ref.size(); ++i)
    ratios.push_back(rt.t1[i] / (0.5 * (rt.ref[i] + rt.ref[i + 1])));
  return ratios;
}

}  // namespace

double normalized_t1(const RoundTimes& rt) {
  return median(t1_ratios(rt)) * kReferenceSeconds;
}

double normalized_setup(const std::vector<double>& setup,
                        const RoundTimes& rt) {
  return median(setup) / median(rt.ref) * kReferenceSeconds;
}

void print_timings(const std::vector<double>& setup, const RoundTimes& rt) {
  std::printf("# setup wall s: %s\n", describe(setup).c_str());
  std::printf("# suite_t1 wall s: %s\n", describe(rt.t1).c_str());
  if (!rt.ref.empty()) {
    std::printf("# reference kernel s: %s\n", describe(rt.ref).c_str());
    std::printf("# setup_s: %.6g (wall median over kernel median, times "
                "%g s)\n",
                normalized_setup(setup, rt), kReferenceSeconds);
    std::vector<double> norm = t1_ratios(rt);
    for (double& x : norm) x *= kReferenceSeconds;
    std::printf("# suite_t1_norm_s (each pass over the kernel around it, "
                "times %g s): %s\n",
                kReferenceSeconds, describe(norm).c_str());
  }
  if (!rt.tN.empty())
    std::printf("# suite_tN wall s: %s\n", describe(rt.tN).c_str());
}

void add_end_to_end(Metrics& out, const std::vector<double>& setup,
                    const RoundTimes& rt) {
  out.add("setup_s", normalized_setup(setup, rt), "s");
  out.add("suite_t1_norm_s", normalized_t1(rt), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void EngineObs::add_sweeps(const std::vector<engine::SweepMetric>& sweeps) {
  for (const auto& s : sweeps) {
    points += static_cast<double>(s.points);
    double mx = 0;
    for (const auto& p : s.per_point) {
      busy_s += p.run_s;
      wait_s += p.queue_wait_s;
      mx = std::max(mx, p.run_s);
    }
    capacity_s += s.wall_s * s.pool_threads;
    max_point_s += mx;
    sweep_wall_s += s.wall_s;
  }
}

void EngineObs::add_cache(const engine::PlanCache::Stats& c) {
  lookups += static_cast<double>(c.lookups());
  hits += static_cast<double>(c.hits);
  builds += static_cast<double>(c.builds);
}

void TaskObs::add(const engine::TaskStats& s) {
  passes += 1;
  sum.spawned += s.spawned;
  sum.stolen += s.stolen;
  sum.inlined += s.inlined;
  sum.join_waits += s.join_waits;
  for (std::size_t i = 0; i < engine::kNumForkPhases; ++i) {
    sum.phase[i].spawned += s.phase[i].spawned;
    sum.phase[i].park_ns += s.phase[i].park_ns;
  }
}

void LayerWalk::add(const LayerWalk& o) {
  sep_s += o.sep_s;
  split_s += o.split_s;
  count_s += o.count_s;
  naive_s += o.naive_s;
  sep_calls += o.sep_calls;
  sep_vertices += o.sep_vertices;
  peak_staging = std::max(peak_staging, o.peak_staging);
  staging_allocs += o.staging_allocs;
  nodes += o.nodes;
  leaves += o.leaves;
  boundary_words += o.boundary_words;
}

double SimLayer::geom_share() const {
  const double sim_s = dc_s + mp_s;
  return sim_s > 0 ? (walk.split_s + walk.count_s) / sim_s : 0.0;
}

namespace {

/// The fork phases reported per layer, by the program's own names (a
/// phase the program no longer has reads zero).
constexpr const char* kForkPhases[] = {"machine-tile", "regime1-relocate",
                                       "regime2-wave", "regime2-subtile",
                                       "executor-leaf"};

void add_engine(Metrics& out, const EngineLayer& e) {
  const EngineObs& tN = e.tN;
  const EngineObs& t1 = e.t1;
  out.add("engine.points", tN.per_pass(tN.points), "count");
  out.add("engine.point_busy_s", tN.per_pass(tN.busy_s), "s");
  out.add("engine.point_wait_s", tN.per_pass(tN.wait_s), "s");
  out.add("engine.occupancy",
          tN.capacity_s > 0 ? tN.busy_s / tN.capacity_s : 0.0, "ratio");
  out.add("engine.straggler_share",
          tN.sweep_wall_s > 0 ? tN.max_point_s / tN.sweep_wall_s : 0.0,
          "ratio");
  out.add("engine.plan_lookups", t1.per_pass(t1.lookups), "count");
  out.add("engine.plan_hits", t1.per_pass(t1.hits), "count");
  out.add("engine.plan_builds", t1.per_pass(t1.builds), "count");

  // Process totals: the arena is process-wide, so these cover set-up.
  const engine::ArenaStats a = engine::Arena::instance().stats();
  out.add("engine.arena_cold_allocs", static_cast<double>(a.cold_allocs),
          "count");
  out.add("engine.arena_slab_reuses", static_cast<double>(a.slab_reuses),
          "count");
  out.add("engine.scratch_cold", static_cast<double>(a.scratch_cold),
          "count");
  out.add("engine.arena_peak_bytes", static_cast<double>(a.peak_bytes),
          "bytes");

  const TaskObs& t = e.tasks;
  double park_ns = 0;
  for (const auto& ph : t.sum.phase) park_ns += static_cast<double>(ph.park_ns);
  out.add("engine.tasks_spawned",
          t.per_pass(static_cast<double>(t.sum.spawned)), "count");
  out.add("engine.tasks_stolen", t.per_pass(static_cast<double>(t.sum.stolen)),
          "count");
  out.add("engine.tasks_inlined",
          t.per_pass(static_cast<double>(t.sum.inlined)), "count");
  out.add("engine.join_waits",
          t.per_pass(static_cast<double>(t.sum.join_waits)), "count");
  out.add("engine.join_park_s", t.per_pass(park_ns * 1e-9), "s");
  for (const char* name : kForkPhases) {
    double spawned = 0;
    for (std::size_t i = 0; i < engine::kNumForkPhases; ++i)
      if (std::strcmp(
              engine::fork_phase_name(static_cast<engine::ForkPhase>(i)),
              name) == 0)
        spawned = static_cast<double>(t.sum.phase[i].spawned);
    out.add(std::string("engine.phase.") + name + ".spawned",
            t.per_pass(spawned), "count");
  }
  out.add("engine.fork_efficiency", e.fork_efficiency, "ratio");
}

void add_sim(Metrics& out, const SimLayer& s) {
  const LayerWalk& w = s.walk;
  out.add("sim.dc_uniproc_s", s.dc_s, "s");
  out.add("sim.multiproc_s", s.mp_s, "s");
  out.add("sim.naive_s", w.naive_s, "s");
  out.add("sim.reference_s", s.reference_s, "s");
  out.add("sim.calls", s.calls, "count");
  out.add("sim.vertices", s.vertices, "count");
  out.add("sim.driver_s", s.dc_s + s.mp_s - w.sep_s, "s");
  out.add("sep.execute_s", w.sep_s, "s");
  out.add("sep.execute_calls", w.sep_calls, "count");
  out.add("sep.vertices", w.sep_vertices, "count");
  out.add("sep.peak_staging_words", w.peak_staging, "words");
  out.add("sep.staging_allocs", w.staging_allocs, "count");
  out.add("geom.nodes", w.nodes, "count");
  out.add("geom.leaves", w.leaves, "count");
  out.add("geom.boundary_words", w.boundary_words, "words");
  out.add("geom.split_s", w.split_s, "s");
  out.add("geom.count_s", w.count_s, "s");
  out.add("geom.share", s.geom_share(), "ratio");
  for (std::size_t k = 0; k < core::CostLedger::kNumKinds; ++k)
    out.add(std::string("core.events.") +
                core::to_string(static_cast<core::CostKind>(k)),
            s.events[k], "count");
}

}  // namespace

void add_per_layer(Metrics& out, const TableLayer& tables,
                   const EngineLayer& engine, const SimLayer& sim,
                   const RoundTimes& rt) {
  const double t1 = median(rt.t1), tN = median(rt.tN);
  out.add("suite_t1_s", t1, "s");
  out.add("suite_tN_s", tN, "s");
  out.add("suite_speedup", tN > 0 ? t1 / tN : 0.0, "ratio");
  for (std::size_t i = 0; i < std::size(kReproEmitters); ++i) {
    const std::string base = std::string("tables.") + kReproEmitters[i];
    out.add(base + "_t1_s", i < tables.t1_s.size() ? tables.t1_s[i] : 0.0,
            "s");
    out.add(base + "_tN_s", i < tables.tN_s.size() ? tables.tN_s[i] : 0.0,
            "s");
  }
  add_engine(out, engine);
  add_sim(out, sim);
  out.add("trace.overhead.suite_t1_s",
          median(rt.t1_traced) - median(rt.t1_bare), "s");
  out.add("trace.overhead.suite_tN_s",
          median(rt.tN_traced) - median(rt.tN_bare), "s");
}

}  // namespace perfbench
