// sim_small_leaf, sim_wide_leaf, sim_forked: fixed mixes of simulator
// calls on guests generated from the run's seed. Each call is one
// operation, failed when it throws, when its final values differ from
// sim::reference_run, or when its ledger fingerprint differs from the
// reference or from the run's first call of the same config. Charging is
// count-based, so fingerprints do not depend on the seed.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytic/tradeoff.hpp"
#include "engine/pool.hpp"
#include "engine/sweep.hpp"
#include "geom/tiling.hpp"
#include "machine/spec.hpp"
#include "sep/executor.hpp"
#include "sep/staging.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "sim/naive.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bsmp;

namespace {

enum class Kind { kDc, kMultiproc };

/// One simulator call of a mix, on a guest of extent {n} (d=1) or
/// {side, side} (d=2). Zero `s` / `leaf` take the simulator's default;
/// `reloc_grain` is used only when the mix forks.
struct CallSpec {
  const char* label;
  Kind kind;
  int d;
  std::int64_t side, horizon, m, p, s, leaf, reloc_grain;
};

machine::MachineSpec host_of(const CallSpec& c) {
  machine::MachineSpec h;
  h.d = c.d;
  h.n = c.d == 1 ? c.side : c.side * c.side;
  h.p = c.p;
  h.m = c.m;
  return h;
}

/// Strip width of the Theorem-4 emitters: the closed-form s* clamped
/// to the feasible range.
std::int64_t pick_s(std::int64_t n, std::int64_t m, std::int64_t p) {
  auto s = static_cast<std::int64_t>(analytic::s_star(
      static_cast<double>(n), static_cast<double>(m), static_cast<double>(p)));
  s = s < 1 ? 1 : s;
  while (s > 1 && s * p > n) s /= 2;
  return s;
}

// The emitters' own largest m <= 4 points: E3 n=512, E7 side 48,
// E5a/E5b n=256 p=4, E5c n=128 T=1024, E8a side 16 p=4.
std::vector<CallSpec> small_leaf_mix() {
  return {
      {"e3_n512_m1", Kind::kDc, 1, 512, 512, 1, 1, 0, 0, 0},
      {"e7_side48_m1", Kind::kDc, 2, 48, 48, 1, 1, 0, 0, 0},
      {"e5a_n256_p4_m4", Kind::kMultiproc, 1, 256, 256, 4, 4,
       pick_s(256, 4, 4), 0, 0},
      {"e5c_n128_T1024_m2", Kind::kMultiproc, 1, 128, 1024, 2, 4,
       pick_s(128, 2, 4), 0, 0},
      {"e8a_side16_p4_m4", Kind::kMultiproc, 2, 16, 16, 4, 4, 4, 0, 0},
  };
}

// The emitters' own m >= 64 points: E4a n=128, E5a n=256 p=4, and the
// E4c leaf=256 ablation point. These calls take 3-30 ms each, so the
// mix holds each one four times (each on its own seeded guest): one
// pass then lasts long enough that waking the pool's idle workers does
// not dominate the threads=N pass, and its 28 sweep points balance
// across N threads.
std::vector<CallSpec> wide_leaf_mix() {
  std::vector<CallSpec> v;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::int64_t m : {64, 128, 256})
      v.push_back({m == 64 ? "e4a_n128_m64" : m == 128 ? "e4a_n128_m128"
                                                       : "e4a_n128_m256",
                   Kind::kDc, 1, 128, 128, m, 1, 0, 0, 0});
    for (std::int64_t m : {64, 128, 256})
      v.push_back({m == 64 ? "e5a_n256_p4_m64" : m == 128 ? "e5a_n256_p4_m128"
                                                          : "e5a_n256_p4_m256",
                   Kind::kMultiproc, 1, 256, 256, m, 4, pick_s(256, m, 4), 0,
                   0});
    v.push_back({"e4c_n512_m4_leaf256", Kind::kDc, 1, 512, 512, 4, 1, 0, 256,
                 0});
  }
  return v;
}

// The multiproc scaling configs, with every fork point on: waves with
// two or more pieces fork, relocation forks above 64-wide (d=1) /
// 4-wide (d=2) regions, executor recursion forks above 16-wide regions.
constexpr std::int64_t kWaveGrain = 2;
constexpr std::int64_t kExecGrain = 16;
std::vector<CallSpec> forked_mix() {
  return {
      {"sim_d1_n1024", Kind::kMultiproc, 1, 1024, 1024, 2, 16, 32, 0, 64},
      {"sim_d2_n1024", Kind::kMultiproc, 2, 32, 32, 1, 16, 4, 0, 4},
  };
}

/// What one simulator call produced, reduced to what the checks need.
struct Outcome {
  bool values_ok = false;
  std::uint64_t fingerprint = 0;
  std::int64_t vertices = 0;
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv_of(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof v);
}

/// The fingerprint covers the vertex count and the bits of every
/// charged total, ledger cost and ledger event count.
template <int D>
Outcome reduce(const sim::SimResult<D>& res, const sim::SimResult<D>& ref) {
  Outcome o;
  o.values_ok = sim::same_values<D>(res.final_values, ref.final_values);
  o.vertices = res.vertices;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_of(h, res.vertices);
  h = fnv_of(h, res.time);
  h = fnv_of(h, res.guest_time);
  h = fnv_of(h, res.preprocess);
  h = fnv_of(h, res.utilization);
  for (std::size_t k = 0; k < core::CostLedger::kNumKinds; ++k) {
    const auto kind = static_cast<core::CostKind>(k);
    o.events[k] = res.ledger.events(kind);
    h = fnv_of(h, res.ledger.cost(kind));
    h = fnv_of(h, o.events[k]);
  }
  o.fingerprint = h;
  return o;
}

/// Split U down to leaf width as the executor does, counting every
/// child's preboundary and (above leaf width) out-set at each node.
template <int D>
void geom_walk(const geom::Region<D>& U, std::int64_t leaf, LayerWalk& w) {
  w.nodes += 1;
  if (U.width() <= leaf) {
    w.leaves += 1;
    return;
  }
  auto t0 = Clock::now();
  const std::vector<geom::Region<D>> children = U.split();
  w.split_s += since(t0);
  for (const geom::Region<D>& child : children) {
    t0 = Clock::now();
    std::int64_t words = child.preboundary_count();
    if (child.width() > leaf) words += child.outset_count();
    w.count_s += since(t0);
    w.boundary_words += static_cast<double>(words);
    geom_walk(child, leaf, w);
  }
}

/// A call bound to its seeded guest and that guest's reference run.
struct Call {
  CallSpec spec;
  std::function<Outcome(bool grains_on)> run;
  std::function<void(LayerWalk&)> walk;  ///< the traced layer replay
  bool have_first = false;
  std::uint64_t first_fingerprint = 0;
};

template <int D>
Call bind_call(const CallSpec& c, std::uint64_t seed, double& reference_s) {
  std::array<std::int64_t, D> extent;
  extent.fill(c.side);
  const auto g = std::make_shared<const sep::Guest<D>>(
      workload::make_mix_guest<D>(extent, c.horizon, c.m, seed));
  const auto t0 = Clock::now();
  const auto ref =
      std::make_shared<const sim::SimResult<D>>(sim::reference_run<D>(*g));
  reference_s += since(t0);
  Call call;
  call.spec = c;
  call.run = [c, g, ref](bool grains_on) {
    const machine::MachineSpec host = host_of(c);
    if (c.kind == Kind::kDc) {
      Span span("sim.dc_uniproc");
      sim::DcConfig cfg;
      cfg.leaf_width = c.leaf;
      return reduce<D>(sim::simulate_dc_uniproc<D>(*g, host, cfg), *ref);
    }
    Span span("sim.multiproc");
    sim::MultiprocConfig cfg;
    cfg.s = c.s;
    cfg.leaf_width = c.leaf;
    cfg.reloc_grain = grains_on ? c.reloc_grain : 0;
    cfg.wave_grain = grains_on ? kWaveGrain : 0;
    return reduce<D>(sim::simulate_multiproc<D>(*g, host, cfg), *ref);
  };
  call.walk = [c, g](LayerWalk& w) {
    const machine::MachineSpec host = host_of(c);
    const geom::Stencil<D>& st = g->stencil;
    {
      Span span("sim.naive");
      const auto t0 = Clock::now();
      sim::simulate_naive<D>(*g, host);
      w.naive_s += since(t0);
    }
    // The executor's domains: the node-side tiles of dc_uniproc, the
    // width-s regime-2 diamonds of multiproc, with the simulator's own
    // leaf width; tiles run in wavefront order with staging pruned
    // between waves, as dc_uniproc does.
    const std::int64_t tile_w = c.kind == Kind::kDc ? host.node_side() : c.s;
    std::int64_t leaf_w = c.leaf > 0 ? c.leaf : std::min(st.m, tile_w);
    leaf_w = std::max<std::int64_t>(1, std::min(leaf_w, tile_w));
    const auto waves = geom::TileGrid<D>(&st, tile_w).wavefronts();
    std::vector<std::int64_t> suffix_tmin(waves.size() + 1, st.horizon);
    for (std::size_t k = waves.size(); k-- > 0;) {
      std::int64_t mn = suffix_tmin[k + 1];
      for (const auto& tile : waves[k])
        mn = std::min(mn, tile.time_range().first);
      suffix_tmin[k] = mn;
    }
    sep::ExecutorConfig ecfg;
    ecfg.leaf_width = leaf_w;
    ecfg.f = host.access_fn();
    ecfg.parallel_grain = 0;
    sep::Executor<D> exec(g.get(), ecfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    sep::StagingStore<D, sep::Word> staging(&st);
    for (std::size_t k = 0; k < waves.size(); ++k) {
      for (const auto& tile : waves[k]) {
        Span span("sep.execute");
        const auto t0 = Clock::now();
        exec.execute(tile, staging);
        w.sep_s += since(t0);
        w.sep_calls += 1;
      }
      staging.prune_below(suffix_tmin[k + 1] - st.reach(), st.horizon - st.m);
    }
    w.sep_vertices += static_cast<double>(exec.vertices_executed());
    w.peak_staging =
        std::max(w.peak_staging, static_cast<double>(exec.peak_staging()));
    w.staging_allocs += static_cast<double>(staging.level_allocs());
    Span span("geom.walk");
    for (const auto& wave : waves)
      for (const auto& tile : wave) geom_walk<D>(tile, leaf_w, w);
  };
  return call;
}

/// Replay every call's layers three times; times are the medians,
/// counts are the same every time. A config the mix repeats is replayed
/// once and counted once per call. Prints the split per config.
LayerWalk replay_layers(std::vector<Call>& calls,
                        std::map<std::string, std::vector<double>>& call_s) {
  std::map<std::string, LayerWalk> done;
  LayerWalk total;
  for (Call& c : calls) {
    auto it = done.find(c.spec.label);
    if (it != done.end()) {
      total.add(it->second);
      continue;
    }
    std::vector<LayerWalk> reps(3);
    for (LayerWalk& r : reps) c.walk(r);
    auto med = [&](double LayerWalk::*field) {
      std::vector<double> v;
      for (const LayerWalk& r : reps) v.push_back(r.*field);
      return median(v);
    };
    LayerWalk one = reps[0];
    one.sep_s = med(&LayerWalk::sep_s);
    one.split_s = med(&LayerWalk::split_s);
    one.count_s = med(&LayerWalk::count_s);
    one.naive_s = med(&LayerWalk::naive_s);
    const double sim_s = median(call_s[c.spec.label]);
    const double geom_s = one.split_s + one.count_s;
    std::printf("# call %-20s sim %.4fs  sep replay %.4fs  geom %.4fs "
                "(geom share %.3f)\n",
                c.spec.label, sim_s, one.sep_s, geom_s,
                sim_s > 0 ? geom_s / sim_s : 0.0);
    done.emplace(c.spec.label, one);
    total.add(one);
  }
  return total;
}

/// Guest seed of call `i` of a mix: the run's seed spread per call.
std::uint64_t call_seed(std::uint64_t seed, std::size_t i) {
  return engine::point_rng(seed, i).next();
}

}  // namespace

void run_sim(const Options& o, const Expected& exp, Tally& tally,
             Metrics& out) {
  const bool forked = o.workload == "sim_forked";
  const std::vector<CallSpec> mix = forked ? forked_mix()
                                    : o.workload == "sim_wide_leaf"
                                        ? wide_leaf_mix()
                                        : small_leaf_mix();
  // The executor grain is process-wide; the other grains are per call.
  sep::set_default_parallel_grain(forked ? kExecGrain : 0);

  std::vector<Call> calls;
  std::unique_ptr<engine::Pool> pN;
  SimLayer layer;
  EngineLayer engine_obs;
  std::map<std::string, std::vector<double>> call_s;  // traced t1 passes
  std::vector<double> dc_s, mp_s;                     // traced t1 passes

  // Checks one pass's outcomes (in call order) and tallies them.
  auto check = [&](const std::vector<Outcome>& outs) {
    for (std::size_t i = 0; i < outs.size(); ++i) {
      Call& c = calls[i];
      const Outcome& r = outs[i];
      const std::string key = "ledger " + o.workload + " " + c.spec.label;
      if (o.emit_expected) {
        std::printf("%s %s\n", key.c_str(), hex(r.fingerprint).c_str());
        continue;
      }
      if (!c.have_first) {
        c.have_first = true;
        c.first_fingerprint = r.fingerprint;
      }
      const bool ok = r.values_ok && r.fingerprint == c.first_fingerprint &&
                      exp.matches(key, hex(r.fingerprint));
      if (!ok)
        std::fprintf(stderr, "# call %s: output mismatch\n", c.spec.label);
      tally.add(ok);
    }
  };
  auto run_one = [&](std::size_t i, bool grains_on) {
    try {
      return calls[i].run(grains_on);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "# call %s threw: %s\n", calls[i].spec.label,
                   ex.what());
      return Outcome{};
    }
  };
  // threads=1: the calls in order on this thread, no pool bound (for
  // sim_forked every fork gate then takes its serial path).
  auto pass1 = [&](bool observe) {
    std::vector<Outcome> outs;
    double dc = 0, mp = 0;
    RotateCpus rotate;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto tc = Clock::now();
      outs.push_back(run_one(i, forked));
      const double dt = since(tc);
      (calls[i].spec.kind == Kind::kDc ? dc : mp) += dt;
      if (observe) call_s[calls[i].spec.label].push_back(dt);
    }
    const double secs = since(t0);
    if (observe) {
      dc_s.push_back(dc);
      mp_s.push_back(mp);
    }
    check(outs);
    return secs;
  };
  // threads=N: sim_forked binds the pool and the simulator forks; the
  // other mixes run their calls as sweep points, as the emitters do.
  auto passN = [&](bool observe) {
    std::vector<Outcome> outs;
    engine::Metrics sink;
    if (observe) pN->reset_task_stats();
    const auto t0 = Clock::now();
    if (forked) {
      auto bind = pN->bind_caller();
      for (std::size_t i = 0; i < calls.size(); ++i)
        outs.push_back(run_one(i, forked));
    } else {
      std::vector<std::size_t> idx(calls.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      engine::SweepOptions opt;
      opt.metrics = observe ? &sink : nullptr;
      opt.label = o.workload;
      outs = engine::Sweep<std::size_t, Outcome>(idx, opt).run(
          *pN, [&](std::size_t i, engine::SweepContext&) {
            return run_one(i, forked);
          });
    }
    const double secs = since(t0);
    if (observe) {
      engine_obs.tN.passes += 1;
      engine_obs.tN.add_sweeps(sink.snapshot());
      engine_obs.tasks.add(pN->task_stats());
    }
    check(outs);
    return secs;
  };

  // Set-up: the pool, guests, reference runs and one untimed warm-up of
  // each pass the rounds time (threads=N only in traced runs). The
  // first sample also covers process start.
  std::vector<double> setup;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = rep == 0 ? g_process_start : Clock::now();
    calls.clear();
    pN.reset();
    pN = std::make_unique<engine::Pool>(o.threads);
    layer.reference_s = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const std::uint64_t s = call_seed(o.seed, i);
      calls.push_back(mix[i].d == 1
                          ? bind_call<1>(mix[i], s, layer.reference_s)
                          : bind_call<2>(mix[i], s, layer.reference_s));
    }
    if (o.emit_expected) {
      pass1(false);
      return;
    }
    pass1(false);
    if (o.trace) passN(false);
    setup.push_back(since(t0));
  }

  const RoundTimes rt = run_rounds(o.seconds, o.trace, pass1, passN);

  // One more checked pass for the per-pass counts (count-based, so the
  // same on every pass and every seed).
  {
    std::vector<Outcome> outs;
    for (std::size_t i = 0; i < calls.size(); ++i)
      outs.push_back(run_one(i, forked));
    check(outs);
    layer.calls = static_cast<double>(outs.size());
    for (const Outcome& r : outs) {
      layer.vertices += static_cast<double>(r.vertices);
      for (std::size_t k = 0; k < r.events.size(); ++k)
        layer.events[k] += static_cast<double>(r.events[k]);
    }
  }

  print_timings(setup, rt);
  std::printf("# vertices_per_s: t1 %.6g (%.0f vertices per pass)\n",
              layer.vertices / median(rt.t1), layer.vertices);
  if (!o.trace) {
    add_end_to_end(out, setup, rt);
    return;
  }

  // sim_forked's serial rounds (every grain off, no pool): the base of
  // the threads=N passes' fork efficiency.
  if (forked) {
    std::vector<double> serial;
    sep::set_default_parallel_grain(0);
    for (int r = 0; r < 3; ++r) {
      std::vector<Outcome> outs;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < calls.size(); ++i)
        outs.push_back(run_one(i, false));
      serial.push_back(since(t0));
      check(outs);
    }
    sep::set_default_parallel_grain(kExecGrain);
    engine_obs.fork_efficiency =
        median(serial) / (o.threads * median(rt.tN));
  }

  spans_enable(true);
  layer.walk = replay_layers(calls, call_s);
  spans_enable(false);
  layer.dc_s = mean(dc_s);
  layer.mp_s = mean(mp_s);
  std::printf("# layer split: geom share %.4f, sep replay %.4fs, "
              "tasks spawned per threads=N pass %.0f\n",
              layer.geom_share(), layer.walk.sep_s,
              engine_obs.tasks.per_pass(
                  static_cast<double>(engine_obs.tasks.sum.spawned)));
  add_per_layer(out, TableLayer{}, engine_obs, layer, rt);
}

}  // namespace perfbench
