// Multiprocessor simulation — Theorem 4 (d=1) and Theorem 1 for d=2
// (the paper defers the d=2 details to its companion report; this
// driver follows the d=1 pattern with the d-dimensional separator).
//
// Structure, mirroring Section 4.2:
//  * one-time memory rearrangement pi2*pi1 (charged to `preprocess`,
//    amortized away by the paper over repeated simulation cycles);
//  * Regime 1: recursive bisection of each machine-wide domain down to
//    macro domains of width p^(1/d) * s, charging the relocation of
//    each child's preboundary/out-set at rearranged distance
//    width/p^(1/d) with p-fold parallelism;
//  * Regime 2: each macro domain is covered by a grid of width-s
//    subtiles (the D(s) diamonds), executed in anti-diagonal wavefronts
//    of up to p mutually independent subtiles — the paper's 2p-1 stages
//    alternating whole and shared ("cooperating mode") diamonds. Each
//    subtile is assigned to the processor owning its home strip;
//    preboundary words resting in that processor's memory are charged
//    at the macro working-set address scale, words crossing a strip
//    boundary are charged as interprocessor communication over one
//    link, and the subtile body runs through the separator executor
//    (recursing to Theorem-3 executable diamonds of width m).
//
// Parallel execution (doc/ENGINE.md "Task layer"): two coarse
// antichains fork into the ambient engine::TaskScheduler — top-level
// machine-tile wavefronts with at least MultiprocConfig::wave_grain
// tiles, and equal-uppers runs of regime-1 bisection children when the
// node is wider than MultiprocConfig::reloc_grain. Regime-2 waves and
// subtile bodies run in order inside whichever fork encloses them
// (forking them too cost more in task bookkeeping than it returned;
// doc/ENGINE.md "Fork points"). Each fork runs against a private
// StagingShard and records its side effects — relocation charges,
// subtile charge logs, barriers — in a PhaseLog instead of touching
// the shared ledgers, clocks, planner, or op stream. The join replays
// the logs in canonical (fork) order on the calling thread,
// reproducing the serial floating-point charge sequence, clock
// trajectory, staging trajectory and emitted op stream bit for bit at
// any thread count.
//
// Op emission is part of that replay — the planner and the emitter
// only ever run on the joining thread, after the forks completed, in
// exactly the serial order — so the emitted stream is byte-identical
// whether a phase forked or not, and the grain knobs are the only
// forking gates.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/expect.hpp"
#include "core/logmath.hpp"
#include "engine/trace.hpp"
#include "geom/tiling.hpp"
#include "machine/clocks.hpp"
#include "machine/spec.hpp"
#include "sched/parallel.hpp"
#include "sched/planner.hpp"
#include "sep/executor.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/observe.hpp"
#include "sim/result.hpp"

namespace bsmp::sim {

struct MultiprocConfig {
  std::int64_t s = 0;           ///< strip width in nodes; 0: sqrt(n/p)
  std::int64_t leaf_width = 0;  ///< 0: min(m, s)
  double space_const = 6.0;
  bool charge_rearrangement = true;
  /// Region width above which regime-1 bisection forks its equal-uppers
  /// child runs into the ambient scheduler; 0 disables. Execution is
  /// bit-identical either way. Defaults from sep::default_reloc_grain()
  /// (BSMP_RELOC_GRAIN).
  std::int64_t reloc_grain = sep::default_reloc_grain();
  /// Minimum number of machine tiles in a top-level wavefront at which
  /// the wave forks; 0 disables, values below 2 behave as 2. Regime-2
  /// subtile waves never fork. Bit-identical either way. Defaults from
  /// sep::default_wave_grain() (BSMP_WAVE_GRAIN).
  std::int64_t wave_grain = sep::default_wave_grain();
  /// Opt-in hot-path observability (see DcConfig::metrics).
  engine::Metrics* metrics = nullptr;
  std::string hot_label;
};

/// A regime-2 subtile's preboundary words by strip: `resident` words
/// lie in the home strip (strips are s nodes wide along every axis),
/// `cross` words lie in another strip and cross a strip boundary.
struct StripSplit {
  std::size_t resident = 0;
  std::size_t cross = 0;
};

/// Split `sub`'s preboundary by strip, one preboundary run at a time
/// (the runs come from the translation-class memo): the outer
/// coordinates place a whole run in or out of the home strip, and the
/// innermost one intersects the run with [home·s, home·s + s − 1].
/// Equal to classifying each point by x / s.
template <int D>
StripSplit preboundary_strip_split(const geom::Region<D>& sub,
                                   const std::array<std::int64_t, D>& home,
                                   std::int64_t s) {
  StripSplit out;
  const std::int64_t a = home[D - 1] * s;
  const std::int64_t b = a + s - 1;
  sub.preboundary_runs([&](const geom::Point<D>& q, std::int64_t hi) {
    bool home_row = true;
    for (int i = 0; i + 1 < D; ++i)
      home_row = home_row && q.x[i] / s == home[i];
    const std::int64_t len = hi - q.x[D - 1] + 1;
    const std::int64_t in =
        home_row
            ? std::max<std::int64_t>(
                  0, std::min(hi, b) - std::max(q.x[D - 1], a) + 1)
            : 0;
    out.resident += static_cast<std::size_t>(in);
    out.cross += static_cast<std::size_t>(len - in);
  });
  return out;
}

template <int D, class V = sep::Word>
class MultiprocSimulator {
 public:
  MultiprocSimulator(const sep::BasicGuest<D, V>* guest,
                     const machine::MachineSpec& host, MultiprocConfig cfg)
      : guest_(guest),
        host_(host),
        cfg_(cfg),
        clocks_(host.p),
        staging_(&guest->stencil) {
    guest_->validate();
    host_.validate();
    const geom::Stencil<D>& st = guest_->stencil;
    BSMP_REQUIRE_MSG(host_.d == D, "host dimension mismatch");
    BSMP_REQUIRE_MSG(host_.n == st.num_nodes(),
                     "host volume must equal guest node count");
    BSMP_REQUIRE_MSG(host_.m >= st.m,
                     "the technology density m must cover the guest's "
                     "per-node memory m' (Section 6)");
    proc_side_ = host_.proc_side();
    node_side_ = host_.node_side();
    if (cfg_.s <= 0) {
      cfg_.s = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::sqrt(
                 static_cast<double>(host_.n) / static_cast<double>(host_.p))));
    }
    BSMP_REQUIRE_MSG(cfg_.s * proc_side_ <= node_side_ || host_.p == 1,
                     "strip width s too large: s * p^(1/d) must not exceed "
                     "the node side");
    macro_w_ = std::min(node_side_, cfg_.s * proc_side_);
    leaf_w_ = cfg_.leaf_width > 0 ? cfg_.leaf_width
                                  : std::max<std::int64_t>(
                                        1, std::min(st.m, cfg_.s));
    leaf_w_ = std::min(leaf_w_, cfg_.s);

    exec_cfg_.leaf_width = leaf_w_;
    exec_cfg_.f = host_.access_fn();
    exec_cfg_.space_const = cfg_.space_const;
    // Subtile bodies run serially; the machine-tile and relocation
    // forks above them carry the parallelism.
    exec_cfg_.parallel_grain = 0;
    exec_.emplace(guest_, exec_cfg_);
    ledgers_.resize(static_cast<std::size_t>(host_.p));

    // Working-set address scale of a subtile's resident data inside its
    // processor's memory after Regime 1 brought the macro domain near;
    // run-wide constants (they depend on macro_w_, not the macro at
    // hand), hoisted so forked subtile bodies share them.
    s_rest_ = cfg_.space_const *
                  static_cast<double>(std::min(st.reach(), macro_w_)) *
                  std::pow(static_cast<double>(cfg_.s), D) +
              8.0;
    f_rest_ = host_.access_fn()(static_cast<std::uint64_t>(s_rest_));
    link_ = host_.link_length();

    sched::PlannerConfig<D> pcfg;
    pcfg.tile_width = node_side_;
    pcfg.leaf_width = leaf_w_;
    pcfg.space_const = cfg_.space_const;
    planner_.emplace(&guest_->stencil, pcfg);
  }

  /// When set, the simulator additionally emits its exact op stream as
  /// a ParallelSchedule (must be constructed with p == host.p); its
  /// makespan_under(host access fn) reproduces run()'s virtual time.
  /// Emission happens on the canonical-order replay path, so it is
  /// byte-identical whether phases fork or run serially (header
  /// comment).
  void set_emit(sched::ParallelSchedule<D>* emit) {
    if (emit != nullptr)
      BSMP_REQUIRE_MSG(emit->num_procs() == host_.p,
                       "schedule must have as many processors as the host");
    emit_ = emit;
  }

  SimResult<D, V> run() {
    const geom::Stencil<D>& st = guest_->stencil;
    SimResult<D, V> res;

    if (cfg_.charge_rearrangement) {
      // n*m words travel an average distance ~node_side/2 with p-fold
      // parallelism (Section 4.2: O(n^2 m / p) for d=1).
      res.preprocess = static_cast<core::Cost>(host_.n) *
                       static_cast<core::Cost>(host_.m) *
                       (static_cast<core::Cost>(node_side_) / 2.0) /
                       static_cast<core::Cost>(host_.p);
      res.ledger.charge(core::CostKind::kRearrange, res.preprocess);
    }

    geom::TileGrid<D> grid(&st, node_side_);
    auto waves = grid.wavefronts();
    std::vector<std::int64_t> suffix_tmin(waves.size() + 1, st.horizon);
    for (std::size_t k = waves.size(); k-- > 0;) {
      std::int64_t mn = suffix_tmin[k + 1];
      for (const auto& tile : waves[k])
        mn = std::min(mn, tile.time_range().first);
      suffix_tmin[k] = mn;
    }

    const double rdist = relocation_distance(node_side_);
    const auto hot_t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < waves.size(); ++k) {
      if (wave_parallel(waves[k].size())) {
        exec_tilewave_forked(waves[k], k, rdist);
      } else {
        PhaseCtx<Store> cx{&staging_, nullptr};
        for (const auto& tile : waves[k]) {
          engine::trace::Span tile_span(engine::trace::Cat::kSim,
                                        "machine-tile", tile.width(),
                                        static_cast<std::int64_t>(k));
          Probe probe = tile.probe();
          charge_relocation_ctx(cx, preboundary_words(tile, probe), rdist);
          relocate_rec(tile, probe, cx);
        }
      }
      detail::prune_staging<D>(st, staging_, suffix_tmin[k + 1]);
    }
    if (cfg_.metrics != nullptr) {
      engine::HotPathMetric h;
      h.label = cfg_.hot_label.empty() ? "multiproc" : cfg_.hot_label;
      h.vertices = exec_->vertices_executed();
      h.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - hot_t0)
                      .count();
      h.peak_staging_words = exec_->peak_staging();
      h.staging_allocs = staging_.level_allocs();
      cfg_.metrics->record_hot(std::move(h));
    }

    for (auto& l : ledgers_) res.ledger += l;
    res.vertices = exec_->vertices_executed();
    res.row_leaves = exec_->row_leaves();
    res.time = clocks_.makespan();
    res.guest_time = static_cast<core::Cost>(st.horizon);
    res.utilization = clocks_.utilization();
    res.final_values = extract_final<D>(st, staging_);
    return res;
  }

 private:
  using Delta = typename sep::Executor<D, V>::ExecDelta;
  /// The root staging store, and the overlay every fork writes into
  /// (a fork within a fork overlays the enclosing shard).
  using Store = sep::StagingStore<D, V>;
  using Shard = sep::StagingShard<D, V>;
  using Probe = typename geom::Region<D>::Probe;

  // -------------------------------------------------------------------
  // Phase logs: the recorded side effects of one forked subtree. A
  // fork writes staged values into its private shard and pushes one
  // step per serial side effect; the join replays the steps in
  // canonical order against the shared ledgers / clocks / planner /
  // emitter, reproducing the serial execution exactly.
  // -------------------------------------------------------------------

  /// One charge_relocation() call (regime-1 preboundary/out-set move).
  struct RelocStep {
    std::size_t words = 0;
    double dist = 0.0;
  };

  /// One regime-2 subtile: its identity and home processor, the
  /// preboundary split, the pre/body charge logs and the executor
  /// delta. The body cost is *not* precomputed: the serial path reads
  /// it off the live ledger (total() - before), so the replay must
  /// recompute it against the ledger state at replay time.
  struct SubtileStep {
    std::optional<geom::Region<D>> sub;  // optional: Region has no default ctor
    std::int64_t pr = 0;
    std::size_t resident = 0, cross = 0;
    core::ChargeLog pre, body;
    Delta delta{};
  };

  /// One end-of-wave clock barrier (plus its emitted op).
  struct BarrierStep {};

  using PhaseStep = std::variant<RelocStep, SubtileStep, BarrierStep>;
  using PhaseLog = std::vector<PhaseStep>;

  /// Where a (possibly forked) subtree reads and writes: its staging
  /// view, and — when forked — the log that defers its charges. A null
  /// log means direct mode: charges go straight to the shared ledgers
  /// and clocks, exactly the pre-fork serial path.
  template <class S>
  struct PhaseCtx {
    S* store = nullptr;
    PhaseLog* log = nullptr;
  };

  /// One forked subtree: its recorded steps and its private overlay.
  struct Fork {
    PhaseLog log;
    std::optional<Shard> shard;
  };

  double relocation_distance(std::int64_t width) const {
    // After the pi2*pi1 rearrangement, transfers for a width-w domain
    // occur at distance w / p^(1/d) (Section 4.2), never below one.
    double d = static_cast<double>(width) /
               static_cast<double>(proc_side_);
    return d < 1.0 ? 1.0 : d;
  }

  void charge_relocation(std::size_t words, double dist) {
    if (words == 0) return;
    core::Cost work = static_cast<core::Cost>(words) * dist;
    core::Cost share = work / static_cast<core::Cost>(host_.p);
    for (std::int64_t pr = 0; pr < host_.p; ++pr) clocks_.advance(pr, share);
    ledgers_[0].charge(core::CostKind::kBlockMove, work, words);
    clocks_.barrier();
    if (emit_ != nullptr) {
      sched::Op<D> op;
      op.kind = sched::OpKind::kRelocate;
      op.words = static_cast<std::int64_t>(words);
      op.distance = dist;
      emit_->push(op);
    }
  }

  template <class S>
  void charge_relocation_ctx(PhaseCtx<S>& cx, std::size_t words,
                             double dist) {
    if (words == 0) return;
    if (cx.log != nullptr) {
      cx.log->push_back(RelocStep{words, dist});
      return;
    }
    charge_relocation(words, dist);
  }

  /// End-of-wave synchronization: all processor clocks meet.
  void wave_barrier() {
    clocks_.barrier();
    if (emit_ != nullptr) {
      sched::Op<D> b;
      b.kind = sched::OpKind::kBarrier;
      emit_->push(b);
    }
  }

  bool sched_parallel() const {
    engine::TaskScheduler* s = engine::TaskScheduler::current();
    return s != nullptr && s->parallel();
  }

  /// Fork a top-level machine-tile wave when it has enough tiles and
  /// forks can actually run concurrently.
  bool wave_parallel(std::size_t units) const {
    if (cfg_.wave_grain <= 0) return false;
    if (static_cast<std::int64_t>(units) <
        std::max<std::int64_t>(2, cfg_.wave_grain))
      return false;
    return sched_parallel();
  }

  /// Fork a regime-1 node's equal-uppers child runs when the node is
  /// above the relocation grain.
  bool reloc_parallel(const geom::Region<D>& r) const {
    return cfg_.reloc_grain > 0 && r.width() > cfg_.reloc_grain &&
           sched_parallel();
  }

  // -------------------------------------------------------------------
  // Replay: apply a fork's recorded steps to the shared state, in
  // canonical order, on the joining thread. `base` is staging_'s size
  // when the forked group's serial-equivalent execution would have
  // started; `cum` accumulates the executor net deltas of the replayed
  // subtiles so absorb() sees the exact serial staging trajectory.
  // -------------------------------------------------------------------

  void merge_subtile_step(SubtileStep& sb, std::size_t base,
                          std::int64_t& cum) {
    core::CostLedger& lg = ledgers_[static_cast<std::size_t>(sb.pr)];
    sb.pre.replay_into(lg);
    // The serial path's exact cost expression, with the executor's
    // contribution recovered through the same total()-before read.
    core::Cost cost = 0;
    cost += 2.0 * f_rest_ * static_cast<core::Cost>(sb.resident);
    if (sb.cross > 0) cost += link_ * static_cast<core::Cost>(sb.cross);
    core::Cost before = lg.total();
    sb.body.replay_into(lg);
    cost += lg.total() - before;
    clocks_.advance(sb.pr, cost);
    exec_->absorb(sb.delta, base + static_cast<std::size_t>(cum));
    cum += sb.delta.net;
    emit_subtile_ops(*sb.sub, sb.pr, sb.resident, sb.cross);
  }

  void replay_phase_log(PhaseLog& log, std::size_t base, std::int64_t& cum) {
    for (PhaseStep& step : log) {
      if (auto* rs = std::get_if<RelocStep>(&step)) {
        charge_relocation(rs->words, rs->dist);
      } else if (auto* sb = std::get_if<SubtileStep>(&step)) {
        merge_subtile_step(*sb, base, cum);
      } else {
        wave_barrier();
      }
    }
  }

  /// Join a group of forked subtrees. Nested in another fork: splice
  /// the logs (the enclosing join replays them) and fold the shards
  /// into the enclosing shard. At the root: replay each log against
  /// the shared state and fold the shards into staging_ — always in
  /// canonical fork order.
  template <class S>
  void join_forked_group(std::vector<Fork>& forks, PhaseCtx<S>& cx) {
    engine::trace::Span merge_span(engine::trace::Cat::kTask, "shard-merge",
                                   static_cast<std::int64_t>(forks.size()));
    if (cx.log != nullptr) {
      for (Fork& fk : forks) {
        for (PhaseStep& step : fk.log)
          cx.log->push_back(std::move(step));
        fk.shard->merge_into(*cx.store);
      }
      return;
    }
    const std::size_t base = staging_.size();
    std::int64_t cum = 0;
    for (Fork& fk : forks) {
      replay_phase_log(fk.log, base, cum);
      fk.shard->merge_into(staging_);
    }
  }

  // -------------------------------------------------------------------
  // Regime 1
  // -------------------------------------------------------------------

  /// Regime 1: bisect down to macro width, charging relocations.
  /// `probe` is r.probe(), shared with the caller's counts.
  template <class S>
  void relocate_rec(const geom::Region<D>& r, Probe& probe,
                    PhaseCtx<S>& cx) {
    if (r.width() <= macro_w_) {
      regime2(r, cx);
      return;
    }
    engine::trace::Span span(engine::trace::Cat::kSim, "regime1-relocate",
                             r.width());
    typename geom::Region<D>::Children children;
    r.split_into(children, probe);
    if (reloc_parallel(r)) {
      relocate_children_forked(r, children, cx);
    } else {
      for (const geom::Region<D>& child : children) relocate_child(child, cx);
    }
  }

  template <class S>
  void relocate_child(const geom::Region<D>& child, PhaseCtx<S>& cx) {
    double dist = relocation_distance(child.width());
    Probe probe = child.probe();
    charge_relocation_ctx(cx, preboundary_words(child, probe), dist);
    relocate_rec(child, probe, cx);
    charge_relocation_ctx(cx, outset_words(child, probe), dist);
  }

  /// Regime-1 boundary word counts, from the memo through r's probe;
  /// validation mode checks each against the materialized set.
  std::size_t preboundary_words(const geom::Region<D>& r, Probe& probe) const {
    const std::int64_t n = r.preboundary_count(probe);
    if (exec_cfg_.validate) sep::validate_preboundary_count(r, n);
    return static_cast<std::size_t>(n);
  }

  std::size_t outset_words(const geom::Region<D>& r, Probe& probe) const {
    const std::int64_t n = r.outset_count(probe);
    if (exec_cfg_.validate) sep::validate_outset_count(r, n);
    return static_cast<std::size_t>(n);
  }

  /// Fork runs of consecutive equal-uppers children of one regime-1
  /// node (antichains; geom::RegionChildren::for_each_equal_uppers_run).
  /// Singleton runs execute in place so later runs see their out-sets.
  template <class S>
  void relocate_children_forked(
      const geom::Region<D>& r,
      const typename geom::Region<D>::Children& children, PhaseCtx<S>& cx) {
    children.for_each_equal_uppers_run(r, [&](std::size_t i, std::size_t j) {
      if (j - i == 1) {
        relocate_child(children[i], cx);
      } else {
        std::vector<Fork> forks(j - i);
        for (Fork& fk : forks) fk.shard.emplace(sep::overlay, *cx.store);
        engine::TaskScope scope(engine::ForkPhase::kRegime1Relocate);
        for (std::size_t k = i; k < j; ++k) {
          Fork& fk = forks[k - i];
          const geom::Region<D>& child = children[k];
          scope.fork([this, &fk, &child] {
            PhaseCtx<Shard> sub{&*fk.shard, &fk.log};
            relocate_child(child, sub);
          });
        }
        scope.join();
        join_forked_group(forks, cx);
      }
    });
  }

  /// Fork one top-level machine-tile wavefront (tiles of one
  /// anti-diagonal are mutually independent); each tile records its
  /// whole regime-1 subtree in a PhaseLog over a private shard.
  template <class TileWave>
  void exec_tilewave_forked(const TileWave& wave, std::size_t k,
                            double rdist) {
    std::vector<Fork> forks(wave.size());
    for (Fork& fk : forks) fk.shard.emplace(sep::overlay, staging_);
    engine::TaskScope scope(engine::ForkPhase::kMachineTile);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      Fork& fk = forks[i];
      const auto& tile = wave[i];
      scope.fork([this, &fk, &tile, k, rdist] {
        engine::trace::Span tile_span(engine::trace::Cat::kSim,
                                      "machine-tile", tile.width(),
                                      static_cast<std::int64_t>(k));
        PhaseCtx<Shard> cx{&*fk.shard, &fk.log};
        Probe probe = tile.probe();
        charge_relocation_ctx(cx, preboundary_words(tile, probe), rdist);
        relocate_rec(tile, probe, cx);
      });
    }
    scope.join();
    PhaseCtx<Store> root{&staging_, nullptr};
    join_forked_group(forks, root);
  }

  // -------------------------------------------------------------------
  // Regime 2
  // -------------------------------------------------------------------

  std::int64_t proc_of_strip(const std::array<std::int64_t, D>& strip) const {
    std::int64_t pr = 0;
    for (int i = 0; i < D; ++i)
      pr = pr * proc_side_ + core::mod_floor(strip[i], proc_side_);
    return pr;
  }

  std::array<std::int64_t, D> strip_of(const std::array<int64_t, D>& x) const {
    std::array<std::int64_t, D> s;
    for (int i = 0; i < D; ++i) s[i] = x[i] / cfg_.s;
    return s;
  }

  /// A subtile's root preboundary, resident words vs strip-crossing
  /// words; validation mode checks the memo-served runs it counts.
  StripSplit split_preboundary(const geom::Region<D>& sub,
                               const std::array<std::int64_t, D>& home) const {
    if (exec_cfg_.validate)
      sep::validate_runs<D>([&](auto&& f) { sub.preboundary_runs(f); },
                            [&](auto&& f) { sub.preboundary_spans(f); },
                            "preboundary_runs != preboundary_spans");
    return preboundary_strip_split<D>(sub, home, cfg_.s);
  }

  /// Regime 2: execute a macro domain via width-s subtile wavefronts.
  template <class S>
  void regime2(const geom::Region<D>& macro, PhaseCtx<S>& cx) {
    engine::trace::Span macro_span(engine::trace::Cat::kSim, "regime2-macro",
                                   macro.width());
    constexpr int K = geom::kMono<D>;
    const geom::Stencil<D>& st = guest_->stencil;

    std::array<std::int64_t, K> cells;
    for (int k = 0; k < K; ++k)
      cells[k] = core::div_ceil(macro.hi()[k] - macro.lo()[k], cfg_.s);

    // Group subtiles by wavefront (sum of grid indices).
    std::int64_t max_sum = 0;
    for (int k = 0; k < K; ++k) max_sum += cells[k] - 1;
    std::vector<std::vector<geom::Region<D>>> waves(
        static_cast<std::size_t>(max_sum + 1));
    std::array<std::int64_t, K> g{};
    for (;;) {
      std::array<std::int64_t, K> lo, hi;
      std::int64_t sum = 0;
      for (int k = 0; k < K; ++k) {
        lo[k] = macro.lo()[k] + g[k] * cfg_.s;
        hi[k] = std::min(macro.hi()[k], lo[k] + cfg_.s);
        sum += g[k];
      }
      geom::Region<D> sub(&st, lo, hi);
      if (!sub.empty())
        waves[static_cast<std::size_t>(sum)].push_back(std::move(sub));
      int k = 0;
      while (k < K) {
        if (++g[k] < cells[k]) break;
        g[k] = 0;
        ++k;
      }
      if (k == K) break;
    }

    for (std::size_t wi = 0; wi < waves.size(); ++wi) {
      const auto& wave = waves[wi];
      engine::trace::Span wave_span(engine::trace::Cat::kSim, "regime2-wave",
                                    static_cast<std::int64_t>(wave.size()),
                                    static_cast<std::int64_t>(wi));
      if (cx.log != nullptr) {
        // Within an enclosing fork: execute against the fork's shard,
        // recording each subtile as a step for the join replay.
        for (const geom::Region<D>& sub : wave) {
          cx.log->push_back(SubtileStep{});
          make_subtile_step(sub, *cx.store,
                            std::get<SubtileStep>(cx.log->back()));
        }
      } else {
        for (const geom::Region<D>& sub : wave) exec_subtile(sub);
      }
      if (cx.log != nullptr)
        cx.log->push_back(BarrierStep{});
      else
        wave_barrier();
    }
  }

  /// The logged subtile body: identify the home processor,
  /// split the preboundary, record the pre charges and run the body
  /// through the executor against `store` — no shared state touched.
  template <class S>
  void make_subtile_step(const geom::Region<D>& sub, S& store,
                         SubtileStep& sb) {
    sb.sub = sub;
    auto fp = sub.first_point();
    BSMP_ASSERT(fp.has_value());
    auto home = strip_of(fp->x);
    sb.pr = proc_of_strip(home);
    // Span args match exec_subtile's so the deterministic span set is
    // the same whether the enclosing tile forked or ran serially.
    engine::trace::Span sub_span(engine::trace::Cat::kSim, "regime2-subtile",
                                 sub.width(), sb.pr);
    const StripSplit split = split_preboundary(sub, home);
    sb.resident = split.resident;
    sb.cross = split.cross;
    sb.pre.charge(core::CostKind::kBlockMove,
                  2.0 * f_rest_ * static_cast<core::Cost>(sb.resident),
                  sb.resident);
    if (sb.cross > 0)
      sb.pre.charge(core::CostKind::kComm,
                    link_ * static_cast<core::Cost>(sb.cross), sb.cross);
    sb.delta = exec_->execute_delta(sub, store, sb.body);
  }

  /// One subtile of a Regime-2 wave, serially at the root (the
  /// reference path: charges hit the shared ledgers directly).
  void exec_subtile(const geom::Region<D>& sub) {
    auto fp = sub.first_point();
    BSMP_ASSERT(fp.has_value());
    auto home = strip_of(fp->x);
    std::int64_t pr = proc_of_strip(home);
    engine::trace::Span sub_span(engine::trace::Cat::kSim, "regime2-subtile",
                                 sub.width(), pr);

    // Root preboundary: resident words vs strip-crossing words.
    const auto [resident, cross] = split_preboundary(sub, home);

    core::Cost cost = 0;
    cost += 2.0 * f_rest_ * static_cast<core::Cost>(resident);
    ledgers_[static_cast<std::size_t>(pr)].charge(
        core::CostKind::kBlockMove,
        2.0 * f_rest_ * static_cast<core::Cost>(resident), resident);
    if (cross > 0) {
      core::Cost c = link_ * static_cast<core::Cost>(cross);
      cost += c;
      ledgers_[static_cast<std::size_t>(pr)].charge(core::CostKind::kComm,
                                                    c, cross);
    }

    // Subtile body via the separator executor, charged to pr.
    exec_->set_ledger(&ledgers_[static_cast<std::size_t>(pr)]);
    core::Cost before = ledgers_[static_cast<std::size_t>(pr)].total();
    exec_->execute(sub, staging_);
    cost += ledgers_[static_cast<std::size_t>(pr)].total() - before;

    clocks_.advance(pr, cost);
    emit_subtile_ops(sub, pr, resident, cross);
  }

  /// Emit one subtile's ops. Only ever called on the root thread — by
  /// the serial path in wave order, or by the join replay in canonical
  /// order — so the planner's shared caches see no concurrency and the
  /// stream is byte-identical either way.
  void emit_subtile_ops(const geom::Region<D>& sub, std::int64_t pr,
                        std::size_t resident, std::size_t cross) {
    if (emit_ == nullptr) return;
    if (resident > 0) {
      sched::Op<D> in;
      in.kind = sched::OpKind::kCopyIn;
      in.proc = pr;
      in.words = static_cast<std::int64_t>(resident);
      in.addr_scale = s_rest_;
      emit_->push(in);
    }
    if (cross > 0) {
      sched::Op<D> cm;
      cm.kind = sched::OpKind::kComm;
      cm.proc = pr;
      cm.words = static_cast<std::int64_t>(cross);
      cm.distance = link_;
      emit_->push(cm);
    }
    // The subtile body: the serial planner emits exactly the op
    // stream the executor charges; annotate it with pr.
    sched::Schedule<D> body;
    planner_->plan_region(body, sub);
    for (sched::Op<D> op : body.ops()) {
      op.proc = pr;
      emit_->push(op);
    }
  }

  const sep::BasicGuest<D, V>* guest_;
  machine::MachineSpec host_;
  MultiprocConfig cfg_;
  sep::ExecutorConfig exec_cfg_;
  machine::ProcClocks clocks_;
  std::vector<core::CostLedger> ledgers_;
  std::optional<sep::Executor<D, V>> exec_;
  std::optional<sched::Planner<D>> planner_;
  sched::ParallelSchedule<D>* emit_ = nullptr;
  Store staging_;
  std::int64_t proc_side_ = 1;
  std::int64_t node_side_ = 1;
  std::int64_t macro_w_ = 1;
  std::int64_t leaf_w_ = 1;
  double s_rest_ = 0.0;
  core::Cost f_rest_ = 0;
  core::Cost link_ = 0;
};

template <int D, class V>
SimResult<D, V> simulate_multiproc(const sep::BasicGuest<D, V>& guest,
                                   const machine::MachineSpec& host,
                                   MultiprocConfig cfg = {}) {
  MultiprocSimulator<D, V> sim(&guest, host, cfg);
  return sim.run();
}

}  // namespace bsmp::sim
