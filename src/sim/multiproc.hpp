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
// The p processors are simulated, not run: their work is charged to
// per-processor ledgers and clocks, and run() executes every phase on
// the calling thread in the order above, so the charge sequence, the
// clock trajectory and the emitted op stream are a function of the
// inputs alone. Host threads parallelize across simulator calls (sweep
// points on engine::Pool; doc/ENGINE.md "Task layer").
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
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
  /// Read by nothing; the benchmark harness still sets them (ROADMAP item 1).
  std::int64_t reloc_grain = 0;
  std::int64_t wave_grain = 0;
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
    exec_.emplace(guest_, exec_cfg_);
    ledgers_.resize(static_cast<std::size_t>(host_.p));

    // Working-set address scale of a subtile's resident data inside its
    // processor's memory after Regime 1 brought the macro domain near;
    // run-wide constants (they depend on macro_w_, not the macro at
    // hand), hoisted out of the per-subtile charge.
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
      for (const auto& tile : waves[k]) {
        engine::trace::Span tile_span(engine::trace::Cat::kSim,
                                      "machine-tile", tile.width(),
                                      static_cast<std::int64_t>(k));
        Probe probe = tile.probe();
        charge_relocation(preboundary_words(tile, probe), rdist);
        relocate_rec(tile, probe);
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
  using Probe = typename geom::Region<D>::Probe;

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

  /// End-of-wave synchronization: all processor clocks meet.
  void wave_barrier() {
    clocks_.barrier();
    if (emit_ != nullptr) {
      sched::Op<D> b;
      b.kind = sched::OpKind::kBarrier;
      emit_->push(b);
    }
  }

  // -------------------------------------------------------------------
  // Regime 1
  // -------------------------------------------------------------------

  /// Regime 1: bisect down to macro width, charging relocations.
  /// `probe` is r.probe(), shared with the caller's counts.
  void relocate_rec(const geom::Region<D>& r, Probe& probe) {
    if (r.width() <= macro_w_) {
      regime2(r);
      return;
    }
    engine::trace::Span span(engine::trace::Cat::kSim, "regime1-relocate",
                             r.width());
    typename geom::Region<D>::Children children;
    r.split_into(children, probe);
    for (const geom::Region<D>& child : children) relocate_child(child);
  }

  void relocate_child(const geom::Region<D>& child) {
    double dist = relocation_distance(child.width());
    Probe probe = child.probe();
    charge_relocation(preboundary_words(child, probe), dist);
    relocate_rec(child, probe);
    charge_relocation(outset_words(child, probe), dist);
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
  void regime2(const geom::Region<D>& macro) {
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
      for (const geom::Region<D>& sub : wave) exec_subtile(sub);
      wave_barrier();
    }
  }

  /// One subtile of a Regime-2 wave, charged to its home processor.
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

  /// Emit one subtile's ops, in wave order.
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
  sep::StagingStore<D, V> staging_;
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
