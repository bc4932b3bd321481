// The topological-separator executor: the concrete realization of
// Proposition 2 and Proposition 3.
//
// execute(U, staging) runs every vertex of the convex domain U under
// the contract:
//   * on entry, `staging` holds the values of Γin(U) (the topological-
//     partition property of Definition 4; asserted per point when
//     validation mode is on, and caught by the leaf operand check
//     otherwise);
//   * on return, `staging` additionally holds the values of the
//     out-set of U, and U's interior values have been removed.
//
// Cost model (charged into a CostLedger):
//   * recursion level on domain U: copying the preboundary of each
//     child in and its out-set back out costs 2 f(S(U)) per word
//     (Prop. 2 steps 1 and 3), where S(U) is the space bound of the
//     recurrence S(U) <= max_i S(Ui) + P(U);
//   * leaf (width <= leaf_width): each vertex is executed naively —
//     one unit of compute plus one access per operand and one for the
//     result, each charged f(S(leaf)).
// Setting leaf_width = m realizes Theorem 3's "executable diamonds"
// D(m) executed by naive simulation at cost Θ(m^3); leaf_width = 1 is
// the pure divide-and-conquer of Theorems 2 and 5.
//
// Hot path (see doc/ENGINE.md "Hot path" and doc/PERF.md): recursion
// levels charge from Region::preboundary_count()/outset_count()
// without materializing point vectors, split into an inline child
// array (Region::split_into), and erase dead child staging by
// replaying Region::retention_runs(); leaves stage their out-set from
// Region::outset_runs(). Counts, children and both run lists come from
// Region's translation-class memo, so each shape is computed once, not
// once per node (a run list too long to store is walked directly).
// Each node makes one Region::Probe and passes it to all of these
// queries, so it computes its memo key once and scans the memo's set
// once; leaves run in a dense window
// (sep/staging.hpp LeafWindow: per-time-level prefix offset + row-
// major x offset) instead of a hash map, with per-leaf batched
// kCompute and a bit-exact kLocalAccess charge stream; every vertex is
// evaluated by sep::eval_vertex (sep/guest.hpp), the one Definition-3
// evaluator; staging is a StagingStore<D, V> (O(1) dense addressing;
// sep/staging.hpp). All charged totals are bit-identical to the
// materializing implementation; ExecutorConfig::validate re-enables the
// per-level materialization, compares each served run list with its
// direct walk, and asserts neither changes anything.
//
// Rule dispatch: execute() resolves the guest's rule kernel once per
// call (sep::visit_rule) and runs the whole recursion on the concrete
// callable, so no leaf makes a per-vertex indirect call unless the rule
// is a FunctionKernel.
//
// SIMD leaves (see doc/ENGINE.md "SIMD kernels"): when that kernel
// advertises a row kernel (sep/simd.hpp RowKernel, e.g. MixKernel) and
// simd::enabled(), each row of a leaf at least kMinRowLeaf wide has its
// interior span — the consecutive cells whose operands all sit in the
// dense window — evaluated by one kernel call over contiguous
// structure-of-arrays operand rows; edge cells (mesh boundary, staging
// operands) run the scalar per-vertex path; narrower leaves run the
// scalar loop whole. Charging stays count-based and ordered
// exactly as the scalar loop charges, and kernels are pure integer
// programs, so values, the CostLedger stream, charged totals, peak
// staging and every emitted table are byte-identical with SIMD on,
// off, or unavailable.
//
// Threads: one execute() call runs on the calling thread, in the
// recursion's topological order. Host parallelism lives one level up:
// sweep points run as tasks on engine::Pool (doc/ENGINE.md "Task
// layer"), each with its own executor and staging store.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/cost.hpp"
#include "core/expect.hpp"
#include "engine/trace.hpp"
#include "geom/region.hpp"
#include "hram/access_fn.hpp"
#include "sep/guest.hpp"
#include "sep/simd.hpp"
#include "sep/staging.hpp"

namespace bsmp::sep {

struct ExecutorConfig {
  /// Domains of monotone width <= leaf_width are executed naively.
  int64_t leaf_width = 1;
  /// Access function of the executing node's H-RAM.
  hram::AccessFn f = hram::AccessFn::unit();
  /// Constant of the space bound S(width) = space_const * min(reach,
  /// width) * width^D + 8; tests verify the executor's live footprint
  /// stays within it. Measured peak footprints converge to ~4x
  /// reach*width^D; the paper's own recurrence constant σ0 =
  /// q c δ^γ / (1 - δ^γ) evaluates to ~11 for the d=1 diamond.
  double space_const = 6.0;
  /// Constant of the *leaf* working-set bound. A leaf ("executable
  /// diamond", Theorem 3) holds only its own points and preboundary —
  /// no recursion-path staging — so its accesses are charged at a
  /// tighter address scale than the recursion levels'.
  double leaf_space_const = 2.0;
  /// Re-materialize preboundary / out-set vectors at every recursion
  /// level and assert the topological-partition property and the
  /// count == size equalities. Defaults from sep::validation_mode()
  /// (the BSMP_VALIDATE environment variable).
  bool validate = validation_mode();
  /// Read by nothing; the benchmark harness still sets it (ROADMAP item 1).
  int64_t parallel_grain = 0;
};

/// Validation mode's check of a memoized boundary count (a charged
/// word count) against the materialized set it stands for.
template <int D>
void check_count(const std::vector<geom::Point<D>>& set, std::int64_t count,
                 const char* what) {
  BSMP_ASSERT_MSG(static_cast<std::int64_t>(set.size()) == count, what);
}

template <int D>
void validate_preboundary_count(const geom::Region<D>& r,
                                std::int64_t count) {
  check_count(r.preboundary(), count, "preboundary_count != |preboundary()|");
}

template <int D>
void validate_outset_count(const geom::Region<D>& r, std::int64_t count) {
  check_count(r.outset(), count, "outset_count != |outset()|");
}

/// Validation mode's check of a memo-served boundary walk against the
/// direct walk it replays (each called as walk(f), f(p, hi) per run):
/// the same points in the same order.
template <int D, class Served, class Direct>
void validate_runs(const Served& served, const Direct& direct,
                   const char* msg) {
  BSMP_ASSERT_MSG(geom::run_points<D>(served) == geom::run_points<D>(direct),
                  msg);
}

template <int D, class V = Word>
class Executor {
 public:
  using value_type = V;
  using Probe = typename geom::Region<D>::Probe;

  Executor(const BasicGuest<D, V>* guest, ExecutorConfig cfg)
      : guest_(guest), cfg_(cfg) {
    BSMP_REQUIRE(guest != nullptr);
    guest_->validate();
    BSMP_REQUIRE(cfg_.leaf_width >= 1);
  }

  /// Leaves narrower than this run the scalar loop even with a row
  /// kernel: their rows hold a few interior cells, and the row path's
  /// per-level bookkeeping costs about what it saves. On the mix guest
  /// rows were within 4% of the scalar loop, or slower, up to width 4
  /// (d = 1) and 6 (d = 2), and faster from width 8 in both
  /// (EXPERIMENTS.md "Narrow leaves"); a longer kMinSpan did not
  /// recover the narrow widths. row_leaves() counts the leaves that
  /// took the row path.
  static constexpr std::int64_t kMinRowLeaf = 8;

  /// Rebind the ledger charges are recorded into (per-processor ledgers
  /// in the multiprocessor simulators).
  void set_ledger(core::CostLedger* ledger) { ledger_ = ledger; }

  /// Space bound S for a domain of the given monotone width, in words:
  /// S(w) = space_const * min(reach, w) * w^D + 64. The min matters when
  /// the domain is shorter than the memory depth m: then every vertex's
  /// self-lane predecessor lies below the domain, the preboundary is
  /// Θ(w^(D+1)) and so is the working set — not Θ(m * w^D).
  double space_bound(int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<int64_t>(guest_->stencil.reach(), width));
    double s = cfg_.space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  /// Working-set bound of a naively-executed leaf of the given width:
  /// its points plus preboundary, with no recursion-path staging.
  double leaf_space_bound(int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<int64_t>(guest_->stencil.reach(), width));
    double s = cfg_.leaf_space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  /// Execute domain U (see the contract above): afterwards the out-set
  /// values of U are in `staging` (enumerable via U.outset() /
  /// U.outset_visit()).
  void execute(const geom::Region<D>& U, StagingStore<D, V>& staging) {
    Probe probe = U.probe();
    execute(U, probe, staging);
  }

  /// execute() for a caller that queries U's memo answers itself:
  /// `probe` is U.probe(), shared by the caller's queries and the
  /// recursion's root.
  void execute(const geom::Region<D>& U, Probe& probe,
               StagingStore<D, V>& staging) {
    BSMP_REQUIRE(ledger_ != nullptr);
    staging_ = &staging;
    depth_ = 0;
    note();
    visit_rule(guest_->rule,
               [&](const auto& rule) { exec_rec(U, probe, rule); });
    staging_ = nullptr;
  }

  /// Total dag vertices executed so far.
  std::int64_t vertices_executed() const { return vertices_; }

  /// Leaves executed so far through the SIMD row path (0 unless the
  /// rule has a row kernel, simd::enabled(), and some leaf was at
  /// least kMinRowLeaf wide).
  std::int64_t row_leaves() const { return row_leaves_; }

  /// High-water mark of the staging store (live values), in words — the
  /// concrete footprint compared against space_bound in tests.
  std::size_t peak_staging() const { return peak_staging_; }

 private:
  /// Access-function costs, memoized by width: the charge factor
  /// f(S(w)) of a recursion node and f_leaf of a leaf are pure
  /// functions of the width w, and the widths at one recursion depth
  /// are the floor and ceil halves of the root width — so two slots per
  /// depth serve every node after the first of each width. Depths past
  /// the table evaluate directly.
  struct CostMemo {
    static constexpr int kDepths = 32;
    std::array<std::int64_t, 2 * kDepths> width;
    std::array<core::Cost, 2 * kDepths> cost;

    CostMemo() { width.fill(-1); }

    template <class Eval>
    core::Cost get(int depth, std::int64_t w, const Eval& eval) {
      if (depth >= kDepths) return eval(w);
      const std::size_t s = 2 * static_cast<std::size_t>(depth);
      if (width[s] == w) return cost[s];
      if (width[s + 1] == w) return cost[s + 1];
      const core::Cost c = eval(w);
      width[s + 1] = width[s];
      cost[s + 1] = cost[s];
      width[s] = w;
      cost[s] = c;
      return c;
    }
  };

  /// Sample the staging store's live size into the peak, at the
  /// points the space-bound tests measure.
  void note() {
    peak_staging_ = std::max(peak_staging_, staging_->size());
  }

  /// One recursion node U, whose probe() is `probe`.
  template <class RuleFn>
  void exec_rec(const geom::Region<D>& U, Probe& probe, const RuleFn& rule) {
    if (U.width() <= cfg_.leaf_width) {
      engine::trace::Span leaf_span(engine::trace::Cat::kSepRegion,
                                    "sep-leaf", U.width(), depth_);
      execute_leaf(U, probe, rule);
      note();
      return;
    }

    engine::trace::Span region_span(engine::trace::Cat::kSepRegion,
                                    "sep-region", U.width(), depth_);
    const core::Cost fS =
        node_f_.get(depth_, U.width(), [this](std::int64_t w) {
          return cfg_.f(static_cast<std::uint64_t>(space_bound(w)));
        });
    typename geom::Region<D>::Children children;
    U.split_into(children, probe);
    ++depth_;
    for (const geom::Region<D>& child : children)
      exec_child(U, child, fS, rule);
    --depth_;

    // Retain only U's out-set; everything else produced inside U is
    // dead (its successors are all inside U and already executed).
    // The produced set is exactly the union of the children's
    // out-sets, minus U's out-set: retention_runs replays it from U's
    // translation class, so past a class's first node the filter
    // costs one run per staged row.
    U.retention_runs(probe, [&](const geom::Point<D>& q, std::int64_t hi) {
      staging_->erase_span(q,
                           static_cast<std::size_t>(hi - q.x[D - 1] + 1));
    });
    if (cfg_.validate) {
      validate_runs<D>([&](auto&& f) { U.retention_runs(f); },
                       [&](auto&& f) { U.retention_spans(f); },
                       "retention_runs != retention_spans");
      validate_outset(U);
    }
    note();
  }

  /// One child of a recursion node: Proposition 2's three steps. The
  /// child's probe serves all of its memo queries, here and in its own
  /// recursion node or leaf.
  template <class RuleFn>
  void exec_child(const geom::Region<D>& U, const geom::Region<D>& child,
                  core::Cost fS, const RuleFn& rule) {
    Probe probe = child.probe();
    // Step 1: bring the child's preboundary into the child's working
    // space. Presence in staging is exactly the topological-partition
    // property.
    const std::int64_t gin = child.preboundary_count(probe);
    if (cfg_.validate)
      validate_preboundary(child, U.width(), gin);
    ledger_->charge(core::CostKind::kBlockMove,
                      2.0 * fS * static_cast<core::Cost>(gin),
                      static_cast<std::uint64_t>(gin));

    // Step 2: execute the child.
    exec_rec(child, probe, rule);

    // Step 3: save the child's out-set for later children / parent.
    // Leaf children just walked their out-set to stage results;
    // their tally is the same value outset_count() recomputes.
    const std::int64_t child_out = child.width() <= cfg_.leaf_width
                                       ? leaf_out_
                                       : child.outset_count(probe);
    if (cfg_.validate) validate_outset_count(child, child_out);
    ledger_->charge(core::CostKind::kBlockMove,
                      2.0 * fS * static_cast<core::Cost>(child_out),
                      static_cast<std::uint64_t>(child_out));
  }

  void validate_preboundary(const geom::Region<D>& child, std::int64_t width,
                            std::int64_t count) const {
    std::vector<geom::Point<D>> gin = child.preboundary();
    check_count(gin, count, "preboundary_count != |preboundary()|");
    for (const auto& q : gin) {
      BSMP_ASSERT_MSG(staging_->find(q) != nullptr,
                      "preboundary value missing: topological partition "
                      "violated at width "
                          << width);
    }
  }

  void validate_outset(const geom::Region<D>& U) const {
    std::vector<geom::Point<D>> out = U.outset();
    for (const auto& q : out) {
      BSMP_ASSERT_MSG(U.in_outset(q), "in_outset rejects an outset() point");
      BSMP_ASSERT_MSG(staging_->find(q) != nullptr,
                      "out-set value missing");
    }
  }

  /// Interior spans shorter than this run through the scalar edge path
  /// — a kernel call (plus possible self-row staging) is not worth two
  /// cells of work.
  static constexpr std::int64_t kMinSpan = 2;

  template <class RuleFn>
  void execute_leaf(const geom::Region<D>& U, Probe& probe,
                    const RuleFn& rule) {
    const core::Cost f_leaf =
        leaf_f_.get(depth_, U.width(), [this](std::int64_t w) {
          return cfg_.f(static_cast<std::uint64_t>(leaf_space_bound(w)));
        });
    LeafWindow<D, V> win(U, leaf_vals_, leaf_off_);
    const std::int64_t tmin = win.tmin();

    // Forced inline: otherwise GCC's per-unit growth budget decides,
    // and in a large translation unit it left this a call per operand
    // (doc/PERF.md §2 "Payload").
    auto lookup = [&](const geom::Point<D>& q)
                      __attribute__((always_inline)) -> const V& {
      // q is a vertex; inside the leaf box it was already executed
      // (topological order), so its value sits in the dense window.
      if (q.t >= tmin && U.in_box(q)) return win[win.slot(q)];
      const V* v = staging_->find(q);
      BSMP_ASSERT_MSG(v != nullptr,
                      "operand missing at leaf: topological partition or "
                      "out-set computation is wrong");
      return *v;
    };

    auto la = ledger_->stream(core::CostKind::kLocalAccess);
    std::uint64_t la_events = 0;
    std::int64_t executed = 0;

    bool vectored = false;
    if constexpr (simd::has_row_kernel<RuleFn, D, V> && (D == 1 || D == 2)) {
      if (U.width() >= kMinRowLeaf && simd::enabled()) {
        execute_leaf_rows(U, win, rule, f_leaf, la, la_events, executed,
                          lookup);
        vectored = true;
        ++row_leaves_;
      }
    }
    if (!vectored) {
      std::size_t w = 0;
      // Naive per-vertex execution (Definition 3), in window order.
      U.for_each([&](const geom::Point<D>& p) {
        const auto [value, operands] = eval_vertex(*guest_, rule, p, lookup);
        win[w++] = value;
        ++executed;
        // One read per operand plus one result write, each f(S(leaf)):
        // streamed so the per-vertex addition order (and hence the
        // floating-point total) matches a charge() call per vertex.
        la.add_cost(static_cast<core::Cost>(operands + 1) * f_leaf);
        la_events += static_cast<std::uint64_t>(operands + 1);
      });
    }
    la.add_events(la_events);
    // Unit compute per vertex: integer-valued, so one batched charge is
    // bit-identical to `executed` unit charges.
    ledger_->charge(core::CostKind::kCompute,
                    static_cast<core::Cost>(executed),
                    static_cast<std::uint64_t>(executed));
    vertices_ += executed;

    leaf_out_ = stage_outset(U, probe, win);
  }

  /// Stage the leaf's out-set from its dense window, one memo-served
  /// run at a time; returns the words staged. Out of line, so the
  /// served walk's replay and dispatch stay out of the function GCC
  /// compiles around the scalar leaf loop.
  [[gnu::noinline]] std::int64_t stage_outset(const geom::Region<D>& U,
                                              Probe& probe,
                                              LeafWindow<D, V>& win) {
    std::int64_t nout = 0;
    U.outset_runs(probe, [&](const geom::Point<D>& q, std::int64_t hi) {
      const std::int64_t len = hi - q.x[D - 1] + 1;
      staging_->insert_span(q, &win[win.slot(q)],
                            static_cast<std::size_t>(len));
      nout += len;
    });
    if (cfg_.validate) {
      validate_runs<D>([&](auto&& f) { U.outset_runs(f); },
                       [&](auto&& f) { U.outset_spans(f); },
                       "outset_runs != outset_spans");
      validate_outset(U);
    }
    return nout;
  }

  /// The SIMD leaf: level by level, row by row, each innermost row is
  /// split into the *interior span* — the consecutive cells whose
  /// 2D+1 operands all sit in the dense window — and scalar edges.
  /// The span's operand rows are contiguous SoA slices of the window
  /// (or, for the self operand, of a scratch row staged through the
  /// same lookup the scalar path uses), so one RowKernel call computes
  /// the whole span. Charges are emitted per cell, in exactly the
  /// scalar loop's visit order and amounts: interior cells always have
  /// 2D+1 operands, so the kLocalAccess stream is bit-identical.
  template <class RuleFn, class Stream, class Lookup>
  void execute_leaf_rows(const geom::Region<D>& U, LeafWindow<D, V>& win,
                         const RuleFn& rule, core::Cost f_leaf, Stream& la,
                         std::uint64_t& la_events, std::int64_t& executed,
                         const Lookup& lookup) {
    const geom::Stencil<D>& st = guest_->stencil;
    const std::int64_t tmin = win.tmin();
    // One edge cell, evaluated and charged as the scalar loop does.
    auto scalar_cell = [&](const geom::Point<D>& p, V* dst) {
      const auto [value, operands] = eval_vertex(*guest_, rule, p, lookup);
      *dst = value;
      ++executed;
      la.add_cost(static_cast<core::Cost>(operands + 1) * f_leaf);
      la_events += static_cast<std::uint64_t>(operands + 1);
    };
    // Interior cells always carry 2D+1 operands plus the result write.
    const core::Cost span_cost =
        static_cast<core::Cost>(2 * D + 2) * f_leaf;
    // Stage the self operand of span [vlo, vhi] at level t into a
    // contiguous scratch row — unless it already is one in the window,
    // or the staging store can serve the whole span as a dense row
    // (the common case when the leaf sits m levels above its staged
    // preboundary: zero copies, the kernel reads the slab in place).
    auto stage_self = [&](std::int64_t t, std::int64_t vlo, std::int64_t vhi,
                          geom::Point<D> q) -> const V* {
      const std::size_t n = static_cast<std::size_t>(vhi - vlo + 1);
      q.t = t - st.m;
      if (t >= st.m) {
        if (t - st.m < win.tmin()) {
          q.x[D - 1] = vlo;
          if (const V* r = staging_->row_span(q, n)) return r;
        }
        if (leaf_self_.size() < n) leaf_self_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          q.x[D - 1] = vlo + static_cast<std::int64_t>(i);
          leaf_self_[i] = lookup(q);
        }
      } else {
        if (leaf_self_.size() < n) leaf_self_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          q.x[D - 1] = vlo + static_cast<std::int64_t>(i);
          leaf_self_[i] = guest_->input(q.x, t % st.m);
        }
      }
      return leaf_self_.data();
    };

    for (std::int64_t t = tmin; t <= win.tmax(); ++t) {
      if constexpr (D == 1) {
        const auto [a, b] = U.x_range(0, t);
        if (a > b) continue;
        V* out_row = win.row(t);
        geom::Point<1> p;
        p.t = t;
        // Interior span: both (x±1, t-1) neighbors inside the window
        // row below (which also puts them in space).
        std::int64_t pa = 0, pb = -1;
        std::int64_t vlo = a, vhi = a - 1;
        if (t > tmin) {
          std::tie(pa, pb) = U.x_range(0, t - 1);
          vlo = std::max(a, pa + 1);
          vhi = std::min(b, pb - 1);
        }
        if (vhi - vlo + 1 < kMinSpan) {
          vlo = a;
          vhi = a - 1;  // whole row through the scalar path
        }
        for (std::int64_t x = a; x < vlo; ++x) {
          p.x[0] = x;
          scalar_cell(p, out_row + (x - a));
        }
        if (vlo <= vhi) {
          const std::size_t n = static_cast<std::size_t>(vhi - vlo + 1);
          const V* prev = win.row(t - 1);
          const V* self;
          bool self_in_window = false;
          if (t >= st.m && t - st.m >= tmin) {
            const auto [sa, sb] = U.x_range(0, t - st.m);
            self_in_window = vlo >= sa && vhi <= sb;
            if (self_in_window) self = win.row(t - st.m) + (vlo - sa);
          }
          if (!self_in_window) self = stage_self(t, vlo, vhi, p);
          const V* nbrs[2] = {prev + (vlo - 1 - pa), prev + (vlo + 1 - pa)};
          p.x[0] = vlo;
          rule.row(out_row + (vlo - a), self, nbrs, n, p, 1);
          executed += static_cast<std::int64_t>(n);
          la_events += static_cast<std::uint64_t>(2 * D + 2) * n;
          for (std::size_t i = 0; i < n; ++i) la.add_cost(span_cost);
        }
        for (std::int64_t x = vhi + 1; x <= b; ++x) {
          p.x[0] = x;
          scalar_cell(p, out_row + (x - a));
        }
      } else {
        static_assert(D == 2);
        const auto [a0, b0] = U.x_range(0, t);
        const auto [a1, b1] = U.x_range(1, t);
        if (a0 > b0 || a1 > b1) continue;
        std::int64_t p0a = 0, p0b = -1, p1a = 0, p1b = -1;
        if (t > tmin) {
          std::tie(p0a, p0b) = U.x_range(0, t - 1);
          std::tie(p1a, p1b) = U.x_range(1, t - 1);
        }
        geom::Point<2> p;
        p.t = t;
        for (std::int64_t x0 = a0; x0 <= b0; ++x0) {
          p.x[0] = x0;
          V* out_row = win.row(t, x0);
          // Interior span: all four (t-1) neighbor rows inside the
          // window (rows x0-1, x0, x0+1 of the level below).
          std::int64_t vlo = a1, vhi = a1 - 1;
          if (t > tmin && x0 - 1 >= p0a && x0 + 1 <= p0b) {
            vlo = std::max(a1, p1a + 1);
            vhi = std::min(b1, p1b - 1);
          }
          if (vhi - vlo + 1 < kMinSpan) {
            vlo = a1;
            vhi = a1 - 1;
          }
          for (std::int64_t x1 = a1; x1 < vlo; ++x1) {
            p.x[1] = x1;
            scalar_cell(p, out_row + (x1 - a1));
          }
          if (vlo <= vhi) {
            const std::size_t n = static_cast<std::size_t>(vhi - vlo + 1);
            const V* r_lo = win.row(t - 1, x0 - 1);
            const V* r_md = win.row(t - 1, x0);
            const V* r_hi = win.row(t - 1, x0 + 1);
            const V* self;
            bool self_in_window = false;
            if (t >= st.m && t - st.m >= tmin) {
              const auto [sa0, sb0] = U.x_range(0, t - st.m);
              if (x0 >= sa0 && x0 <= sb0) {
                const auto [sa1, sb1] = U.x_range(1, t - st.m);
                self_in_window = vlo >= sa1 && vhi <= sb1;
                if (self_in_window)
                  self = win.row(t - st.m, x0) + (vlo - sa1);
              }
            }
            if (!self_in_window) self = stage_self(t, vlo, vhi, p);
            const V* nbrs[4] = {r_lo + (vlo - p1a), r_hi + (vlo - p1a),
                                r_md + (vlo - 1 - p1a),
                                r_md + (vlo + 1 - p1a)};
            p.x[1] = vlo;
            rule.row(out_row + (vlo - a1), self, nbrs, n, p, 1);
            executed += static_cast<std::int64_t>(n);
            la_events += static_cast<std::uint64_t>(2 * D + 2) * n;
            for (std::size_t i = 0; i < n; ++i) la.add_cost(span_cost);
          }
          for (std::int64_t x1 = vhi + 1; x1 <= b1; ++x1) {
            p.x[1] = x1;
            scalar_cell(p, out_row + (x1 - a1));
          }
        }
      }
    }
  }

  const BasicGuest<D, V>* guest_;
  ExecutorConfig cfg_;
  core::CostLedger* ledger_ = nullptr;
  std::int64_t vertices_ = 0;
  std::int64_t row_leaves_ = 0;
  std::size_t peak_staging_ = 0;
  // The store of the execute() call in progress (null between calls).
  StagingStore<D, V>* staging_ = nullptr;
  // Recursion depth below the execute() root; labels the sep-region
  // trace spans and indexes the cost memos.
  int depth_ = 0;
  // Out-set size of the most recently executed leaf: the staging pass
  // at the end of execute_leaf walks exactly the set outset_count()
  // would re-derive, so exec_child reuses its tally for the step-3
  // charge instead of a second boundary pass.
  std::int64_t leaf_out_ = 0;
  // f(S(w)) per recursion node and f_leaf per leaf, by depth and width.
  CostMemo node_f_;
  CostMemo leaf_f_;
  // Leaf scratch (dense window values + per-level prefix offsets + the
  // SIMD path's self-operand row), reused across leaves and calls, so
  // a steady-state execution performs no per-leaf allocation.
  std::vector<V> leaf_vals_;
  std::vector<std::size_t> leaf_off_;
  std::vector<V> leaf_self_;
};

}  // namespace bsmp::sep
