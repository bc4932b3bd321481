// Dense, window-addressed staging for the separator executor.
//
// The staging medium between domains is keyed by lattice points, and
// a point's address is computable in O(1): the stencil's spatial grid
// is fixed, so (x, t) maps to (node_index(x), t) — a slot in a
// per-time-level buffer of num_nodes words. StagingStore<D> stores
// values that way:
//
//   * one lazily-materialized buffer per time level (values + 0/1
//     liveness bytes), freed again when the level is pruned — so the
//     resident footprint follows the executor's wavefront, not the
//     volume;
//   * size() is the number of *live* words, maintained incrementally —
//     what peak_staging() and the space-bound tests measure;
//   * level_allocs() counts level materializations for the hot-path
//     metrics.
//
// StagingStore is the one staging store: sep::Executor and the
// simulators all stage through it. A point-keyed hash map survives
// only as the hot table's measured baseline (tables/hotpath.hpp) and
// as sched::run_schedule's record.
//
// The store is generic over the per-point value type V (Word by
// default; LaneBatch for SoA-batched guests — see sep/guest.hpp).
// Liveness, size() and level accounting count *points* regardless of
// V, so peak-staging and level-allocation metrics are identical between
// a scalar run and a 64-lane batched run.
//
// A new level zeroes only its liveness bytes: values are read strictly
// through live marks, so the value words start uninitialized.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/expect.hpp"
#include "geom/lattice.hpp"
#include "geom/region.hpp"
#include "sep/guest.hpp"

namespace bsmp::sep {

template <int D, class V = Word>
class StagingStore {
  static_assert(std::is_trivially_copyable_v<V>,
                "level buffers treat V as raw bytes");
  static_assert(alignof(V) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "level buffers are operator-new aligned");

 public:
  using value_type = V;

  /// The stencil fixes the address layout; it must outlive the store.
  explicit StagingStore(const geom::Stencil<D>* stencil)
      : st_(stencil) {
    BSMP_REQUIRE(stencil != nullptr);
    nodes_ = static_cast<std::size_t>(st_->num_nodes());
    levels_.resize(static_cast<std::size_t>(st_->horizon));
  }

  bool contains(const geom::Point<D>& q) const {
    return find(q) != nullptr;
  }

  /// Pointer to the live value at q, or nullptr when q is absent (or
  /// not a vertex position at all).
  const V* find(const geom::Point<D>& q) const {
    const Level* lv = present(q);
    if (lv == nullptr) return nullptr;
    std::size_t s = slot(q.x);
    return lv->live[s] ? &lv->vals[s] : nullptr;
  }

  /// Pointer to n contiguous live values along the innermost dimension
  /// starting at q, or nullptr when the span is not fully live (or the
  /// level is absent). Slots are row-major with the innermost dimension
  /// contiguous, so a live span IS a dense operand row — the SIMD leaf
  /// path hands it to a kernel without any per-cell staging copy.
  const V* row_span(const geom::Point<D>& q, std::size_t n) const {
    const Level* lv = present(q);
    if (lv == nullptr) return nullptr;
    if (q.x[D - 1] + static_cast<std::int64_t>(n) > st_->extent[D - 1])
      return nullptr;
    std::size_t s = slot(q.x);
    for (std::size_t i = 0; i < n; ++i)
      if (!lv->live[s + i]) return nullptr;
    return &lv->vals[s];
  }

  /// Mutable value at q; asserts q is live.
  V& at(const geom::Point<D>& q) {
    BSMP_REQUIRE_MSG(find(q) != nullptr, "StagingStore::at on absent point");
    return levels_[static_cast<std::size_t>(q.t)].vals[slot(q.x)];
  }

  /// Set the value at q (insert-or-overwrite); true when q was absent.
  bool insert(const geom::Point<D>& q, const V& v) {
    BSMP_REQUIRE(in_layout(q));
    Level& lv = level(q.t);
    std::size_t s = slot(q.x);
    bool added = !lv.live[s];
    if (added) {
      lv.live[s] = 1;
      ++lv.nlive;
      ++live_;
    }
    lv.vals[s] = v;
    return added;
  }

  /// Insert n contiguous values along the innermost dimension starting
  /// at q (src[i] lands on q + i*e_{D-1}); returns how many cells were
  /// newly added. Semantically n insert() calls, with one level lookup.
  std::int64_t insert_span(const geom::Point<D>& q, const V* src,
                           std::size_t n) {
    BSMP_REQUIRE(in_layout(q));
    BSMP_REQUIRE(q.x[D - 1] + static_cast<std::int64_t>(n) <=
                 st_->extent[D - 1]);
    Level& lv = level(q.t);
    std::size_t s = slot(q.x);
    std::int64_t added = 0;
    for (std::size_t i = 0; i < n; ++i) {
      added += !lv.live[s + i];
      lv.live[s + i] = 1;
      lv.vals[s + i] = src[i];
    }
    lv.nlive += added;
    live_ += static_cast<std::size_t>(added);
    return added;
  }

  /// Remove q if live (no-op otherwise); true when a value was actually
  /// removed.
  bool erase(const geom::Point<D>& q) {
    if (present(q) == nullptr) return false;
    Level& lv = levels_[static_cast<std::size_t>(q.t)];
    std::size_t s = slot(q.x);
    if (!lv.live[s]) return false;
    lv.live[s] = 0;
    --lv.nlive;
    --live_;
    return true;
  }

  /// Remove the live cells among the n contiguous ones along the
  /// innermost dimension starting at q; returns how many were removed.
  /// Semantically n erase() calls, with one level lookup.
  std::int64_t erase_span(const geom::Point<D>& q, std::size_t n) {
    if (present(q) == nullptr) return 0;
    BSMP_REQUIRE(q.x[D - 1] + static_cast<std::int64_t>(n) <=
                 st_->extent[D - 1]);
    Level& lv = levels_[static_cast<std::size_t>(q.t)];
    const std::size_t s = slot(q.x);
    std::int64_t removed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      removed += lv.live[s + i];
      lv.live[s + i] = 0;
    }
    lv.nlive -= removed;
    live_ -= static_cast<std::size_t>(removed);
    return removed;
  }

  /// Number of live words: the quantity peak-staging accounting and
  /// the space-bound tests measure.
  std::size_t size() const { return live_; }

  /// Free every level with t < dead_below and t < keep_from. Levels
  /// are all-or-nothing here because staleness is a pure function of t
  /// (see sim::detail::prune_staging).
  void prune_below(std::int64_t dead_below, std::int64_t keep_from) {
    const std::int64_t top = std::min({dead_below, keep_from, horizon()});
    for (std::int64_t t = 0; t < top; ++t) {
      Level& lv = levels_[static_cast<std::size_t>(t)];
      live_ -= static_cast<std::size_t>(lv.nlive);
      lv = Level{};
    }
  }

  /// Level materializations performed so far (hot-path metric: a
  /// steady state allocates one buffer per newly-touched time level
  /// and nothing else).
  std::size_t level_allocs() const { return allocs_; }

  /// Visit every live (point, value) pair, t ascending then node order.
  template <class F>
  void for_each(F&& visit) const {
    for (std::int64_t t = 0; t < horizon(); ++t) {
      const Level& lv = levels_[static_cast<std::size_t>(t)];
      if (lv.nlive == 0) continue;
      geom::Point<D> p;
      p.t = t;
      for (std::size_t s = 0; s < nodes_; ++s) {
        if (!lv.live[s]) continue;
        unslot(s, p.x);
        visit(p, lv.vals[s]);
      }
    }
  }

 private:
  /// One time level: nodes_ values followed by nodes_ liveness bytes
  /// in one buffer; absent while buf is null.
  struct Level {
    std::unique_ptr<std::byte[]> buf;
    V* vals = nullptr;
    std::uint8_t* live = nullptr;
    std::int64_t nlive = 0;
  };

  /// Bounded by the level table, not the stencil, so a moved-from
  /// store (no levels) reads as empty.
  std::int64_t horizon() const {
    return static_cast<std::int64_t>(levels_.size());
  }

  bool in_layout(const geom::Point<D>& q) const {
    return q.t >= 0 && q.t < horizon() && st_->in_space(q.x);
  }

  /// q's level when q is a vertex position of a materialized level.
  const Level* present(const geom::Point<D>& q) const {
    if (q.t < 0 || q.t >= horizon()) return nullptr;
    const Level& lv = levels_[static_cast<std::size_t>(q.t)];
    return lv.buf && st_->in_space(q.x) ? &lv : nullptr;
  }

  Level& level(std::int64_t t) {
    Level& lv = levels_[static_cast<std::size_t>(t)];
    if (lv.buf) return lv;
    lv.buf = std::make_unique_for_overwrite<std::byte[]>(nodes_ *
                                                         (sizeof(V) + 1));
    lv.vals = reinterpret_cast<V*>(lv.buf.get());
    lv.live = reinterpret_cast<std::uint8_t*>(lv.buf.get() +
                                              nodes_ * sizeof(V));
    std::memset(lv.live, 0, nodes_);
    ++allocs_;
    return lv;
  }

  std::size_t slot(const std::array<std::int64_t, D>& x) const {
    std::int64_t s = 0;
    for (int i = 0; i < D; ++i) s = s * st_->extent[i] + x[i];
    return static_cast<std::size_t>(s);
  }

  void unslot(std::size_t s, std::array<std::int64_t, D>& x) const {
    auto r = static_cast<std::int64_t>(s);
    for (int i = D - 1; i >= 0; --i) {
      x[i] = r % st_->extent[i];
      r /= st_->extent[i];
    }
  }

  const geom::Stencil<D>* st_;
  std::size_t nodes_ = 0;
  std::vector<Level> levels_;
  std::size_t live_ = 0;
  std::size_t allocs_ = 0;
};

// ---------------------------------------------------------------------
// LeafWindow: the structure-of-arrays view of one leaf's dense value
// window.
//
// A leaf ("executable diamond") is executed into a flat scratch
// vector: all cells of time level t, row-major over the level's
// x-ranges, starting at a per-level prefix offset. That layout is what
// makes the leaf kernel vectorizable — the innermost spatial dimension
// of every level is a contiguous span of V, and a cell's operands at
// (t-1, t-m) are contiguous spans in lower levels, so a row kernel
// (sep/simd.hpp) reads and writes plain arrays. LeafWindow binds the
// region geometry to a caller-owned scratch vector (the executor
// recycles one per execution context, keeping steady-state leaves
// allocation-free) and provides O(1) slot and row-pointer addressing.
// ---------------------------------------------------------------------

template <int D, class V = Word>
class LeafWindow {
 public:
  /// Bind region U's window to caller-owned scratch. `vals` is resized
  /// to hold every cell of U (never shrunk — reuse keeps capacity),
  /// `off` is rebuilt with U's per-level prefix offsets.
  LeafWindow(const geom::Region<D>& U, std::vector<V>& vals,
             std::vector<std::size_t>& off)
      : U_(&U), vals_(&vals), off_(&off) {
    const auto [tmin, tmax] = U.time_range();
    tmin_ = tmin;
    tmax_ = tmax;
    off.clear();
    std::size_t total = 0;
    for (std::int64_t t = tmin; t <= tmax; ++t) {
      off.push_back(total);
      total += level_size(U, t);
    }
    total_ = total;
    if (vals.size() < total) vals.resize(total);
  }

  std::int64_t tmin() const { return tmin_; }
  std::int64_t tmax() const { return tmax_; }

  /// Number of cells in the window (live scratch prefix).
  std::size_t size() const { return total_; }

  /// Inclusive x-range of dimension i at level t (the region's own).
  std::pair<std::int64_t, std::int64_t> x_range(int i, std::int64_t t) const {
    return U_->x_range(i, t);
  }

  /// Slot of point q: per-level prefix offset plus the row-major x
  /// offset — the position Region::for_each visits q at, so sequential
  /// execution writes slots 0, 1, 2, ...
  std::size_t slot(const geom::Point<D>& q) const {
    std::size_t idx = 0;
    for (int i = 0; i < D; ++i) {
      auto [a, b] = U_->x_range(i, q.t);
      idx = idx * static_cast<std::size_t>(b - a + 1) +
            static_cast<std::size_t>(q.x[i] - a);
    }
    return (*off_)[static_cast<std::size_t>(q.t - tmin_)] + idx;
  }

  V& operator[](std::size_t s) { return (*vals_)[s]; }
  const V& operator[](std::size_t s) const { return (*vals_)[s]; }

  /// d=1: pointer to the cell at (x=a, t) where [a, b] = x_range(0, t);
  /// the level's cells for x in [a, b] are ptr[0..b-a].
  V* row(std::int64_t t)
    requires(D == 1)
  {
    return vals_->data() + (*off_)[static_cast<std::size_t>(t - tmin_)];
  }

  /// d=2: pointer to the cell at (x0, x1=a1, t) where [a1, b1] =
  /// x_range(1, t); the row's cells for x1 in [a1, b1] are ptr[0..b1-a1].
  V* row(std::int64_t t, std::int64_t x0)
    requires(D == 2)
  {
    auto [a0, b0] = U_->x_range(0, t);
    auto [a1, b1] = U_->x_range(1, t);
    (void)b0;
    return vals_->data() +
           (*off_)[static_cast<std::size_t>(t - tmin_)] +
           static_cast<std::size_t>(x0 - a0) *
               static_cast<std::size_t>(b1 - a1 + 1);
  }

 private:
  static std::size_t level_size(const geom::Region<D>& U, std::int64_t t) {
    std::size_t n = 1;
    for (int i = 0; i < D; ++i) {
      auto [a, b] = U.x_range(i, t);
      if (a > b) return 0;
      n *= static_cast<std::size_t>(b - a + 1);
    }
    return n;
  }

  const geom::Region<D>* U_;
  std::vector<V>* vals_;
  std::vector<std::size_t>* off_;
  std::int64_t tmin_ = 0;
  std::int64_t tmax_ = -1;
  std::size_t total_ = 0;
};

/// Does nothing; the benchmark harness still calls it (ROADMAP item 1).
void set_default_parallel_grain(std::int64_t grain);

// ---------------------------------------------------------------------
// Validation mode: when on, the executor re-materializes the
// preboundary / out-set vectors at every recursion level and asserts
// the topological-partition property (the pre-flat-staging behavior),
// and cross-checks every count against its materialized size. Defaults
// from the BSMP_VALIDATE environment variable at process start;
// settable per run, and per executor via ExecutorConfig::validate.
// ---------------------------------------------------------------------

/// Process-wide default for ExecutorConfig::validate.
bool validation_mode();

/// Override the process-wide default (tests; conformance suite).
void set_validation_mode(bool on);

}  // namespace bsmp::sep
