// Region<D>: a convex lattice domain given as an axis-aligned box in
// monotone coordinates, intersected with the vertex set of a Stencil.
//
// This single type realizes all the domain families of the paper:
//   d=1: D(r) diamonds and their truncated versions (Fig. 1) are boxes
//        in (t+x, t-x);
//   d=2: octahedra P and tetrahedra W (Fig. 3) are boxes in
//        (t+x, t-x, t+y, t-y) — a box whose four intervals have equal
//        sums is an octahedron; half-overlapping sums give tetrahedra;
//   d=3: the analogous six-coordinate boxes (Section-6 conjecture).
//
// Because every dag arc is non-increasing in every monotone coordinate,
// the midpoint split() of a Region, ordered by how many upper halves a
// child occupies, is a topological partition in the sense of
// Definition 4 — reproducing the paper's 4-way diamond split, the
// 14-piece octahedron split and the 5-piece tetrahedron split exactly.
//
// The separator is self-similar: the recursion nodes of one shape are
// lattice translates of each other, with equal boundary counts, equal
// nonempty children and translated boundary sets. preboundary_count(),
// outset_count(), split() and the three boundary walks the simulators
// replay per node (outset_runs(), retention_runs(), preboundary_runs())
// are therefore served by a bounded per-thread memo keyed by
// translation class (see "Translation-class memo" below), each also
// through a Probe that carries one box's class from query to query;
// the *_direct and *_spans forms compute from the box alone.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/expect.hpp"
#include "core/logmath.hpp"
#include "geom/lattice.hpp"

namespace bsmp::geom {

/// Counters of one thread's translation-class memo (Region::memo_stats).
struct RegionMemoStats {
  std::uint64_t hits = 0;    ///< count/split queries answered from an entry
  std::uint64_t misses = 0;  ///< count/split queries computed directly
  std::size_t entries = 0;   ///< translation classes stored now
  std::uint64_t list_hits = 0;    ///< boundary walks replayed from sweeps
  std::uint64_t list_misses = 0;  ///< walks computed on a class's first query
  std::uint64_t list_long = 0;    ///< walks of a class whose list is too long
};

namespace detail {

/// The translation-class memo behind Region's boundary counts, split()
/// and served boundary walks: a fixed-capacity 4-way set-associative
/// table, one per thread and dimension (see Region::memo_key for what a
/// key is). It never grows: a new class landing in a full set replaces
/// that set's ways in turn, freeing the replaced class's lists. Every
/// insertion stamps its entry with a fresh number, so a Probe can tell
/// whether the entry it saved still holds its class.
template <int D>
class RegionMemo {
 public:
  static constexpr int K = kMono<D>;
  /// Box sizes, m, the parity bits, D-1 sum offsets, 2D+2 wall terms.
  static constexpr int kKeyLen = K + 2 + (D - 1) + 2 * D + 2;
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kSets = 256;
  static constexpr std::size_t kCapacity = kWays * kSets;
  using Key = std::array<std::int32_t, kKeyLen>;

  /// The boundary walks an entry serves as lists.
  enum Walk : int { kOutset, kRetention, kPreboundary, kWalks };
  /// One run: (dt, dx_0, ..., dx_{D-1}, dhi) from the box's anchor.
  static constexpr int kRunLen = D + 2;
  /// A stored field: a run term, a step term or a sweep's count.
  using Field = std::int16_t;
  /// One sweep: a first run, a step (the run-to-run difference) and a
  /// count, standing for the runs first + j * step, j < count. The
  /// count is stored as an unsigned 16-bit value.
  static constexpr int kSweepLen = 2 * kRunLen + 1;
  /// Most sweeps stored per list; a longer list is walked directly on
  /// every query. Every d=1 list fits at widths up to 1024 (at most 12
  /// sweeps at m <= 64); wide d=2 and d=3 lists do not (doc/PERF.md §2
  /// "Cap").
  static constexpr int kMaxSweeps = 16;

  /// One walk's sweeps, on the stack of the walk that records or
  /// replays them.
  struct Sweeps {
    int n = 0;
    std::array<Field, kMaxSweeps * kSweepLen> v;
  };

  /// Per walk: not computed yet, stored, or longer than kMaxSweeps.
  enum class ListState : std::uint8_t { kUnknown, kStored, kTooLong };

  struct Entry {
    Key key{};
    std::uint64_t stamp = 0;  ///< set on insertion; 0: the slot is unused
    /// Bit c set: the child whose upper-half coordinates are the bits
    /// of mask c is nonempty.
    std::uint64_t kids = 0;
    std::int64_t pre = -1;  ///< preboundary count; -1: not computed yet
    std::int64_t out = -1;  ///< out-set count; -1: not computed yet
    /// The stored lists back to back, in Walk order, in one block of
    /// exactly their size.
    std::unique_ptr<Field[]> lists;
    std::array<ListState, kWalks> state{};
    std::array<std::uint8_t, kWalks> n_sweeps{};  ///< per stored walk
    bool split_known = false;  ///< kids is computed

    /// Offset of walk w's list in `lists`.
    std::size_t offset(int w) const {
      std::size_t o = 0;
      for (int j = 0; j < w; ++j) o += n_sweeps[j];
      return o * kSweepLen;
    }
    void load(int w, Sweeps& s) const {
      s.n = n_sweeps[w];
      std::copy_n(lists.get() + offset(w), s.n * kSweepLen, s.v.begin());
    }
    void store(int w, const Sweeps& s) {
      const std::size_t at = offset(w);
      const std::size_t len = static_cast<std::size_t>(s.n) * kSweepLen;
      if (len > 0) {
        const std::size_t total = offset(kWalks);
        auto block = std::make_unique_for_overwrite<Field[]>(total + len);
        std::copy_n(lists.get(), at, block.get());
        std::copy_n(s.v.begin(), len, block.get() + at);
        std::copy_n(lists.get() + at, total - at, block.get() + at + len);
        lists = std::move(block);
      }
      n_sweeps[w] = static_cast<std::uint8_t>(s.n);
      state[w] = ListState::kStored;
    }
  };

  /// One box's handle on its class (Region::Probe): the key, computed
  /// once, and the entry the class was last found in, which holds it
  /// only while the entry's stamp is still `stamp`.
  struct Probe {
    Key key;
    bool keyed = false;  ///< false: a key term does not fit 32 bits
    Entry* entry = nullptr;
    std::uint64_t stamp = 0;
  };

  /// The entry of `key`, or null if absent; inserts nothing.
  Entry* lookup(const Key& key) {
    if (table_.empty()) return nullptr;
    Entry* ways = &table_[(hash(key) & (kSets - 1)) * kWays];
    for (std::size_t w = 0; w < kWays; ++w)
      if (ways[w].stamp != 0 && ways[w].key == key) return &ways[w];
    return nullptr;
  }

  /// The entry of `key`, inserted empty if absent.
  Entry& find(const Key& key) {
    if (table_.empty()) {
      table_.resize(kCapacity);
      victim_.resize(kSets);
    }
    const std::size_t set = hash(key) & (kSets - 1);
    Entry* ways = &table_[set * kWays];
    Entry* slot = nullptr;
    for (std::size_t w = 0; w < kWays; ++w) {
      if (ways[w].stamp != 0 && ways[w].key == key) return ways[w];
      if (ways[w].stamp == 0 && slot == nullptr) slot = &ways[w];
    }
    if (slot != nullptr) {
      ++stats.entries;
    } else {
      slot = &ways[victim_[set]];
      victim_[set] = static_cast<std::uint8_t>((victim_[set] + 1) % kWays);
    }
    *slot = Entry{};
    slot->key = key;
    slot->stamp = ++stamps_;
    return *slot;
  }

  /// The entry of a keyed probe's class: its saved entry while the
  /// stamp matches, else found again by key (inserted empty if absent
  /// and `insert`, else null) and saved in the probe.
  Entry* resolve(Probe& p, bool insert) {
    if (p.entry != nullptr && p.entry->stamp == p.stamp) return p.entry;
    Entry* e = insert ? &find(p.key) : lookup(p.key);
    p.entry = e;
    p.stamp = e != nullptr ? e->stamp : 0;
    return e;
  }

  /// Append run `v` to `s`. A run that continues the list's last run in
  /// the same row extends it, splitting it off its sweep when the
  /// sweep has more runs; a run that steps from the last sweep's last
  /// run by the sweep's step (or is the second run of a one-run sweep)
  /// joins that sweep; any other run starts a sweep. False when the
  /// list outgrows kMaxSweeps or a stored field does not fit.
  static bool record_run(std::array<std::int64_t, kRunLen> v, Sweeps& s) {
    constexpr int L = kRunLen;
    if (s.n > 0) {
      Field* sw = &s.v[static_cast<std::size_t>((s.n - 1) * kSweepLen)];
      const int count = static_cast<std::uint16_t>(sw[2 * L]);
      std::array<std::int64_t, L> last;
      for (int j = 0; j < L; ++j)
        last[j] = sw[j] + std::int64_t{count - 1} * sw[L + j];
      bool same_row = true;
      for (int j = 0; j < D; ++j) same_row = same_row && last[j] == v[j];
      if (same_row && last[L - 1] + 1 == v[D]) {
        if (count == 1) {
          if (!fits(v[L - 1])) return false;
          sw[L - 1] = static_cast<Field>(v[L - 1]);
          return true;
        }
        sw[2 * L] = static_cast<Field>(count - 1);
        last[L - 1] = v[L - 1];
        v = last;  // the split-off run, extended, starts a sweep
      } else if (count < 0xffff) {
        std::array<std::int64_t, L> step;
        bool joins = true;
        for (int j = 0; j < L; ++j) {
          step[j] = count == 1 ? v[j] - sw[j] : sw[L + j];
          joins = joins && fits(step[j]) && last[j] + step[j] == v[j];
        }
        if (joins) {
          for (int j = 0; j < L; ++j) sw[L + j] = static_cast<Field>(step[j]);
          sw[2 * L] = static_cast<Field>(count + 1);
          return true;
        }
      }
    }
    if (s.n == kMaxSweeps) return false;
    Field* sw = &s.v[static_cast<std::size_t>(s.n * kSweepLen)];
    for (int j = 0; j < L; ++j) {
      if (!fits(v[j])) return false;
      sw[j] = static_cast<Field>(v[j]);
      sw[L + j] = 0;
    }
    sw[2 * L] = 1;
    ++s.n;
    return true;
  }

  /// Replay `s` as runs f(p, hi) relative to anchor `a`, in recording
  /// order.
  template <class F>
  static void replay(const Sweeps& s, const Point<D>& a, F& f) {
    constexpr int L = kRunLen;
    for (int k = 0; k < s.n; ++k) {
      const Field* sw = &s.v[static_cast<std::size_t>(k * kSweepLen)];
      Point<D> p;
      p.t = a.t + sw[0];
      for (int i = 0; i < D; ++i) p.x[i] = a.x[i] + sw[1 + i];
      std::int64_t hi = a.x[D - 1] + sw[L - 1];
      const int count = static_cast<std::uint16_t>(sw[2 * L]);
      for (int j = 0;;) {
        f(p, hi);
        if (++j == count) break;
        p.t += sw[L];
        for (int i = 0; i < D; ++i) p.x[i] += sw[L + 1 + i];
        hi += sw[2 * L - 1];
      }
    }
  }

  RegionMemoStats stats;

 private:
  static bool fits(std::int64_t v) {
    return v >= std::numeric_limits<Field>::min() &&
           v <= std::numeric_limits<Field>::max();
  }

  // The set index takes the low bits, and the low bits of a product
  // see only the low bits of its factors, so the final fmix64 step
  // (MurmurHash3) folds every key bit into them; without it the
  // classes of one E3 run crowded 176 entries into 119 sets and
  // thrashed the full ones.
  static std::size_t hash(const Key& key) {
    std::uint64_t h = 0;
    for (std::int32_t v : key)
      h = (std::rotl(h, 5) ^ static_cast<std::uint32_t>(v)) *
          0x517cc1b727220a95ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }

  std::vector<Entry> table_;
  std::vector<std::uint8_t> victim_;  ///< per set: the way replaced next
  std::uint64_t stamps_ = 0;          ///< the last stamp handed out
};

}  // namespace detail

template <int D>
class RegionChildren;

template <int D>
class Region {
 public:
  static constexpr int K = kMono<D>;
  /// split()'s children in a fixed-capacity inline array (2^K slots).
  using Children = RegionChildren<D>;
  /// A box's handle on its translation class in this thread's memo
  /// (from probe()): the key, computed once, and the entry it was last
  /// found in. Pass it to every query of the same box on the same
  /// thread; each use checks the entry's stamp and finds the class
  /// again if the entry was replaced meanwhile, so a probe may outlive
  /// any number of memo queries.
  using Probe = typename detail::RegionMemo<D>::Probe;

  /// Box [lo_k, hi_k) in monotone coordinates over `stencil`'s vertex
  /// set. The stencil must outlive the region.
  Region(const Stencil<D>* stencil, std::array<int64_t, K> lo,
         std::array<int64_t, K> hi)
      : stencil_(stencil), lo_(lo), hi_(hi) {
    BSMP_REQUIRE(stencil != nullptr);
    for (int k = 0; k < K; ++k) BSMP_REQUIRE(lo_[k] <= hi_[k]);
  }

  const Stencil<D>& stencil() const { return *stencil_; }
  const std::array<int64_t, K>& lo() const { return lo_; }
  const std::array<int64_t, K>& hi() const { return hi_; }

  /// Largest box side (in monotone units).
  int64_t width() const {
    int64_t w = 0;
    for (int k = 0; k < K; ++k) w = std::max(w, hi_[k] - lo_[k]);
    return w;
  }

  bool in_box(const Point<D>& p) const {
    auto c = mono_coords<D>(p);
    for (int k = 0; k < K; ++k)
      if (c[k] < lo_[k] || c[k] >= hi_[k]) return false;
    return true;
  }

  bool contains(const Point<D>& p) const {
    return stencil_->is_vertex(p) && in_box(p);
  }

  /// Inclusive time range [t_min, t_max] implied by the box and the
  /// stencil horizon; empty ranges have t_min > t_max.
  std::pair<int64_t, int64_t> time_range() const {
    int64_t tmin = 0;
    int64_t tmax = stencil_->horizon - 1;
    for (int i = 0; i < D; ++i) {
      int64_t sum_lo = lo_[2 * i] + lo_[2 * i + 1];
      int64_t sum_hi = (hi_[2 * i] - 1) + (hi_[2 * i + 1] - 1);
      // Halving by arithmetic shift: floor division by 2 for any sign.
      tmin = std::max(tmin, (sum_lo + 1) >> 1);
      tmax = std::min(tmax, sum_hi >> 1);
    }
    return {tmin, tmax};
  }

  /// Inclusive spatial range [x_min, x_max] in dimension i at time t.
  std::pair<int64_t, int64_t> x_range(int i, int64_t t) const {
    int64_t xmin = std::max<int64_t>(0, lo_[2 * i] - t);
    int64_t xmax = std::min(stencil_->extent[i] - 1, hi_[2 * i] - 1 - t);
    xmin = std::max(xmin, t - hi_[2 * i + 1] + 1);
    xmax = std::min(xmax, t - lo_[2 * i + 1]);
    return {xmin, xmax};
  }

  /// Number of lattice points in the region (exact).
  int64_t count() const {
    auto [tmin, tmax] = time_range();
    int64_t total = 0;
    for (int64_t t = tmin; t <= tmax; ++t) {
      int64_t rows = 1;
      for (int i = 0; i < D; ++i) {
        auto [a, b] = x_range(i, t);
        if (a > b) {
          rows = 0;
          break;
        }
        rows *= (b - a + 1);
      }
      total += rows;
    }
    return total;
  }

  /// First point in topological (t, then x lexicographic) order, or
  /// nullopt if the region is empty.
  std::optional<Point<D>> first_point() const {
    auto [tmin, tmax] = time_range();
    for (int64_t t = tmin; t <= tmax; ++t) {
      Point<D> p;
      p.t = t;
      bool ok = true;
      for (int i = 0; i < D; ++i) {
        auto [a, b] = x_range(i, t);
        if (a > b) {
          ok = false;
          break;
        }
        p.x[i] = a;
      }
      if (ok) return p;
    }
    return std::nullopt;
  }

  bool empty() const { return !first_point().has_value(); }

  /// Visit every point in topological order: t ascending, then x
  /// lexicographic. Within one time level no point depends on another,
  /// and all dependence arcs point to strictly smaller t, so this order
  /// is a valid execution order.
  template <class F>
  void for_each(F&& visit) const {
    auto [tmin, tmax] = time_range();
    for (int64_t t = tmin; t <= tmax; ++t) for_each_at_time(t, visit);
  }

  /// All points as a vector (small regions / tests only).
  std::vector<Point<D>> points() const {
    std::vector<Point<D>> v;
    for_each([&](const Point<D>& p) { v.push_back(p); });
    return v;
  }

  /// Midpoint split into at most 2^K children, in topological order
  /// (children sorted by the number of upper halves they occupy; equal
  /// counts are mutually independent). Empty children are dropped.
  /// Coordinates with a side of length < 2 are not split. Which
  /// children are nonempty comes from the translation-class memo.
  std::vector<Region> split() const {
    Children kids;
    split_into(kids);
    return std::vector<Region>(kids.begin(), kids.end());
  }

  /// This box's class handle for the probe-taking queries below. It
  /// computes the key and finds nothing yet: the first query does.
  Probe probe() const {
    Probe p;
    p.keyed = memo_key(p.key);
    return p;
  }

  /// split() into a fixed-capacity inline array: no heap allocation.
  /// The executor and the regime-1 relocation recurse through this.
  void split_into(Children& out) const {
    Probe p = probe();
    split_into(out, p);
  }

  /// split_into() through `p`, this box's probe().
  void split_into(Children& out, Probe& p) const {
    std::uint64_t kids;
    Memo& memo = local_memo();
    if (p.keyed) {
      typename Memo::Entry& e = *memo.resolve(p, /*insert=*/true);
      // A hit implies a splittable box: the sizes are part of the key.
      if (!e.split_known) {
        e.kids = nonempty_children();
        e.split_known = true;
        ++memo.stats.misses;
      } else {
        ++memo.stats.hits;
      }
      kids = e.kids;
    } else {
      ++memo.stats.misses;
      kids = nonempty_children();
    }
    out.n_ = 0;
    for_each_child(kids, [&](unsigned mask) {
      out.kids_[out.n_++] = child_of(mask);
    });
  }

  /// split() computed from the box alone, bypassing the memo (the
  /// reference the memo is tested against).
  std::vector<Region> split_direct() const {
    std::vector<Region> out;
    for_each_child(nonempty_children(),
                   [&](unsigned mask) { out.push_back(child_of(mask)); });
    return out;
  }

  /// This thread's memo counters for dimension D.
  static RegionMemoStats memo_stats() { return local_memo().stats; }

  /// Visit every point of the preboundary Γin(U): vertices outside U
  /// that are predecessors of some vertex of U (Section 3). Exact,
  /// computed over the lower shell of depth reach(), one *row* (fixed
  /// t and outer coordinates, innermost x free) at a time: per row the
  /// qualifying points form a union of at most 2D+1 intervals (one per
  /// successor kind), assembled by interval arithmetic instead of a
  /// per-point successor scan — O(rows) setup, no allocation. Each
  /// point is visited exactly once, in the same (slab, t, x ascending)
  /// order the point-scan produced.
  template <class F>
  void preboundary_visit(F&& visit) const {
    preboundary_rows([&](int64_t t, std::array<int64_t, D>& x,
                         const IvSet& s) { visit_rowset(t, x, s, visit); });
  }

  /// The preboundary as innermost-dimension runs f(p, hi) (the points
  /// p, p+e_{D-1}, ..., up to x_{D-1} = hi), computed from the box:
  /// flattening them gives preboundary_visit's exact point order.
  template <class F>
  void preboundary_spans(F&& f) const {
    preboundary_rows([&](int64_t t, std::array<int64_t, D>& x,
                         const IvSet& s) { rowset_spans(t, x, s, f); });
  }

  /// preboundary_spans() served by the translation-class memo: a
  /// class's first query walks the box and stores the runs as sweeps;
  /// translates replay them (merged where one run continues the last).
  /// `f` may do anything but must not rely on the run boundaries.
  template <class F>
  void preboundary_runs(F&& f) const {
    Probe p = probe();
    preboundary_runs(p, f);
  }

  /// preboundary_runs() through `p`, this box's probe().
  template <class F>
  void preboundary_runs(Probe& p, F&& f) const {
    served_runs<Memo::kPreboundary>(p, f);
  }

  /// The preboundary as a vector (materializing form of
  /// preboundary_visit).
  std::vector<Point<D>> preboundary() const {
    std::vector<Point<D>> out;
    preboundary_visit([&](const Point<D>& q) { out.push_back(q); });
    return out;
  }

  /// |Γin(U)|, served by the translation-class memo: computed once per
  /// class by preboundary_count_direct(), so equality with
  /// preboundary().size() is exact (asserted by the region property
  /// tests and, in validation mode, by every simulator that charges
  /// it).
  int64_t preboundary_count() const {
    Probe p = probe();
    return preboundary_count(p);
  }

  /// preboundary_count() through `p`, this box's probe().
  int64_t preboundary_count(Probe& p) const {
    return memo_count(p, &Memo::Entry::pre,
                      [this] { return preboundary_count_direct(); });
  }

  /// |Γin(U)| without materializing the vector or consulting the memo:
  /// sums the per-row interval lengths of the same decomposition
  /// preboundary_visit walks — no per-point work at all.
  int64_t preboundary_count_direct() const {
    int64_t n = 0;
    preboundary_rows([&](int64_t, std::array<int64_t, D>&,
                         const IvSet& s) { n += s.total(); });
    return n;
  }

  /// O(1) out-set membership: q is in the out-set of U iff q is a
  /// vertex of U and some successor *position* of q is not a vertex of
  /// U (positions past the time horizon are not vertices, so the final
  /// rows of a computation always qualify). Equivalent to scanning
  /// outset() for q — every arc raises each monotone coordinate, so a
  /// point all of whose successors stay in the box is never collected
  /// by the shell scan either.
  bool in_outset(const Point<D>& q) const {
    if (!contains(q)) return false;
    std::array<Point<D>, K + 1> succ;
    int ns = stencil_->succ_positions(q, succ);
    for (int s = 0; s < ns; ++s)
      if (!contains(succ[s])) return true;
    return false;
  }

  /// Visit every point of the out-set: vertices of U with a successor
  /// *position* outside U (including positions past the time horizon).
  /// Each point is visited exactly once, in slab-scan order (the order
  /// outset() returns), assembled per row by the same interval
  /// arithmetic as preboundary_visit. No allocation.
  template <class F>
  void outset_visit(F&& visit) const {
    outset_rows([&](int64_t t, std::array<int64_t, D>& x, const IvSet& s) {
      visit_rowset(t, x, s, visit);
    });
  }

  /// Visit the out-set as maximal innermost-dimension runs: f(p, hi)
  /// stands for the points p, p+e_{D-1}, ..., up to x_{D-1} = hi.
  /// Flattening each run recovers outset_visit's exact element order;
  /// the executor stages a whole run with one contiguous slab insert.
  template <class F>
  void outset_spans(F&& f) const {
    outset_rows([&](int64_t t, std::array<int64_t, D>& x, const IvSet& s) {
      rowset_spans(t, x, s, f);
    });
  }

  /// outset_spans() served by the translation-class memo (see
  /// preboundary_runs).
  template <class F>
  void outset_runs(F&& f) const {
    Probe p = probe();
    outset_runs(p, f);
  }

  /// outset_runs() through `p`, this box's probe().
  template <class F>
  void outset_runs(Probe& p, F&& f) const {
    served_runs<Memo::kOutset>(p, f);
  }

  /// The out-set as a vector (materializing form of outset_visit).
  std::vector<Point<D>> outset() const {
    std::vector<Point<D>> out;
    outset_visit([&](const Point<D>& q) { out.push_back(q); });
    return out;
  }

  /// Out-set size, served by the translation-class memo (computed once
  /// per class by outset_count_direct()); equal to outset().size().
  int64_t outset_count() const {
    Probe p = probe();
    return outset_count(p);
  }

  /// outset_count() through `p`, this box's probe().
  int64_t outset_count(Probe& p) const {
    return memo_count(p, &Memo::Entry::out,
                      [this] { return outset_count_direct(); });
  }

  /// Out-set size without materializing the vector or consulting the
  /// memo — sums the per-row interval lengths of the decomposition
  /// outset_visit walks, so equality with outset().size() is exact.
  int64_t outset_count_direct() const {
    int64_t n = 0;
    outset_rows([&](int64_t, std::array<int64_t, D>&, const IvSet& s) {
      n += s.total();
    });
    return n;
  }

  /// Visit the points of this region's out-set that are NOT in
  /// `parent`'s out-set — i.e. child out-set points all of whose
  /// successor positions stay inside `parent`. Same row decomposition
  /// and visit order as outset_visit, with the parent's out-set
  /// predicate subtracted per row as intervals. The executor's
  /// retention filter (erase child staging no later sibling can read)
  /// is exactly this set.
  template <class F>
  void outset_visit_minus(const Region& parent, F&& visit) const {
    outset_spans_minus(parent, [&](const Point<D>& q, int64_t hi) {
      Point<D> p = q;
      for (; p.x[D - 1] <= hi; ++p.x[D - 1]) visit(p);
    });
  }

  /// outset_visit_minus as innermost-dimension runs f(p, hi).
  template <class F>
  void outset_spans_minus(const Region& parent, F&& f) const {
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
    IvSet ps;
    outset_rows([&](int64_t t, std::array<int64_t, D>& x, const IvSet& s) {
      row_succ_set(parent, t, x, -kInf, kInf, /*inside=*/false, ps);
      Point<D> p;
      p.t = t;
      for (int i = 0; i + 1 < D; ++i) p.x[i] = x[i];
      for (int i = 0; i < s.n; ++i) {
        int64_t cur = s.iv[i].first;
        const int64_t end = s.iv[i].second;
        for (int j = 0; j < ps.n && cur <= end; ++j) {
          if (ps.iv[j].second < cur) continue;
          if (ps.iv[j].first > end) break;
          if (cur < ps.iv[j].first) {
            p.x[D - 1] = cur;
            f(p, ps.iv[j].first - 1);
          }
          cur = ps.iv[j].second + 1;
        }
        if (cur <= end) {
          p.x[D - 1] = cur;
          f(p, end);
        }
      }
    });
  }

  /// The executor's retention filter, computed from the box: for each
  /// child in split() order, the runs of child.outset_visit_minus(*this)
  /// — the child out-set points no later sibling and no successor
  /// outside this region reads, which the executor erases after the
  /// children ran. Queries the memo for the split.
  template <class F>
  void retention_spans(F&& f) const {
    Probe p = probe();
    retention_spans(p, f);
  }

  /// retention_spans() served by the translation-class memo (see
  /// preboundary_runs).
  template <class F>
  void retention_runs(F&& f) const {
    Probe p = probe();
    retention_runs(p, f);
  }

  /// retention_runs() through `p`, this box's probe().
  template <class F>
  void retention_runs(Probe& p, F&& f) const {
    served_runs<Memo::kRetention>(p, f);
  }

  /// Visit every point of the region at one time level.
  template <class F>
  void for_each_at_time(int64_t t, F&& visit) const {
    if (t < 0 || t >= stencil_->horizon) return;
    Point<D> p;
    p.t = t;
    std::array<std::pair<int64_t, int64_t>, D> r;
    for (int i = 0; i < D; ++i) {
      r[i] = x_range(i, t);
      if (r[i].first > r[i].second) return;
    }
    if constexpr (D == 1) {
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        p.x[0] = x0;
        visit(p);
      }
    } else if constexpr (D == 2) {
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        p.x[0] = x0;
        for (int64_t x1 = r[1].first; x1 <= r[1].second; ++x1) {
          p.x[1] = x1;
          visit(p);
        }
      }
    } else {
      static_assert(D == 3);
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        p.x[0] = x0;
        for (int64_t x1 = r[1].first; x1 <= r[1].second; ++x1) {
          p.x[1] = x1;
          for (int64_t x2 = r[2].first; x2 <= r[2].second; ++x2) {
            p.x[2] = x2;
            visit(p);
          }
        }
      }
    }
  }

 private:
  friend class RegionChildren<D>;
  using Memo = detail::RegionMemo<D>;

  // Uninitialized; only RegionChildren's inline slots use it.
  Region() = default;

  // ---- Translation-class memo ------------------------------------------
  //
  // The separator is self-similar, so most recursion nodes are lattice
  // translates of one another, and a translate has the same boundary
  // counts and the same nonempty split children. Two boxes are exact
  // translates when they have equal sizes hi - lo, equal parities of
  // lo[2i] - lo[2i+1] and equal offsets (lo0 + lo1) - (lo[2i] +
  // lo[2i+1]): then lo' - lo = (dt + dx_i, dt - dx_i)_i for a lattice
  // vector (dx, dt). The counts and children depend on the vertex set
  // only within reach R of the box in every monotone coordinate (the
  // preboundary's lower shell, the out-set's successor positions), so
  // the key adds, per wall (t = 0, the horizon, x_i = 0 and
  // x_i = extent_i - 1), the box's distance from it in doubled units,
  // clamped at 2R: from 2R on the wall cuts nothing within reach and
  // its exact distance no longer matters. Below the clamp an equal
  // distance puts the wall at the same place relative to both boxes.
  // The key holds m but no stencil pointer, so translates on different
  // stencils share entries.
  //
  // The same argument makes the boundary *sets* of translates
  // translates of each other, so a class also stores up to three run
  // lists (out-set, retention filter, preboundary) as offsets from the
  // box's anchor, and later translates replay them instead of running
  // the interval code. A list is stored as sweeps (see
  // RegionMemo::record_run): the runs of a diamond's boundary advance
  // row by row by a constant step, so a d=1 list takes at most 12
  // sweeps at widths up to 1024. A list longer than kMaxSweeps is not
  // stored, nor is one whose sweeps need a field past 16 bits; its
  // class walks directly on every query, and the list alone never
  // inserts the class (see record_runs).
  //
  // A Probe carries the key from one query of a box to the next, so a
  // recursion node computes its key once and scans its set once; its
  // later queries compare one stamp. The no-probe forms make a probe
  // per query.

  static Memo& local_memo() {
    thread_local Memo memo;
    return memo;
  }

  // Fill `key` with the box's translation class; false when a term
  // does not fit the memo's 32-bit key (the caller computes directly).
  bool memo_key(typename Memo::Key& key) const {
    const Stencil<D>& st = *stencil_;
    const int64_t r2 = 2 * st.reach();
    std::array<int64_t, Memo::kKeyLen> v;
    int n = 0;
    for (int k = 0; k < K; ++k) v[n++] = hi_[k] - lo_[k];
    v[n++] = st.m;
    int64_t parity = 0;
    for (int i = 0; i < D; ++i)
      parity |= ((lo_[2 * i] - lo_[2 * i + 1]) & 1) << i;
    v[n++] = parity;
    const int64_t s0 = lo_[0] + lo_[1];
    int64_t sum_lo = s0;
    int64_t sum_hi = hi_[0] + hi_[1];
    for (int i = 1; i < D; ++i) {
      const int64_t si = lo_[2 * i] + lo_[2 * i + 1];
      v[n++] = s0 - si;
      sum_lo = std::max(sum_lo, si);
      sum_hi = std::min(sum_hi, hi_[2 * i] + hi_[2 * i + 1]);
    }
    // Doubled t of the box's lowest and highest points (2t = c_2i +
    // c_2i+1), and doubled x_i of its leftmost and rightmost ones.
    v[n++] = std::min(sum_lo, r2);
    v[n++] = std::min(2 * (st.horizon - 1) - (sum_hi - 2), r2);
    for (int i = 0; i < D; ++i) {
      v[n++] = std::min(lo_[2 * i] - hi_[2 * i + 1] + 1, r2);
      v[n++] = std::min(
          2 * (st.extent[i] - 1) - (hi_[2 * i] - lo_[2 * i + 1] - 1), r2);
    }
    for (int j = 0; j < Memo::kKeyLen; ++j) {
      if (v[j] < std::numeric_limits<std::int32_t>::min() ||
          v[j] > std::numeric_limits<std::int32_t>::max())
        return false;
      key[j] = static_cast<std::int32_t>(v[j]);
    }
    return true;
  }

  // The box's anchor: (floor((lo0 + lo1) / 2), floor((lo[2i] -
  // lo[2i+1]) / 2)_i). A translate by the lattice vector (dx, dt) has
  // its anchor moved by exactly (dx, dt), because translates share the
  // parities of lo[2i] - lo[2i+1] (a key term), so runs stored relative
  // to it replay exactly on every box of the class.
  Point<D> anchor() const {
    Point<D> a;
    a.t = (lo_[0] + lo_[1]) >> 1;
    for (int i = 0; i < D; ++i) a.x[i] = (lo_[2 * i] - lo_[2 * i + 1]) >> 1;
    return a;
  }

  // One served walk W through probe `p`. The class's list state
  // decides: replay the stored sweeps, walk the box directly with `f`
  // inlined (the list is too long, or the box has no key), or record
  // the sweeps (the memo does not know the list yet). The sweeps are
  // copied out before the replay and the recorder resolves the probe
  // again after its walk, so `f` may query the memo freely.
  template <int W, class F>
  void served_runs(Probe& p, F& f) const {
    using State = typename Memo::ListState;
    typename Memo::Sweeps sweeps;
    switch (list_state(p, W, sweeps)) {
      case State::kStored:
        Memo::replay(sweeps, anchor(), f);
        return;
      case State::kUnknown: {
        const RunSink sink{const_cast<void*>(static_cast<const void*>(&f)),
                           [](void* c, const Point<D>& q, int64_t hi) {
                             (*static_cast<F*>(c))(q, hi);
                           }};
        record_runs(p, W, sink);
        return;
      }
      case State::kTooLong:
        direct_spans<W>(p, f);
        return;
    }
  }

  template <int W, class F>
  void direct_spans(Probe& p, F& f) const {
    if constexpr (W == Memo::kOutset)
      outset_spans(f);
    else if constexpr (W == Memo::kRetention)
      retention_spans(p, f);
    else
      preboundary_spans(f);
  }

  // retention_spans() with the split served through `p`.
  template <class F>
  void retention_spans(Probe& p, F& f) const {
    Children kids;
    split_into(kids, p);
    for (const Region& child : kids) child.outset_spans_minus(*this, f);
  }

  // The state of the box's class's list for `walk`, its sweeps copied
  // to `sweeps` when stored: kTooLong also when the box has no key,
  // kUnknown also when its class is not in the memo (which this does
  // not insert). Counts the query in the memo's stats unless
  // record_runs will. Out of line, like record_runs, so a caller
  // inlines only the replay loop and its own direct walk: GCC's
  // inlining budget is per translation unit, and the executor's leaf
  // loop shares it (doc/PERF.md §2 "Payload").
  [[gnu::noinline]] typename Memo::ListState list_state(
      Probe& p, int walk, typename Memo::Sweeps& sweeps) const {
    using State = typename Memo::ListState;
    Memo& memo = local_memo();
    if (!p.keyed) {
      ++memo.stats.list_misses;
      return State::kTooLong;
    }
    const typename Memo::Entry* e = memo.resolve(p, /*insert=*/false);
    if (e == nullptr) return State::kUnknown;
    const State state = e->state[walk];
    if (state == State::kStored) {
      e->load(walk, sweeps);
      ++memo.stats.list_hits;
    } else if (state == State::kTooLong) {
      ++memo.stats.list_long;
    }
    return state;
  }

  // A run callback with its type erased, so record_runs exists once per
  // dimension rather than once per caller.
  struct RunSink {
    void* ctx;
    void (*fn)(void*, const Point<D>&, int64_t);
    void operator()(const Point<D>& p, int64_t hi) const { fn(ctx, p, hi); }
  };

  // A walk whose list the memo does not know: run it from the box,
  // hand each run to `f`, and store the sweeps, inserting the class if
  // it is absent. A list too long to store is marked in the class's
  // entry if the class is there (a count or split query put it there)
  // and otherwise inserts nothing: boxes whose lists never fit, such as
  // wide d=2 regime-2 subtiles, would crowd counted classes out of
  // their sets, and every later query of theirs walks directly anyway.
  // The probe is resolved after the walk, which may query the memo
  // itself.
  [[gnu::noinline]] void record_runs(Probe& p, int walk,
                                     const RunSink& f) const {
    const Point<D> a = anchor();
    typename Memo::Sweeps sweeps;
    bool fits = true;
    auto record = [&](const Point<D>& q, int64_t hi) {
      if (fits) {
        std::array<int64_t, Memo::kRunLen> v;
        v[0] = q.t - a.t;
        for (int i = 0; i < D; ++i) v[1 + i] = q.x[i] - a.x[i];
        v[Memo::kRunLen - 1] = hi - a.x[D - 1];
        fits = Memo::record_run(v, sweeps);
      }
      f(q, hi);
    };
    if (walk == Memo::kOutset)
      outset_spans(record);
    else if (walk == Memo::kRetention)
      retention_spans(p, record);
    else
      preboundary_spans(record);
    Memo& memo = local_memo();
    if (fits) {
      ++memo.stats.list_misses;
      memo.resolve(p, /*insert=*/true)->store(walk, sweeps);
    } else if (typename Memo::Entry* e = memo.resolve(p, /*insert=*/false)) {
      ++memo.stats.list_misses;
      e->state[walk] = Memo::ListState::kTooLong;
    } else {
      ++memo.stats.list_long;
    }
  }

  // One memoized count through probe `p`: the entry's field, computed
  // by `direct` on the class's first query.
  template <class F>
  int64_t memo_count(Probe& p, int64_t Memo::Entry::*field,
                     F&& direct) const {
    Memo& memo = local_memo();
    if (!p.keyed) {
      ++memo.stats.misses;
      return direct();
    }
    typename Memo::Entry& e = *memo.resolve(p, /*insert=*/true);
    if (e.*field < 0) {
      e.*field = direct();
      ++memo.stats.misses;
    } else {
      ++memo.stats.hits;
    }
    return e.*field;
  }

  // The child whose coordinates with bit k set in `mask` take the
  // upper half (split coordinates only).
  Region child_of(unsigned mask) const {
    Region c = *this;
    for (int k = 0; k < K; ++k) {
      if (hi_[k] - lo_[k] < 2) continue;
      const int64_t mid = lo_[k] + (hi_[k] - lo_[k]) / 2;
      if ((mask >> k) & 1u)
        c.lo_[k] = mid;
      else
        c.hi_[k] = mid;
    }
    return c;
  }

  // Bit c set iff child c (see child_of) is nonempty.
  std::uint64_t nonempty_children() const {
    unsigned splits = 0;
    for (int k = 0; k < K; ++k)
      if (hi_[k] - lo_[k] >= 2) splits |= 1u << k;
    BSMP_REQUIRE_MSG(splits != 0, "cannot split a region of width 1");
    std::uint64_t kids = 0;
    for (unsigned mask = 0; mask < (1u << K); ++mask)
      if ((mask & ~splits) == 0 && !child_of(mask).empty())
        kids |= std::uint64_t{1} << mask;
    return kids;
  }

  // Visit the children in `kids` in split() order: ascending number of
  // upper halves, ascending mask within one count.
  template <class F>
  static void for_each_child(std::uint64_t kids, F&& f) {
    for (int uppers = 0; uppers <= K; ++uppers) {
      for (std::uint64_t bits = kids & kWithUppers[uppers]; bits != 0;
           bits &= bits - 1)
        f(static_cast<unsigned>(std::countr_zero(bits)));
    }
  }

  // kWithUppers[u]: bit c set iff mask c < 2^K has u bits set.
  static constexpr std::array<std::uint64_t, K + 1> kWithUppers = [] {
    std::array<std::uint64_t, K + 1> a{};
    for (unsigned c = 0; c < (1u << K); ++c)
      a[static_cast<std::size_t>(std::popcount(c))] |= std::uint64_t{1} << c;
    return a;
  }();

  // ---- Row-interval boundary machinery ---------------------------------
  //
  // For a fixed row (time t and the outer spatial coordinates fixed,
  // innermost x = x_{D-1} free), every monotone coordinate of a
  // successor position is linear in x with coefficient 0 or ±1, so both
  // "this successor kind exists" (stays on the mesh) and "it lands
  // inside a target box" are intervals in x. The boundary predicates
  // therefore collapse to per-row unions of at most 2(2D+1) intervals,
  // computed in O(1) per row instead of a per-point successor scan.
  // The row decomposition and the ascending-x interval walk reproduce
  // the point-scan visit order exactly, so the fast and scan forms are
  // interchangeable point for point (pinned by the region property
  // tests and by the executor's validation mode).

  // Inclusive intervals [lo, hi] over the innermost coordinate; empty
  // candidates are dropped on add(). Capacity covers the outside
  // predicate's worst case: two intervals per successor kind.
  struct IvSet {
    int n = 0;
    std::array<std::pair<int64_t, int64_t>, 2 * (2 * D + 1)> iv;
    void add(int64_t lo, int64_t hi) {
      if (lo <= hi) iv[n++] = {lo, hi};
    }
    // Sort by lower end and fuse overlapping/adjacent intervals so a
    // walk visits each point exactly once, in ascending order.
    // Insertion sort: n is tiny and usually already ordered.
    void normalize() {
      for (int i = 1; i < n; ++i) {
        auto v = iv[i];
        int j = i;
        for (; j > 0 && v < iv[j - 1]; --j) iv[j] = iv[j - 1];
        iv[j] = v;
      }
      int m = 0;
      for (int i = 0; i < n; ++i) {
        if (m > 0 && iv[i].first <= iv[m - 1].second + 1) {
          iv[m - 1].second = std::max(iv[m - 1].second, iv[i].second);
        } else {
          iv[m++] = iv[i];
        }
      }
      n = m;
    }
    int64_t total() const {
      int64_t s = 0;
      for (int i = 0; i < n; ++i) s += iv[i].second - iv[i].first + 1;
      return s;
    }
  };

  // The x-intervals of one successor kind over a row: where the
  // successor position exists ([elo, ehi]) and where it additionally
  // lands inside `reg` ([clo, chi], a subset). `dim` < D steps that
  // spatial coordinate by `step` at t+1; dim == D is the self lane at
  // t+m. All intervals are in source-x terms.
  static void succ_intervals(const Region& reg, int64_t t,
                             const std::array<int64_t, D>& xout, int dim,
                             int step, int64_t& elo, int64_t& ehi,
                             int64_t& clo, int64_t& chi) {
    const Stencil<D>& st = *reg.stencil_;
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
    elo = -kInf;
    ehi = kInf;
    const int64_t tp = (dim == D) ? t + st.m : t + 1;
    const int64_t sx = (dim == D - 1) ? step : 0;  // innermost shift
    // Existence: a stepped spatial coordinate must stay on the mesh
    // (succ_positions emits no off-mesh spatial successors).
    if (dim >= 0 && dim < D - 1) {
      int64_t xj = xout[dim] + step;
      if (xj < 0 || xj >= st.extent[dim]) {
        ehi = elo - 1;
        clo = 1;
        chi = 0;
        return;
      }
    } else if (dim == D - 1) {
      elo = std::max(elo, int64_t{0} - sx);
      ehi = std::min(ehi, st.extent[D - 1] - 1 - sx);
    }
    clo = elo;
    chi = ehi;
    // Containment in reg: the successor must be a vertex...
    if (tp >= st.horizon) {
      clo = 1;
      chi = 0;
      return;
    }
    // ...on the mesh in the outer dimensions (the inner one is covered
    // by the existence bounds above, which clo/chi inherit)...
    for (int i = 0; i + 1 < D; ++i) {
      int64_t xi = xout[i] + (i == dim ? step : 0);
      if (xi < 0 || xi >= st.extent[i]) {
        clo = 1;
        chi = 0;
        return;
      }
      // ...and inside reg's box: row-constant coordinates first.
      if (tp + xi < reg.lo_[2 * i] || tp + xi >= reg.hi_[2 * i] ||
          tp - xi < reg.lo_[2 * i + 1] || tp - xi >= reg.hi_[2 * i + 1]) {
        clo = 1;
        chi = 0;
        return;
      }
    }
    // Innermost pair of monotone coordinates, as bounds on x:
    // lo <= tp + (x+sx) < hi  and  lo' <= tp - (x+sx) < hi'.
    clo = std::max(clo, reg.lo_[K - 2] - tp - sx);
    chi = std::min(chi, reg.hi_[K - 2] - 1 - tp - sx);
    clo = std::max(clo, tp - reg.hi_[K - 1] + 1 - sx);
    chi = std::min(chi, tp - reg.lo_[K - 1] - sx);
  }

  // The visit set of one row, clipped to row bounds [a, b]: the x whose
  // point has some successor kind that exists and lands inside `reg`
  // (inside = true; the preboundary predicate) or exists and lands
  // outside `reg` (inside = false; the out-set predicate).
  static void row_succ_set(const Region& reg, int64_t t,
                           const std::array<int64_t, D>& xout, int64_t a,
                           int64_t b, bool inside, IvSet& out) {
    out.n = 0;
    auto one = [&](int dim, int step) {
      int64_t elo, ehi, clo, chi;
      succ_intervals(reg, t, xout, dim, step, elo, ehi, clo, chi);
      if (inside) {
        out.add(std::max(clo, a), std::min(chi, b));
      } else if (clo > chi) {
        out.add(std::max(elo, a), std::min(ehi, b));
      } else {
        out.add(std::max(elo, a), std::min({ehi, clo - 1, b}));
        out.add(std::max({elo, chi + 1, a}), std::min(ehi, b));
      }
    };
    for (int i = 0; i < D; ++i) {
      one(i, -1);
      one(i, +1);
    }
    one(D, 0);  // self lane
    out.normalize();
  }

  // Iterate the rows of region S at time t (outer coordinates
  // lexicographic), yielding inclusive innermost bounds — the row
  // decomposition of for_each_at_time.
  template <class RowF>
  static void rows_at(const Region& S, int64_t t, RowF&& f) {
    if (t < 0 || t >= S.stencil_->horizon) return;
    std::array<std::pair<int64_t, int64_t>, D> r;
    for (int i = 0; i < D; ++i) {
      r[i] = S.x_range(i, t);
      if (r[i].first > r[i].second) return;
    }
    std::array<int64_t, D> x{};
    if constexpr (D == 1) {
      f(t, x, r[0].first, r[0].second);
    } else if constexpr (D == 2) {
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        x[0] = x0;
        f(t, x, r[1].first, r[1].second);
      }
    } else {
      static_assert(D == 3);
      for (int64_t x0 = r[0].first; x0 <= r[0].second; ++x0) {
        x[0] = x0;
        for (int64_t x1 = r[1].first; x1 <= r[1].second; ++x1) {
          x[1] = x1;
          f(t, x, r[2].first, r[2].second);
        }
      }
    }
  }

  // All rows of S in for_each order: t ascending, then rows_at.
  template <class RowF>
  static void rows_of(const Region& S, RowF&& f) {
    auto [tmin, tmax] = S.time_range();
    for (int64_t t = tmin; t <= tmax; ++t) rows_at(S, t, f);
  }

  // A normalized row set as innermost-dimension runs f(p, hi).
  template <class F>
  static void rowset_spans(int64_t t, const std::array<int64_t, D>& x,
                           const IvSet& s, F& f) {
    Point<D> p;
    p.t = t;
    for (int i = 0; i + 1 < D; ++i) p.x[i] = x[i];
    for (int i = 0; i < s.n; ++i) {
      p.x[D - 1] = s.iv[i].first;
      f(p, s.iv[i].second);
    }
  }

  // Walk a normalized row set, visiting points in ascending x.
  template <class F>
  static void visit_rowset(int64_t t, const std::array<int64_t, D>& x,
                           const IvSet& s, F&& visit) {
    Point<D> p;
    p.t = t;
    for (int i = 0; i + 1 < D; ++i) p.x[i] = x[i];
    for (int i = 0; i < s.n; ++i) {
      for (int64_t xx = s.iv[i].first; xx <= s.iv[i].second; ++xx) {
        p.x[D - 1] = xx;
        visit(p);
      }
    }
  }

  // Drive the preboundary slab decomposition, yielding each nonempty
  // row set (already normalized).
  template <class RowSetF>
  void preboundary_rows(RowSetF&& f) const {
    const int64_t R = stencil_->reach();
    IvSet s;
    for (int k = 0; k < K; ++k) {
      // Slab k: coordinate k in [lo_k - R, lo_k); coordinates j < k
      // inside the box (so each shell point appears in exactly one
      // slab); coordinates j > k anywhere a predecessor can be.
      std::array<int64_t, K> slo = lo_, shi = hi_;
      slo[k] = lo_[k] - R;
      shi[k] = lo_[k];
      for (int j = k + 1; j < K; ++j) slo[j] = lo_[j] - R;
      Region slab(stencil_, slo, shi);
      rows_of(slab, [&](int64_t t, std::array<int64_t, D>& x, int64_t a,
                        int64_t b) {
        row_succ_set(*this, t, x, a, b, /*inside=*/true, s);
        if (s.n > 0) f(t, x, s);
      });
    }
  }

  // Drive the out-set decomposition — upper shell slabs, then horizon
  // rows minus the upper-slab overlap — yielding each nonempty row set.
  template <class RowSetF>
  void outset_rows(RowSetF&& f) const {
    const int64_t R = stencil_->reach();
    IvSet s;
    // Upper shell slabs (successors that leave the box).
    for (int k = 0; k < K; ++k) {
      std::array<int64_t, K> slo = lo_, shi = hi_;
      slo[k] = std::max(lo_[k], hi_[k] - R);
      for (int j = 0; j < k; ++j) shi[j] = std::max(lo_[j], hi_[j] - R);
      Region slab(stencil_, slo, shi);
      rows_of(slab, [&](int64_t t, std::array<int64_t, D>& x, int64_t a,
                        int64_t b) {
        row_succ_set(*this, t, x, a, b, /*inside=*/false, s);
        if (s.n > 0) f(t, x, s);
      });
    }
    // Horizon rows (successors that leave the computation in time):
    // rows with t >= horizon - m have their self-lane successor past
    // the horizon. Skip the part already collected by an upper slab:
    // a point lies in one iff some monotone coordinate c_k >= hi_k - R,
    // which over a row is a row-constant test per outer coordinate
    // plus two half-lines in the innermost x.
    int64_t t_top = stencil_->horizon - stencil_->m;
    auto [tmin, tmax] = time_range();
    for (int64_t t = std::max(tmin, t_top); t <= tmax; ++t) {
      rows_at(*this, t, [&](int64_t tt, std::array<int64_t, D>& x,
                            int64_t a, int64_t b) {
        for (int i = 0; i + 1 < D; ++i) {
          if (tt + x[i] >= hi_[2 * i] - R || tt - x[i] >= hi_[2 * i + 1] - R)
            return;  // the whole row lies in an upper slab
        }
        // Keep x with tt + x < hi_[K-2] - R and tt - x < hi_[K-1] - R.
        int64_t ka = std::max(a, tt - (hi_[K - 1] - R) + 1);
        int64_t kb = std::min(b, hi_[K - 2] - R - 1 - tt);
        if (ka > kb) return;
        row_succ_set(*this, tt, x, ka, kb, /*inside=*/false, s);
        if (s.n > 0) f(tt, x, s);
      });
    }
  }

  const Stencil<D>* stencil_;
  std::array<int64_t, K> lo_, hi_;
};

/// The children of one Region::split_into() call, held inline: 2^K
/// slots, no heap allocation, iterable like split()'s vector.
template <int D>
class RegionChildren {
 public:
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const Region<D>& operator[](std::size_t i) const { return kids_[i]; }
  const Region<D>* begin() const { return kids_; }
  const Region<D>* end() const { return kids_ + n_; }

  /// Call f(i, j) for each maximal run [i, j) of children with equally
  /// many monotone coordinates in `parent`'s upper half ("uppers"; the
  /// split orders children by it). Two children of one run each have a
  /// coordinate where they are upper and the other lower, and monotone
  /// arcs only decrease coordinates, so a run is an antichain.
  template <class F>
  void for_each_equal_uppers_run(const Region<D>& parent, F&& f) const {
    auto uppers = [&parent](const Region<D>& c) {
      int u = 0;
      for (int k = 0; k < kMono<D>; ++k) u += c.lo()[k] != parent.lo()[k];
      return u;
    };
    for (std::size_t i = 0, j = 0; i < n_; i = j) {
      j = i + 1;
      while (j < n_ && uppers(kids_[j]) == uppers(kids_[i])) ++j;
      f(i, j);
    }
  }

 private:
  friend class Region<D>;
  std::size_t n_ = 0;
  Region<D> kids_[std::size_t{1} << kMono<D>];
};

/// The points of a run walk (called as walk(f), f(p, hi) per
/// innermost-dimension run, e.g. a Region's *_runs or *_spans form),
/// flattened in walk order.
template <int D, class Walk>
std::vector<Point<D>> run_points(const Walk& walk) {
  std::vector<Point<D>> pts;
  walk([&](const Point<D>& q, int64_t hi) {
    Point<D> p = q;
    for (; p.x[D - 1] <= hi; ++p.x[D - 1]) pts.push_back(p);
  });
  return pts;
}

}  // namespace bsmp::geom
