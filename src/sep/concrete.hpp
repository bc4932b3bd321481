// The concrete executor: Proposition 2 with *literal* memory.
//
// Where Executor<D> charges model costs while holding values in a host
// staging store, ConcreteExecutor runs the same recursion with every value
// physically resident in an HRam at the addresses Proposition 2
// prescribes:
//   * execute(U) owns the address window [0, S(U));
//   * the preboundary of U is parked at [S(U) - |Γin(U)|, S(U));
//   * child i executes in [0, S(Ui)) after its preboundary is copied
//     there from the parent's staging band [S(U) - P(U), S(U));
//   * every read/write goes through HRam::read/write and is charged
//     f(address).
//
// It is deliberately restricted to modest domain sizes (every level
// re-copies its preboundary, and the staging band is searched
// associatively through a per-level index kept outside the cost
// model, standing in for the fixed layout a compiled schedule would
// use). Its purpose is validation: tests check that (a) its values
// equal the guest's, (b) its peak address stays within S(U), and
// (c) its charged time agrees with the abstract executor within a
// constant factor — grounding the abstract charges in a memory layout
// that actually exists.
//
// ConcreteExecutor stays Word-valued: the HRam is Word-addressed, so
// per-vertex values *are* machine words here. Batched guests still
// apply — a bit-sliced guest (sep/guest.hpp: 64 one-bit scenarios in
// the bits of each Word) runs through this executor unchanged, with
// all 64 lanes resident in the same physical words at the same
// addresses and the same charged accesses.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/cost.hpp"
#include "core/expect.hpp"
#include "geom/region.hpp"
#include "hram/hram.hpp"
#include "sep/bounds.hpp"
#include "sep/guest.hpp"

namespace bsmp::sep {

template <int D>
class ConcreteExecutor {
 public:
  /// `ram` must be large enough for space_bound(U.width()) of the
  /// outermost call. `leaf_width` as in Executor.
  /// The default space_const is larger than the abstract executor's:
  /// the concrete staging band never reclaims consumed values within
  /// one call, exactly like Prop. 2's S(U) = max_i S(Ui) + P(U)
  /// recurrence, which needs σ0 ~ 8 for the d=1 diamond.
  ConcreteExecutor(const Guest<D>* guest, hram::HRam* ram,
                   std::int64_t leaf_width, double space_const = 10.0,
                   double leaf_space_const = 3.0)
      : guest_(guest),
        ram_(ram),
        leaf_width_(leaf_width),
        space_const_(space_const),
        leaf_space_const_(leaf_space_const) {
    BSMP_REQUIRE(guest != nullptr && ram != nullptr);
    guest_->validate();
    BSMP_REQUIRE(leaf_width >= 1);
  }

  std::size_t space_bound(std::int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<std::int64_t>(guest_->stencil.reach(), width));
    double s = space_const_ * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return static_cast<std::size_t>(s) + 8;
  }

  std::size_t leaf_space_bound(std::int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<std::int64_t>(guest_->stencil.reach(), width));
    double s = leaf_space_const_ * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return static_cast<std::size_t>(s) + 8;
  }

  /// Execute U. `pre` maps each preboundary point of U to the HRam
  /// address holding its value (all addresses < S(U)). On return the
  /// out-set of U is stored in [S(U) - |out|, S(U)) and the returned
  /// map gives each out-point's address. The recursion only ever
  /// touches [0, S(U)).
  std::unordered_map<geom::Point<D>, std::size_t, geom::PointHash<D>>
  execute(const geom::Region<D>& U,
          const std::unordered_map<geom::Point<D>, std::size_t,
                                   geom::PointHash<D>>& pre) {
    return guest_->rule.visit(
        [&](const auto& rule) { return execute_on(U, pre, rule); });
  }

 private:
  /// execute() on the guest's concrete rule kernel.
  template <class RuleFn>
  std::unordered_map<geom::Point<D>, std::size_t, geom::PointHash<D>>
  execute_on(const geom::Region<D>& U,
             const std::unordered_map<geom::Point<D>, std::size_t,
                                      geom::PointHash<D>>& pre,
             const RuleFn& rule) {
    using AddrMap =
        std::unordered_map<geom::Point<D>, std::size_t, geom::PointHash<D>>;
    const std::size_t S = U.width() <= leaf_width_
                              ? leaf_space_bound(U.width())
                              : space_bound(U.width());
    BSMP_REQUIRE_MSG(S <= ram_->size(),
                     "H-RAM too small: need " << S << " words");

    if (U.width() <= leaf_width_) return execute_leaf(U, pre, S, rule);

    // Staging band at the top of this window: the caller parked the
    // preboundary of U in [S - |Γin(U)|, S); the out-sets of completed
    // children are appended below it, growing downward.
    AddrMap staged = pre;  // point -> address (all < S)
    std::size_t band_top = S - pre.size();
    for (const auto& [pt, addr] : pre) {
      BSMP_ASSERT_MSG(addr >= band_top && addr < S,
                      "preboundary must be parked at the window top "
                      "(Prop. 2 layout)");
      (void)pt;
    }

    std::vector<geom::Region<D>> children = U.split();
    AddrMap out_addrs;
    std::vector<geom::Point<D>> out = U.outset();
    AddrMap out_filter;
    for (const auto& q : out) out_filter.emplace(q, 0);

    for (const geom::Region<D>& child : children) {
      // Step 1 (Prop. 2): copy the child's preboundary down into the
      // child window. Its values currently sit in the staging band.
      const std::size_t Sc = child.width() <= leaf_width_
                                 ? leaf_space_bound(child.width())
                                 : space_bound(child.width());
      std::vector<geom::Point<D>> gin = child.preboundary();
      BSMP_ASSERT_MSG(Sc <= band_top,
                      "window overflow: child space meets staging band");
      AddrMap child_pre;
      std::size_t dst = Sc - 1;
      for (const auto& q : gin) {
        auto it = staged.find(q);
        BSMP_ASSERT_MSG(it != staged.end(),
                        "topological partition violated (concrete)");
        hram::Word v = ram_->read(it->second);
        // Child preboundary parked at the top of the child window.
        BSMP_ASSERT(dst < Sc);
        ram_->write(dst, v);
        child_pre.emplace(q, dst);
        --dst;
      }

      // Step 2: run the child in [0, Sc).
      AddrMap child_out = execute_on(child, child_pre, rule);

      // Step 3: save the child's out-set into the staging band.
      for (const auto& [q, addr] : child_out) {
        hram::Word v = ram_->read(addr);
        --band_top;
        BSMP_ASSERT_MSG(band_top >= Sc,
                        "staging band collided with child space");
        ram_->write(band_top, v);
        staged[q] = band_top;
        if (out_filter.contains(q)) out_addrs[q] = band_top;
      }
    }

    for (const auto& q : out)
      BSMP_ASSERT_MSG(out_addrs.contains(q), "out-set value missing");
    return out_addrs;
  }

  template <class RuleFn>
  std::unordered_map<geom::Point<D>, std::size_t, geom::PointHash<D>>
  execute_leaf(const geom::Region<D>& U,
               const std::unordered_map<geom::Point<D>, std::size_t,
                                        geom::PointHash<D>>& pre,
               std::size_t S, const RuleFn& rule) {
    using AddrMap =
        std::unordered_map<geom::Point<D>, std::size_t, geom::PointHash<D>>;
    // Values of this leaf are laid out from address 0 upward in
    // topological order; the preboundary stays where the caller parked
    // it (inside [0, S)). Because for_each enumerates the leaf window
    // densely, a leaf point's address is its window slot — computable
    // in O(1) from the per-level prefix offsets, with no local index.
    const auto [tmin, tmax] = U.time_range();
    std::vector<std::size_t> offs;
    std::size_t total = 0;
    for (std::int64_t t = tmin; t <= tmax; ++t) {
      offs.push_back(total);
      std::size_t rows = 1;
      for (int i = 0; i < D; ++i) {
        auto [a, b] = U.x_range(i, t);
        if (a > b) {
          rows = 0;
          break;
        }
        rows *= static_cast<std::size_t>(b - a + 1);
      }
      total += rows;
    }
    const std::size_t top = S - pre.size();

    auto slot = [&](const geom::Point<D>& q) -> std::size_t {
      std::size_t idx = 0;
      for (int i = 0; i < D; ++i) {
        auto [a, b] = U.x_range(i, q.t);
        idx = idx * static_cast<std::size_t>(b - a + 1) +
              static_cast<std::size_t>(q.x[i] - a);
      }
      return offs[static_cast<std::size_t>(q.t - tmin)] + idx;
    };

    auto load = [&](const geom::Point<D>& q) -> hram::Word {
      if (q.t >= tmin && U.in_box(q)) return ram_->read(slot(q));
      auto it = pre.find(q);
      BSMP_ASSERT_MSG(it != pre.end(), "operand missing (concrete leaf)");
      return ram_->read(it->second);
    };

    std::size_t next = 0;
    U.for_each([&](const geom::Point<D>& p) {
      const hram::Word value =
          eval_vertex(*guest_, rule, p, load).value;
      BSMP_ASSERT_MSG(next < top, "leaf window overflow");
      BSMP_ASSERT_MSG(next == slot(p), "dense leaf layout out of order");
      ram_->write(next, value);
      ++next;
      ram_->ledger().charge(core::CostKind::kCompute, 1.0);
    });

    AddrMap out;
    U.outset_visit([&](const geom::Point<D>& q) {
      out.emplace(q, slot(q));
    });
    return out;
  }

  const Guest<D>* guest_;
  hram::HRam* ram_;
  std::int64_t leaf_width_;
  double space_const_;
  double leaf_space_const_;
};

}  // namespace bsmp::sep
