// The guest-visible output of a T-step computation as one flat array.
//
// A guest's result is its memory contents at halt: for every node x and
// every memory cell j the value of the vertex that wrote cell j last
// (sim::final_points). That set is fixed in closed form by the stencil:
// the cells written within the horizon are j in [0, min(m, T)), and
// cell j was last written at level t_j = T-1 - ((T-1-j) mod m) — the
// last min(m, T) time levels, one cell each (j = t mod m). So the
// values need no keys: FinalValues stores them cell-major, one
// contiguous row-major level of num_nodes() words per written cell,
// and addresses a final point (x, t) as (t mod m) * n + node_index(x).
// Iteration yields (point, value) pairs in final_points order (nodes
// row-major, then cells) and so does every consumer that digests them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "core/expect.hpp"
#include "geom/lattice.hpp"
#include "sep/guest.hpp"

namespace bsmp::sim {

template <int D, class V = sep::Word>
class FinalValues {
 public:
  /// Empty: no stencil, no values (compares equal only to another
  /// empty set).
  FinalValues() = default;

  /// Value-initialized final values of every node and written cell of
  /// `st`; fill them through level() or at().
  explicit FinalValues(const geom::Stencil<D>& st)
      : st_((st.validate(), st)),
        nodes_(st.num_nodes()),
        cells_(std::min(st.m, st.horizon)),
        vals_(static_cast<std::size_t>(nodes_ * cells_)) {}

  /// The stencil whose final points these are.
  const geom::Stencil<D>& stencil() const { return st_; }

  /// Number of final points: nodes × written cells.
  std::size_t size() const { return vals_.size(); }

  /// Memory cells written within the horizon: min(m, T).
  std::int64_t cells() const { return cells_; }

  /// Is q one of the final points?
  bool contains(const geom::Point<D>& q) const {
    return q.t < st_.horizon && q.t >= st_.horizon - cells_ &&
           st_.in_space(q.x);
  }

  /// The final value at q; q must be a final point.
  const V& at(const geom::Point<D>& q) const {
    BSMP_REQUIRE_MSG(contains(q), "not a final point: t=" << q.t);
    return vals_[slot(q)];
  }
  V& at(const geom::Point<D>& q) {
    BSMP_REQUIRE_MSG(contains(q), "not a final point: t=" << q.t);
    return vals_[slot(q)];
  }

  /// The num_nodes() values of final level t, row-major over the nodes
  /// (the layout of a StagingStore slab and of a reference ring row).
  V* level(std::int64_t t) {
    BSMP_REQUIRE(t < st_.horizon && t >= st_.horizon - cells_);
    return vals_.data() + static_cast<std::size_t>((t % st_.m) * nodes_);
  }

  /// The flat value array in storage (cell-major) order; two sets over
  /// the same stencil align element for element.
  const V* data() const { return vals_.data(); }
  V* data() { return vals_.data(); }

  /// Same stencil shape and every value equal.
  friend bool operator==(const FinalValues& a, const FinalValues& b) {
    return a.st_.extent == b.st_.extent && a.st_.horizon == b.st_.horizon &&
           a.st_.m == b.st_.m && a.vals_ == b.vals_;
  }

  /// Forward iteration over (point, value) in final_points order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<geom::Point<D>, V>;
    using reference = std::pair<geom::Point<D>, const V&>;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;

    reference operator*() const {
      return {p_, fv_->vals_[static_cast<std::size_t>(j_ * fv_->nodes_ +
                                                      node_)]};
    }

    const_iterator& operator++() {
      if (++j_ < fv_->cells_) {
        p_.t = fv_->time_of(j_);
        return *this;
      }
      j_ = 0;
      p_.t = fv_->time_of(0);
      ++node_;
      for (int i = D - 1; i >= 0; --i) {  // next node, row-major
        if (++p_.x[i] < fv_->st_.extent[i]) break;
        p_.x[i] = 0;
      }
      return *this;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.node_ == b.node_ && a.j_ == b.j_;
    }

   private:
    friend class FinalValues;
    const_iterator(const FinalValues* fv, std::int64_t node)
        : fv_(fv), node_(node) {
      if (fv_->cells_ > 0) p_.t = fv_->time_of(0);
    }

    const FinalValues* fv_ = nullptr;
    std::int64_t node_ = 0;
    std::int64_t j_ = 0;
    geom::Point<D> p_{};
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, nodes_); }

 private:
  /// The level that last wrote cell j: the largest t < T, t ≡ j (mod m).
  std::int64_t time_of(std::int64_t j) const {
    return st_.horizon - 1 - (st_.horizon - 1 - j) % st_.m;
  }

  std::size_t slot(const geom::Point<D>& q) const {
    std::int64_t node = 0;
    for (int i = 0; i < D; ++i) node = node * st_.extent[i] + q.x[i];
    return static_cast<std::size_t>((q.t % st_.m) * nodes_ + node);
  }

  geom::Stencil<D> st_{};
  std::int64_t nodes_ = 0;
  std::int64_t cells_ = 0;
  std::vector<V> vals_;
};

}  // namespace bsmp::sim

namespace bsmp::sep {

/// Lane l of a batched result as a scalar result — the unit the
/// lane-differential tests compare against scalar runs.
template <int D>
sim::FinalValues<D> extract_lane(const sim::FinalValues<D, LaneBatch>& batch,
                                 int l) {
  BSMP_REQUIRE(l >= 0 && l < kLanes);
  sim::FinalValues<D> out(batch.stencil());
  for (std::size_t i = 0; i < batch.size(); ++i)
    out.data()[i] = batch.data()[i][l];
  return out;
}

/// Lane l of a bit-sliced result: bit l of every word.
template <int D>
sim::FinalValues<D> extract_bit_lane(const sim::FinalValues<D>& packed,
                                     int l) {
  BSMP_REQUIRE(l >= 0 && l < kLanes);
  sim::FinalValues<D> out(packed.stencil());
  for (std::size_t i = 0; i < packed.size(); ++i)
    out.data()[i] = (packed.data()[i] >> l) & 1u;
  return out;
}

}  // namespace bsmp::sep
