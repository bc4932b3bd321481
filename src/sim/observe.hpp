// Guest-visible observation points: which dag vertices constitute "the
// result" of a T-step computation, and helpers to compare simulator
// outputs for functional equivalence.
#pragma once

#include <algorithm>
#include <type_traits>
#include <vector>

#include "core/logmath.hpp"
#include "geom/lattice.hpp"
#include "sep/executor.hpp"
#include "sim/final_values.hpp"

namespace bsmp::sim {

/// The final points of a computation: for every node x and every memory
/// cell j in [0, m), the vertex that wrote cell j last, i.e. the
/// largest t < horizon with t ≡ j (mod m). These are exactly the
/// guest's memory contents when it halts.
template <int D>
std::vector<geom::Point<D>> final_points(const geom::Stencil<D>& st) {
  std::vector<geom::Point<D>> out;
  std::vector<geom::Point<D>> stack;
  // Enumerate nodes recursively over dimensions.
  geom::Point<D> p;
  auto emit_times = [&](const geom::Point<D>& node) {
    for (int64_t j = 0; j < st.m; ++j) {
      // Largest t < horizon with t ≡ j (mod m); cells never written
      // within the horizon (j >= horizon when m > T) are skipped —
      // they still hold their input value.
      int64_t t =
          st.horizon - 1 - core::mod_floor(st.horizon - 1 - j, st.m);
      if (t < 0) continue;
      geom::Point<D> q = node;
      q.t = t;
      out.push_back(q);
    }
  };
  if constexpr (D == 1) {
    for (int64_t x = 0; x < st.extent[0]; ++x) {
      p.x[0] = x;
      emit_times(p);
    }
  } else if constexpr (D == 2) {
    for (int64_t x = 0; x < st.extent[0]; ++x) {
      p.x[0] = x;
      for (int64_t y = 0; y < st.extent[1]; ++y) {
        p.x[1] = y;
        emit_times(p);
      }
    }
  } else {
    static_assert(D == 3);
    for (int64_t x = 0; x < st.extent[0]; ++x) {
      p.x[0] = x;
      for (int64_t y = 0; y < st.extent[1]; ++y) {
        p.x[1] = y;
        for (int64_t z = 0; z < st.extent[2]; ++z) {
          p.x[2] = z;
          emit_times(p);
        }
      }
    }
  }
  return out;
}

namespace detail {

/// A staging store's value type; Word for the ValueMap
/// sched::run_schedule returns (whose value_type is the pair).
template <int D, class Store>
using staged_value_t =
    std::conditional_t<std::is_same_v<Store, sep::ValueMap<D>>, sep::Word,
                       typename Store::value_type>;

}  // namespace detail

/// Extract the final values from a staging store (StagingStore or a
/// shard, any value type) or the ValueMap sched::run_schedule returns:
/// every final level is read row by row, as one dense span where the
/// store serves it and point by point otherwise. Asserts every final
/// point is present.
template <int D, class Store>
FinalValues<D, detail::staged_value_t<D, Store>> extract_final(
    const geom::Stencil<D>& st, const Store& staging) {
  using V = detail::staged_value_t<D, Store>;
  constexpr bool kMap = std::is_same_v<Store, sep::ValueMap<D>>;
  auto find = [&staging](const geom::Point<D>& q) -> const V* {
    if constexpr (kMap) {
      auto it = staging.find(q);
      return it == staging.end() ? nullptr : &it->second;
    } else {
      return staging.find(q);
    }
  };
  FinalValues<D, V> out(st);
  const int64_t row = st.extent[D - 1];
  const int64_t rows = st.num_nodes() / row;
  for (int64_t t = st.horizon - out.cells(); t < st.horizon; ++t) {
    V* level = out.level(t);
    geom::Point<D> q;
    q.t = t;
    for (int64_t r = 0; r < rows; ++r) {
      int64_t rest = r;  // outer coordinates of row r, row-major
      for (int i = D - 2; i >= 0; --i) {
        q.x[i] = rest % st.extent[i];
        rest /= st.extent[i];
      }
      q.x[D - 1] = 0;
      V* dst = level + r * row;
      if constexpr (!kMap) {
        if (const V* src =
                staging.row_span(q, static_cast<std::size_t>(row))) {
          std::copy(src, src + row, dst);
          continue;
        }
      }
      for (int64_t x = 0; x < row; ++x) {
        q.x[D - 1] = x;
        const V* v = find(q);
        BSMP_ASSERT_MSG(v != nullptr, "final value missing at t=" << q.t);
        dst[x] = *v;
      }
    }
  }
  return out;
}

/// True iff two results have the same stencil shape and agree on
/// every final value.
template <int D, class V>
bool same_values(const FinalValues<D, V>& a, const FinalValues<D, V>& b) {
  return a == b;
}

}  // namespace bsmp::sim
