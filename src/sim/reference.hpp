// The guest itself: a direct, time-stepped execution of the network
// computation. Runs in Tn = T units of guest virtual time (one unit
// per synchronous step — near-neighbor links have unit length in
// Md(n,n,m) and private accesses cost at most 1). Every simulator's
// output is compared against this run.
#pragma once

#include <algorithm>
#include <vector>

#include "core/expect.hpp"
#include "sep/guest.hpp"
#include "sim/observe.hpp"
#include "sim/result.hpp"

namespace bsmp::sim {

namespace detail {

/// Flatten node coordinates to a linear index (row-major).
template <int D>
int64_t node_index(const geom::Stencil<D>& st,
                   const std::array<int64_t, D>& x) {
  int64_t idx = 0;
  for (int i = 0; i < D; ++i) idx = idx * st.extent[i] + x[i];
  return idx;
}

template <int D>
std::array<int64_t, D> node_coords(const geom::Stencil<D>& st, int64_t idx) {
  std::array<int64_t, D> x{};
  for (int i = D - 1; i >= 0; --i) {
    x[i] = idx % st.extent[i];
    idx /= st.extent[i];
  }
  return x;
}

/// The final values of a ring buffer of the last m value levels
/// (ring[t % m] holds level t), as the reference and naive runs keep.
template <int D, class V>
FinalValues<D, V> final_from_ring(const geom::Stencil<D>& st,
                                  const std::vector<std::vector<V>>& ring) {
  FinalValues<D, V> out(st);
  for (int64_t t = st.horizon - out.cells(); t < st.horizon; ++t) {
    const auto& lv = ring[static_cast<std::size_t>(t % st.m)];
    std::copy(lv.begin(), lv.end(), out.level(t));
  }
  return out;
}

}  // namespace detail

/// Run the guest directly. The returned result has time == guest_time
/// == T and the final values of every memory cell. Generic over the
/// guest's value type (scalar Word or sep::LaneBatch).
template <int D, class V>
SimResult<D, V> reference_run(const sep::BasicGuest<D, V>& guest) {
  guest.validate();
  const geom::Stencil<D>& st = guest.stencil;
  const int64_t n = st.num_nodes();
  const int64_t T = st.horizon;
  const int64_t m = st.m;

  // Ring buffer of the last m value levels: ring[t % m] holds the
  // values of time level t (the cell written at step t).
  std::vector<std::vector<V>> ring(
      static_cast<std::size_t>(m),
      std::vector<V>(static_cast<std::size_t>(n), V{}));
  std::vector<V> scratch(static_cast<std::size_t>(n), V{});

  SimResult<D, V> res;
  // One dispatch to the guest's concrete rule for the whole run.
  sep::visit_rule(guest.rule, [&](const auto& rule) {
    for (int64_t t = 0; t < T; ++t) {
      for (int64_t idx = 0; idx < n; ++idx) {
        auto x = detail::node_coords<D>(st, idx);
        geom::Point<D> p;
        p.x = x;
        p.t = t;
        V value;
        if (t == 0) {
          value = guest.input(x, 0);
        } else {
          V self_prev = (t >= m) ? ring[t % m][idx]
                                 : guest.input(x, t % m);
          sep::BasicNeighbors<D, V> nbrs{};
          const auto& prev = ring[(t - 1) % m];
          for (int i = 0; i < D; ++i) {
            for (int s = 0; s < 2; ++s) {
              auto q = x;
              q[i] += (s == 0 ? -1 : 1);
              if (st.in_space(q))
                nbrs[2 * i + s] = prev[detail::node_index<D>(st, q)];
            }
          }
          value = rule(p, self_prev, nbrs);
        }
        scratch[idx] = value;
        ++res.vertices;
      }
      ring[t % m].swap(scratch);
      res.ledger.charge(core::CostKind::kCompute, 1.0);  // one step, unit time
    }
  });

  res.time = static_cast<core::Cost>(T);
  res.guest_time = static_cast<core::Cost>(T);
  res.final_values = detail::final_from_ring<D>(st, ring);
  return res;
}

}  // namespace bsmp::sim
