// Naive simulation (Proposition 1): the host mimics individual guest
// steps, touching every simulated node's private memory region once
// per step. With p = 1 this costs O(T * n * f(nm)), i.e. slowdown
// O(n^(1+1/d)); with p > 1 each processor hosts n/p guest nodes and
// exchanges boundary words with its neighbors.
//
// Two switches model the comparison machines of the paper:
//  * instantaneous = true: unit access cost and unit link cost — the
//    classical model in which Brent's Principle is tight (slowdown
//    exactly Θ(n/p));
//  * pipelined = true: the Section-6 extension where each node's
//    memory is pipelined — a step's worth of accesses costs one
//    latency plus one word per unit time, eliminating the locality
//    slowdown entirely.
//
// Every host processor's memory spans the same local addresses
// [0, span·m), so one hram::CostTable per call serves every local
// access charge, and f is evaluated once per distinct address.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/expect.hpp"
#include "engine/metrics.hpp"
#include "hram/cost_table.hpp"
#include "machine/clocks.hpp"
#include "machine/spec.hpp"
#include "sep/guest.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "sim/result.hpp"

namespace bsmp::sim {

struct NaiveConfig {
  bool instantaneous = false;
  bool pipelined = false;
  /// Opt-in hot-path observability (see DcConfig::metrics). The naive
  /// simulator stages values in an (m+1)-buffer ring, so its "staging"
  /// footprint is the fixed (m+1)*n ring+scratch words.
  engine::Metrics* metrics = nullptr;
  std::string hot_label;
};

namespace detail {

/// Which host processor owns guest node x, for a block (per-dimension
/// contiguous) assignment; also its local index inside the block.
template <int D>
struct NodePlacement {
  std::int64_t proc;
  std::int64_t local_index;
};

template <int D>
NodePlacement<D> place_node(const geom::Stencil<D>& st, std::int64_t proc_side,
                            const std::array<int64_t, D>& x) {
  std::int64_t proc = 0, local = 0;
  for (int i = 0; i < D; ++i) {
    std::int64_t block = st.extent[i] / proc_side;
    std::int64_t pi = x[i] / block;
    std::int64_t li = x[i] % block;
    proc = proc * proc_side + pi;
    local = local * block + li;
  }
  return {proc, local};
}

}  // namespace detail

template <int D, class V>
SimResult<D, V> simulate_naive(const sep::BasicGuest<D, V>& guest,
                               const machine::MachineSpec& host,
                               NaiveConfig cfg = {}) {
  guest.validate();
  host.validate();
  const geom::Stencil<D>& st = guest.stencil;
  BSMP_REQUIRE_MSG(host.d == D, "host dimension mismatch");
  BSMP_REQUIRE_MSG(host.n == st.num_nodes(),
                   "host volume must equal guest node count");
  BSMP_REQUIRE_MSG(host.m >= st.m,
                   "the technology density m must cover the guest's "
                   "per-node memory m' (Section 6: m' < m gives more "
                   "locality)");
  const std::int64_t proc_side = host.proc_side();
  for (int i = 0; i < D; ++i)
    BSMP_REQUIRE_MSG(st.extent[i] % proc_side == 0,
                     "processor grid must divide the node grid");

  hram::AccessFn f =
      cfg.instantaneous ? hram::AccessFn::unit() : host.access_fn();
  const core::Cost link = cfg.instantaneous ? 1.0 : host.link_length();
  const std::int64_t span = host.span();  // guest nodes per host processor
  const std::int64_t n = st.num_nodes();
  const std::int64_t T = st.horizon;
  const std::int64_t m = st.m;
  // f at each local address [0, span·m); only the per-word
  // (non-pipelined) charges read it.
  hram::CostTable local_f(f, static_cast<std::size_t>(span * m));
  // One pipelined sweep per processor: latency to the far end of its
  // memory plus one unit per word touched (cell + neighbors).
  const core::Cost sweep =
      cfg.pipelined
          ? f(static_cast<std::uint64_t>(span * m)) +
                static_cast<core::Cost>(span) *
                    static_cast<core::Cost>(2 * D + 2)
          : 0.0;

  machine::ProcClocks clocks(host.p);
  SimResult<D, V> res;

  // Value evolution: identical to the reference run (the naive schedule
  // *is* the guest's schedule); the loop below charges the host costs.
  std::vector<std::vector<V>> ring(
      static_cast<std::size_t>(m),
      std::vector<V>(static_cast<std::size_t>(n), V{}));
  std::vector<V> scratch(static_cast<std::size_t>(n), V{});

  const auto hot_t0 = std::chrono::steady_clock::now();
  // One dispatch to the guest's concrete rule for the whole run.
  sep::visit_rule(guest.rule, [&](const auto& rule) {
    for (std::int64_t t = 0; t < T; ++t) {
      if (cfg.pipelined) {
        for (std::int64_t pr = 0; pr < host.p; ++pr) clocks.advance(pr, sweep);
        res.ledger.charge(core::CostKind::kLocalAccess,
                          sweep * static_cast<core::Cost>(host.p),
                          static_cast<std::uint64_t>(host.p));
      }
      for (std::int64_t idx = 0; idx < n; ++idx) {
        auto x = detail::node_coords<D>(st, idx);
        auto pl = detail::place_node<D>(st, proc_side, x);
        geom::Point<D> p;
        p.x = x;
        p.t = t;

        core::Cost local_cost = 0;
        core::Cost comm_cost = 0;
        V value;
        if (t == 0) {
          value = guest.input(x, 0);
          if (!cfg.pipelined)
            local_cost += local_f(static_cast<std::size_t>(pl.local_index * m));
        } else {
          V self_prev =
              (t >= m) ? ring[t % m][idx] : guest.input(x, t % m);
          // Cell read + write in the node's private region.
          const auto cell_addr =
              static_cast<std::size_t>(pl.local_index * m + (t % m));
          if (!cfg.pipelined) local_cost += 2.0 * local_f(cell_addr);

          sep::BasicNeighbors<D, V> nbrs{};
          const auto& prev = ring[(t - 1) % m];
          for (int i = 0; i < D; ++i) {
            for (int sgn = 0; sgn < 2; ++sgn) {
              auto q = x;
              q[i] += (sgn == 0 ? -1 : 1);
              if (!st.in_space(q)) continue;
              nbrs[2 * i + sgn] = prev[detail::node_index<D>(st, q)];
              auto qpl = detail::place_node<D>(st, proc_side, q);
              if (qpl.proc == pl.proc) {
                if (!cfg.pipelined)
                  local_cost +=
                      local_f(static_cast<std::size_t>(qpl.local_index * m));
              } else {
                comm_cost += link;  // one word over one near-neighbor link
              }
            }
          }
          value = rule(p, self_prev, nbrs);
        }
        scratch[idx] = value;
        ++res.vertices;

        res.ledger.charge(core::CostKind::kCompute, 1.0);
        clocks.advance(pl.proc, local_cost + comm_cost + 1.0);
        if (local_cost > 0)
          res.ledger.charge(core::CostKind::kLocalAccess, local_cost);
        if (comm_cost > 0) res.ledger.charge(core::CostKind::kComm, comm_cost);
      }
      ring[t % m].swap(scratch);
      clocks.barrier();
    }
  });
  if (cfg.metrics != nullptr) {
    engine::HotPathMetric h;
    h.label = cfg.hot_label.empty() ? "naive" : cfg.hot_label;
    h.vertices = res.vertices;
    h.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - hot_t0)
                    .count();
    h.peak_staging_words = static_cast<std::size_t>((m + 1) * n);
    h.staging_allocs = static_cast<std::size_t>(m + 1);
    cfg.metrics->record_hot(std::move(h));
  }

  res.time = clocks.makespan();
  res.guest_time = static_cast<core::Cost>(T);
  res.utilization = clocks.utilization();
  res.final_values = detail::final_from_ring<D>(st, ring);
  return res;
}

}  // namespace bsmp::sim
