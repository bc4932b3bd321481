// Shearsort on the mesh, simulated by machines with fewer processors.
//
// Sorting is the classic mesh workload: side x side values sort into
// snake order in Θ(side log side) mesh steps. We run it as a guest
// computation, simulate the guest on hosts with p = 1..n processors,
// verify every host produced the *sorted* result, and compare the
// measured slowdowns with Theorem 1.
//
//   $ ./mesh_sort [side]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "analytic/tradeoff.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

int main(int argc, char** argv) {
  std::int64_t side = argc > 1 ? std::atoll(argv[1]) : 8;
  if (side < 2 || !core::is_square(side * side)) {
    std::cerr << "usage: mesh_sort [side >= 2]\n";
    return 2;
  }
  const std::int64_t n = side * side;
  const std::int64_t T = 1 + workload::shearsort_phases(side) * side;

  sep::Guest<2> guest;
  guest.stencil = geom::Stencil<2>{{side, side}, T, 1};
  guest.rule = workload::shearsort_rule(side);
  guest.input = [side](const std::array<int64_t, 2>& x,
                       int64_t) -> sep::Word {
    core::SplitMix64 rng(static_cast<std::uint64_t>(x[0] * side + x[1]));
    return rng.next_below(900) + 100;
  };

  std::vector<sep::Word> want;
  for (std::int64_t r = 0; r < side; ++r)
    for (std::int64_t c = 0; c < side; ++c)
      want.push_back(guest.input({r, c}, 0));
  std::sort(want.begin(), want.end());

  auto sorted_ok = [&](const sim::FinalValues<2>& fin) {
    for (std::int64_t r = 0; r < side; ++r)
      for (std::int64_t c = 0; c < side; ++c) {
        auto rank = workload::snake_rank(side, r, c);
        if (fin.at(geom::Point<2>{{r, c}, T - 1}) != want[rank])
          return false;
      }
    return true;
  };

  std::cout << "shearsort of " << n << " values: " << T - 1
            << " mesh steps (" << workload::shearsort_phases(side)
            << " phases)\n\n";

  core::Table t("simulating the sorting mesh M2(n,n,1) on M2(n,p,1)",
                {"p", "scheme", "Tp/Tn", "bound (n/p)A", "sorted?"});
  for (std::int64_t p = 1; p <= n; p *= 4) {
    machine::MachineSpec host{2, n, p, 1};
    sim::SimResult<2> res;
    std::string scheme;
    if (p == 1) {
      res = sim::simulate_dc_uniproc<2>(guest, host);
      scheme = "D&C (Thm 5)";
    } else if (p == n) {
      res = sim::reference_run<2>(guest);
      scheme = "the mesh itself";
    } else {
      sim::MultiprocConfig cfg;
      cfg.s = std::max<std::int64_t>(1, side / (2 * host.proc_side()));
      res = sim::simulate_multiproc<2>(guest, host, cfg);
      scheme = "2-regime (Thm 1)";
    }
    bool ok = sorted_ok(res.final_values);
    t.add_row({(long long)p, scheme, res.slowdown(),
               analytic::slowdown_bound(2, (double)n, 1, (double)p),
               std::string(ok ? "yes" : "NO — BUG")});
    if (!ok) {
      t.print(std::cout);
      return 1;
    }
  }
  t.print(std::cout);
  std::cout << "\nEvery host sorted the data correctly; fewer processors\n"
               "pay the parallelism factor n/p *and* the locality factor\n"
               "A — the paper's tradeoff, on a real algorithm.\n";
  return 0;
}
