// Runner: replays a Schedule against a guest program, computing real
// values and statically validating the plan:
//   * every dag vertex is executed by exactly one leaf op;
//   * leaf ops appear in an order where every operand is available;
//   * the executed vertex count equals |V|.
// A schedule that passes the runner is a correct simulation plan for
// *any* guest on this stencil (the dag is workload-independent).
#pragma once

#include "core/expect.hpp"
#include "sched/schedule.hpp"
#include "sep/guest.hpp"

namespace bsmp::sched {

template <int D>
struct RunResult {
  sep::ValueMap<D> values;  ///< every computed vertex value
  std::int64_t vertices = 0;
};

/// Works for both Schedule (uniprocessor) and ParallelSchedule: the
/// latter's program order is a valid sequentialization of its stages.
template <int D, class Sched = Schedule<D>>
RunResult<D> run_schedule(const sep::Guest<D>& guest, const Sched& sched) {
  guest.validate();
  const geom::Stencil<D>& st = guest.stencil;
  RunResult<D> res;

  auto lookup = [&](const geom::Point<D>& q) -> sep::Word {
    auto it = res.values.find(q);
    BSMP_ASSERT_MSG(it != res.values.end(),
                    "schedule order invalid: operand (t=" << q.t
                                                          << ") not ready");
    return it->second;
  };

  guest.rule.visit([&](const auto& rule) {
    for (const auto& op : sched.ops()) {
      if (op.kind != OpKind::kLeaf) continue;
      geom::Region<D> leaf(&st, op.leaf_lo, op.leaf_hi);
      leaf.for_each([&](const geom::Point<D>& p) {
        BSMP_ASSERT_MSG(!res.values.contains(p),
                        "schedule executes a vertex twice (t=" << p.t
                                                               << ")");
        res.values.emplace(p, sep::eval_vertex(guest, rule, p, lookup).value);
        ++res.vertices;
      });
    }
  });

  BSMP_ASSERT_MSG(res.vertices == st.num_nodes() * st.horizon,
                  "schedule covers " << res.vertices << " of "
                                     << st.num_nodes() * st.horizon
                                     << " vertices");
  return res;
}

}  // namespace bsmp::sched
