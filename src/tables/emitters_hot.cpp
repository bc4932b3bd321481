// "hot" — the executor hot-path artifact: dense flat-staging executor
// on the mix guest with its rule behind a sep::FunctionKernel (`dense`),
// the same executor on the guest's own sep::MixKernel (`simd`: SIMD
// leaf rows when enabled), and the retained hash-map baseline over the
// same full volumes. The
// emitted table carries only run-to-run deterministic fields (and is
// therefore under the tier-2 byte-identity check like every other
// emitter — identical with BSMP_SIMD on or off, since the ISA only
// reaches the observational metrics); wall-clock throughput goes to
// EngineCtx::metrics, which bench_exec_hotpath serializes as
// metrics_hot.json.
//
// The two configs run as points of one engine sweep (not a bare loop)
// so the emitter exercises the whole stack bench_exec_hotpath traces:
// sweep points, the pool's fork-join layer, the separator recursion
// and the staging pruning all appear in trace_hot.json. Table rows and
// hot-metric records are appended after the sweep, in point order, so
// the artifact stays byte-identical at any thread count.
#include <string>
#include <utility>

#include "sep/simd.hpp"
#include "sim/observe.hpp"
#include "tables/detail.hpp"
#include "tables/emitters.hpp"
#include "tables/hotpath.hpp"
#include "workload/rules.hpp"

namespace bsmp::tables {

namespace {

/// Deterministic result of one hot config (all three executors' stats;
/// the seconds fields are observational and never reach the table).
struct HotRun {
  std::string label;
  hotpath::ExecStats dense, simd, hash;
};

template <int D>
HotRun hot_config(const std::string& label,
                  std::array<std::int64_t, D> extent, std::int64_t horizon,
                  std::int64_t m) {
  // `kernel` carries its sep::MixKernel; `guest` is the same guest
  // with the rule type-erased, the per-vertex std::function baseline.
  const auto kernel = workload::make_mix_guest<D>(extent, horizon, m, 7);
  auto guest = kernel;
  guest.rule = sep::type_erased(kernel.rule);

  sep::StagingStore<D> dense_staging(&guest.stencil);
  hotpath::ExecStats dense = hotpath::run_dense<D>(guest, dense_staging);
  sep::StagingStore<D> simd_staging(&kernel.stencil);
  hotpath::ExecStats simd = hotpath::run_dense<D>(kernel, simd_staging);
  sep::ValueMap<D> hash_staging;
  hotpath::ExecStats hash = hotpath::run_hashmap<D>(guest, hash_staging);

  // The whole point of the flat-staging rewrite: everything but the
  // wall clock is identical to the hash-map implementation.
  BSMP_REQUIRE_MSG(dense.vertices == hash.vertices,
                   label << ": dense and hashmap executed different "
                            "vertex counts");
  BSMP_REQUIRE_MSG(dense.total_cost == hash.total_cost,
                   label << ": dense and hashmap charged different totals "
                            "— charge batching is not bit-exact");
  BSMP_REQUIRE_MSG(dense.peak_staging_words == hash.peak_staging_words,
                   label << ": dense and hashmap disagree on peak staging");
  BSMP_REQUIRE_MSG(
      sim::same_values<D>(sim::extract_final<D>(guest.stencil, dense_staging),
                          sim::extract_final<D>(guest.stencil, hash_staging)),
      label << ": dense and hashmap computed different guest values");

  // And the point of the SIMD leaf path: identical to dense in every
  // deterministic field — values, charge totals, peak staging, even
  // the slab allocation count — whether the vector path ran or the
  // scalar fallback did (doc/PERF.md "Byte identity").
  BSMP_REQUIRE_MSG(simd.vertices == dense.vertices,
                   label << ": simd executed a different vertex count");
  BSMP_REQUIRE_MSG(simd.total_cost == dense.total_cost,
                   label << ": simd charged a different total — the vector "
                            "leaf's charge stream is not bit-exact");
  BSMP_REQUIRE_MSG(simd.peak_staging_words == dense.peak_staging_words,
                   label << ": simd disagrees on peak staging");
  BSMP_REQUIRE_MSG(simd.staging_allocs == dense.staging_allocs,
                   label << ": simd disagrees on slab allocations");
  BSMP_REQUIRE_MSG(
      sim::same_values<D>(sim::extract_final<D>(guest.stencil, dense_staging),
                          sim::extract_final<D>(guest.stencil, simd_staging)),
      label << ": simd computed different guest values");

  return {label, dense, simd, hash};
}

}  // namespace

std::vector<Emitted> hot_tables(EngineCtx& ctx) {
  std::vector<int> configs{0, 1};
  std::vector<HotRun> runs = detail::sweep_values<HotRun>(
      ctx, configs,
      [](int config, engine::SweepContext&) -> HotRun {
        if (config == 0)
          return hot_config<1>("exec_d1_w512", {512}, 512, 8);
        return hot_config<2>("exec_d2_w48", {48, 48}, 48, 4);
      },
      "hot configs");

  core::Table t("HOT: executor hot path, dense flat staging (scalar and "
                "SIMD kernel) vs hash-map baseline (same run)",
                {"config", "store", "vertices", "peak staging", "slab allocs",
                 "cost total"});
  for (const HotRun& r : runs) {
    const std::pair<const hotpath::ExecStats*, const char*> stores[] = {
        {&r.dense, "dense"}, {&r.simd, "simd"}, {&r.hash, "hashmap"}};
    for (const auto& [run, store] : stores) {
      t.add_row({r.label, std::string(store),
                 static_cast<long long>(run->vertices),
                 static_cast<long long>(run->peak_staging_words),
                 static_cast<long long>(run->staging_allocs),
                 run->total_cost});
      if (ctx.metrics != nullptr) {
        engine::HotPathMetric h;
        h.label = r.label + "/" + store;
        h.vertices = run->vertices;
        h.seconds = run->seconds;
        h.peak_staging_words = run->peak_staging_words;
        h.staging_allocs = run->staging_allocs;
        if (run == &r.simd) {
          // The ISA of the leaves' row path; "scalar" when no leaf
          // took it (vector path off, or every leaf too narrow).
          const bool rows = run->row_leaves > 0;
          h.simd_isa = rows ? sep::simd::active_isa() : "scalar";
          h.simd_lanes = rows ? sep::simd::lane_width() : 1;
        }
        ctx.metrics->record_hot(std::move(h));
      }
    }
  }
  return {{std::move(t),
           "# Both stores must agree on every deterministic field above\n"
           "# (asserted): only throughput may differ. Wall-clock numbers\n"
           "# are recorded via engine::Metrics — see metrics_hot.json\n"
           "# (\"hot\" array) and BENCH_exec_hotpath.json.\n"}};
}

}  // namespace bsmp::tables
