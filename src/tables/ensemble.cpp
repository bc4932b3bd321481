// "ens" — the batched-ensemble artifact: 64 perturbed initial
// conditions of a cellular automaton evolved in ONE charged pass
// through the separator executor, using the bit-sliced lane batching
// of sep/guest.hpp (bit l of every staged word is scenario l).
//
// Two configs run as points of one engine sweep:
//   * rule110 (d=1): lane 0 is a base random 0/1 row; lane l flips the
//     base bit of node l*stride — 64 single-site perturbations of one
//     initial condition, the classic damage-spreading ensemble;
//   * xor parity (d=2, m=2): every bit of the random input words is an
//     independent scenario (the rule is linear over GF(2) per bit).
//
// The emitter asserts the charging invariant the whole batching rests
// on: the packed run's vertices, charged totals and peak staging are
// bit-identical to a *scalar* run of the same stencil (charging is
// count-based — it counts points, never lane contents). The emitted
// table carries only deterministic fields (lane digests, counts,
// charged totals) and is golden-digested by the conformance suite;
// wall-clock throughput goes to EngineCtx::metrics with lanes=64,
// which bench_exec_batch serializes and gates.
#include <string>
#include <utility>
#include <vector>

#include "sim/observe.hpp"
#include "tables/detail.hpp"
#include "tables/emitters.hpp"
#include "tables/hotpath.hpp"
#include "workload/rules.hpp"

namespace bsmp::tables {

namespace {

/// FNV-1a over the final rows in final_points order — a deterministic
/// content digest of all 64 lanes at once.
template <int D>
std::uint64_t final_digest(const geom::Stencil<D>& st,
                           const sep::StagingStore<D>& staging) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t w) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (w >> b) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [q, v] : sim::extract_final<D>(st, staging)) mix(v);
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int b = 60; b >= 0; b -= 4) s += digits[(v >> b) & 0xf];
  return s;
}

/// Deterministic result of one ensemble config.
struct EnsRun {
  std::string label;
  hotpath::ExecStats batch;   ///< the packed 64-lane run (dense store)
  hotpath::ExecStats scalar;  ///< one scalar run, same stencil
  std::uint64_t digest = 0;   ///< FNV over all final rows, all lanes
};

/// The rule110 damage-spreading ensemble: base random 0/1 row in every
/// lane, lane l additionally flipping node l*stride at t=0.
sep::Guest<1> ens110_guest(std::int64_t n, std::int64_t horizon,
                           std::uint64_t seed) {
  sep::Guest<1> g;
  g.stencil.extent = {n};
  g.stencil.horizon = horizon;
  g.stencil.m = 1;
  g.rule = workload::rule110_lanes();
  const std::int64_t stride = n / sep::kLanes;
  BSMP_REQUIRE_MSG(stride >= 1, "ensemble needs n >= 64");
  auto base = workload::random_input<1>(seed);
  g.input = [base, stride](const std::array<std::int64_t, 1>& x,
                           std::int64_t cell) -> sep::Word {
    sep::Word w = (base(x, cell) & 1u) ? ~sep::Word{0} : sep::Word{0};
    if (x[0] % stride == 0 && x[0] / stride < sep::kLanes)
      w ^= sep::Word{1} << (x[0] / stride);  // lane l flips node l*stride
    return w;
  };
  return g;
}

template <int D>
EnsRun ens_config(const std::string& label, const sep::Guest<D>& guest,
                  const sep::Guest<D>& scalar_guest) {
  // The packed 64-lane run.
  sep::StagingStore<D> staging(&guest.stencil);
  hotpath::ExecStats batch = hotpath::run_dense<D>(guest, staging);

  // The charging invariant: a packed 64-lane run charges exactly what
  // one scalar run of the same stencil charges — lanes ride for free.
  sep::StagingStore<D> scalar_staging(&scalar_guest.stencil);
  hotpath::ExecStats scalar =
      hotpath::run_dense<D>(scalar_guest, scalar_staging);
  BSMP_REQUIRE_MSG(scalar.vertices == batch.vertices,
                   label << ": batch and scalar vertex counts differ");
  BSMP_REQUIRE_MSG(scalar.total_cost == batch.total_cost,
                   label << ": batch run charged differently from scalar — "
                            "charging is reading lane contents");
  BSMP_REQUIRE_MSG(scalar.peak_staging_words == batch.peak_staging_words,
                   label << ": batch and scalar peak staging differ");
  BSMP_REQUIRE_MSG(scalar.staging_allocs == batch.staging_allocs,
                   label << ": batch and scalar slab allocations differ");

  return {label, batch, scalar, final_digest<D>(guest.stencil, staging)};
}

}  // namespace

std::vector<Emitted> ensemble_tables(EngineCtx& ctx) {
  std::vector<int> configs{0, 1};
  std::vector<EnsRun> runs = detail::sweep_values<EnsRun>(
      ctx, configs,
      [](int config, engine::SweepContext&) -> EnsRun {
        if (config == 0) {
          auto guest = ens110_guest(256, 256, 11);
          sep::Guest<1> scalar;
          scalar.stencil = guest.stencil;
          scalar.rule = workload::rule110();
          scalar.input = [in = guest.input](
                             const std::array<std::int64_t, 1>& x,
                             std::int64_t cell) -> sep::Word {
            return in(x, cell) & 1u;  // lane 0 of the packed ensemble
          };
          return ens_config<1>("ens_rule110_d1_n256", guest, scalar);
        }
        sep::Guest<2> guest;
        guest.stencil.extent = {24, 24};
        guest.stencil.horizon = 48;
        guest.stencil.m = 2;
        guest.rule = workload::xor_rule<2>();
        guest.input = workload::random_input<2>(13);
        sep::Guest<2> scalar = guest;
        scalar.input = [in = guest.input](const std::array<std::int64_t, 2>& x,
                                          std::int64_t cell) -> sep::Word {
          return in(x, cell) & 1u;
        };
        return ens_config<2>("ens_xor_d2_w24", guest, scalar);
      },
      "ensemble configs");

  core::Table t(
      "ENS: 64-scenario bit-sliced ensembles, one charged pass "
      "(batch charges == scalar charges, asserted)",
      {"config", "lanes", "vertices", "peak staging", "slab allocs",
       "cost total", "final digest"});
  for (const EnsRun& r : runs) {
    t.add_row({r.label, static_cast<long long>(sep::kLanes),
               static_cast<long long>(r.batch.vertices),
               static_cast<long long>(r.batch.peak_staging_words),
               static_cast<long long>(r.batch.staging_allocs),
               r.batch.total_cost, hex64(r.digest)});
    if (ctx.metrics != nullptr) {
      engine::HotPathMetric h;
      h.label = r.label + "/batch";
      h.vertices = r.batch.vertices;
      h.seconds = r.batch.seconds;
      h.peak_staging_words = r.batch.peak_staging_words;
      h.staging_allocs = r.batch.staging_allocs;
      h.lanes = sep::kLanes;
      ctx.metrics->record_hot(std::move(h));
      engine::HotPathMetric s;
      s.label = r.label + "/scalar";
      s.vertices = r.scalar.vertices;
      s.seconds = r.scalar.seconds;
      s.peak_staging_words = r.scalar.peak_staging_words;
      s.staging_allocs = r.scalar.staging_allocs;
      s.lanes = 1;
      ctx.metrics->record_hot(std::move(s));
    }
  }
  return {{std::move(t),
           "# One charged pass carries all 64 lanes: the batch runs above\n"
           "# charge bit-identical totals, vertex counts and staging peaks\n"
           "# to their scalar single-scenario runs (asserted). The digest\n"
           "# covers every lane of every final row. Throughput and the\n"
           "# scenarios_per_sec derivation are in metrics_ens.json and\n"
           "# BENCH_exec_batch.json.\n"}};
}

}  // namespace bsmp::tables
