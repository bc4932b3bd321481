// Tier-2 conformance suite (ctest -L conformance): every table
// emitter must produce value- and byte-identical output at threads=1
// and threads=N. This is the determinism contract of the sweep engine
// — per-point result slots, per-point RNG streams, build-once plan
// cache — pinned down end to end across all paper artifacts, the
// dense E6 sweep, and the advisor calibration. The suite also checks
// the structural invariants of the metrics layer and leaves
// metrics_conformance_*.json on disk for CI to upload.
#include <gtest/gtest.h>

#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"
#include "engine/sweep.hpp"
#include "sep/staging.hpp"
#include "tables/emitters.hpp"

using namespace bsmp;

namespace {

int parallel_threads() { return std::max(4, engine::Pool::hardware_threads()); }

std::vector<tables::Emitted> run_emitter(const tables::Emitter& e,
                                         int threads,
                                         engine::PlanCache::Stats* stats) {
  engine::Pool pool(threads);
  engine::PlanCache plans;
  tables::EngineCtx ctx{&pool, &plans};
  auto out = e.fn(ctx);
  if (stats) *stats = plans.stats();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Every emitter: threads=1 vs threads=N tables must be identical, both
// as values (core::Table::operator==, bit-exact doubles) and as
// rendered bytes (digest over the printed text).
// ---------------------------------------------------------------------

class EmitterConformance : public ::testing::TestWithParam<const char*> {};

TEST_P(EmitterConformance, TablesIdenticalAtAnyThreadCount) {
  const auto& emitter = tables::find_emitter(GetParam());
  auto seq = run_emitter(emitter, 1, nullptr);
  auto par = run_emitter(emitter, parallel_threads(), nullptr);

  ASSERT_EQ(seq.size(), par.size()) << emitter.name;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_TRUE(seq[i].table == par[i].table)
        << emitter.name << " table " << i << " ('" << seq[i].table.title()
        << "') differs between threads=1 and threads=" << parallel_threads();
    EXPECT_EQ(seq[i].table.digest(), par[i].table.digest())
        << emitter.name << " table " << i << " rendered bytes differ";
    EXPECT_EQ(seq[i].note, par[i].note)
        << emitter.name << " note " << i << " differs";
  }
  EXPECT_FALSE(seq.empty()) << emitter.name << " emitted nothing";
}

INSTANTIATE_TEST_SUITE_P(AllEmitters, EmitterConformance,
                         ::testing::Values("e1", "e2", "e3", "e4", "e5", "e6",
                                           "e7", "e8", "e9", "e10", "e6d",
                                           "cal", "hot", "ens"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// ---------------------------------------------------------------------
// The emitter registry itself.
// ---------------------------------------------------------------------

TEST(EmitterRegistry, FourteenEmittersInOrder) {
  const auto& all = tables::all_emitters();
  ASSERT_EQ(all.size(), 14u);
  EXPECT_STREQ(all.front().name, "e1");
  EXPECT_STREQ(all.back().name, "ens");
  EXPECT_EQ(&tables::find_emitter("e5"), &all[4]);
  EXPECT_EQ(&tables::find_emitter("e6d"), &all[10]);
  EXPECT_THROW(tables::find_emitter("e11"), precondition_error);
}

// ---------------------------------------------------------------------
// Seed-determinism regression: the per-point RNG stream depends only
// on (seed, point index) — never on the executing thread — so a sweep
// that consumes randomness produces identical output at every pool
// size.
// ---------------------------------------------------------------------

TEST(SeedDeterminism, PointRngPinnedToIndexNotThread) {
  std::vector<int> points(64);
  for (std::size_t i = 0; i < points.size(); ++i)
    points[i] = static_cast<int>(i);
  engine::SweepOptions opt;
  opt.seed = 42;
  auto draw = [](int, engine::SweepContext& ctx) {
    // Consume a thread-count-independent amount of randomness.
    std::uint64_t acc = 0;
    for (int k = 0; k < 1 + static_cast<int>(ctx.index % 5); ++k)
      acc = acc * 31 + ctx.rng.next();
    return acc;
  };
  engine::Pool seq(1), par(parallel_threads());
  auto a = engine::sweep_map<std::uint64_t>(seq, points, draw, opt);
  auto b = engine::sweep_map<std::uint64_t>(par, points, draw, opt);
  EXPECT_EQ(a, b);
  // And the stream really is per-point: distinct points draw
  // distinct values.
  EXPECT_NE(a[0], a[1]);
}

TEST(SeedDeterminism, PointRngIsAPureFunctionOfSeedAndIndex) {
  EXPECT_EQ(engine::point_rng(7, 3).next(), engine::point_rng(7, 3).next());
  EXPECT_NE(engine::point_rng(7, 3).next(), engine::point_rng(7, 4).next());
  EXPECT_NE(engine::point_rng(7, 3).next(), engine::point_rng(8, 3).next());
}

// ---------------------------------------------------------------------
// Golden digest of E5's first table (Theorem 4, m sweep). The digest
// is FNV-1a over the rendered table text, so it pins column layout,
// row order, and every formatted value. If an intentional change to
// the simulator or table formatting moves this, re-record the
// constant printed in the failure message.
// ---------------------------------------------------------------------

TEST(GoldenDigest, E5TableStable) {
  auto artifacts = run_emitter(tables::find_emitter("e5"), 1, nullptr);
  ASSERT_FALSE(artifacts.empty());
  constexpr std::uint64_t kE5aGolden = 0xe4f6a8f086a2f136ULL;
  EXPECT_EQ(artifacts[0].table.digest(), kE5aGolden)
      << "E5a table changed; new digest: 0x" << std::hex
      << artifacts[0].table.digest() << "\nrendered:\n"
      << artifacts[0].table.to_string();
}

// ---------------------------------------------------------------------
// Golden digests of the first E3 (Theorem 2, d=1 D&C) and E7
// (Theorem 5, d=2 D&C) tables — the two emitters whose every charge
// flows through the separator executor's leaf and recursion hot path.
// Recorded from the pre-flat-staging seed: the rewrite must keep these
// bytes (and therefore the entire charge stream) unchanged.
// ---------------------------------------------------------------------

TEST(GoldenDigest, E3TableStable) {
  auto artifacts = run_emitter(tables::find_emitter("e3"), 1, nullptr);
  ASSERT_FALSE(artifacts.empty());
  constexpr std::uint64_t kE3aGolden = 0x002043532995f039ULL;
  EXPECT_EQ(artifacts[0].table.digest(), kE3aGolden)
      << "E3a table changed; new digest: 0x" << std::hex
      << artifacts[0].table.digest() << "\nrendered:\n"
      << artifacts[0].table.to_string();
}

TEST(GoldenDigest, E7TableStable) {
  auto artifacts = run_emitter(tables::find_emitter("e7"), 1, nullptr);
  ASSERT_FALSE(artifacts.empty());
  constexpr std::uint64_t kE7aGolden = 0x111a254f5489d56eULL;
  EXPECT_EQ(artifacts[0].table.digest(), kE7aGolden)
      << "E7a table changed; new digest: 0x" << std::hex
      << artifacts[0].table.digest() << "\nrendered:\n"
      << artifacts[0].table.to_string();
}

// ---------------------------------------------------------------------
// Golden digest of the ENS table (64-scenario bit-sliced ensembles).
// The table carries the FNV lane digest of every final row of every
// lane, so this single constant pins the full semantic content of all
// 64 scenarios of both ensemble configs — any change to the batched
// value plane that alters even one bit of one lane moves it.
// ---------------------------------------------------------------------

TEST(GoldenDigest, EnsTableStable) {
  auto artifacts = run_emitter(tables::find_emitter("ens"), 1, nullptr);
  ASSERT_FALSE(artifacts.empty());
  constexpr std::uint64_t kEnsGolden = 0x177c97459c69092eULL;
  EXPECT_EQ(artifacts[0].table.digest(), kEnsGolden)
      << "ENS table changed; new digest: 0x" << std::hex
      << artifacts[0].table.digest() << "\nrendered:\n"
      << artifacts[0].table.to_string();
}

// ---------------------------------------------------------------------
// Validation mode (BSMP_VALIDATE / sep::set_validation_mode) flips the
// executor back to materializing preboundary / out-set vectors and
// asserting the topological-partition property at every recursion
// level. It must be purely diagnostic: the asserting path and the fast
// path emit byte-identical tables.
// ---------------------------------------------------------------------

TEST(ValidationMode, AssertingPathEmitsIdenticalBytes) {
  const bool saved = sep::validation_mode();
  for (const char* name : {"e3", "hot", "ens"}) {
    sep::set_validation_mode(false);
    auto fast = run_emitter(tables::find_emitter(name), 1, nullptr);
    sep::set_validation_mode(true);
    auto checked = run_emitter(tables::find_emitter(name), 1, nullptr);
    sep::set_validation_mode(saved);
    ASSERT_EQ(fast.size(), checked.size()) << name;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_TRUE(fast[i].table == checked[i].table)
          << name << " table " << i << " differs under validation mode";
      EXPECT_EQ(fast[i].table.digest(), checked[i].table.digest())
          << name << " table " << i
          << " rendered bytes differ under validation mode";
    }
  }
}

// ---------------------------------------------------------------------
// PlanCache sharing is observable: the emitters with shared guests
// and reference runs must report cache hits on every pass.
// ---------------------------------------------------------------------

TEST(CacheConformance, SharedArtifactEmittersHitTheCache) {
  for (const char* name : {"e5", "e6", "e10", "e6d", "cal"}) {
    engine::PlanCache::Stats stats;
    run_emitter(tables::find_emitter(name), parallel_threads(), &stats);
    EXPECT_GT(stats.hits, 0u) << name << " reported no cache hits";
    EXPECT_GT(stats.misses, 0u) << name << " reported no cache misses";
    // Build-once: every miss runs the builder exactly once, and hits
    // never do — so builds == misses on a fresh cache.
    EXPECT_EQ(stats.builds, stats.misses)
        << name << " builds != misses on a fresh cache";
  }
}

// ---------------------------------------------------------------------
// Metrics conformance: the observability layer must never perturb the
// tables (checked above — the emitters run without a sink there), and
// its own structure must be stable across thread counts: same sweeps
// in the same order, same point counts, one timing slot per point.
// The reports written here (metrics/metrics_conformance_<name>.json,
// under $BSMP_METRICS_DIR) stay on disk so CI can upload them as
// artifacts.
// ---------------------------------------------------------------------

TEST(MetricsConformance, StructureStableAcrossThreadCountsAndSerialized) {
  for (const char* name : {"e6d", "cal"}) {
    const auto& emitter = tables::find_emitter(name);
    engine::MetricsReport report;
    report.name = std::string("conformance_") + name;
    std::vector<tables::Emitted> tables_by_pass[2];
    int pass_threads[2] = {1, parallel_threads()};
    for (int pass = 0; pass < 2; ++pass) {
      engine::Pool pool(pass_threads[pass]);
      engine::PlanCache plans;
      engine::Metrics metrics;
      tables::EngineCtx ctx{&pool, &plans, &metrics};
      tables_by_pass[pass] = emitter.fn(ctx);
      engine::MetricsPass mp;
      mp.threads = pass_threads[pass];
      mp.cache = plans.stats();
      mp.sweeps = metrics.snapshot();
      report.passes.push_back(std::move(mp));
    }

    // Attaching a sink must not change the tables.
    auto bare = run_emitter(emitter, 1, nullptr);
    ASSERT_EQ(bare.size(), tables_by_pass[0].size()) << name;
    for (std::size_t i = 0; i < bare.size(); ++i)
      EXPECT_EQ(bare[i].table.digest(), tables_by_pass[0][i].table.digest())
          << name << " table " << i << " changed when metrics were attached";

    const auto& seq = report.passes[0].sweeps;
    const auto& par = report.passes[1].sweeps;
    ASSERT_EQ(seq.size(), par.size()) << name << " sweep count diverged";
    ASSERT_FALSE(seq.empty()) << name << " recorded no sweeps";
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].label, par[i].label) << name << " sweep " << i;
      EXPECT_EQ(seq[i].points, par[i].points) << name << " sweep " << i;
      for (const auto* sm : {&seq[i], &par[i]}) {
        EXPECT_FALSE(sm->label.empty()) << name << " sweep " << i;
        ASSERT_EQ(sm->per_point.size(), sm->points) << name << " sweep " << i;
        for (std::size_t j = 0; j < sm->per_point.size(); ++j) {
          EXPECT_EQ(sm->per_point[j].index, j);
          EXPECT_GE(sm->per_point[j].queue_wait_s, 0.0);
          EXPECT_GE(sm->per_point[j].run_s, 0.0);
        }
      }
    }
    EXPECT_EQ(report.passes[0].cache.builds, report.passes[1].cache.builds)
        << name << " built a different number of plans at threads=1 vs N";

    report.manifest = engine::trace::make_run_manifest(report.name);
    const auto path = engine::metrics_output_path(report.name);
    EXPECT_TRUE(report.write_json_file(path)) << "could not write " << path;
  }
}

// ---------------------------------------------------------------------
// Golden digest of the dense-E6 fit summary ("E6d fit summary", the
// last artifact of the e6d emitter): mechanism constants, mean
// relative errors, and the measured-vs-fitted argmin verdicts for
// every m. Pins the whole dense sweep + least-squares pipeline.
// ---------------------------------------------------------------------

TEST(GoldenDigest, E6DenseFitSummaryStable) {
  auto artifacts = run_emitter(tables::find_emitter("e6d"), 1, nullptr);
  ASSERT_EQ(artifacts.size(), 4u);
  const auto& fit = artifacts.back().table;
  EXPECT_NE(fit.title().find("fit summary"), std::string::npos);
  constexpr std::uint64_t kE6dFitGolden = 0xf0e7f309f26f7179ULL;
  EXPECT_EQ(fit.digest(), kE6dFitGolden)
      << "E6d fit summary changed; new digest: 0x" << std::hex << fit.digest()
      << "\nrendered:\n"
      << fit.to_string();
}

// ---------------------------------------------------------------------
// Golden digest of the calibration training table (CAL-a): pins the
// training grid itself (rows = grid points, in order) along with every
// measured slowdown and fitted prediction — so a grid change is a
// deliberate act that re-records this constant (and the holdout note
// in EXPERIMENTS.md).
// ---------------------------------------------------------------------

TEST(GoldenDigest, CalibrationTrainingTableStable) {
  // CAL-a..c plus the per-mechanism CAL-d/CAL-e decomposition tables;
  // only the training table (CAL-a) is digest-pinned.
  auto artifacts = run_emitter(tables::find_emitter("cal"), 1, nullptr);
  ASSERT_EQ(artifacts.size(), 5u);
  const auto& train = artifacts[0].table;
  constexpr std::uint64_t kCalAGolden = 0xb8883e89112d030fULL;
  EXPECT_EQ(train.digest(), kCalAGolden)
      << "CAL-a table changed; new digest: 0x" << std::hex << train.digest()
      << "\nrendered:\n"
      << train.to_string();
}
