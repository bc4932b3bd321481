// engine::Metrics — the observability layer: per-point timings
// recorded by Sweep::run, PlanCache build accounting, and the
// metrics_*.json serialization schema.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"
#include "engine/sweep.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "sim/naive.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

namespace {

std::vector<int> iota_points(int n) {
  std::vector<int> pts(n);
  for (int i = 0; i < n; ++i) pts[i] = i;
  return pts;
}

}  // namespace

TEST(Metrics, SweepRecordsOneSweepMetricWithPerPointTimings) {
  engine::Pool pool(2);
  engine::Metrics metrics;
  engine::SweepOptions opt;
  opt.metrics = &metrics;
  opt.label = "unit sweep";
  auto points = iota_points(16);
  auto rows = engine::sweep_map<int>(
      pool, points, [](int v, engine::SweepContext&) { return v * v; }, opt);
  ASSERT_EQ(rows.size(), 16u);

  auto sweeps = metrics.snapshot();
  ASSERT_EQ(sweeps.size(), 1u);
  const auto& sm = sweeps[0];
  EXPECT_EQ(sm.label, "unit sweep");
  EXPECT_EQ(sm.points, 16u);
  EXPECT_EQ(sm.pool_threads, 2);
  EXPECT_GE(sm.wall_s, 0.0);
  ASSERT_EQ(sm.per_point.size(), 16u);
  for (std::size_t i = 0; i < sm.per_point.size(); ++i) {
    // Slots are written at the point's index: point order regardless
    // of which thread ran what.
    EXPECT_EQ(sm.per_point[i].index, i);
    EXPECT_GE(sm.per_point[i].queue_wait_s, 0.0);
    EXPECT_GE(sm.per_point[i].run_s, 0.0);
  }
  EXPECT_GE(sm.busy_s(), 0.0);
  EXPECT_GE(sm.occupancy(), 0.0);
}

TEST(Metrics, NoSinkMeansNoRecording) {
  engine::Pool pool(1);
  engine::SweepOptions opt;  // metrics == nullptr
  auto rows = engine::sweep_map<int>(
      pool, iota_points(4), [](int v, engine::SweepContext&) { return v; },
      opt);
  EXPECT_EQ(rows.size(), 4u);  // nothing to observe, nothing crashed
}

TEST(Metrics, SnapshotAccumulatesAndClearResets) {
  engine::Pool pool(1);
  engine::Metrics metrics;
  engine::SweepOptions opt;
  opt.metrics = &metrics;
  for (int k = 0; k < 3; ++k) {
    opt.label = "sweep " + std::to_string(k);
    engine::sweep_map<int>(
        pool, iota_points(2), [](int v, engine::SweepContext&) { return v; },
        opt);
  }
  EXPECT_EQ(metrics.num_sweeps(), 3u);
  auto sweeps = metrics.snapshot();
  EXPECT_EQ(sweeps[0].label, "sweep 0");
  EXPECT_EQ(sweeps[2].label, "sweep 2");
  metrics.clear();
  EXPECT_EQ(metrics.num_sweeps(), 0u);
}

TEST(Metrics, OccupancyIsBusyOverWallTimesThreads) {
  engine::SweepMetric sm;
  sm.pool_threads = 4;
  sm.wall_s = 2.0;
  sm.per_point = {{0, 0.0, 1.0}, {1, 0.0, 3.0}};
  EXPECT_DOUBLE_EQ(sm.busy_s(), 4.0);
  EXPECT_DOUBLE_EQ(sm.occupancy(), 0.5);  // 4 / (2 * 4)
  sm.wall_s = 0.0;
  EXPECT_DOUBLE_EQ(sm.occupancy(), 0.0);  // degenerate, not a NaN
}

TEST(Metrics, ReportSpeedupIsFirstOverLastPass) {
  engine::MetricsReport report;
  EXPECT_DOUBLE_EQ(report.speedup(), 1.0);  // no passes
  report.passes.resize(1);
  report.passes[0].seconds = 4.0;
  EXPECT_DOUBLE_EQ(report.speedup(), 1.0);  // single pass
  report.passes.resize(2);
  report.passes[1].seconds = 2.0;
  EXPECT_DOUBLE_EQ(report.speedup(), 2.0);
}

namespace {

/// A fully-populated report exercising every serialized block.
engine::MetricsReport sample_report() {
  engine::MetricsReport report;
  report.name = "unit";
  report.manifest = engine::trace::make_run_manifest("unit");
  engine::MetricsPass pass;
  pass.threads = 2;
  pass.seconds = 1.5;
  pass.cache.hits = 7;
  pass.cache.misses = 3;
  pass.cache.builds = 3;
  engine::SweepMetric sm;
  sm.label = "sweep A";
  sm.points = 2;
  sm.pool_threads = 2;
  sm.wall_s = 1.0;
  sm.tasks.spawned = 5;
  sm.tasks.stolen = 2;
  sm.per_point = {{0, 0.0, 0.25}, {1, 0.125, 0.5}};
  pass.sweeps.push_back(sm);
  engine::HotPathMetric hm;
  hm.label = "hot A";
  hm.vertices = 1000;
  hm.seconds = 0.5;
  hm.peak_staging_words = 64;
  hm.staging_allocs = 4;
  pass.hot.push_back(hm);
  report.passes.push_back(pass);
  return report;
}

}  // namespace

TEST(Metrics, JsonSchemaContainsEveryStableField) {
  std::ostringstream os;
  sample_report().write_json(os);
  const std::string j = os.str();
  for (const char* key :
       {"\"schema\": \"bsmp-metrics-v6\"", "\"name\": \"unit\"",
        "\"speedup\"", "\"manifest\"", "\"git_sha\"", "\"build_type\"",
        "\"compiler\"", "\"hardware_threads\"", "\"num_cpus\"",
        "\"hostname\"", "\"simd_isa\"", "\"trace_compiled\"",
        "\"trace_enabled\"", "\"BSMP_TRACE\"", "\"BSMP_METRICS_DIR\"",
        "\"threads\": 2", "\"seconds\"", "\"hits\": 7", "\"misses\": 3",
        "\"builds\": 3", "\"hit_rate\"", "\"label\": \"sweep A\"",
        "\"points\": 2", "\"pool_threads\": 2", "\"wall_s\"", "\"busy_s\"",
        "\"occupancy\"", "\"per_point\"", "\"queue_wait_s\"", "\"run_s\"",
        "\"label\": \"hot A\"", "\"vertices\": 1000",
        "\"vertices_per_sec\": 2000", "\"peak_staging_words\": 64",
        "\"staging_allocs\": 4", "\"calibration_points\"", "\"park_ns\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key << "\n"
                                              << j;
  }
  // v5 drops the arena "mem" block and the cache residency fields, v6
  // the per-tasks "phases" split.
  for (const char* key :
       {"\"mem\"", "\"cold_allocs\"", "\"bytes\"", "\"phases\""}) {
    EXPECT_EQ(j.find(key), std::string::npos) << "dropped key " << key;
  }
}

// Structural compatibility with v1: every v1 field keeps its exact
// serialized name, so a consumer that indexes by key reads a v5
// artifact unchanged, and later versions only add keys on top of it.
TEST(Metrics, V2IsAStrictSupersetOfV1) {
  std::ostringstream os;
  sample_report().write_json(os);
  const std::string j = os.str();
  // The complete v1 key set, as pinned by this test before the v2
  // migration (schema marker aside).
  for (const char* key :
       {"\"name\"", "\"speedup\"", "\"passes\"", "\"threads\"",
        "\"seconds\"", "\"cache\"", "\"hits\"", "\"misses\"", "\"builds\"",
        "\"hit_rate\"", "\"tasks\"", "\"spawned\"", "\"inlined\"",
        "\"stolen\"", "\"steal_ops\"", "\"join_waits\"", "\"sweeps\"",
        "\"label\"", "\"points\"", "\"pool_threads\"", "\"wall_s\"",
        "\"busy_s\"", "\"occupancy\"", "\"per_point\"", "\"index\"",
        "\"queue_wait_s\"", "\"run_s\"", "\"hot\"", "\"vertices\"",
        "\"vertices_per_sec\"", "\"peak_staging_words\"",
        "\"staging_allocs\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "v1 field lost: " << key;
  }
  // Strict: the v2 manifest sits on top of the v1 keys.
  EXPECT_NE(j.find("\"manifest\""), std::string::npos) << j;
}

// Structural compatibility one schema later: every v2 field keeps its
// exact serialized name, and the v3 manifest additions
// (num_cpus/hostname/simd_isa) stay. The exceptions are v2's
// span-derived per-pass "histograms" block, which v4 drops together
// with v3's "attribution" block, and v2's arena "mem" block, cache
// residency fields and memory knobs, which v5 drops — so a pass holds
// exactly the remaining v1..v5 pass keys.
TEST(Metrics, V3IsAStrictSupersetOfV2) {
  std::ostringstream os;
  sample_report().write_json(os);
  const std::string j = os.str();
  // The v2 key set, as pinned by JsonSchemaContainsEveryStableField
  // before the v3 migration, less the blocks v4 and v5 dropped.
  for (const char* key :
       {"\"name\"", "\"speedup\"", "\"manifest\"", "\"git_sha\"",
        "\"build_type\"", "\"compiler\"", "\"hardware_threads\"",
        "\"trace_compiled\"", "\"trace_enabled\"", "\"BSMP_TRACE\"",
        "\"BSMP_METRICS_DIR\"", "\"threads\"", "\"seconds\"",
        "\"cache\"", "\"hits\"", "\"misses\"", "\"builds\"", "\"hit_rate\"",
        "\"sweeps\"", "\"label\"", "\"points\"", "\"pool_threads\"",
        "\"wall_s\"", "\"busy_s\"", "\"occupancy\"", "\"per_point\"",
        "\"queue_wait_s\"", "\"run_s\"", "\"hot\"", "\"vertices\"",
        "\"vertices_per_sec\"", "\"peak_staging_words\"",
        "\"staging_allocs\"", "\"lanes\"", "\"scenarios_per_sec\"",
        "\"simd_lanes\"",
        // v3 manifest additions
        "\"num_cpus\"", "\"hostname\"", "\"simd_isa\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "field lost: " << key;
  }
  EXPECT_EQ(j.find("\"histograms\""), std::string::npos) << j;
  EXPECT_EQ(j.find("\"attribution\""), std::string::npos) << j;
  EXPECT_EQ(j.find("\"mem\""), std::string::npos) << j;
  auto parsed = core::json::parse(j);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<std::string> pass_keys;
  for (const auto& member : parsed.value["passes"].items()[0].members())
    pass_keys.push_back(member.first);
  EXPECT_EQ(pass_keys,
            (std::vector<std::string>{"threads", "seconds", "cache", "tasks",
                                      "sweeps", "hot",
                                      "calibration_points"}));
}

// v4 calibration points: a per-pass array next to "hot", every sample
// field under its documented key; [] for passes that recorded none.
TEST(Metrics, V4CalibrationPointsAreAPassSiblingOfHot) {
  engine::MetricsReport report = sample_report();
  std::ostringstream empty;
  report.write_json(empty);
  EXPECT_NE(empty.str().find("\"calibration_points\": []"),
            std::string::npos)
      << empty.str();

  engine::CalibrationSample cs;
  cs.n = 128, cs.m = 4, cs.p = 4;
  cs.s = 8.0;
  cs.range = "range2";
  cs.holdout = true;
  cs.slowdown = 3.5;
  cs.slow_reloc = 0.5, cs.slow_exec = 2.5, cs.slow_comm = 0.5;
  cs.term_reloc = 1.0, cs.term_exec = 2.0, cs.term_comm = 0.25;
  report.passes[0].calibration.push_back(cs);
  std::ostringstream os;
  report.write_json(os);
  const std::string j = os.str();
  for (const char* key :
       {"\"n\": 128", "\"m\": 4", "\"p\": 4", "\"s\": 8",
        "\"range\": \"range2\"", "\"holdout\": 1", "\"slowdown\": 3.5",
        "\"slow_reloc\": 0.5", "\"slow_exec\": 2.5", "\"slow_comm\": 0.5",
        "\"term_reloc\": 1", "\"term_exec\": 2", "\"term_comm\": 0.25"}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key << "\n"
                                              << j;
  }
  auto parsed = core::json::parse(j);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& points =
      parsed.value["passes"].items()[0]["calibration_points"].items();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0]["range"].as_string(), "range2");
}

TEST(Metrics, HotPathRecordsAccumulateAndClear) {
  engine::Metrics metrics;
  engine::HotPathMetric h;
  h.label = "dc";
  h.vertices = 100;
  h.seconds = 0.25;
  metrics.record_hot(h);
  metrics.record_hot(h);
  auto snap = metrics.hot_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].label, "dc");
  EXPECT_DOUBLE_EQ(snap[0].vertices_per_sec(), 400.0);
  metrics.clear();
  EXPECT_TRUE(metrics.hot_snapshot().empty());
  // Too fast to time: throughput degrades to 0, never divides by zero.
  engine::HotPathMetric z;
  z.vertices = 5;
  EXPECT_DOUBLE_EQ(z.vertices_per_sec(), 0.0);
}

TEST(Metrics, JsonEscapesLabels) {
  engine::MetricsReport report;
  report.name = "quo\"te";
  std::ostringstream os;
  report.write_json(os);
  EXPECT_NE(os.str().find("\"quo\\\"te\""), std::string::npos) << os.str();
}

TEST(Metrics, WriteJsonFileReportsFailureWithoutThrowing) {
  engine::MetricsReport report;
  report.name = "unit";
  EXPECT_FALSE(report.write_json_file("/nonexistent-dir/metrics_unit.json"));
}

TEST(Metrics, CanonicalFilename) {
  EXPECT_EQ(engine::metrics_filename("e6d"), "metrics_e6d.json");
}

// All observability artifacts route through one env knob.
TEST(Metrics, OutputPathsHonorMetricsDirKnob) {
  const char* saved = std::getenv("BSMP_METRICS_DIR");
  const std::string restore = saved != nullptr ? saved : "";

  ::unsetenv("BSMP_METRICS_DIR");
  EXPECT_EQ(engine::metrics_dir(), "metrics");
  EXPECT_EQ(engine::metrics_output_path("hot"), "metrics/metrics_hot.json");
  EXPECT_EQ(engine::trace_output_path("hot"), "metrics/trace_hot.json");

  ::setenv("BSMP_METRICS_DIR", "/tmp/bsmp-art", 1);
  EXPECT_EQ(engine::metrics_dir(), "/tmp/bsmp-art");
  EXPECT_EQ(engine::metrics_output_path("e5"),
            "/tmp/bsmp-art/metrics_e5.json");
  EXPECT_EQ(engine::trace_output_path("e5"), "/tmp/bsmp-art/trace_e5.json");

  if (saved != nullptr)
    ::setenv("BSMP_METRICS_DIR", restore.c_str(), 1);
  else
    ::unsetenv("BSMP_METRICS_DIR");
}

// Every simulator's opt-in hot-path section: one HotPathMetric per
// run, covering all executed vertices, and no recording (or change in
// results) when no sink is attached.
TEST(Metrics, SimulatorsRecordOneHotSectionPerRun) {
  constexpr std::int64_t n = 16, T = 16, m = 2;
  auto g = workload::make_mix_guest<1>({n}, T, m, 3);
  machine::MachineSpec uni;
  uni.d = 1, uni.n = n, uni.p = 1, uni.m = m;
  machine::MachineSpec multi = uni;
  multi.p = 4;

  engine::Metrics metrics;
  sim::DcConfig dcfg;
  dcfg.metrics = &metrics;
  auto dc = sim::simulate_dc_uniproc<1>(g, uni, dcfg);
  sim::MultiprocConfig mcfg;
  mcfg.metrics = &metrics;
  mcfg.hot_label = "mp16";
  auto mp = sim::simulate_multiproc<1>(g, multi, mcfg);
  sim::NaiveConfig ncfg;
  ncfg.metrics = &metrics;
  auto nv = sim::simulate_naive<1>(g, uni, ncfg);

  auto hot = metrics.hot_snapshot();
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0].label, "dc_uniproc");
  EXPECT_EQ(hot[1].label, "mp16");  // hot_label overrides the default
  EXPECT_EQ(hot[2].label, "naive");
  for (const auto& h : hot) {
    EXPECT_EQ(h.vertices, n * T) << h.label;
    EXPECT_GE(h.seconds, 0.0) << h.label;
    EXPECT_GT(h.peak_staging_words, 0u) << h.label;
    EXPECT_GT(h.staging_allocs, 0u) << h.label;
  }

  // The sink is write-only observability: identical results without it.
  auto dc0 = sim::simulate_dc_uniproc<1>(g, uni);
  EXPECT_EQ(dc.time, dc0.time);
  EXPECT_TRUE(sim::same_values<1>(dc.final_values, dc0.final_values));
  EXPECT_TRUE(sim::same_values<1>(dc.final_values, mp.final_values));
  EXPECT_TRUE(sim::same_values<1>(dc.final_values, nv.final_values));
}

TEST(PlanCacheBuilds, BuilderInvocationsAreCountedOncePerKey) {
  engine::PlanCache cache;
  engine::PlanKey key;
  key.width = 7;
  int built = 0;
  auto build = [&] {
    ++built;
    return 42;
  };
  auto a = cache.get_or_build<int>(key, build);
  auto b = cache.get_or_build<int>(key, build);
  EXPECT_EQ(*a, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(built, 1);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.builds, 1u);
}

TEST(PlanCacheBuilds, LookupMissDoesNotBuildAndClearResets) {
  engine::PlanCache cache;
  engine::PlanKey key;
  key.width = 9;
  EXPECT_EQ(cache.lookup<int>(key), nullptr);
  EXPECT_EQ(cache.stats().builds, 0u);
  cache.get_or_build<int>(key, [] { return 1; });
  EXPECT_EQ(cache.stats().builds, 1u);
  cache.clear();
  auto stats = cache.stats();
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.lookups(), 0u);
}

TEST(PlanCacheBuilds, FailedBuildIsRetriedAndCountedAgain) {
  engine::PlanCache cache;
  engine::PlanKey key;
  key.width = 11;
  int attempts = 0;
  EXPECT_THROW(cache.get_or_build<int>(key,
                                       [&]() -> int {
                                         ++attempts;
                                         throw std::runtime_error("boom");
                                       }),
               std::runtime_error);
  auto v = cache.get_or_build<int>(key, [&] {
    ++attempts;
    return 5;
  });
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(attempts, 2);
  // Both builder invocations ran: a failed build never poisons the
  // key, and the retry is accounted as a second build.
  EXPECT_EQ(cache.stats().builds, 2u);
}
