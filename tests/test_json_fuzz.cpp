// Seeded mutation fuzzing of the JSON reader and the bsmp-stat CLI.
//
// Seeds are the committed bench/BENCH_*.json baselines and a metrics
// report written by engine::MetricsReport. Each case mutates one seed
// (byte flips, truncations, insertions, deep nesting) with a fixed
// SplitMix64 stream, so every run checks the same inputs:
//   * core::json::parse returns, either ok or with a non-empty error;
//   * bsmp-stat show and fit exit 0 or 2; diff, with or without
//     bench/tolerances.json, exits 0 or 2, or 1 when the mutant still
//     parsed (a mutated number or a changed pass/sweep structure is a
//     regression). Nothing may throw or crash.
// Run it under the sanitizers to turn a memory error into a failure.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "engine/metrics.hpp"
#include "stat/bsmp_stat.hpp"

using namespace bsmp;
namespace json = bsmp::core::json;

namespace {

constexpr std::uint64_t kSeed = 20261018;
constexpr int kCasesPerSeed = 600;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

// One directory per test case: ctest runs the cases as parallel
// processes.
std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "bsmp_json_fuzz_" + info->name();
  ::mkdir(dir.c_str(), 0755);
  return dir + "/" + name;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary);
  f << body;
}

/// A metrics report with every block the reader walks: two passes,
/// cache and task counters, a sweep with per-point rows, a hot section
/// and enough calibration points for `fit`.
std::string metrics_fixture() {
  engine::MetricsReport report;
  report.name = "fuzz";
  report.manifest = engine::trace::make_run_manifest("fuzz");
  for (int threads : {1, 4}) {
    engine::MetricsPass pass;
    pass.threads = threads;
    pass.seconds = 2.0 / threads;
    pass.tasks.spawned = 12;
    pass.tasks.park_ns = 3000;
    engine::SweepMetric sw;
    sw.label = "grid";
    sw.points = 2;
    sw.pool_threads = threads;
    sw.wall_s = 0.5;
    sw.per_point.resize(2);
    pass.sweeps.push_back(sw);
    engine::HotPathMetric h;
    h.label = "multiproc";
    h.vertices = 4096;
    h.seconds = 0.01;
    pass.hot.push_back(h);
    for (int n : {64, 128, 256, 512}) {
      engine::CalibrationSample cs;
      cs.n = n, cs.m = 4, cs.p = 4;
      cs.range = "range2";
      cs.holdout = n == 512;
      cs.slow_reloc = 0.01 * n;
      cs.slow_exec = 2.0;
      cs.slow_comm = 0.4;
      cs.slowdown = cs.slow_reloc + cs.slow_exec + cs.slow_comm;
      pass.calibration.push_back(cs);
    }
    report.passes.push_back(pass);
  }
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

/// One mutation of `doc`, picked by `rng`.
std::string mutate(std::string doc, core::SplitMix64& rng) {
  static const char kTokens[] = "{}[]\":,-+.0123456789eEtrufalsn\\ \n";
  auto pos = [&] { return rng.next_below(doc.size() + 1); };
  auto byte = [&]() -> char {
    return rng.next_below(4) == 0
               ? static_cast<char>(rng.next_below(256))
               : kTokens[rng.next_below(sizeof kTokens - 1)];
  };
  switch (rng.next_below(5)) {
    case 0: {  // flip a few bytes
      const int k = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < k && !doc.empty(); ++i)
        doc[rng.next_below(doc.size())] = byte();
      break;
    }
    case 1:  // truncate
      doc.resize(pos());
      break;
    case 2: {  // insert a few bytes
      const int k = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < k; ++i) doc.insert(pos(), 1, byte());
      break;
    }
    case 3: {  // nest deep, up to past the reader's cap
      const std::size_t depth = 1 + rng.next_below(1200);
      const char open = rng.next_below(2) == 0 ? '[' : '{';
      doc.insert(pos(), depth, open);
      break;
    }
    default: {  // delete a span
      const std::size_t at = rng.next_below(doc.size() + 1);
      doc.erase(at, rng.next_below(64));
      break;
    }
  }
  return doc;
}

int cli(std::vector<std::string> args) {
  std::vector<const char*> argv = {"bsmp-stat"};
  for (const auto& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  return stat::run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
}

/// Fuzz one seed document stored at `base_path` (the diff baseline).
void fuzz_seed(const std::string& seed_doc, const std::string& base_path,
               std::uint64_t stream) {
  core::SplitMix64 rng(kSeed ^ stream);
  const std::string tolerances = std::string(BSMP_BENCH_DIR) +
                                 "/tolerances.json";
  const std::string mut_path = temp_path("mutant.json");
  std::set<int> codes;
  int parsed = 0;
  for (int i = 0; i < kCasesPerSeed; ++i) {
    const std::string doc = mutate(seed_doc, rng);
    const std::string what = base_path + " case " + std::to_string(i);
    json::Parsed p;
    ASSERT_NO_THROW(p = json::parse(doc)) << what;
    if (p.ok)
      ++parsed;
    else
      EXPECT_FALSE(p.error.empty()) << what;

    write_file(mut_path, doc);
    int show = -1, diff = -1, rdiff = -1, gated = -1, fit = -1;
    ASSERT_NO_THROW(show = cli({"show", mut_path})) << what;
    ASSERT_NO_THROW(diff = cli({"diff", base_path, mut_path})) << what;
    ASSERT_NO_THROW(rdiff = cli({"diff", mut_path, base_path})) << what;
    ASSERT_NO_THROW(gated = cli({"diff", "--tolerances", tolerances,
                                 base_path, mut_path}))
        << what;
    ASSERT_NO_THROW(fit = cli({"fit", mut_path})) << what;
    for (int code : {show, fit})
      EXPECT_TRUE(code == stat::kExitOk || code == stat::kExitUsage)
          << what << ": exit " << code;
    for (int code : {diff, rdiff, gated})
      EXPECT_TRUE(code == stat::kExitOk || code == stat::kExitUsage ||
                  (p.ok && code == stat::kExitRegression))
          << what << ": exit " << code;
    codes.insert(show);
  }
  // The mutations must exercise both sides: some inputs still parse
  // and show, some are refused.
  EXPECT_GT(parsed, 0) << base_path;
  EXPECT_LT(parsed, kCasesPerSeed) << base_path;
  EXPECT_EQ(codes, (std::set<int>{stat::kExitOk, stat::kExitUsage}))
      << base_path;
}

}  // namespace

TEST(JsonFuzz, CommittedBenchBaselinesSurviveMutation) {
  std::uint64_t stream = 1;
  for (const char* name :
       {"BENCH_exec_batch.json", "BENCH_exec_hotpath.json"}) {
    const std::string path = std::string(BSMP_BENCH_DIR) + "/" + name;
    const std::string doc = read_file(path);
    ASSERT_TRUE(json::parse(doc).ok) << path;
    fuzz_seed(doc, path, stream++);
  }
}

TEST(JsonFuzz, MetricsReportSurvivesMutation) {
  const std::string doc = metrics_fixture();
  ASSERT_TRUE(json::parse(doc).ok);
  const std::string path = temp_path("metrics_base.json");
  write_file(path, doc);
  ASSERT_EQ(cli({"fit", path}), stat::kExitOk);
  fuzz_seed(doc, path, 99);
}
