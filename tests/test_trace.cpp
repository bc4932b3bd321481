// engine::trace property tests.
//
// The central contract: the *set* of spans in the deterministic
// categories (everything except Cat::kTask) is a pure function of the
// executed work — identical names, labels, args, and counts at every
// pool size. Timestamps and thread assignment are
// scheduling noise; identity is compared through sorted signatures and
// the order-independent digest, never through timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"
#include "engine/sweep.hpp"
#include "engine/trace.hpp"
#include "sep/executor.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
namespace trace = bsmp::engine::trace;

namespace {

machine::MachineSpec spec(int d, int64_t n, int64_t p, int64_t m) {
  return machine::MachineSpec{d, n, p, m};
}

/// One span's scheduling-independent identity.
using Sig = std::tuple<int, std::string, char, std::int64_t, std::int64_t,
                       std::string>;

/// Sorted signature multiset of the deterministic categories.
std::vector<Sig> deterministic_signature() {
  std::vector<Sig> sig;
  for (const trace::SpanRec& e : trace::snapshot()) {
    if (e.cat == trace::Cat::kTask) continue;
    sig.emplace_back(static_cast<int>(e.cat), e.name, e.ph, e.a0, e.a1,
                     e.detail);
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

bool has_span(const std::vector<Sig>& sig, const char* name) {
  return std::any_of(sig.begin(), sig.end(), [&](const Sig& s) {
    return std::get<1>(s) == name;
  });
}

/// The traced workload: a two-point sweep over a shared PlanCache
/// (sweep / sweep-point / plan-build spans), one point running the
/// divide-and-conquer uniprocessor (dc-tile, sep-region, sep-leaf,
/// staging-prune), the other the multiprocessor driver (machine-tile,
/// regime2-*). Everything it computes is deterministic, so the
/// recorded deterministic span set must be too.
void run_workload(int threads) {
  engine::Pool pool(threads);
  engine::PlanCache plans;
  engine::SweepOptions opt;
  opt.plans = &plans;
  opt.label = "trace workload";
  engine::PlanKey key;
  key.d = 1;
  key.family = engine::PlanFamily::kGuest;
  key.width = 32;
  key.horizon = 32;
  key.m = 2;
  auto rows = engine::sweep_map<int>(
      pool, std::vector<int>{0, 1},
      [&](int point, engine::SweepContext& c) {
        auto g = c.plans->get_or_build<sep::Guest<1>>(key, [] {
          return workload::make_mix_guest<1>({32}, 32, 2, 9);
        });
        if (point == 0) {
          auto res = sim::simulate_dc_uniproc<1>(*g, spec(1, 32, 1, 2));
          return static_cast<int>(res.vertices & 0x7fffffff);
        }
        sim::MultiprocConfig cfg;
        cfg.s = 4;
        auto res = sim::simulate_multiproc<1>(*g, spec(1, 32, 4, 2), cfg);
        return static_cast<int>(res.vertices & 0x7fffffff);
      },
      opt);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], rows[1]) << "both points execute the same guest";
}

/// Run the workload on a pool of `threads` with a clean recorder and
/// return the deterministic signature.
std::vector<Sig> traced_signature(int threads) {
  trace::clear();
  trace::set_enabled(true);
  run_workload(threads);
  trace::set_enabled(false);
  return deterministic_signature();
}

}  // namespace

TEST(TraceUnits, DisabledRecorderRecordsNothing) {
  if (!trace::compiled()) GTEST_SKIP() << "BSMP_TRACE compiled out";
  trace::clear();
  trace::set_enabled(false);
  {
    trace::Span s(trace::Cat::kSim, "should-not-appear", 1, 2);
    trace::instant(trace::Cat::kSim, "nor-this");
  }
  EXPECT_EQ(trace::events_recorded(), 0u);
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(TraceDeterminism, SpanSetIdenticalAcrossPoolAndGrain) {
  if (!trace::compiled()) GTEST_SKIP() << "BSMP_TRACE compiled out";
  const std::vector<Sig> ref = traced_signature(1);
  ASSERT_FALSE(ref.empty());

  // Every execution layer shows up in the reference signature.
  for (const char* name :
       {"sweep", "sweep-point", "plan-build", "sep-region", "sep-leaf",
        "staging-prune", "dc-tile", "machine-tile", "regime1-relocate",
        "regime2-macro", "regime2-wave", "regime2-subtile"}) {
    EXPECT_TRUE(has_span(ref, name)) << "missing span: " << name;
  }

  for (int threads : {2, 4}) {
    EXPECT_EQ(traced_signature(threads), ref)
        << "deterministic span set moved at threads=" << threads;
  }
  trace::clear();
}

TEST(TraceDeterminism, DigestStableAcrossIdenticalRuns) {
  if (!trace::compiled()) GTEST_SKIP() << "BSMP_TRACE compiled out";
  trace::clear();
  trace::set_enabled(true);
  run_workload(1);
  trace::set_enabled(false);
  const std::uint64_t d1 = trace::digest();
  const std::uint64_t events = trace::events_recorded();
  EXPECT_GT(events, 0u);

  trace::clear();
  trace::set_enabled(true);
  run_workload(1);
  trace::set_enabled(false);
  EXPECT_EQ(trace::digest(), d1);
  EXPECT_EQ(trace::events_recorded(), events);
  trace::clear();
}

TEST(TraceFlush, ChromeJsonIsBalancedAndCarriesManifest) {
  if (!trace::compiled()) GTEST_SKIP() << "BSMP_TRACE compiled out";
  trace::clear();
  trace::set_enabled(true);
  run_workload(4);  // spawned sweep points record kTask spans
  trace::set_enabled(false);

  trace::RunManifest manifest = trace::make_run_manifest("trace_test");
  const std::string path = "trace_test_flush.json";
  manifest.trace_file = path;
  ASSERT_TRUE(trace::write_chrome_json(path, manifest));
  trace::clear();

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string body = ss.str();

  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = body.find(needle); pos != std::string::npos;
         pos = body.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"otherData\""), std::string::npos);
  EXPECT_NE(body.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(body.find("thread_name"), std::string::npos);
  const std::size_t begins = count("\"ph\": \"B\"");
  const std::size_t ends = count("\"ph\": \"E\"");
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends) << "unbalanced B/E events";
  // At least the four span categories the hot-path bench gate expects.
  for (const char* cat : {"task", "sep-region", "staging", "sweep-point"})
    EXPECT_NE(body.find(std::string("\"cat\": \"") + cat + "\""),
              std::string::npos)
        << "category missing from flushed trace: " << cat;
  std::remove(path.c_str());
}

// A malformed BSMP_TRACE is read on the first enabled() / set_enabled()
// call and throws there, like every other knob; the state stays unread
// so a later call re-reads the (fixed) variable. tests/CMakeLists.txt
// also runs this test in a child started with BSMP_TRACE=x, which
// shows the binary reaches main with that value set.
TEST(TraceKnob, MalformedValueThrows) {
#if BSMP_TRACE_ENABLED
  namespace td = trace::detail;
  const char* prev = std::getenv("BSMP_TRACE");
  const std::string saved_env = prev != nullptr ? prev : "";
  const std::uint8_t saved = td::g_state.load();

  ::setenv("BSMP_TRACE", "x", 1);
  td::g_state.store(td::kUnread);
  EXPECT_THROW(trace::enabled(), std::invalid_argument);
  EXPECT_EQ(td::g_state.load(), td::kUnread);
  EXPECT_THROW(trace::set_enabled(true), std::invalid_argument);
  EXPECT_EQ(td::g_state.load(), td::kUnread);

  ::setenv("BSMP_TRACE", "on", 1);
  EXPECT_TRUE(trace::enabled());
  td::g_state.store(td::kUnread);
  ::setenv("BSMP_TRACE", "off", 1);
  trace::set_enabled(true);
  EXPECT_TRUE(trace::enabled());

  if (prev != nullptr)
    ::setenv("BSMP_TRACE", saved_env.c_str(), 1);
  else
    ::unsetenv("BSMP_TRACE");
  td::g_state.store(saved);
#else
  GTEST_SKIP() << "BSMP_TRACE compiled out";
#endif
}
