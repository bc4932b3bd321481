#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/cost.hpp"
#include "core/env.hpp"
#include "core/expect.hpp"
#include "core/logmath.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"

namespace core = bsmp::core;

TEST(Logbar, MatchesPaperDefinition) {
  // loḡ(a) = log2(a + 2), so loḡ(0) = 1 and loḡ(2) = 2.
  EXPECT_DOUBLE_EQ(core::logbar(0), 1.0);
  EXPECT_DOUBLE_EQ(core::logbar(2), 2.0);
  EXPECT_DOUBLE_EQ(core::logbar(6), 3.0);
}

TEST(Logbar, AtLeastOneEverywhere) {
  for (double a : {0.0, 0.25, 0.5, 1.0, 3.0, 1e6})
    EXPECT_GE(core::logbar(a), 1.0) << a;
}

TEST(Logbar, ClampsNegativeArguments) {
  EXPECT_DOUBLE_EQ(core::logbar(-5.0), 1.0);
}

TEST(IntMath, Ilog2) {
  EXPECT_EQ(core::ilog2_floor(1), 0);
  EXPECT_EQ(core::ilog2_floor(2), 1);
  EXPECT_EQ(core::ilog2_floor(3), 1);
  EXPECT_EQ(core::ilog2_floor(1024), 10);
  EXPECT_EQ(core::ilog2_ceil(1), 0);
  EXPECT_EQ(core::ilog2_ceil(3), 2);
  EXPECT_EQ(core::ilog2_ceil(1024), 10);
  EXPECT_EQ(core::ilog2_ceil(1025), 11);
  EXPECT_THROW(core::ilog2_floor(0), bsmp::precondition_error);
}

TEST(IntMath, Pow2Helpers) {
  EXPECT_TRUE(core::is_pow2(1));
  EXPECT_TRUE(core::is_pow2(64));
  EXPECT_FALSE(core::is_pow2(0));
  EXPECT_FALSE(core::is_pow2(48));
  EXPECT_EQ(core::ceil_pow2(48), 64u);
  EXPECT_EQ(core::ceil_pow2(64), 64u);
  EXPECT_EQ(core::floor_pow2(48), 32u);
}

TEST(IntMath, Isqrt) {
  EXPECT_EQ(core::isqrt(0), 0u);
  EXPECT_EQ(core::isqrt(1), 1u);
  EXPECT_EQ(core::isqrt(15), 3u);
  EXPECT_EQ(core::isqrt(16), 4u);
  EXPECT_EQ(core::isqrt(1ull << 40), 1ull << 20);
  for (std::uint64_t x = 0; x < 2000; ++x) {
    std::uint64_t r = core::isqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
  }
}

TEST(IntMath, IsSquare) {
  EXPECT_TRUE(core::is_square(0));
  EXPECT_TRUE(core::is_square(49));
  EXPECT_FALSE(core::is_square(50));
}

TEST(IntMath, FloorDivMod) {
  EXPECT_EQ(core::div_floor(7, 2), 3);
  EXPECT_EQ(core::div_floor(-7, 2), -4);
  EXPECT_EQ(core::div_ceil(7, 2), 4);
  EXPECT_EQ(core::div_ceil(-7, 2), -3);
  EXPECT_EQ(core::mod_floor(-7, 2), 1);
  EXPECT_EQ(core::mod_floor(7, 2), 1);
  for (std::int64_t a = -20; a <= 20; ++a)
    for (std::int64_t b : {1, 2, 3, 7}) {
      EXPECT_EQ(core::div_floor(a, b) * b + core::mod_floor(a, b), a);
      EXPECT_GE(core::mod_floor(a, b), 0);
      EXPECT_LT(core::mod_floor(a, b), b);
    }
}

TEST(IntMath, Ipow) {
  EXPECT_EQ(core::ipow(2, 10), 1024u);
  EXPECT_EQ(core::ipow(3, 0), 1u);
  EXPECT_EQ(core::ipow(10, 3), 1000u);
}

TEST(CostLedger, AccumulatesByKind) {
  core::CostLedger l;
  l.charge(core::CostKind::kCompute, 2.0);
  l.charge(core::CostKind::kCompute, 3.0, 4);
  l.charge(core::CostKind::kComm, 1.5);
  EXPECT_DOUBLE_EQ(l.total(), 6.5);
  EXPECT_DOUBLE_EQ(l.cost(core::CostKind::kCompute), 5.0);
  EXPECT_EQ(l.events(core::CostKind::kCompute), 5u);
  EXPECT_EQ(l.events(core::CostKind::kBlockMove), 0u);
}

TEST(CostLedger, MergeAndReset) {
  core::CostLedger a, b;
  a.charge(core::CostKind::kLocalAccess, 1.0);
  b.charge(core::CostKind::kLocalAccess, 2.0);
  b.charge(core::CostKind::kRearrange, 5.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.total(), 8.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total(), 0.0);
}

TEST(CostLedger, RejectsNegativeCharge) {
  core::CostLedger l;
  EXPECT_THROW(l.charge(core::CostKind::kCompute, -1.0),
               bsmp::precondition_error);
}

TEST(CostLedger, ReportMentionsKinds) {
  core::CostLedger l;
  l.charge(core::CostKind::kComm, 3.0);
  EXPECT_NE(l.report().find("comm"), std::string::npos);
}

TEST(Table, RendersAlignedRows) {
  core::Table t("demo", {"n", "value"});
  t.add_row({std::string("a"), 1.5});
  t.add_row({(long long)42, 2.0});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  core::Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), bsmp::precondition_error);
}

TEST(Rng, DeterministicAndSpread) {
  core::SplitMix64 r1(42), r2(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r1.next(), r2.next());
  core::SplitMix64 r(7);
  int buckets[8] = {0};
  for (int i = 0; i < 8000; ++i) ++buckets[r.next_below(8)];
  for (int b = 0; b < 8; ++b) EXPECT_GT(buckets[b], 700);
  for (int i = 0; i < 100; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Table, CsvOutput) {
  core::Table t("demo", {"name", "v"});
  t.add_row({std::string("a,b"), 1.5});
  t.add_row({(long long)7, 2.0});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,v\na;b,1.5\n7,2\n");
}

TEST(EnvKnobs, ParseBoolAcceptsTheSixSpellings) {
  for (const char* off : {"0", "off", "false", "OFF", "False"})
    EXPECT_EQ(core::parse_bool(off), std::optional<bool>(false)) << off;
  for (const char* on : {"1", "on", "true", "ON", "True"})
    EXPECT_EQ(core::parse_bool(on), std::optional<bool>(true)) << on;
  for (const char* bad :
       {"", "2", "yes", "no", "scalar", " 1", "on ", "offf", "00", "-1"})
    EXPECT_EQ(core::parse_bool(bad), std::nullopt) << '"' << bad << '"';
}

TEST(EnvKnobs, ParseIntIsWholeAndInRange) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(core::parse_int("0", lo), 0);
  EXPECT_EQ(core::parse_int("42", lo), 42);
  EXPECT_EQ(core::parse_int("-7", lo), -7);
  EXPECT_EQ(core::parse_int("9223372036854775807", lo), core::kInt64Max);
  for (const char* bad :
       {"", "4x", "abc", " 4", "4 ", "+4", "0x10", "1e3", "4.0",
        "9223372036854775808", "-"})
    EXPECT_EQ(core::parse_int(bad, lo), std::nullopt) << '"' << bad << '"';
  EXPECT_EQ(core::parse_int("-1", 0), std::nullopt);
  EXPECT_EQ(core::parse_int("1023", 1024), std::nullopt);
  EXPECT_EQ(core::parse_int("1024", 1024), 1024);
  EXPECT_EQ(core::parse_int("11", 0, 10), std::nullopt);
}

TEST(EnvKnobs, MalformedValueThrowsWithTheVariableName) {
  const char* name = "BSMP_TEST_ENV_KNOB";
  ::unsetenv(name);
  EXPECT_TRUE(core::env_bool(name, true));
  EXPECT_EQ(core::env_int(name, 17), 17);
  ::setenv(name, "", 1);  // empty behaves as unset
  EXPECT_FALSE(core::env_bool(name, false));
  EXPECT_EQ(core::env_int(name, 17), 17);
  ::setenv(name, "off", 1);
  EXPECT_FALSE(core::env_bool(name, true));
  ::setenv(name, "8", 1);
  EXPECT_EQ(core::env_int(name, 0), 8);
  for (const char* bad : {"4x", "abc", "-1"}) {
    ::setenv(name, bad, 1);
    try {
      core::env_int(name, 0);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  ::setenv(name, "scalar", 1);
  EXPECT_THROW(core::env_bool(name, true), std::invalid_argument);
  ::unsetenv(name);
}
