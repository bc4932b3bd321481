#include <gtest/gtest.h>

#include <cstdint>

#include "analytic/fit.hpp"
#include "core/args.hpp"
#include "core/stats.hpp"

using namespace bsmp::core;
namespace analytic = bsmp::analytic;

namespace {
Args parse(std::initializer_list<const char*> argv,
           std::vector<std::string> flags = {}) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data(), flags);
}
}  // namespace

TEST(Args, SeparateAndEqualsForms) {
  auto a = parse({"--n", "256", "--m=8"});
  EXPECT_EQ(a.get_int("n", 0), 256);
  EXPECT_EQ(a.get_int("m", 0), 8);
  EXPECT_EQ(a.get_int("p", 4), 4);  // fallback
}

TEST(Args, FlagsDoNotConsumeValues) {
  auto a = parse({"--csv", "--n", "7"}, {"csv"});
  EXPECT_TRUE(a.get_flag("csv"));
  EXPECT_EQ(a.get_int("n", 0), 7);
  EXPECT_FALSE(a.get_flag("verify"));
}

TEST(Args, StringsDoublesPositionalsUnknown) {
  auto a = parse({"--scheme", "dc", "--ratio", "2.5", "input.txt",
                  "--mystery"});
  EXPECT_EQ(a.get_string("scheme", ""), "dc");
  EXPECT_DOUBLE_EQ(a.get_double("ratio", 0.0), 2.5);
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  ASSERT_EQ(a.unknown().size(), 1u);
  EXPECT_EQ(a.unknown()[0], "mystery");
}

TEST(Args, TypeErrorsThrow) {
  auto a = parse({"--n", "abc"});
  EXPECT_THROW(a.get_int("n", 0), bsmp::precondition_error);
  auto b = parse({"--x", "1.5zz"});
  EXPECT_THROW(b.get_double("x", 0), bsmp::precondition_error);
  // Empty values and out-of-range numbers are errors too, not 0 or a
  // silently clamped extreme.
  auto c = parse({"--n=", "--r="});
  EXPECT_THROW(c.get_int("n", 7), bsmp::precondition_error);
  EXPECT_THROW(c.get_double("r", 7), bsmp::precondition_error);
  auto d = parse({"--n=99999999999999999999", "--m=-99999999999999999999",
                  "--r=1e999"});
  EXPECT_THROW(d.get_int("n", 0), bsmp::precondition_error);
  EXPECT_THROW(d.get_int("m", 0), bsmp::precondition_error);
  EXPECT_THROW(d.get_double("r", 0), bsmp::precondition_error);
  // The limits themselves still parse.
  auto e = parse({"--n=9223372036854775807", "--r=1e308"});
  EXPECT_EQ(e.get_int("n", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(e.get_double("r", 0), 1e308);
}

TEST(Args, HasDistinguishesPresence) {
  auto a = parse({"--n", "1"}, {"csv"});
  EXPECT_TRUE(a.has("n"));
  EXPECT_FALSE(a.has("csv"));
  auto b = parse({"--csv"}, {"csv"});
  EXPECT_TRUE(b.has("csv"));
}

TEST(Stats, MomentsAndExtremes) {
  RunningStats s;
  for (double v : {2.0, 8.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 14.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.geomean(), 4.0, 1e-12);  // (2*8*4)^(1/3)
  EXPECT_DOUBLE_EQ(s.spread(), 4.0);
}

TEST(Stats, EmptyAndNonFinite) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_THROW(s.add(std::nan("")), bsmp::precondition_error);
}

TEST(Fit, RecoversExactLinearCombination) {
  // y = 3*a + 0.5*b + 7*c exactly.
  std::vector<std::array<double, 3>> x;
  std::vector<double> y;
  for (double a = 1; a <= 5; ++a)
    for (double b = 1; b <= 2; ++b) {
      double c = a * b;
      x.push_back({a, b, c});
      y.push_back(3 * a + 0.5 * b + 7 * c);
    }
  auto coef = analytic::fit_least_squares<3>(x, y);
  EXPECT_NEAR(coef[0], 3.0, 1e-6);
  EXPECT_NEAR(coef[1], 0.5, 1e-6);
  EXPECT_NEAR(coef[2], 7.0, 1e-6);
  EXPECT_NEAR(analytic::fit_r2<3>(x, y, coef), 1.0, 1e-9);
}

TEST(Fit, ClampsNegativeCoefficients) {
  // y depends negatively on the second regressor; the fit must clamp
  // it to zero (mechanism constants are physically non-negative).
  std::vector<std::array<double, 2>> x;
  std::vector<double> y;
  for (double a = 1; a <= 8; ++a) {
    x.push_back({a, 9 - a});
    y.push_back(2 * a);
  }
  auto coef = analytic::fit_least_squares<2>(x, y);
  EXPECT_GE(coef[0], 0.0);
  EXPECT_GE(coef[1], 0.0);
}

TEST(Fit, RejectsUnderdeterminedInput) {
  std::vector<std::array<double, 3>> x = {{1, 2, 3}};
  std::vector<double> y = {1};
  EXPECT_THROW((analytic::fit_least_squares<3>(x, y)),
               bsmp::precondition_error);
}
